"""Exit codes, output formats, determinism, replay, flag precedence."""

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import weakref

import pytest

from polylogp import coleman, matrix
from polylogp.cli import KNOBS, build_parser, main
from polylogp.matrix import CHECKS, DEFAULT_SEED, run_matrix
from polylogp.power_series import TruncSeries
from polylogp.report import text_summary, to_json

from test_power_series import _refuted_degrees
from test_rng import deadline

# sha256 of the canonical JSON of run_matrix(name, seed=DEFAULT_SEED)
SMALL_MATRIX_SHA256 = "17bbda0f7cfc9ead04e08de0493832471c884c17faf0397865408ecf45018b64"
FULL_MATRIX_SHA256 = "5300e61c096fbe5e39038ad241d7b7fc6a9a5b914d9704d785face6f96cccb21"


THEOREM_RECORD = {
    "params": {"p": 5, "n": 2},
    "perSample": [{"index": 0, "zbar": [2], "pass": True, "w": {
        "p": 5, "k": 1, "A": 6, "scale": 0, "coeffs": [3], "prec": 6,
        "exactZero": False}}],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_passing_check_exits_zero(capsys):
    code, out, _ = run(
        capsys, "verify", "theorem", "--p", "5", "--n", "2",
        "--samples", "4", "--seed", "42", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] and report["command"] == "theorem"
    assert report["ctx"]["hbar"] == [0, 1]


def test_config_error_exits_two(capsys):
    code, _, err = run(capsys, "verify", "theorem", "--p", "5", "--n", "4")
    assert code == 2
    assert "p > n+1" in err


def test_invalid_prime_exits_two(capsys):
    code, _, err = run(capsys, "verify", "proposition1", "--p", "9", "--n", "1",
                       "--samples", "2")
    assert code == 2


def test_verification_failure_exits_one(capsys):
    # the stated inversion identity fails on F_25: deterministic exit 1
    code, out, _ = run(capsys, "verify", "inversion", "--p", "5", "--k", "2",
                       "--ns", "2", "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert not report["pass"]
    assert report["perSample"][0]["frobeniusFormOk"]


def test_json_reports_are_byte_identical(capsys):
    argv = ["verify", "maincong", "--p", "5", "--n", "2", "--samples", "5",
            "--seed", "7", "--format", "json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_replay_round_trip(tmp_path, capsys):
    code, out, _ = run(
        capsys, "verify", "theorem", "--p", "7", "--n", "2", "--k", "2",
        "--samples", "4", "--seed", "3", "--format", "json",
    )
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(out)
    code2, out2, _ = run(
        capsys, "verify", "theorem", "--replay", str(path), "--format", "json",
    )
    assert code2 == 0
    original = json.loads(out)
    replayed = json.loads(out2)
    assert [r["lhsResidue"] for r in replayed["perSample"]] == [
        r["lhsResidue"] for r in original["perSample"]
    ]


def test_replay_single_sample_record(tmp_path, capsys):
    code, out, _ = run(
        capsys, "verify", "maincong", "--p", "5", "--n", "2",
        "--samples", "3", "--seed", "8", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    blob = {"params": report["params"], "sample": report["perSample"][1]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(blob))
    code2, out2, _ = run(capsys, "verify", "maincong", "--replay", str(path),
                         "--format", "json")
    assert code2 == 0
    replayed = json.loads(out2)
    assert len(replayed["perSample"]) == 1
    assert replayed["perSample"][0]["lhsResidue"] == \
        report["perSample"][1]["lhsResidue"]


def test_finite_table_csv(capsys):
    code, out, _ = run(capsys, "finite-table", "--p", "5", "--n", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "z,li"
    assert len(lines) == 6  # header + 5 field elements
    table = dict(line.split(",") for line in lines[1:])
    assert table["2"] == "4" and table["3"] == "3" and table["4"] == "4"


def test_finite_table_extension_field(capsys):
    code, out, _ = run(capsys, "finite-table", "--p", "5", "--k", "2", "--n", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 26
    assert all(":" in line.split(",")[0] for line in lines[1:])


def test_coeffs_output(capsys):
    code, out, _ = run(capsys, "coeffs", "--n", "3", "--p", "7")
    assert code == 0
    assert "-3 2 -1/2" in out
    assert "a mod 7: 4 2 3" in out


def test_coeffs_json(capsys):
    code, out, _ = run(capsys, "coeffs", "--n", "2", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["a"] == ["-2", "1"]
    assert blob["e"] == ["0", "-1", "-2"]


def test_coeffs_rejects_small_prime(capsys):
    code, _, err = run(capsys, "coeffs", "--n", "6", "--p", "7")
    assert code == 2


@pytest.mark.parametrize("n, p", [(3, 9), (2, 25), (3, 8), (3, 6), (2, 2), (2, 1)])
def test_coeffs_rejects_a_modulus_that_is_not_an_odd_prime(capsys, n, p):
    # a composite modulus once reduced mod 9 and mod 25 and exited 0
    code, out, err = run(capsys, "coeffs", "--n", str(n), "--p", str(p))
    assert (code, out) == (2, "")
    assert f"p must be an odd prime, got {p}" in err


def test_csv_projection_of_samples(capsys):
    code, out, _ = run(capsys, "verify", "proposition1", "--p", "5", "--n", "1",
                       "--samples", "3", "--seed", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert "index" in lines[0] and "param_p" in lines[0]


def test_small_matrix_passes(capsys):
    code, out, _ = run(capsys, "verify", "all", "--matrix", "small")
    assert code == 0
    assert "-> PASS" in out


def test_trace_emits_series_diagnostics(capsys):
    code, _, err = run(capsys, "verify", "theorem", "--p", "5", "--n", "2",
                       "--samples", "2", "--seed", "2", "--trace")
    assert code == 0
    assert "disc-series" in err


def test_replayed_report_keeps_its_seed(tmp_path, capsys):
    argv = ["verify", "theorem", "--p", "7", "--n", "2", "--samples", "4",
            "--seed", "5", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(out)
    code2, out2, _ = run(capsys, "verify", "theorem", "--replay", str(path),
                         "--format", "json")
    assert code2 == 0
    assert out2 == out


def test_seed_zero_is_recorded(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "theorem", "--p", "5", "--n", "2",
                       "--samples", "2", "--seed", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["params"]["seed"] == 0
    path = tmp_path / "report.json"
    path.write_text(out)
    # a replay runs from the replayed seed, so an explicit --seed is rejected
    code, _, err = run(capsys, "verify", "theorem", "--replay", str(path),
                       "--seed", "5", "--format", "json")
    assert code == 2
    assert "--seed cannot be combined with --replay" in err
    code, out2, _ = run(capsys, "verify", "theorem", "--replay", str(path),
                        "--format", "json")
    assert (code, out2) == (0, out)
    code, out, _ = run(capsys, "verify", "all", "--matrix", "small", "--seed", "0",
                       "--format", "json")
    assert json.loads(out)["params"]["seed"] == 0


def test_default_seed_is_recorded(capsys):
    code, out, _ = run(capsys, "verify", "proposition1", "--p", "5", "--n", "1",
                       "--samples", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["params"]["seed"] == DEFAULT_SEED


def test_large_precision_theorem_finishes(capsys):
    # A=17 once fell back to a 13^6-cell loop; A=18 made p^A pass 2^64
    for precision in ("17", "18"):
        with deadline(60):
            code, out, _ = run(capsys, "verify", "theorem", "--p", "13", "--n", "4",
                               "-A", precision, "--samples", "4", "--format", "json")
        assert code == 0, precision
        report = json.loads(out)
        assert report["pass"] and report["params"]["A"] == int(precision)


def _base_argv(spec) -> list:
    """Cheap valid arguments for a check: p, n and small sizes, where it takes them."""
    values = {"p": "7", "n": "2", "samples": "1", "count": "1", "ns": "2",
              "nmax": "4"}
    argv = ["verify", spec.name]
    for knob in spec.knobs:
        if knob in values:
            argv += [f"--{knob}", values[knob]]
    return argv


def _flag_cases():
    cases = [("funceq", "--order", "2"), ("e-recover", "--order", "2"),
             ("proposition1", "--order", "2"), ("f-lemmas", "--riemann-m", "3"),
             ("g-valuation", "--samples", "3"),
             ("g-valuation", "--replay", "/nonexistent")]
    cases += [(name, "--trace") for name in CHECKS if name != "theorem"]
    # every check, and the matrix, runs serially
    cases += [(name, "--jobs", "2") for name in (*CHECKS, "all")]
    return cases


@pytest.mark.parametrize("case", _flag_cases(), ids=" ".join)
def test_flag_a_check_does_not_take_exits_two(capsys, case):
    name, *flag = case
    argv = _base_argv(CHECKS[name]) if name in CHECKS else ["verify", name]
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(
        "unrecognized arguments: " + " ".join(flag))


@pytest.mark.parametrize("argv, message", [
    (("theorem", "--p", "5", "--n", "2", "--samples", "0"), "at least one sample"),
    (("proposition1", "--p", "5", "--n", "1", "--samples", "-1"), "at least one sample"),
    (("delprop", "--p", "7", "--n", "-1"), "delprop needs n >= 0"),
    (("f-lemmas", "--p", "7", "--n", "-1"), "f-lemmas needs n >= 0"),
    (("theorem", "--p", "5", "--n", "1"), "theorem needs n >= 2"),
    (("maincong", "--replay", "/nonexistent"), "No such file"),
    # a replay runs its records, so an explicit --samples would be ignored,
    # even one equal to the replayed count
    (("theorem", "--samples", "50", "--replay", THEOREM_RECORD),
     "--samples cannot be combined with --replay"),
    (("funceq", "--samples", "3", "--replay", THEOREM_RECORD),
     "--samples cannot be combined with --replay"),
    (("maincong", "--samples", "1", "--replay", THEOREM_RECORD),
     "--samples cannot be combined with --replay"),
    (("g-valuation", "--p", "7", "--n", "3", "--count", "0"),
     "g-valuation needs at least one residue, got 0"),
    (("g-valuation", "--p", "7", "--n", "3", "--count", "-2"),
     "g-valuation needs at least one residue, got -2"),
    # a theorem record has no wz, which f-lemmas samples
    (("f-lemmas", "--p", "5", "--n", "2", "--replay", THEOREM_RECORD),
     "replay record 0 lacks the field 'wz'"),
    (("theorem", "--p", "5", "--n", "2", "--replay", {"perSample": [{"index": 0}]}),
     "replay record 0 lacks the field 'zbar'"),
    # an order below 1 is rejected by every check that takes M
    (("theorem", "--p", "5", "--n", "2", "--samples", "2", "-M", "0"),
     "theorem needs a series order M >= 1, got M=0"),
    (("maincong", "--p", "5", "--n", "2", "--samples", "2", "-M", "0"),
     "maincong needs a series order M >= 1, got M=0"),
    (("g-valuation", "--p", "7", "--n", "3", "-M", "0"),
     "g-valuation needs a series order M >= 1, got M=0"),
    (("delprop", "--p", "7", "--n", "1", "--samples", "2", "-M", "0"),
     "delprop needs a series order M >= 1, got M=0"),
    (("f-lemmas", "--p", "5", "--n", "2", "--samples", "2", "--order", "-1"),
     "f-lemmas needs a series order M >= 1, got M=-1"),
    # malformed replay files
    (("theorem", "--p", "5", "--n", "2", "--replay", {"perSample": [5]}),
     "replay params and sample records must be JSON objects"),
    (("theorem", "--p", "5", "--n", "2", "--replay", {"perSample": 5}),
     "replay params and sample records must be JSON objects"),
    (("theorem", "--p", "5", "--n", "2", "--replay", 5),
     "replay file must contain a report"),
    (("theorem", "--p", "5", "--n", "2", "--replay", []),
     "replay file must contain a report"),
    # identities with no coefficient system to check
    (("identities", "--nmax", "1"), "identities needs --nmax >= 2, got 1"),
    (("identities", "--nmax", "-3"), "identities needs --nmax >= 2, got -3"),
    # inversion weights, as every other check rejects its weights
    (("inversion", "--p", "5", "--ns", "2,1"), "inversion needs n >= 2, got n=1"),
    # a replay runs from the replayed seed, so an explicit --seed would be
    # ignored by every check but the theorem's w-independence pair
    *[((name, "--seed", "99", "--replay", THEOREM_RECORD),
       "--seed cannot be combined with --replay")
      for name, spec in CHECKS.items() if "points" in spec.knobs],
    # a repeated weight would duplicate its records
    (("corollary", "--p", "5", "--ns", "1,1"), "corollary lists the weight 1 twice"),
    (("inversion", "--p", "5", "--k", "1", "--ns", "2,2"),
     "inversion lists the weight 2 twice"),
])
def test_invalid_configuration_exits_two(tmp_path, capsys, argv, message):
    argv = list(argv)
    if argv[-2] == "--replay" and not isinstance(argv[-1], str):  # the file's content
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(argv[-1]))
        argv[-1] = str(path)
    code, _, err = run(capsys, "verify", *argv)
    assert code == 2
    assert message in err


K2_W = {"p": 5, "k": 2, "A": 6, "scale": 0, "coeffs": [3, 1], "prec": 6,
        "exactZero": False}


@pytest.mark.parametrize("field, value, message", [
    ("w", {**K2_W, "coeffs": [3, 1, 4]}, "a p-adic value needs 2 integer coeffs"),
    ("w", {**K2_W, "coeffs": [3]}, "a p-adic value needs 2 integer coeffs"),
    ("w", {**K2_W, "coeffs": [3, "1"]}, "a p-adic value needs 2 integer coeffs"),
    ("w", {**K2_W, "prec": "6"}, "integer scale and prec"),
    ("w", 7, "a p-adic value must be a JSON object"),
    ("w", {**K2_W, "exactZero": "false"}, "exactZero must be true or false"),
    ("zbar", [2, "1"], "zbar must hold 2 integers"),
    ("zbar", [2], "zbar must hold 2 integers"),
])
def test_malformed_replay_value_exits_two(tmp_path, capsys, field, value, message):
    # a value of the wrong shape is neither truncated nor left to crash
    record = {"index": 4, "zbar": [2, 1], "w": K2_W, field: value}
    path = tmp_path / "replay.json"
    path.write_text(json.dumps({"params": {"p": 5, "n": 2, "k": 2},
                                "perSample": [record]}))
    code, _, err = run(capsys, "verify", "theorem", "--replay", str(path))
    assert code == 2
    assert "error: replay record 4: " in err and message in err


def test_well_formed_k2_replay_record_passes(tmp_path, capsys):
    path = tmp_path / "replay.json"
    path.write_text(json.dumps({"params": {"p": 5, "n": 2, "k": 2},
                                "perSample": [{"index": 4, "zbar": [2, 1], "w": K2_W}]}))
    code, out, _ = run(capsys, "verify", "theorem", "--replay", str(path),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["perSample"][0]["w"] == K2_W


@pytest.mark.parametrize("argv", [
    ("theorem", "--p", "5", "--n", "2", "-A", "1"),
    ("theorem", "--p", "7", "--n", "3", "-M", "1"),
])
def test_theorem_precision_shortfall_is_recorded_not_raised(capsys, argv):
    # the w-independence step runs after the samples and once raised from there
    code, out, _ = run(capsys, "verify", *argv, "--samples", "2", "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert "precisionShortfall" in report
    assert "wIndependence" not in report


@pytest.mark.parametrize("argv", [
    ("theorem", "--p", "7", "--n", "2", "--order", "20"),
    ("delprop", "--p", "7", "--n", "1", "--order", "14"),
])
def test_replay_restores_the_recorded_order(tmp_path, capsys, argv):
    code, out, _ = run(capsys, "verify", *argv, "--samples", "3", "--format", "json")
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(out)
    code2, out2, _ = run(capsys, "verify", argv[0], "--replay", str(path),
                         "--format", "json")
    assert code2 == 0
    assert out2 == out


def test_replay_keeps_an_explicit_maincong_order(tmp_path, capsys):
    # at order 2 two of the three samples run out of precision; the replay
    # once ran them at the default order and passed
    code, out, _ = run(capsys, "verify", "maincong", "--p", "5", "--n", "2",
                       "--order", "2", "--samples", "3", "--seed", "4",
                       "--format", "json")
    assert code == 1
    assert json.loads(out)["params"]["M"] == 2
    path = tmp_path / "report.json"
    path.write_text(out)
    code2, out2, _ = run(capsys, "verify", "maincong", "--replay", str(path),
                         "--format", "json")
    assert code2 == 1
    replayed = json.loads(out2)
    assert replayed["params"]["M"] == 2
    assert replayed["perSample"]
    assert all("precisionShortfall" in rec for rec in replayed["perSample"])


def test_g_valuation_records_an_explicit_order(capsys):
    # two runs at different orders once printed the same params
    params = {}
    for order in ("5", "60"):
        code, out, _ = run(capsys, "verify", "g-valuation", "--p", "7", "--n", "3",
                           "--count", "2", "-M", order, "--format", "json")
        assert code == 0
        params[order] = json.loads(out)["params"]
    assert params["5"]["M"] == 5 and params["60"]["M"] == 60
    assert params["5"] != params["60"]
    code, out, _ = run(capsys, "verify", "g-valuation", "--p", "7", "--n", "3",
                       "--count", "2", "--format", "json")
    assert code == 0
    assert "M" not in json.loads(out)["params"]


def _check_parsers() -> dict:
    """The ``verify <check>`` subparsers, by check name."""
    def subparsers(parser):
        return next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))

    return subparsers(subparsers(build_parser())["verify"])


def test_check_options_are_driver_parameters():
    # the flags of a check are its driver's keyword arguments, read from the
    # undecorated signature, and --format; jobs is not a flag (serial runs)
    parsers = _check_parsers()
    for spec in CHECKS.values():
        driver = getattr(spec.module, spec.driver)
        dests = {action.dest for action in parsers[spec.name]._actions
                 if action.dest != "help"}
        assert dests == set(inspect.signature(driver).parameters) - {"jobs"} | {"format"}, \
            spec.name


def test_each_flag_help_states_its_driver_default():
    # the help once said "default 20" samples for every check and A = n+4,
    # m = n+2 where delprop takes n+5 and n+3
    parsers = _check_parsers()
    for spec in CHECKS.values():
        helps = {action.dest: action.help for action in parsers[spec.name]._actions}
        for knob, default in spec.knobs.items():
            if isinstance(default, tuple):
                default = ",".join(map(str, default))
            if default is inspect.Parameter.empty:
                assert helps[knob].endswith("(required)"), (spec.name, knob)
            elif default is not None:
                assert helps[knob].endswith(f"(default {default})"), (spec.name, knob)
            elif knob in ("A", "m", "M"):
                assert "(default derived from" in helps[knob], (spec.name, knob)
            assert "n+" not in helps[knob], (spec.name, knob)


def _required_cases():
    for spec in CHECKS.values():
        driver = getattr(spec.module, spec.driver)
        for name, param in inspect.signature(driver).parameters.items():
            if param.default is inspect.Parameter.empty:
                yield spec.name, name


@pytest.mark.parametrize("name, knob", _required_cases())
def test_a_missing_required_knob_exits_two_and_names_its_flag(capsys, name, knob):
    argv = _base_argv(CHECKS[name])
    flag = argv.index(f"--{knob}")
    del argv[flag:flag + 2]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"missing required parameter --{knob}" in err


def _cell_argv(cell: dict) -> list:
    argv = []
    for knob, value in cell.items():
        value = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        argv += [KNOBS[knob][0][0], value]
    return argv


@pytest.fixture(scope="module")
def full_run():
    """One ``verify all --matrix full --format text`` run, which the tests
    below share: its aggregate report, its stdout, the series it evaluated,
    each measure-sum base and disc-series weight built (with the key of its
    evaluator), and the live evaluators at each progress callback."""
    run = {"series": {}, "bases": [], "weights": [], "held": []}
    live = weakref.WeakSet()
    Evaluator = coleman.PolylogEvaluator
    init, measure_base, g_series = Evaluator.__init__, Evaluator._measure_base, Evaluator.g_series
    eval_at, run_matrix_ = TruncSeries.eval_at, matrix.run_matrix

    def key(ev):
        return ev.ctx.p, ev.ctx.k, ev.ctx.A, ev.m, ev.series_order

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        live.add(self)

    def recording_measure_base(self, z):
        base = measure_base(self, z)
        run["bases"].append((key(self), frozenset(zi.coeffs for zi in base.orbit)))
        return base

    def recording_g_series(self, alpha, n):
        before = set(self._g.get(alpha.coeffs, ()))
        series = g_series(self, alpha, n)
        built = self._g[alpha.coeffs].keys() - before
        run["weights"] += [(key(self), alpha.coeffs, j) for j in built]
        return series

    def recording_eval_at(self, w, target):
        run["series"][id(self)] = self
        return eval_at(self, w, target)

    def recording_matrix(kind, seed, progress):
        def counted(rep):
            run["held"].append(len(live))
            progress(rep)

        run["aggregate"] = run_matrix_(kind, seed=seed, progress=counted)
        run["liveAfter"] = len(live)
        return run["aggregate"]

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()) as out:
        mp.setattr(Evaluator, "__init__", recording_init)
        mp.setattr(Evaluator, "_measure_base", recording_measure_base)
        mp.setattr(Evaluator, "g_series", recording_g_series)
        mp.setattr(TruncSeries, "eval_at", recording_eval_at)
        mp.setattr(matrix, "run_matrix", recording_matrix)
        run["code"] = main(["verify", "all", "--matrix", "full", "--format", "text"])
    run["stdout"] = out.getvalue()
    return run


def test_a_full_cell_alone_gives_its_matrix_report(capsys, full_run):
    # no --samples and no --seed: each takes the driver's default, which the
    # full matrix takes too
    reports = iter(full_run["aggregate"]["reports"])
    for spec in CHECKS.values():
        first = [next(reports) for _ in spec.full][0]
        code, out, _ = run(capsys, "verify", spec.name, *_cell_argv(spec.full[0]),
                           "--format", "json")
        assert out == to_json(first) + "\n", spec.name
        assert code == (0 if first["pass"] else 1), spec.name


def test_small_matrix_canonical_json_is_pinned():
    # a change to this digest changes the canonical output and must say so
    text = to_json(run_matrix("small", seed=DEFAULT_SEED))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SMALL_MATRIX_SHA256


def test_full_matrix_is_pinned_and_keeps_every_series_tail_bound(full_run):
    # the release gate's output, and no series it evaluates (disc series and
    # f-series) holds a stored coefficient that refutes its installed tail bound
    text = to_json(full_run["aggregate"])
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FULL_MATRIX_SHA256
    assert len(full_run["series"]) > 100
    refuted = [(s.ctx, j) for s in full_run["series"].values() for j in _refuted_degrees(s)]
    assert refuted == []


def test_full_matrix_streams_its_reports_in_run_order_and_keeps_table_order(full_run):
    # text streams one summary per cell as it finishes, grouped by (p, k, n),
    # a missing key read as 0; the aggregate, and so its json, keeps table order
    table = [(spec, cell) for spec in CHECKS.values() for cell in spec.full]
    reports = full_run["aggregate"]["reports"]
    assert len(reports) == len(table) == 128
    for rep, (spec, cell) in zip(reports, table):
        assert all(rep["params"][key] == cell[key] for key in ("p", "k", "n") if key in cell)
    order = sorted(range(len(table)), key=lambda i: [table[i][1].get(x, 0) for x in "pkn"])
    streamed = "".join(text_summary(reports[i]) + "\n" for i in order)
    assert full_run["stdout"].startswith(streamed)
    assert full_run["stdout"][len(streamed):].startswith("matrix=full reports=128 ")
    assert full_run["code"] == 1  # the inversion k = 2 cells fail by design


def test_full_matrix_builds_each_measure_sum_and_disc_series_once(full_run):
    # one weight-free measure base per (evaluator key, Frobenius orbit) and one
    # disc-series weight per (evaluator key, alpha): 1,918 and 2,291 builds
    # when every cell had its own evaluators
    assert len(full_run["bases"]) == len(set(full_run["bases"])) == 1637
    assert len(full_run["weights"]) == len(set(full_run["weights"])) == 1411


def test_full_matrix_holds_at_most_the_shared_slots(full_run):
    # the bound on what the shared memos keep: evaluators live only in the
    # slots between cells, and none outlives the run
    assert max(full_run["held"]) == coleman.SHARED_SLOTS
    assert full_run["liveAfter"] == 0
