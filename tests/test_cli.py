"""Exit codes, output formats, determinism, replay, env overrides."""

import hashlib
import inspect
import json

import pytest

from polylogp.cli import main
from polylogp.matrix import CHECKS, DEFAULT_SEED, run_matrix
from polylogp.report import to_json

from test_rng import deadline

# sha256 of the canonical JSON of run_matrix("small", seed=DEFAULT_SEED)
SMALL_MATRIX_SHA256 = "17bbda0f7cfc9ead04e08de0493832471c884c17faf0397865408ecf45018b64"


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


def test_env_var_precision_override(capsys, monkeypatch):
    monkeypatch.setenv("POLYLOGP_PRECISION", "9")
    code, out, _ = run(capsys, "verify", "maincong", "--p", "5", "--n", "2",
                       "--samples", "2", "--seed", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["params"]["A"] == 9


def test_jobs_flag_keeps_canonical_order_and_results(capsys):
    argv_base = ["verify", "theorem", "--p", "7", "--n", "2", "--samples", "6",
                 "--seed", "11", "--format", "json"]
    code1, out1, _ = run(capsys, *argv_base)
    code2, out2, _ = run(capsys, *argv_base, "--jobs", "4")
    assert code1 == code2 == 0
    assert out1 == out2


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
                       "--samples", "2", "--seed", "5", "--format", "json")
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(out)
    # an explicit --seed 0 wins over the replayed seed
    code, out, _ = run(capsys, "verify", "theorem", "--replay", str(path),
                       "--seed", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["params"]["seed"] == 0
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
             ("g-valuation", "--samples", "3"), ("g-valuation", "--jobs", "2"),
             ("g-valuation", "--replay", "/nonexistent")]
    cases += [(name, "--trace") for name in CHECKS if name != "theorem"]
    return cases


@pytest.mark.parametrize("case", _flag_cases(), ids=" ".join)
def test_flag_a_check_does_not_take_exits_two(capsys, case):
    name, *flag = case
    with pytest.raises(SystemExit) as exc:
        main(_base_argv(CHECKS[name]) + flag)
    assert exc.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(
        "unrecognized arguments: " + " ".join(flag))


@pytest.mark.parametrize("knob, env", [("A", "POLYLOGP_PRECISION"),
                                       ("m", "POLYLOGP_RIEMANN_M")])
@pytest.mark.parametrize("name", list(CHECKS))
def test_env_overrides_apply_to_every_check_that_takes_them(capsys, monkeypatch,
                                                            name, knob, env):
    # a check that does not take the knob runs as if the variable were unset
    spec = CHECKS[name]
    monkeypatch.setenv(env, "9" if knob == "A" else "5")
    code, out, _ = run(capsys, *_base_argv(spec), "--format", "json")
    assert code == 0
    params = json.loads(out)["params"]
    if knob in spec.knobs:
        assert params[knob] == (9 if knob == "A" else 5)
    else:
        assert params.get(knob) != (9 if knob == "A" else 5)


@pytest.mark.parametrize("argv, message", [
    (("theorem", "--p", "5", "--n", "2", "--samples", "0"), "at least one sample"),
    (("proposition1", "--p", "5", "--n", "1", "--samples", "-1"), "at least one sample"),
    (("delprop", "--p", "7", "--n", "-1"), "delprop needs n >= 0"),
    (("f-lemmas", "--p", "7", "--n", "-1"), "f-lemmas needs n >= 0"),
    (("theorem", "--p", "5", "--n", "1"), "theorem needs n >= 2"),
    (("maincong", "--replay", "/nonexistent"), "No such file"),
    (("theorem", "--p", "5", "--n", "2", "--samples", "2", "--jobs", "0"),
     "theorem needs --jobs >= 1, got 0"),
    (("theorem", "--p", "5", "--n", "2", "--samples", "2", "--jobs", "-3"),
     "theorem needs --jobs >= 1, got -3"),
    (("all", "--jobs", "0"), "needs --jobs >= 1, got 0"),
    (("g-valuation", "--p", "7", "--n", "3", "--count", "0"),
     "g-valuation needs at least one residue, got 0"),
    (("g-valuation", "--p", "7", "--n", "3", "--count", "-2"),
     "g-valuation needs at least one residue, got -2"),
    # a theorem record has no wz, which f-lemmas samples
    (("f-lemmas", "--p", "5", "--n", "2", "--replay", THEOREM_RECORD),
     "replay record 0 lacks the field 'wz'"),
    (("theorem", "--p", "5", "--n", "2", "--replay", {"perSample": [{"index": 0}]}),
     "replay record 0 lacks the field 'zbar'"),
])
def test_invalid_configuration_exits_two(tmp_path, capsys, argv, message):
    argv = list(argv)
    if isinstance(argv[-1], dict):  # the content of a replay file
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(argv[-1]))
        argv[-1] = str(path)
    code, _, err = run(capsys, "verify", *argv)
    assert code == 2
    assert message in err


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


def test_check_knobs_are_driver_parameters():
    for spec in CHECKS.values():
        driver = getattr(spec.module, spec.driver)
        assert set(spec.knobs) <= set(inspect.signature(driver).parameters), spec.name


def test_small_matrix_canonical_json_is_pinned():
    # a change to this digest changes the canonical output and must say so
    text = to_json(run_matrix("small", seed=DEFAULT_SEED))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SMALL_MATRIX_SHA256
