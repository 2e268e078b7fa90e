"""The one record loop, its precision guard, and the record contract."""

from fractions import Fraction

import pytest

from polylogp import matrix
from polylogp.coleman import PolylogEvaluator, check_corollary, check_g_valuations
from polylogp.matrix import CHECKS, inversion_check_report, run_matrix
from polylogp.padic_core import PrecisionError, UnramifiedCtx, WittApprox
from polylogp.report import (
    CHECK_DIGITS,
    ConfigError,
    agree,
    records,
    residue_record,
    value_record,
)

from test_rng import deadline


def test_records_number_items_and_merge_their_fields():
    def measure(a, b):
        return {"sum": a + b, "pass": a % 2 == 0}

    items = [({"n": n}, (n, n + 1)) for n in (4, 7, 9)]
    out = records(items, measure)
    assert out == [
        {"index": 0, "n": 4, "sum": 9, "pass": True},
        {"index": 1, "n": 7, "sum": 15, "pass": False},
        {"index": 2, "n": 9, "sum": 19, "pass": False},
    ]
    assert records([], measure) == []


def test_records_turn_a_precision_error_into_a_shortfall():
    def measure(n):
        if n == 2:
            raise PrecisionError("cannot certify")
        return {"pass": True}

    out = records([({"n": n}, (n,)) for n in (1, 2, 3)], measure)
    assert out[1] == {"index": 1, "n": 2, "precisionShortfall": "cannot certify",
                      "pass": False}
    assert [r["pass"] for r in out] == [True, False, True]
    with pytest.raises(ValueError):
        records([({}, ())], lambda: int("x"))


def test_the_two_comparisons():
    ctx = UnramifiedCtx(5, 2, 6)
    a = ctx.from_vec((7, 3))
    near, far = a + ctx.from_int(5**CHECK_DIGITS), a + ctx.from_int(5**(CHECK_DIGITS - 1))
    assert agree(a, near) and not agree(a, far)
    with pytest.raises(PrecisionError):
        agree(ctx.zero_approx(CHECK_DIGITS - 1), ctx.exact_zero())
    assert value_record(a, near) == {"lhs": a.to_record(), "rhs": near.to_record(),
                                     "pass": True}
    assert value_record(a, far)["pass"] is False
    x = ctx.residue_field.from_int(7)
    y = x + ctx.residue_field.one()
    assert residue_record(x, x) == {"lhsResidue": list(x.coeffs),
                                    "rhsResidue": list(x.coeffs), "pass": True}
    # the check's further condition joins the verdict
    assert [residue_record(x, rhs, ok)["pass"] for rhs, ok in
            ((x, False), (y, True), (y, False))] == [False, False, False]


def test_jobs_other_than_one_is_rejected():
    # checks run serially; the keyword is never silently ignored
    with pytest.raises(ConfigError, match="jobs must be 1, got 2"):
        CHECKS["theorem"].run(p=5, n=2, samples=2, jobs=2)
    with pytest.raises(ConfigError, match="jobs must be 1, got 2"):
        run_matrix("small", jobs=2)


def test_an_empty_weight_list_is_rejected():
    # once a vacuous pass (inversion) and a bare ValueError from max() (corollary)
    with pytest.raises(ConfigError, match="inversion needs at least one weight"):
        inversion_check_report(5, ns=())
    with pytest.raises(ConfigError, match="corollary needs at least one weight"):
        check_corollary(5, ns=())


def test_an_unknown_matrix_kind_is_rejected():
    # "Full" once ran the small matrix under the label "Full" and passed
    for kind in ("Full", "", "smoke"):
        with pytest.raises(ConfigError, match="unknown matrix"):
            run_matrix(kind)


def _raise_precision(*args, **kwargs):
    raise PrecisionError("precision ran out")


def test_g_valuation_records_a_shortfall(monkeypatch):
    monkeypatch.setattr(PolylogEvaluator, "g_series", _raise_precision)
    report = check_g_valuations(5, 2, count=2)
    assert not report["pass"] and report["failures"] == 2
    assert [r["index"] for r in report["perSample"]] == [0, 1]
    for rec in report["perSample"]:
        assert rec["precisionShortfall"] == "precision ran out"
        assert set(rec) == {"index", "zbar", "precisionShortfall", "pass"}


def test_inversion_records_a_shortfall(monkeypatch):
    monkeypatch.setattr(matrix, "inversion_identities", _raise_precision)
    report = inversion_check_report(5, 1, ns=(2, 3))
    assert not report["pass"] and report["failures"] == 2
    assert report["perSample"] == [
        {"index": i, "n": n, "precisionShortfall": "precision ran out", "pass": False}
        for i, n in enumerate((2, 3))
    ]


def test_every_small_matrix_record_is_numbered_and_judged():
    for report in run_matrix("small")["reports"]:
        recs = report["perSample"]
        assert [r["index"] for r in recs] == list(range(len(recs))), report["command"]
        assert all(isinstance(r["pass"], bool) for r in recs), report["command"]


# Fraction constructions and WittApprox.__mul__ calls over run_matrix("small"),
# counted in a fresh interpreter: 3,327 and 336 since the log and the
# log-weighted sum run on states and each rational constant is built once;
# 4,486 and 1,178 before.  About 10% headroom; caches that an earlier test
# filled only lower the counts.
SMALL_MATRIX_FRACTION_BOUND = 3_660
SMALL_MATRIX_VALUE_MUL_BOUND = 370


def test_small_matrix_rational_and_product_work_is_bounded(monkeypatch):
    # a deterministic count, not a timing
    counts = {"Fraction": 0, "mul": 0}
    new, mul = Fraction.__new__, WittApprox.__mul__

    def counted_new(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return new(cls, *args, **kwargs)

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    monkeypatch.setattr(WittApprox, "__mul__", counted_mul)
    assert run_matrix("small")["pass"]
    assert counts["Fraction"] <= SMALL_MATRIX_FRACTION_BOUND, counts
    assert counts["mul"] <= SMALL_MATRIX_VALUE_MUL_BOUND, counts


EDGES = ({"A": 1}, {"A": 3}, {"A": 30}, {"m": 1}, {"M": 1}, {"M": 2})


def _degrees(name, p):
    # inversion takes no edge knob, and both read the unit walk, so they are
    # cheap on every field; the corollary sweeps all of F_{p^3}^*, up to F_343
    if name in ("inversion", "corollary"):
        return (1, 2, 3)
    return (1, 2)


def _sweep_calls():
    """Every check but identities, p in {3,5,7}, n <= 3, k <= 2 (k <= 3 by
    ``_degrees``), with one edge value at a time among the knobs the check
    takes; a check that takes none runs its plain cells."""
    for name, spec in CHECKS.items():
        if name == "identities":
            continue
        edges = [edge for edge in EDGES if set(edge) <= set(spec.knobs)] or [{}]
        for p in (3, 5, 7):
            for n in range(4):
                for k in _degrees(name, p):
                    cell = {"p": p, "k": k, **({"ns": (n,)} if "ns" in spec.knobs
                                                else {"n": n})}
                    cell.update((knob, 2) for knob in ("samples", "count")
                                if knob in spec.knobs)
                    for edge in edges:
                        yield spec, {**cell, **edge}


def test_bounded_sweep_reports_or_rejects_every_edge_cell():
    # a report fails only by precision shortfall; a bad cell is a ConfigError
    calls = rejected = 0
    with deadline(60):
        for spec, kwargs in _sweep_calls():
            calls += 1
            try:
                report = spec.run(**kwargs)
            except ConfigError:
                rejected += 1
                continue
            failing = [r for r in report["perSample"] if not r["pass"]]
            if spec.name == "inversion":
                # the plain form is false on proper extensions by design
                # (README, "Known caveat"); the twisted form holds everywhere
                assert all(r["frobeniusFormOk"] for r in report["perSample"]), kwargs
                if kwargs["k"] > 1:
                    assert all(r["counterexampleCount"] for r in failing), kwargs
                    continue
            assert all("precisionShortfall" in r for r in failing), (spec.name, kwargs)
            if not report["pass"] and not failing:
                assert "precisionShortfall" in report, (spec.name, kwargs)
    assert calls == 1164 and 0 < rejected < calls
