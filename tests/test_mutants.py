"""Mutant table: each row breaks one piece of the verifier by monkeypatch,
with no edit to ``src/``, and names the matrix cells that must then fail.

A routing row passes when every record of every named cell fails under its
mutant.  A mutant that no cell catches is a coverage bug to fix, not a row
to delete.  The routing rows check that each comparison reaches its records
through the one function that builds it in ``report``: a check that
compared on its own would keep passing under them.

The walk rows misread the unit walk g^i behind the exhaustive sweeps, and
pass when every named cell fails: a record whose finite side is 0 (li_n(-1)
at even n, say) reads 0 under either mutant, so not every record can.  The
Frobenius row breaks the p-th powers of the measure sum at a root of unity
and is judged the same way.
"""

import pytest

from polylogp import coleman, finite_poly, report
from polylogp.matrix import CHECKS


def never_agree(original):
    return lambda lhs, rhs: False


def failing_record(original):
    return lambda *args: {**original(*args), "pass": False}


# (row id, attribute of ``report``, mutant built from the original, checks
# whose small-matrix cells must fail in every record)
MUTANTS = [
    ("tolerance-never-agrees", "agree", never_agree,
     ("funceq", "delprop", "e-recover")),
    ("residue-record-fails", "residue_record", failing_record,
     ("theorem", "proposition1", "corollary", "maincong", "f-lemmas")),
]


@pytest.mark.parametrize("attr, mutant, checks", [row[1:] for row in MUTANTS],
                         ids=[row[0] for row in MUTANTS])
def test_every_record_fails_under_the_mutant(monkeypatch, attr, mutant, checks):
    monkeypatch.setattr(report, attr, mutant(getattr(report, attr)))
    for name in checks:
        spec = CHECKS[name]
        for cell in spec.small:
            recs = spec.run(**cell)["perSample"]
            assert recs, (name, cell)
            passing = [r["index"] for r in recs if r["pass"]]
            assert passing == [], (name, cell, passing)


def walk_index_off_by_one(original):
    # the index (i+1) j in place of i j: slot i holds li_n(g^{i+1})
    def sweep(n, field):
        values = original(n, field)
        return values[1:] + values[:1]
    return sweep


def frobenius_for_sigma(original):
    # the corollary reads slot i p^{k-1} for sigma(g^i); this sweep puts
    # li_n at slot i p^{k+1} = i p there, the Frobenius in place of sigma
    def sweep(n, field):
        values = original(n, field)
        step = field.p**2
        return [values[s * step % len(values)] for s in range(len(values))]
    return sweep


def frobenius_one_power_short(original):
    # phi^{e-1} in place of phi^e: the measure sum at a root of unity takes
    # the digit blocks phi^{d+1}(B) and z^{p^m} = phi^m(z) one power short
    def frob(a, e, h, p, r):
        return original(a, e - 1, h, p, r)
    return frob


def _small(*names):
    return [(name, cell) for name in names for cell in CHECKS[name].small]


# (row id, modules whose attribute is patched, the attribute, mutant built
# from the original, (check, cell) pairs that must fail)
WALK_MUTANTS = [
    ("walk-index-off-by-one", (finite_poly, coleman), "li_finite_walk",
     walk_index_off_by_one, _small("inversion", "corollary")),
    ("frobenius-for-sigma", (coleman,), "li_finite_walk", frobenius_for_sigma,
     [("corollary", {"p": 5, "k": 3})]),
    # phi is the identity on F_p, so no k = 1 cell can see this mutant
    ("frobenius-one-power-short", (coleman,), "poly_frobenius", frobenius_one_power_short,
     [("corollary", {"p": 5, "k": 2}), ("corollary", {"p": 5, "k": 3})]),
]


@pytest.mark.parametrize("modules, attr, mutant, cells", [row[1:] for row in WALK_MUTANTS],
                         ids=[row[0] for row in WALK_MUTANTS])
def test_every_cell_fails_under_the_walk_mutant(monkeypatch, modules, attr, mutant, cells):
    for module in modules:
        monkeypatch.setattr(module, attr, mutant(getattr(module, attr)))
    for name, cell in cells:
        out = CHECKS[name].run(**cell)
        assert out["perSample"] and not out["pass"], (name, cell)
