"""Mutant table: each row breaks one piece of the verifier by monkeypatch,
with no edit to ``src/``, and names the matrix cells that must then fail.

A row passes when every record of every named cell fails under its mutant.
A mutant that no cell catches is a coverage bug to fix, not a row to delete.
The routing rows check that each comparison reaches its records through the
one function that builds it in ``report``: a check that compared on its own
would keep passing under them.
"""

import pytest

from polylogp import report
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
