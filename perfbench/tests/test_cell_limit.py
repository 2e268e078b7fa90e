"""The per-cell time limit turns a stall into failed records, and the run goes on."""

from polylogp import matrix
from polylogp.rng import SplitMix64

import worker
from reference import cell_entry, check_pass


def quick_report(label):
    return {"command": label, "params": {}, "pass": True,
            "perSample": [{"index": 0, "pass": True}]}


def test_stalled_cell_fails_and_the_next_cell_runs():
    # bound > 2^64 is the known SplitMix64 stall: rejection sampling never ends
    cells = [
        ("stall", lambda: SplitMix64(1).below(2**65), {}),
        ("after", lambda: quick_report("after"), {}),
    ]
    result = worker.run_cells(cells, limit=0.2)
    (l1, r1, e1), (l2, r2, e2) = result.outcomes
    assert (l1, r1) == ("stall", None) and "cell limit" in e1
    assert (l2, e2) == ("after", None) and r2["pass"]
    assert 0.2 <= result.cell_seconds[0] < 5
    slot_ref = {"cells": {"stall": cell_entry(quick_report("stall")),
                          "after": cell_entry(quick_report("after"))}}
    tally = check_pass(result.outcomes, slot_ref)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_gate_timeout_fails_every_cell_not_reached(monkeypatch):
    def stalling_matrix(kind, seed, jobs, progress):
        progress(quick_report("a"))
        progress(quick_report("b"))
        SplitMix64(1).below(2**65)

    monkeypatch.setattr(matrix, "run_matrix", stalling_matrix)
    result = worker.run_gate(limit=0.2)
    assert [label for label, _, _ in result.outcomes] == ["a {}", "b {}"]
    assert result.digest is None
    assert len(result.cell_seconds) == 3
    slot_ref = {"cells": {f"{x} {{}}": cell_entry(quick_report(x)) for x in "abc"}}
    tally = check_pass(result.outcomes, slot_ref)
    assert (tally.attempted, tally.failed) == (3, 1)

