"""The workloads: which check calls ("cells") one pass makes, made from the seed.

Every workload is a closed loop from a single caller: one cell after
another, ``jobs=1``, calling ``matrix``, ``coleman`` and ``section3`` the way
``polylogp.cli.dispatch`` does.  For ``series`` the seed selects one of
``SLOTS`` input slots (the sampling seed of every cell), so the same seed
always gives the same inputs and the reference verdicts of every slot can
be recorded once.

* ``gate``: ``matrix.run_matrix("full")`` then ``report.to_json``; the
  release gate, dominated by large measure sums (up to 13^6 cells).  Its
  inputs are fixed, as ``polylogp verify all --matrix full`` fixes them (the
  CLI's default seed), so its canonical JSON digest is the same in every
  run; the seed does not change them.
* ``series``: the Section-3 and disc-series drivers at p in {5, 7}, k in
  {1, 2}, with the precision A raised to 12-16 so the series order M grows;
  stresses series multiplication and integration and the ring ops.
* ``residues``: exhaustive sweeps over larger fields, one cell per weight,
  so every record has a fresh residue; stresses F_{p^k} arithmetic,
  ``li_finite``, Teichmuller lifts and thousands of tiny measure sums
  (m = 2), where per-call set-up shows.
"""

from __future__ import annotations

import random

NAMES = ("gate", "series", "residues")
SEED_FREE = {"gate", "residues"}
SLOTS = 10
BASE_SEED = 20260809  # polylogp.matrix.DEFAULT_SEED, the gate's CLI default

# At least this many complete passes per run, so that each workload has at
# least 100 cells per run and its 90th percentile has ten samples beyond it.
MIN_PASSES = {"gate": 1, "series": 4, "residues": 3}

SERIES_SAMPLES = 8
SERIES_FIELDS = [(5, 1, 16), (5, 2, 12), (7, 1, 16), (7, 2, 12)]  # (p, k, A)
RESIDUE_FIELDS = [(13, 2), (7, 3), (11, 2), (5, 3), (3, 5)]
COROLLARY_NS = (1, 2, 3)
INVERSION_NS = (2, 3, 4, 5, 6)


def slot_of(workload: str, seed: int) -> int:
    return 0 if workload in SEED_FREE else seed % SLOTS


def sampling_seed(slot: int) -> int:
    return BASE_SEED + slot


def series_cells(slot: int) -> list:
    """(label, function, kwargs) per cell, in the fixed order of a pass."""
    from polylogp import coleman, section3

    seed = sampling_seed(slot)
    cells = []
    for p, k, A in SERIES_FIELDS:
        common = {"p": p, "k": k, "samples": SERIES_SAMPLES, "seed": seed,
                  "A": A, "jobs": 1, "points": None}
        for name, fn, ns in (
            ("f-lemmas", section3.f_lemmas_check, (1, 2, 3)),
            ("delprop", section3.delprop_check, (0, 1)),
            ("e-recover", section3.e_recover_check, (2,)),
            ("maincong", coleman.check_maincong, (1, 2)),
        ):
            for n in ns:
                kwargs = dict(common, n=n)
                if name != "e-recover":
                    kwargs["M"] = None
                cells.append((f"{name} p={p} n={n} k={k} A={A}", fn, kwargs))
    return cells


def residues_cells(slot: int) -> list:
    """The exhaustive sweeps, one cell per (field, weight), in seeded order."""
    from polylogp import coleman, matrix

    cells = []
    for p, k in RESIDUE_FIELDS:
        for n in COROLLARY_NS:
            cells.append((f"corollary p={p} k={k} n={n}", coleman.check_corollary,
                          {"p": p, "k": k, "ns": (n,)}))
        for n in INVERSION_NS:
            cells.append((f"inversion p={p} k={k} n={n}",
                          matrix.inversion_check_report, {"p": p, "k": k, "ns": (n,)}))
    random.Random(sampling_seed(slot)).shuffle(cells)
    return cells
