"""Record the reference verdicts of a workload at the current commit.

    PYTHONPATH=src python3 perfbench/record.py gate series residues

Runs one pass per input slot of ``series`` (one pass for ``gate`` and
``residues``, whose inputs do not depend on the seed) and writes
``perfbench/reference/<workload>.json.gz``.  It refuses to record a cell
that raised, or a failing record outside the criterion-12 inversion cells
on F_{p^k} with k >= 2, which fail by design.
"""

from __future__ import annotations

import sys

import reference
import workloads
from worker import run_pass


def expected_failure(report: dict) -> bool:
    return report["command"] == "inversion" and report["params"]["k"] >= 2


def record_slot(workload: str, slot: int) -> dict:
    result = run_pass(workload, slot)
    cells, expected = {}, []
    for label, report, error in result.outcomes:
        if report is None:
            raise SystemExit(f"{workload} slot {slot}: {label} {error}")
        if not report["pass"]:
            if not expected_failure(report):
                raise SystemExit(f"{workload} slot {slot}: {label} fails")
            expected.append(label)
        if label in cells:
            raise SystemExit(f"{workload}: duplicate cell label {label}")
        cells[label] = reference.cell_entry(report)
    entry = {"cells": cells, "expectedFailures": sorted(expected)}
    if workload == "gate":
        entry["digest"] = result.digest
    print(f"{workload} slot {slot}: {len(cells)} cells, {result.wall:.1f} s",
          file=sys.stderr)
    return entry


def main(argv) -> int:
    for workload in argv or workloads.NAMES:
        slots = ["any"] if workload in workloads.SEED_FREE else range(workloads.SLOTS)
        recorded = {str(s): record_slot(workload, 0 if s == "any" else s)
                    for s in slots}
        reference.save(workload, {"workload": workload, "slots": recorded})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
