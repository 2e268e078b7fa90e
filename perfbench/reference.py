"""Reference verdicts and the per-record correctness check.

The reference holds, for every cell of a workload pass, the report's own
verdict and one entry per sample record: the values of ``PINNED`` (null
where a record has no such field).  Besides the verdict these are the
residues of the two sides, and for the criterion-12 inversion records the
number of elements checked, the number of counterexamples and whether the
Frobenius-corrected form holds.  The counterexamples themselves are not
pinned: which five are listed depends on the order the field is walked in.

A record fails when its entry differs from the reference, when it records a
precisionShortfall, or when its cell raised, exceeded the time limit, or was
never reached.  A cell whose own verdict changed while all its records
match counts as one failed record.

Cells of the criterion-12 inversion check on F_{p^k} with k >= 2 fail by
design (the stated identity is false there).  The reference lists them as
expected failures: their failing records count as expected, not as failed,
as long as they still match the reference, counterexample count and
Frobenius-corrected form included.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
PINNED = ("pass", "lhsResidue", "rhsResidue", "checked", "counterexampleCount",
          "frobeniusFormOk")


def project(record: dict) -> list:
    """The part of a sample record that the reference pins down."""
    return [bool(record.get("pass"))] + [record.get(key) for key in PINNED[1:]]


def cell_entry(report: dict) -> dict:
    return {"pass": bool(report["pass"]),
            "records": [project(r) for r in report.get("perSample", [])]}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    expected_failures: int = 0
    problems: list = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.expected_failures += other.expected_failures
        self.problems.extend(other.problems)


def check_cell(label: str, report: dict | None, ref: dict | None,
               expected_failure: bool, error: str | None = None) -> Tally:
    """Compare one cell's report with its reference entry, record by record."""
    tally = Tally()
    if ref is None:
        count = len(report.get("perSample", [])) if report else 0
        tally.attempted = tally.failed = max(count, 1)
        tally.problems.append(f"{label}: no reference entry")
        return tally
    ref_records = ref["records"]
    if report is None:
        tally.attempted = tally.failed = max(len(ref_records), 1)
        tally.problems.append(f"{label}: {error or 'not run'}")
        return tally
    records = report.get("perSample", [])
    tally.attempted = max(len(records), len(ref_records), 1)
    if len(records) != len(ref_records):
        tally.problems.append(
            f"{label}: {len(records)} records, reference has {len(ref_records)}")
    for i in range(max(len(records), len(ref_records))):
        if i >= len(records) or i >= len(ref_records):
            tally.failed += 1
            continue
        rec = records[i]
        if "precisionShortfall" in rec or project(rec) != ref_records[i]:
            tally.failed += 1
            if len(tally.problems) < 5:
                tally.problems.append(f"{label}: record {i} differs")
        elif not ref_records[i][0]:
            if expected_failure:
                tally.expected_failures += 1
            else:
                tally.failed += 1
    if bool(report["pass"]) != ref["pass"] and not tally.failed:
        # every record matches but a cell-level check (such as the theorem's
        # w-independence pair) changed its verdict
        tally.failed = 1
        tally.problems.append(f"{label}: cell verdict {report['pass']} differs")
    return tally


def check_pass(outcomes: list, slot_ref: dict) -> Tally:
    """Check every cell of one pass; reference cells never reached fail too.

    ``outcomes`` holds (label, report or None, error or None) per cell run.
    """
    tally = Tally()
    cells = slot_ref["cells"]
    expected = set(slot_ref.get("expectedFailures", []))
    seen = set()
    for label, report, error in outcomes:
        seen.add(label)
        tally.add(check_cell(label, report, cells.get(label), label in expected,
                             error))
    for label, ref in cells.items():
        if label not in seen:
            tally.add(check_cell(label, None, ref, label in expected))
    return tally


def path_for(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load(workload: str) -> dict:
    with gzip.open(path_for(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def slot_reference(reference: dict, slot: int) -> dict:
    """The reference of one input slot; seed-free workloads store one."""
    slots = reference["slots"]
    return slots.get(str(slot)) or slots["any"]


def save(workload: str, reference: dict) -> None:
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    text = json.dumps(reference, sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the compressed bytes identical across recordings
    with open(path_for(workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(text.encode("utf-8"))
