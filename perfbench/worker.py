"""The measuring process of one benchmark run; ``run.py`` starts it fresh.

    python3 perfbench/worker.py --workload gate --seed 0 --seconds 25 --trace 0

It imports polylogp (the launcher times that as set-up), runs complete
passes of the workload until ``--seconds`` have passed (at least
``workloads.MIN_PASSES``), checks every verdict against the reference and
prints one JSON object as its last stdout line.  Process-global caches are
cleared before every pass, because a CLI user pays them cold on every call.

With ``--trace 1`` it first times the unit costs, then alternates an
untraced and a traced pass, so the tracing overhead is the traced pass wall
time minus the untraced one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
CELL_LIMIT_S = 30.0
BUDGET_S = 150.0  # never start a pass that would end past this


class CellTimeout(BaseException):
    """A cell ran past CELL_LIMIT_S (a BaseException, so no handler in the
    package can swallow it)."""


def _on_alarm(signum, frame):
    raise CellTimeout


@contextmanager
def time_limit(seconds: float):
    """Raise CellTimeout in the block after ``seconds``; re-arm with arm()."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    arm(seconds)
    try:
        yield
    finally:
        arm(0)
        signal.signal(signal.SIGALRM, previous)


def arm(seconds: float) -> None:
    signal.setitimer(signal.ITIMER_REAL, seconds)


def clear_process_caches() -> None:
    """Empty the module-level caches of polylogp, as a fresh process has them."""
    from tracing import package_modules

    for mod in package_modules():
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()
    table = getattr(sys.modules.get("polylogp.coleman"), "_np_table_cache", None)
    if isinstance(table, dict):
        table.update(key=None, inv=None, tables={})


class PassResult:
    def __init__(self):
        self.wall = 0.0
        self.cell_seconds: list[float] = []
        self.outcomes: list = []  # (label, report or None, error or None)
        self.digest: str | None = None


def run_cells(cells: list, limit: float, recorder=None,
              first_cell_id: int = 0) -> PassResult:
    """One pass over (label, function, kwargs) cells; a cell that raises or
    runs past ``limit`` is recorded with its error and the pass goes on."""
    from polylogp import report

    clock = time.perf_counter
    result = PassResult()
    start = clock()
    for offset, (label, fn, kwargs) in enumerate(cells):
        if recorder is not None:
            recorder.cell_id = first_cell_id + offset
        t0 = clock()
        try:
            with time_limit(limit):
                rep = fn(**kwargs)
                report.to_json(rep)
            result.outcomes.append((label, rep, None))
        except CellTimeout:
            result.outcomes.append((label, None, f"exceeded the {limit:g} s cell limit"))
        except Exception as exc:  # a raising cell is a failed record, not a crash
            result.outcomes.append((label, None, f"raised {exc!r}"))
        result.cell_seconds.append(clock() - t0)
    result.wall = clock() - start
    return result


def gate_label(rep: dict) -> str:
    return f"{rep['command']} {json.dumps(rep['params'], sort_keys=True)}"


def run_gate(limit: float, recorder=None, first_cell_id: int = 0) -> PassResult:
    """``run_matrix("full")`` at the CLI's default seed, then ``to_json``; a
    cell is the span between two progress callbacks.  A timeout ends the
    matrix: the cells it never reached have no report and count as failed."""
    from polylogp import matrix, report

    clock = time.perf_counter
    result = PassResult()
    last = [0.0]

    def progress(rep):
        result.cell_seconds.append(clock() - last[0])
        result.outcomes.append((gate_label(rep), rep, None))
        arm(limit)
        if recorder is not None:
            recorder.cell_id = first_cell_id + len(result.outcomes)
        last[0] = clock()

    if recorder is not None:
        recorder.cell_id = first_cell_id
    start = last[0] = clock()
    try:
        with time_limit(limit):
            aggregate = matrix.run_matrix("full", seed=matrix.DEFAULT_SEED, jobs=1,
                                          progress=progress)
            text = report.to_json(aggregate)
        result.digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    except CellTimeout:
        result.cell_seconds.append(clock() - last[0])
    result.wall = clock() - start
    return result


def run_pass(workload: str, slot: int, recorder=None, first_cell_id: int = 0) -> PassResult:
    import workloads

    clear_process_caches()
    if workload == "gate":
        return run_gate(CELL_LIMIT_S, recorder, first_cell_id)
    cells = (workloads.series_cells(slot) if workload == "series"
             else workloads.residues_cells(slot))
    return run_cells(cells, CELL_LIMIT_S, recorder, first_cell_id)


def per_layer(recorder, traced_passes: int, untraced_walls, traced_walls) -> dict:
    """Calls, self and total time per traced function and layer, per pass."""
    import tracing

    summary = recorder.summary()
    metrics = {}
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    for name, _, _ in tracing.TARGETS:
        calls, self_s, total_s = summary.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / traced_passes, "count")
        metrics[f"{name}.self_s"] = (self_s / traced_passes, "s")
        metrics[f"{name}.total_s"] = (total_s / traced_passes, "s")
        layer_self[name.split(".")[0]] += self_s / traced_passes
    for layer, self_s in layer_self.items():
        metrics[f"layer.{layer}.self_s"] = (self_s, "s")
    traced = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls)
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.spans"] = (len(recorder) / traced_passes, "count")
    return metrics


def end_to_end(walls, attempted: int, cell_seconds) -> dict:
    """The end-to-end metrics measured in this process (set-up is the
    launcher's)."""
    from percentiles import percentile

    return {
        "wall_s": (statistics.median(walls), "s"),
        "records_per_s": (attempted / sum(walls), "1/s"),
        "cell_s.p50": (percentile(cell_seconds, 50), "s"),
        "cell_s.p90": (percentile(cell_seconds, 90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="only import polylogp and print the clock")
    args = ap.parse_args(argv)

    import polylogp

    import_done = time.monotonic()
    if args.probe:
        print(json.dumps({"importDone": import_done, "module": polylogp.__file__}))
        return 0
    if not Path(polylogp.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"polylogp imported from {polylogp.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    worker_start = time.perf_counter()

    import reference
    import tracing
    import unitcosts
    import workloads
    from percentiles import samples_beyond

    slot = workloads.slot_of(args.workload, args.seed)
    slot_ref = reference.slot_reference(reference.load(args.workload), slot)
    # the per-layer figures need no percentile, so one traced pass will do
    min_passes = 1 if args.trace else workloads.MIN_PASSES[args.workload]

    unit_costs = unitcosts.measure(args.seed) if args.trace else {}
    recorder = tracing.SpanRecorder() if args.trace else None
    tally = reference.Tally()
    walls, traced_walls, cell_seconds, digests, traced_cells = [], [], [], [], []
    missing: list = []
    passes = 0
    last_cost = 0.0
    while True:
        elapsed = time.perf_counter() - worker_start
        if passes >= min_passes and elapsed >= args.seconds:
            break
        if passes and elapsed + last_cost > BUDGET_S:
            break
        t0 = time.perf_counter()
        result = run_pass(args.workload, slot)
        walls.append(result.wall)
        cell_seconds.extend(result.cell_seconds)
        digests.append(result.digest)
        tally.add(reference.check_pass(result.outcomes, slot_ref))
        if recorder is not None:
            first = len(traced_cells)
            with tracing.installed(recorder) as missing:
                traced = run_pass(args.workload, slot, recorder=recorder,
                                  first_cell_id=first)
            traced_walls.append(traced.wall)
            digests.append(traced.digest)
            traced_cells.extend(label for label, _, _ in traced.outcomes)
            tally.add(reference.check_pass(traced.outcomes, slot_ref))
        passes += 1
        last_cost = time.perf_counter() - t0

    digest_ok = args.workload != "gate" or all(d == slot_ref["digest"] for d in digests)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "slot": slot,
        "samplingSeed": workloads.sampling_seed(slot),
        "trace": args.trace,
        "passes": passes,
        "importDone": import_done,
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "expectedFailures": tally.expected_failures,
        "problems": tally.problems[:20],
        "digests": digests if args.workload == "gate" else None,
        "digestMatchesReference": digest_ok,
        "correct": tally.failed == 0 and digest_ok,
        "cells": len(cell_seconds),
        "cellLimitSeconds": CELL_LIMIT_S,
        "passWallSeconds": walls,
    }
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        span_dir = OUT_DIR / f"spans_{args.workload}_seed{args.seed}"
        recorder.write(span_dir)
        (span_dir / "cells.json").write_text(json.dumps(traced_cells) + "\n")
        metrics = per_layer(recorder, passes, walls, traced_walls)
        for name, value in unit_costs.items():
            metrics[name] = (value, "us")
        out["spanDir"] = str(span_dir.relative_to(ROOT))
        out["missingTargets"] = missing
        out["unitCostContext"] = unitcosts.CONTEXT
    else:
        metrics = end_to_end(walls, tally.attempted, cell_seconds)
        out["p90SamplesBeyond"] = samples_beyond(len(cell_seconds), 90)
    out["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
