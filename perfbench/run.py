"""polylogp benchmark: one run of one workload.

    python3 perfbench/run.py --workload gate|series|residues --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Without tracing, the launcher first times set-up by starting fresh
interpreters that only import polylogp.  It then starts one more fresh
interpreter (``worker.py``) that runs the workload and checks every verdict;
its own import is one more set-up sample.  It writes the full result, with
the environment, to ``perfbench/out/BENCH_<workload>_seed<N>_trace<T>.json``
and prints, as its last stdout line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 7
RUN_LIMIT_S = 175.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
                               else "")
    return env


def worker_cmd(args, probe: bool = False) -> list:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    return cmd + ["--probe"] if probe else cmd


def last_json_line(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, text=True, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def print_shares(metrics: dict, top: int = 12) -> None:
    """Where a traced pass spent its time, as shares of its wall time."""
    value = {name: m["value"] for name, m in metrics.items()}
    wall = value["trace.wall_s"]
    print(f"traced pass {wall:.3f} s, untraced {value['trace.untraced_wall_s']:.3f} s, "
          f"tracing overhead {value['trace.overhead_s']:.3f} s, "
          f"{value['trace.spans']:.0f} spans")
    for kind in ("self_s", "total_s"):
        ranked = sorted(((v, n[: -len(kind) - 1]) for n, v in value.items()
                         if n.endswith("." + kind) and not n.startswith("layer.")),
                        reverse=True)[:top]
        print(f"  top {kind}:")
        for seconds, name in ranked:
            calls = value[f"{name}.calls"]
            print(f"    {name:42s} {seconds:9.4f} s {seconds / wall:6.1%} "
                  f"{calls:10.0f} calls")
    print("  self time by layer:")
    for name, seconds in value.items():
        if name.startswith("layer."):
            print(f"    {name[6:-7]:42s} {seconds:9.4f} s {seconds / wall:6.1%}")
    for name, us in value.items():
        if name.endswith(".us"):
            print(f"  unit cost {name[:-3]:32s} {us:9.2f} us")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="polylogp benchmark, one run")
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "polylogp" / "__init__.py").is_file():
        return fail(f"no package source at {ROOT / 'src' / 'polylogp'}")
    if not (HERE / "reference" / f"{args.workload}.json.gz").is_file():
        return fail(f"no reference verdicts for workload {args.workload!r}")
    begun = time.monotonic()
    env = child_env()

    setups = []
    # a traced run does not report set-up, so it starts no probes
    for _ in range(0 if args.trace else SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(worker_cmd(args, probe=True), cwd=ROOT, env=env,
                              text=True, capture_output=True, timeout=60)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return fail("importing polylogp failed")
        setups.append(last_json_line(done.stdout)["importDone"] - t0)

    t0 = time.monotonic()
    try:
        done = subprocess.run(worker_cmd(args), cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE,
                              timeout=RUN_LIMIT_S - (t0 - begun))
    except subprocess.TimeoutExpired:
        return fail("the run did not finish in time")
    if done.returncode != 0:
        return fail(f"the worker exited with code {done.returncode}")
    try:
        result = last_json_line(done.stdout)
    except ValueError as exc:
        return fail(f"unreadable worker output: {exc}")
    setups.append(result.pop("importDone") - t0)

    metrics = result.pop("metrics")
    commit = git_commit()
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   **metrics}
    result.update({
        "metrics": metrics,
        "setupSeconds": setups,
        "runSeconds": args.seconds,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "sourceDigest": None if commit else source_digest(),
        "measuredAt": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    beyond = "" if args.trace else f" ({result['p90SamplesBeyond']} beyond p90)"
    print(f"workload {args.workload}, seed {args.seed} (slot {result['slot']}), "
          f"{result['passes']} pass(es), {result['cells']} cells{beyond}, "
          f"{result['attempted']} records, {result['failed']} failed, "
          f"{result['expectedFailures']} expected failures (criterion 12)")
    if args.workload == "gate" and result["digests"][0] is not None:
        print(f"gate JSON sha256 {result['digests'][0]}, matches reference: "
              f"{result['digestMatchesReference']}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    if args.trace:
        print_shares(metrics)
        print(f"  unit cost context: {result['unitCostContext']}")
    else:
        for name, metric in metrics.items():
            print(f"  {name:15s} {metric['value']:12.6g} {metric['unit']}")
    print(f"full result: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
