"""Report records, canonical serialization, and sampling harness plumbing.

Reports are plain dicts with a fixed schema version.  JSON output is
canonical (sorted keys, fixed separators, no timestamps), so identical
configurations produce byte-identical reports.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ThreadPoolExecutor

from .finite_poly import FpkElement
from .padic_core import PrecisionError, UnramifiedCtx, WittApprox
from .rng import SplitMix64

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid parameter combination (CLI exit code 2, not a check failure)."""


def check_weight(command: str, p: int, n: int, low: int, gap: int | None = None) -> None:
    """Raise ConfigError unless n >= low and, when ``gap`` is given, p > n+gap."""
    if n < low:
        raise ConfigError(f"{command} needs n >= {low}, got n={n}")
    if gap is not None and p <= n + gap:
        raise ConfigError(f"{command} needs p > n+{gap}, got p={p}, n={n}")


def run_samples(count: int, fn, jobs: int = 1) -> list:
    """Evaluate fn(0..count-1); order of the result is always by index."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(fn, range(count)))
    else:
        records = [fn(i) for i in range(count)]
    return sorted(records, key=lambda r: r["index"])


def assemble(command: str, params: dict, ctx: UnramifiedCtx | None, records: list,
             extra: dict | None = None) -> dict:
    report = {
        "schemaVersion": SCHEMA_VERSION,
        "command": command,
        "params": params,
        "perSample": records,
        "failures": sum(1 for r in records if not r.get("pass")),
        "pass": all(r.get("pass") for r in records) if records else True,
    }
    if ctx is not None:
        report["ctx"] = ctx.metadata()
    if extra:
        report.update(extra)
        if "pass" in extra:
            report["pass"] = extra["pass"] and all(r.get("pass") for r in records)
    return report


def witt_from_record(ctx: UnramifiedCtx, rec: dict) -> WittApprox:
    if rec.get("exactZero"):
        return ctx.exact_zero()
    if (rec["p"], rec["k"]) != (ctx.p, ctx.k):
        raise ConfigError("record does not match the requested context")
    if rec["prec"] == 0:
        return ctx.zero_approx(rec["scale"])
    return ctx.make(rec["scale"], tuple(rec["coeffs"]), rec["prec"])


def point_from_record(ctx: UnramifiedCtx, rec: dict, with_wz: bool = False):
    """Rebuild the sampled inputs of a perSample record for replay."""
    try:
        zbar = ctx.residue_field.element(rec["zbar"])
        w = witt_from_record(ctx, rec["w"])
        if with_wz:
            return zbar, witt_from_record(ctx, rec["wz"]), w
    except KeyError as e:
        raise ConfigError(
            f"replay record {rec.get('index')} lacks the field {e.args[0]!r}"
        ) from None
    return zbar, w


def sample_zbar(ctx: UnramifiedCtx, rng: SplitMix64) -> FpkElement:
    """Uniform residue avoiding 0 and 1."""
    t = 2 + rng.below(ctx.p**ctx.k - 2)
    return ctx.residue_field.from_int(t)


def sample_w(ctx: UnramifiedCtx, rng: SplitMix64) -> WittApprox:
    """Uniform integral disc coordinate mod p^A."""
    vec = tuple(rng.below(ctx.pA) for _ in range(ctx.k))
    if all(c == 0 for c in vec):
        return ctx.exact_zero()
    return ctx.make(0, vec, ctx.A)


def sampled_report(command: str, params: dict, ctx: UnramifiedCtx, measure,
                   samples: int, seed: int, jobs: int = 1, points: list | None = None,
                   with_wz: bool = False, finish=None) -> dict:
    """The sampled driver shared by every sampled check.

    Point i is replayed from ``points[i]``, or drawn from ``fork(i)`` of the
    seed's stream: a residue zbar, then the disc coordinate w (``wz`` and w
    when ``with_wz``).  ``measure(zbar, [wz,] w)`` returns the check's fields
    and its ``pass``; a PrecisionError becomes a ``precisionShortfall``
    record.  ``finish(records, rng)``, if given, returns report-level fields
    whose ``pass`` joins the records' verdict; a PrecisionError there too
    becomes a report-level ``precisionShortfall``.
    """
    count = len(points) if points is not None else samples
    if count < 1:
        raise ConfigError(f"{command} needs at least one sample, got {count}")
    if jobs < 1:
        raise ConfigError(f"{command} needs --jobs >= 1, got {jobs}")
    rng = SplitMix64(seed)
    names = ("wz", "w") if with_wz else ("w",)

    def one_sample(i: int) -> dict:
        if points is not None:
            zbar, *ws = point_from_record(ctx, points[i], with_wz)
        else:
            r = rng.fork(i)
            zbar = sample_zbar(ctx, r)
            ws = [sample_w(ctx, r) for _ in names]
        rec = {"index": i, "zbar": list(zbar.coeffs)}
        rec.update((name, w.to_record()) for name, w in zip(names, ws))
        try:
            rec.update(measure(zbar, *ws))
        except PrecisionError as e:
            rec["precisionShortfall"] = str(e)
            rec["pass"] = False
        return rec

    records = run_samples(count, one_sample, jobs)
    extra = None
    if finish is not None:
        try:
            extra = finish(records, rng)
        except PrecisionError as e:
            extra = {"precisionShortfall": str(e), "pass": False}
    return assemble(command, {**params, "samples": count, "seed": seed}, ctx, records,
                    extra)


def to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def _flat(value):
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return value


def to_csv(report: dict) -> str:
    """Flat projection of the per-sample records, one row per sample."""
    records = report.get("perSample", [])
    meta = {f"param_{k}": v for k, v in report.get("params", {}).items()}
    fields = sorted({key for r in records for key in r} | set(meta))
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for rec in records:
        row = {**meta, **{k: _flat(v) for k, v in rec.items()}}
        writer.writerow(row)
    return out.getvalue()


def text_summary(report: dict) -> str:
    params = report.get("params", {})
    shown = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
    lines = [f"[{'PASS' if report['pass'] else 'FAIL'}] {report['command']} ({shown})"]
    records = report.get("perSample", [])
    if records:
        lines.append(f"  samples: {len(records)}, failures: {report['failures']}")
        for rec in records:
            if not rec.get("pass"):
                lines.append(f"  FAILED sample {rec.get('index')}: {_flat(rec)}")
    for key, value in report.items():
        if key in {"schemaVersion", "command", "params", "perSample", "failures",
                   "pass", "ctx"}:
            continue
        lines.append(f"  {key}: {_flat(value)}")
    return "\n".join(lines)
