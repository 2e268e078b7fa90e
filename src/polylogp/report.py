"""Report records, canonical serialization, and sampling harness plumbing.

Reports are plain dicts with a fixed schema version.  Every check builds its
per-sample records with the one record loop, ``records``: it numbers them
and turns a ``PrecisionError`` into a failing ``precisionShortfall`` record.
Each check ends in one of two comparisons, built here: ``residue_record``,
two residues equal in F_{p^k}, or ``value_record``, two p-adic sides that
``agree`` to ``CHECK_DIGITS`` digits (funceq calls ``agree`` directly).
JSON output is canonical (sorted keys, fixed separators, no timestamps), so
identical configurations produce byte-identical reports.
"""

from __future__ import annotations

import csv
import io
import json

from .finite_poly import FpkElement
from .padic_core import PrecisionError, UnramifiedCtx, WittApprox
from .rng import SplitMix64

SCHEMA_VERSION = 1
DEFAULT_SEED = 20260809  # the default seed of every sampled driver and of the matrix
CHECK_DIGITS = 3  # digits to which the tolerance checks compare


class ConfigError(ValueError):
    """Invalid parameter combination (CLI exit code 2, not a check failure)."""


def check_weight(command: str, p: int, n: int, low: int, gap: int | None = None) -> None:
    """Raise ConfigError unless n >= low and, when ``gap`` is given, p > n+gap."""
    if n < low:
        raise ConfigError(f"{command} needs n >= {low}, got n={n}")
    if gap is not None and p <= n + gap:
        raise ConfigError(f"{command} needs p > n+{gap}, got p={p}, n={n}")


def check_weights(command: str, p: int, ns, low: int) -> None:
    """``check_weight`` on each weight of ``ns``, which must list at least one
    weight and must not repeat one."""
    if not ns:
        raise ConfigError(f"{command} needs at least one weight")
    for i, n in enumerate(ns):
        check_weight(command, p, n, low)
        if n in ns[:i]:
            raise ConfigError(f"{command} lists the weight {n} twice")


def check_order(command: str, M: int | None) -> None:
    """Raise ConfigError for a series truncation order M < 1 (None is the default)."""
    if M is not None and M < 1:
        raise ConfigError(f"{command} needs a series order M >= 1, got M={M}")


def records(items, measure) -> list:
    """The one record loop: record i is ``{"index": i, **fields}`` plus the
    fields that ``measure(*args)`` returns, for the i-th ``(fields, args)``
    item; a PrecisionError becomes a failing ``precisionShortfall`` record."""
    out = []
    for i, (fields, args) in enumerate(items):
        rec = {"index": i, **fields}
        try:
            rec.update(measure(*args))
        except PrecisionError as e:
            rec["precisionShortfall"] = str(e)
            rec["pass"] = False
        out.append(rec)
    return out


def agree(lhs: WittApprox, rhs: WittApprox) -> bool:
    """The tolerance test: v_p(lhs - rhs) >= CHECK_DIGITS, certified."""
    return (lhs - rhs).valuation_ge(CHECK_DIGITS)


def residue_record(lhs: FpkElement, rhs: FpkElement, ok: bool = True) -> dict:
    """The residue comparison lhs == rhs in F_{p^k}; its ``pass`` also needs
    ``ok``, a check's further condition."""
    return {"lhsResidue": list(lhs.coeffs), "rhsResidue": list(rhs.coeffs),
            "pass": ok and lhs == rhs}


def value_record(lhs: WittApprox, rhs: WittApprox) -> dict:
    """The tolerance comparison of two p-adic sides."""
    return {"lhs": lhs.to_record(), "rhs": rhs.to_record(), "pass": agree(lhs, rhs)}


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


def _int_list(value, count: int) -> bool:
    """Whether ``value`` is a JSON list of ``count`` integers."""
    return (isinstance(value, list) and len(value) == count
            and all(isinstance(c, int) and not isinstance(c, bool) for c in value))


def witt_from_record(ctx: UnramifiedCtx, rec: dict) -> WittApprox:
    if not isinstance(rec, dict):
        raise ConfigError("a p-adic value must be a JSON object")
    exact = rec.get("exactZero", False)
    if not isinstance(exact, bool):
        raise ConfigError("exactZero must be true or false")
    if exact:
        return ctx.exact_zero()
    if (rec["p"], rec["k"]) != (ctx.p, ctx.k):
        raise ConfigError("record does not match the requested context")
    if not (_int_list(rec["coeffs"], ctx.k) and _int_list([rec["scale"], rec["prec"]], 2)):
        raise ConfigError(f"a p-adic value needs {ctx.k} integer coeffs and "
                          "integer scale and prec")
    return ctx.make(rec["scale"], tuple(rec["coeffs"]), rec["prec"])


def point_from_record(ctx: UnramifiedCtx, rec: dict, names: tuple):
    """Rebuild the sampled inputs of a perSample record for replay: zbar and
    the disc coordinates ``names``.  A missing or malformed field is a
    ConfigError that names the record."""
    try:
        if not _int_list(rec["zbar"], ctx.k):
            raise ConfigError(f"zbar must hold {ctx.k} integers")
        zbar = ctx.residue_field.element(rec["zbar"])
        return zbar, *[witt_from_record(ctx, rec[name]) for name in names]
    except KeyError as e:
        raise ConfigError(
            f"replay record {rec.get('index')} lacks the field {e.args[0]!r}"
        ) from None
    except ConfigError as e:
        raise ConfigError(f"replay record {rec.get('index')}: {e}") from None


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
                   names: tuple = ("w",), finish=None) -> dict:
    """The sampled driver shared by every sampled check.

    Point i is replayed from ``points[i]``, or drawn from ``fork(i)`` of the
    seed's stream: a residue zbar, then a disc coordinate for each record
    field in ``names``.  ``measure(zbar, *coordinates)`` returns the check's
    fields and its ``pass``, under the guard of ``records``.  ``finish(records,
    rng)``, if given, returns report-level fields whose ``pass`` joins the
    records' verdict; a PrecisionError there too becomes a report-level
    ``precisionShortfall``.  The records are measured serially, so ``jobs``
    must be 1.
    """
    count = len(points) if points is not None else samples
    if count < 1:
        raise ConfigError(f"{command} needs at least one sample, got {count}")
    if jobs != 1:
        raise ConfigError(f"{command} runs serially: jobs must be 1, got {jobs}")
    rng = SplitMix64(seed)
    if points is None:
        forks = [rng.fork(i) for i in range(count)]
        drawn = [(sample_zbar(ctx, r), *[sample_w(ctx, r) for _ in names]) for r in forks]
    else:
        drawn = [point_from_record(ctx, rec, names) for rec in points]
    items = [({"zbar": list(zbar.coeffs),
               **{name: w.to_record() for name, w in zip(names, ws)}}, (zbar, *ws))
             for zbar, *ws in drawn]
    recs = records(items, measure)
    extra = None
    if finish is not None:
        try:
            extra = finish(recs, rng)
        except PrecisionError as e:
            extra = {"precisionShortfall": str(e), "pass": False}
    return assemble(command, {**params, "samples": count, "seed": seed}, ctx, recs,
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
