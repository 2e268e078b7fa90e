"""Command-line verification harness.

Exit codes: 0 every check passed, 1 a verification failed, 2 bad
configuration.  Reports are emitted on stdout in json, csv, or text form;
identical configurations (including the seed) produce byte-identical json.

The sampling PRNG is SplitMix64, so seeds reproduce across platforms; any
report (or single failing sample record embedded in one) can be fed back
with --replay to re-execute exactly those points.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import coleman, identities, matrix, section3
from . import report as report_mod
from .finite_poly import FiniteField, li_finite
from .identities import a_coeffs, e_coeffs
from .report import ConfigError


def _env_int(name: str):
    raw = os.environ.get(name)
    return int(raw) if raw else None


def _add_common(sub, with_samples=True, with_series=True):
    sub.add_argument("--p", type=int, required=False, help="odd prime")
    sub.add_argument("--k", type=int, default=None,
                     help="extension degree (default 1)")
    sub.add_argument("--precision", "-A", type=int, default=None,
                     help="working digits A (default n+4; env POLYLOGP_PRECISION)")
    if with_samples:
        sub.add_argument("--samples", type=int, default=None)
        sub.add_argument("--seed", type=int, default=None,
                         help="sampling seed (default: the replayed seed, else "
                         f"{matrix.DEFAULT_SEED})")
        sub.add_argument("--jobs", type=int, default=1)
        sub.add_argument("--replay", type=str, default=None,
                         help="JSON report or sample record to re-execute")
    sub.add_argument("--riemann-m", type=int, default=None,
                     help="measure modulus m (default n+2; env POLYLOGP_RIEMANN_M)")
    if with_series:
        sub.add_argument("--order", "-M", type=int, default=None,
                         help="series truncation order override")
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sub.add_argument("--trace", action="store_true",
                     help="dump series diagnostics to stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polylogp",
        description="exact verification of p-adic and finite polylogarithm congruences",
    )
    top = parser.add_subparsers(dest="command", required=True)

    verify = top.add_parser("verify", help="run a verification")
    checks = verify.add_subparsers(dest="check", required=True)

    for name, needs_n in (
        ("theorem", True),
        ("proposition1", True),
        ("maincong", True),
        ("funceq", True),
        ("delprop", True),
        ("f-lemmas", True),
        ("e-recover", True),
    ):
        sub = checks.add_parser(name)
        if needs_n:
            sub.add_argument("--n", type=int, required=False, help="weight")
        _add_common(sub)

    sub = checks.add_parser("corollary")
    sub.add_argument("--ns", type=str, default="1,2,3",
                     help="comma-separated weights (default 1,2,3)")
    _add_common(sub, with_samples=False, with_series=False)

    sub = checks.add_parser("g-valuation")
    sub.add_argument("--n", type=int, required=False)
    sub.add_argument("--count", type=int, default=5)
    _add_common(sub)

    sub = checks.add_parser("identities")
    sub.add_argument("--nmax", type=int, default=12)
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")

    sub = checks.add_parser("inversion")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument("--ns", type=str, default="2,3,4,5,6")
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")

    sub = checks.add_parser("all")
    sub.add_argument("--matrix", choices=("small", "full"), default="small")
    sub.add_argument("--seed", type=int, default=None,
                     help=f"sampling seed (default {matrix.DEFAULT_SEED})")
    sub.add_argument("--jobs", type=int, default=1)
    sub.add_argument("--format", choices=("json", "text"), default="text")

    sub = top.add_parser("finite-table", help="tabulate a finite polylogarithm")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")

    sub = top.add_parser("coeffs", help="print the exact coefficient systems")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=int, default=None,
                     help="also reduce the coefficients modulo this prime")
    sub.add_argument("--format", choices=("json", "text"), default="text")

    return parser


def _load_replay(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        blob = json.load(fh)
    if "perSample" in blob:
        records = [r for r in blob["perSample"] if not r.get("pass")]
        if not records:
            records = blob["perSample"]
        return blob.get("params", {}), records
    if "sample" in blob:
        return blob.get("params", {}), [blob["sample"]]
    raise ConfigError("replay file must contain a report or a {params, sample} record")


def _require(args, replay_params, key, default=None):
    value = getattr(args, key if key != "A" else "precision", None)
    if value is None:
        value = replay_params.get(key, default)
    if value is None:
        raise ConfigError(f"missing required parameter --{key}")
    return value


def _seed(args, replay_params=None) -> int:
    """An explicit --seed, else the replayed report's seed, else the default."""
    for value in (getattr(args, "seed", None), (replay_params or {}).get("seed")):
        if value is not None:
            return value
    return matrix.DEFAULT_SEED


def _sampled_check(args, fn, needs_n=True, extra=None):
    replay_params, points = ({}, None)
    if getattr(args, "replay", None):
        replay_params, points = _load_replay(args.replay)
    p = _require(args, replay_params, "p")
    kwargs = {
        "p": p,
        "k": _require(args, replay_params, "k", 1),
        "samples": args.samples if args.samples is not None else
        replay_params.get("samples", 20),
        "seed": _seed(args, replay_params),
        "A": args.precision if args.precision is not None else
        replay_params.get("A", _env_int("POLYLOGP_PRECISION")),
        "jobs": args.jobs,
        "points": points,
    }
    if needs_n:
        kwargs["n"] = _require(args, replay_params, "n")
    m_flag = getattr(args, "riemann_m", None)
    if m_flag is not None or replay_params.get("m") is not None or _env_int(
        "POLYLOGP_RIEMANN_M"
    ):
        kwargs["m"] = (
            m_flag
            if m_flag is not None
            else replay_params.get("m", _env_int("POLYLOGP_RIEMANN_M"))
        )
    if extra:
        kwargs.update(extra)
    return fn(**kwargs)


def _trace_sink(enabled: bool):
    if not enabled:
        return None

    def sink(info: dict):
        print(json.dumps(info, sort_keys=True), file=sys.stderr)

    return sink


def dispatch(args) -> dict:
    if args.command == "verify":
        check = args.check
        if check == "theorem":
            return _sampled_check(
                args,
                coleman.verify_theorem,
                extra={"M": args.order, "trace": _trace_sink(args.trace)},
            )
        if check == "proposition1":
            return _sampled_check(args, coleman.check_prop_reduction)
        if check == "maincong":
            return _sampled_check(args, coleman.check_maincong,
                                  extra={"M": args.order})
        if check == "funceq":
            return _sampled_check(args, coleman.check_functional_equation)
        if check == "delprop":
            return _sampled_check(args, section3.delprop_check,
                                  extra={"M": args.order})
        if check == "f-lemmas":
            return _sampled_check(args, section3.f_lemmas_check,
                                  extra={"M": args.order})
        if check == "e-recover":
            return _sampled_check(args, section3.e_recover_check)
        if check == "corollary":
            if args.p is None:
                raise ConfigError("missing required parameter --p")
            ns = tuple(int(t) for t in args.ns.split(","))
            kwargs = {"ns": ns}
            if args.precision is not None:
                kwargs["A"] = args.precision
            if args.riemann_m is not None:
                kwargs["m"] = args.riemann_m
            return coleman.check_corollary(args.p, args.k or 1, **kwargs)
        if check == "g-valuation":
            if args.p is None or args.n is None:
                raise ConfigError("missing required parameter --p/--n")
            return coleman.check_g_valuations(
                args.p, args.n, args.k or 1, count=args.count,
                seed=_seed(args), A=args.precision, m=args.riemann_m, M=args.order,
            )
        if check == "identities":
            return identities.identities_report(nmax=args.nmax)
        if check == "inversion":
            ns = tuple(int(t) for t in args.ns.split(","))
            return matrix.inversion_check_report(args.p, args.k, ns)
        if check == "all":
            progress = None
            if args.format == "text":
                progress = lambda rep: print(report_mod.text_summary(rep))  # noqa: E731
            return matrix.run_matrix(args.matrix, seed=_seed(args), jobs=args.jobs,
                                     progress=progress)
        raise ConfigError(f"unknown check {check!r}")

    if args.command == "finite-table":
        field = FiniteField(args.p, args.k)
        rows = [
            {"z": list(z.coeffs), "li": list(li_finite(args.n, z).coeffs)}
            for z in field.elements()
        ]
        return {
            "schemaVersion": report_mod.SCHEMA_VERSION,
            "command": "finite-table",
            "params": {"p": args.p, "k": args.k, "n": args.n},
            "rows": rows,
            "pass": True,
        }

    if args.command == "coeffs":
        n = args.n
        if n < 2:
            raise ConfigError("weight must be >= 2")
        a = a_coeffs(n)
        e = e_coeffs(n)
        out = {
            "schemaVersion": report_mod.SCHEMA_VERSION,
            "command": "coeffs",
            "params": {"n": n, "p": args.p},
            "a": [str(x) for x in a],
            "e": [str(x) for x in e],
            "pass": True,
        }
        if args.p is not None:
            p = args.p
            if p <= n + 1:
                raise ConfigError(f"needs p > n+1 to reduce, got p={p}, n={n}")
            reduce = lambda q: q.numerator * pow(q.denominator, -1, p) % p  # noqa: E731
            out["aModP"] = [reduce(x) for x in a]
            out["eModP"] = [reduce(x) for x in e]
        return out

    raise ConfigError(f"unknown command {args.command!r}")


def emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(report_mod.to_json(report))
    elif fmt == "csv":
        if report["command"] == "finite-table":
            print("z,li")
            for row in report["rows"]:
                z = ":".join(str(c) for c in row["z"])
                li = ":".join(str(c) for c in row["li"])
                print(f"{z},{li}")
        else:
            print(report_mod.to_csv(report), end="")
    else:
        if report["command"] == "all":
            # sub-reports were already streamed when running in text mode
            print(f"matrix={report['params']['matrix']} reports={len(report['reports'])} "
                  f"failures={report['failures']} -> "
                  f"{'PASS' if report['pass'] else 'FAIL'}")
        elif report["command"] == "finite-table":
            for row in report["rows"]:
                print(row["z"], row["li"])
        elif report["command"] == "coeffs":
            print("a:", " ".join(report["a"]))
            print("e:", " ".join(report["e"]))
            if "aModP" in report:
                print(f"a mod {report['params']['p']}:",
                      " ".join(str(x) for x in report["aModP"]))
                print(f"e mod {report['params']['p']}:",
                      " ".join(str(x) for x in report["eModP"]))
        else:
            print(report_mod.text_summary(report))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = dispatch(args)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    emit(report, getattr(args, "format", "text"))
    return 0 if report.get("pass") else 1


if __name__ == "__main__":
    sys.exit(main())
