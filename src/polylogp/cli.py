"""Command-line verification harness.

Exit codes: 0 every check passed, 1 a verification failed, 2 bad
configuration.  Reports are emitted on stdout in json, csv, or text form;
identical configurations (including the seed) produce byte-identical json.
``verify all`` in text form streams one summary per report as its cell ends,
in run order (``matrix.run_matrix``); its json keeps table order.

The sampling PRNG is SplitMix64, so seeds reproduce across platforms; any
report (or single failing sample record embedded in one) can be fed back
with --replay to re-execute its points (only the failing ones, if any fail).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys

from . import matrix
from . import report as report_mod
from .finite_poly import FiniteField, check_odd_prime, li_finite
from .identities import a_coeffs, e_coeffs
from .report import ConfigError


def _ints(text: str) -> tuple:
    return tuple(int(t) for t in text.split(","))


# knob -> (flags, argparse settings); a check gets the flags of its driver's
# keyword arguments, and each flag's help shows the driver's default
KNOBS = {
    "p": (("--p",), {"type": int, "help": "odd prime"}),
    "k": (("--k",), {"type": int, "help": "extension degree"}),
    "n": (("--n",), {"type": int, "help": "weight"}),
    "ns": (("--ns",), {"type": _ints, "help": "comma-separated weights"}),
    "nmax": (("--nmax",), {"type": int, "help": "largest weight"}),
    "count": (("--count",), {"type": int, "help": "residues to check"}),
    "A": (("--precision", "-A"), {"type": int, "help": "working digits A"}),
    "m": (("--riemann-m",), {"type": int, "metavar": "m", "help": "measure modulus m"}),
    "M": (("--order", "-M"), {"type": int, "help": "series truncation order"}),
    "samples": (("--samples",), {"type": int, "help": "sampled points"}),
    "seed": (("--seed",), {"type": int, "help": "sampling seed"}),
    "points": (("--replay",), {"metavar": "FILE",
                               "help": "JSON report or sample record to re-execute "
                                       "with its parameters and seed"}),
    "trace": (("--trace",), {"action": "store_true", "default": None,
                             "help": "dump series diagnostics to stderr"}),
}
# what a driver derives in place of a knob it defaults to None
DERIVED = {"A": "from the weight, recorded in params",
           "m": "from the weight, recorded in params",
           "M": "from p, n and A"}


def _help(knob: str, default) -> str:
    """The help of a knob's flag, with the driver's default for the knob."""
    text = KNOBS[knob][1]["help"]
    if default is inspect.Parameter.empty:
        return f"{text} (required)"
    if default is None:
        return f"{text} (default derived {DERIVED[knob]})" if knob in DERIVED else text
    if isinstance(default, tuple):
        default = ",".join(map(str, default))
    return f"{text} (default {default})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polylogp",
        description="exact verification of p-adic and finite polylogarithm congruences",
    )
    top = parser.add_subparsers(dest="command", required=True)

    verify = top.add_parser("verify", help="run a verification")
    checks = verify.add_subparsers(dest="check", required=True)
    for spec in matrix.CHECKS.values():
        sub = checks.add_parser(spec.name)
        for knob, default in spec.knobs.items():
            flags, settings = KNOBS[knob]
            sub.add_argument(*flags, dest=knob,
                             **{**settings, "help": _help(knob, default)})
        sub.add_argument("--format", choices=("json", "csv", "text"), default="text")
        sub.set_defaults(handler=functools.partial(_run_check, spec))

    sub = checks.add_parser("all")
    sub.add_argument("--matrix", choices=("small", "full"), default="small")
    sub.add_argument("--seed", type=int, default=report_mod.DEFAULT_SEED,
                     help=f"sampling seed (default {report_mod.DEFAULT_SEED})")
    sub.add_argument("--format", choices=("json", "text"), default="text")
    sub.set_defaults(handler=_run_all)

    sub = top.add_parser("finite-table", help="tabulate a finite polylogarithm")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.set_defaults(handler=_finite_table)

    sub = top.add_parser("coeffs", help="print the exact coefficient systems")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=int, default=None,
                     help="also reduce the coefficients modulo this odd prime")
    sub.add_argument("--format", choices=("json", "text"), default="text")
    sub.set_defaults(handler=_coeffs)

    return parser


def _load_replay(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        blob = json.load(fh)
    if isinstance(blob, dict) and "perSample" in blob:
        records = blob["perSample"]
    elif isinstance(blob, dict) and "sample" in blob:
        records = [blob["sample"]]
    else:
        raise ConfigError("replay file must contain a report or a {params, sample} record")
    params = blob.get("params", {})
    if not (isinstance(params, dict) and isinstance(records, list)
            and all(isinstance(r, dict) for r in records)):
        raise ConfigError("replay params and sample records must be JSON objects")
    return params, [r for r in records if not r.get("pass")] or records


def _print_trace(info: dict) -> None:
    print(json.dumps(info, sort_keys=True), file=sys.stderr)


def _run_check(spec, args) -> dict:
    """Each knob of the check: its flag, else the replayed report's value,
    else the driver's default.  A replay runs exactly its records from its
    seed, so it takes no --samples and no --seed."""
    replayed = {}
    if getattr(args, "points", None) is not None:
        for knob in ("samples", "seed"):
            if getattr(args, knob) is not None:
                raise ConfigError(f"--{knob} cannot be combined with --replay, "
                                  "which runs the replayed records")
        replayed, args.points = _load_replay(args.points)
    kwargs = {}
    for knob, default in spec.knobs.items():
        value = getattr(args, knob)
        value = replayed.get(knob) if value is None else value
        if value is not None:
            kwargs[knob] = value
        elif default is inspect.Parameter.empty:
            raise ConfigError(f"missing required parameter {KNOBS[knob][0][0]}")
    if kwargs.get("trace"):
        kwargs["trace"] = _print_trace
    return spec.run(**kwargs)


def _run_all(args) -> dict:
    progress = None
    if args.format == "text":
        progress = lambda rep: print(report_mod.text_summary(rep))  # noqa: E731
    return matrix.run_matrix(args.matrix, seed=args.seed, progress=progress)


def _finite_table(args) -> dict:
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


def _coeffs(args) -> dict:
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
        check_odd_prime(p)
        if p <= n + 1:
            raise ConfigError(f"needs p > n+1 to reduce, got p={p}, n={n}")
        reduce = lambda q: q.numerator * pow(q.denominator, -1, p) % p  # noqa: E731
        out["aModP"] = [reduce(x) for x in a]
        out["eModP"] = [reduce(x) for x in e]
    return out


def dispatch(args) -> dict:
    return args.handler(args)


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
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    emit(report, getattr(args, "format", "text"))
    return 0 if report.get("pass") else 1


if __name__ == "__main__":
    sys.exit(main())
