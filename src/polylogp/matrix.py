"""The check table: every verification, its driver and its matrix cells.

One source of truth shared by the ``polylogp verify`` subcommands,
``polylogp verify all`` and the acceptance test suite.  The ``full`` matrix
is the release gate; ``small`` is a smoke pass over a few cheap cells.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass
from types import ModuleType

from . import coleman, identities, section3
from .finite_poly import FiniteField, inversion_identities
from . import report as report_mod
from .report import DEFAULT_SEED


@dataclass(frozen=True)
class Check:
    """One verification: its subcommand, its driver and its matrix cells.

    ``full`` and ``small`` are the driver's keyword arguments per matrix
    cell.  The matrix adds only its seed, so a full cell run alone at the
    default seed gives the matrix's report.
    """

    name: str
    module: ModuleType
    driver: str
    full: list
    small: list

    @property
    def knobs(self) -> dict:
        """The driver's keyword arguments, each with its default
        (``inspect.Parameter.empty`` when it is required).  ``jobs`` is not
        one: the checks run serially."""
        params = inspect.signature(getattr(self.module, self.driver)).parameters
        return {name: param.default for name, param in params.items() if name != "jobs"}

    def run(self, **kwargs) -> dict:
        # looked up on every call, so a wrapper installed on the module
        # attribute (a profiling span, say) is the one that runs
        return getattr(self.module, self.driver)(**kwargs)


def _grid(ps, ns, ks, gap=None, **fixed) -> list:
    """The (p, n, k) cells of ps x ns x ks, keeping p > n + gap, each with
    the keyword arguments ``fixed``."""
    return [{"p": p, "n": n, "k": k, **fixed} for p in ps for n in ns
            if gap is None or p > n + gap for k in ks]


def _corollary_fields() -> list:
    fields = [(p, 1) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)]
    fields += [(3, 2), (5, 2), (7, 2), (3, 3)]
    return [{"p": p, "k": k} for p, k in fields]


def inversion_check_report(p: int, k: int = 1, ns=(2, 3, 4, 5, 6)) -> dict:
    """Both inversion forms per weight; ``pass`` is the plain stated form.

    The plain form is false on proper extensions (see the Frobenius-corrected
    companion, which holds for every k); failing cells carry their
    counterexamples so the defect is visible, not hidden.
    """
    report_mod.check_weights("inversion", p, ns, 2)
    field = FiniteField(p, k)

    def measure(n: int) -> dict:
        rep, frob = inversion_identities(n, field)
        return {"checked": rep.checked, "counterexamples": rep.counterexamples[:5],
                "counterexampleCount": len(rep.counterexamples),
                "frobeniusFormOk": frob.passed, "pass": rep.passed}

    return report_mod.assemble(
        "inversion", {"p": p, "k": k, "ns": list(ns)}, None,
        report_mod.records([({"n": n}, (n,)) for n in ns], measure),
    )


CHECKS = {spec.name: spec for spec in (
    Check("theorem", coleman, "verify_theorem",
          full=_grid((5, 7, 11, 13), (2, 3, 4), (1, 2), gap=1),
          small=_grid((5,), (2,), (1,), samples=5) + _grid((7,), (3,), (2,), samples=5)),
    Check("proposition1", coleman, "check_prop_reduction",
          full=_grid((5, 7, 11), (1, 2, 3), (1, 2)),
          small=_grid((5,), (1,), (1,), samples=10)),
    Check("corollary", coleman, "check_corollary",
          full=_corollary_fields(),
          small=[{"p": 5, "k": 1}, {"p": 5, "k": 2}]),
    Check("maincong", coleman, "check_maincong",
          full=_grid((5, 7, 11), (1, 2, 3), (1, 2), gap=1),
          small=_grid((5,), (2,), (1,), samples=10)),
    Check("g-valuation", coleman, "check_g_valuations",
          full=_grid((5, 7, 11), (1, 2, 3), (1,), gap=1),
          small=_grid((5,), (2,), (1,))),
    Check("funceq", coleman, "check_functional_equation",
          full=_grid((5, 7, 11), (2, 3, 4), (1,), gap=1),
          small=_grid((7,), (2,), (1,), samples=5)),
    Check("delprop", section3, "delprop_check",
          full=_grid((5, 7, 11), (0, 1, 2, 3), (1,), gap=2),
          small=_grid((7,), (2,), (1,), samples=3)),
    Check("f-lemmas", section3, "f_lemmas_check",
          full=_grid((5, 7, 11), (0, 1, 2, 3), (1,), gap=1),
          small=_grid((5,), (2,), (1,), samples=3)),
    Check("e-recover", section3, "e_recover_check",
          full=_grid((7,), (2, 3), (1,)) + _grid((11,), (3,), (1,)),
          small=_grid((7,), (2,), (1,), samples=3)),
    Check("identities", identities, "identities_report",
          full=[{"nmax": 12}],
          small=[{"nmax": 6}]),
    Check("inversion", sys.modules[__name__], "inversion_check_report",
          full=[{"p": p, "k": k, "ns": (2, 3, 4, 5, 6)}
                for p in (5, 7, 11, 13) for k in (1, 2)],
          small=[{"p": 5, "k": 1, "ns": (2,)}, {"p": 7, "k": 1, "ns": (3,)}]),
)}


def run_matrix(kind: str = "full", seed: int = DEFAULT_SEED, jobs: int = 1,
               progress=None) -> dict:
    """Run every check over its matrix; returns an aggregate report.  The run
    is serial, so ``jobs`` must be 1.

    The cells run stably sorted by their (p, k, n), a missing key read as
    0, and ``progress`` sees each report in that order as its cell
    finishes, while ``reports`` keeps table order.  In that order the 2
    slots of ``coleman.shared_evaluators`` build each disc series and
    measure sum once: the cells at (p, k, n) read the evaluator of weight n
    (1 at n = 0), delprop that of weight n + 1, which the cells at n + 1
    read next, and the corollary its own (m = 2)."""
    if kind not in ("full", "small"):
        raise report_mod.ConfigError(f"unknown matrix {kind!r}: expected 'full' or 'small'")
    if jobs != 1:
        raise report_mod.ConfigError(f"verify all runs serially: jobs must be 1, "
                                     f"got {jobs}")
    cells = []
    for spec in CHECKS.values():
        knobs = {"seed": seed} if "seed" in spec.knobs else {}
        cells += [(spec, {**cell, **knobs})
                  for cell in (spec.full if kind == "full" else spec.small)]
    reports = [None] * len(cells)
    with coleman.shared_evaluators():
        for i in sorted(range(len(cells)), key=lambda i: [cells[i][1].get(x, 0) for x in "pkn"]):
            spec, kwargs = cells[i]
            reports[i] = spec.run(**kwargs)
            if progress is not None:
                progress(reports[i])
    return {
        "schemaVersion": report_mod.SCHEMA_VERSION,
        "command": "all",
        "params": {"matrix": kind, "seed": seed},
        "reports": reports,
        "failures": sum(1 for r in reports if not r["pass"]),
        "pass": all(r["pass"] for r in reports),
    }
