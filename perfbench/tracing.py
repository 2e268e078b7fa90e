"""Spans around the public functions of each polylogp module, from outside.

The traced run wraps the functions listed in ``TARGETS`` in place (module
globals and class attributes), so the package source is not touched.  Each
call records one span: name, start, end, parent span and cell id.  Spans
are kept in memory as flat columns and written out when the run ends; the
per-function summary is the number of calls, the self time, that is a
span's duration minus the part of it that its child spans cover, and the
total time of its outermost spans (a recursive call is not counted twice).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

# (span name, module under polylogp, attribute path in that module).  The
# names are the per-layer metric names; the layer is the first component.
TARGETS = [
    ("matrix.run_matrix", "matrix", "run_matrix"),
    ("matrix.inversion_check_report", "matrix", "inversion_check_report"),
    ("coleman.verify_theorem", "coleman", "verify_theorem"),
    ("coleman.check_prop_reduction", "coleman", "check_prop_reduction"),
    ("coleman.check_corollary", "coleman", "check_corollary"),
    ("coleman.check_maincong", "coleman", "check_maincong"),
    ("coleman.check_g_valuations", "coleman", "check_g_valuations"),
    ("coleman.check_functional_equation", "coleman", "check_functional_equation"),
    ("coleman.li_p_riemann", "coleman", "PolylogEvaluator.li_p_riemann"),
    ("coleman.li_n_teich", "coleman", "PolylogEvaluator.li_n_teich"),
    ("coleman.g_series", "coleman", "PolylogEvaluator.g_series"),
    ("coleman.li_n_at", "coleman", "PolylogEvaluator.li_n_at"),
    ("coleman.f_n_at", "coleman", "PolylogEvaluator.f_n_at"),
    ("coleman.df_n_at", "coleman", "PolylogEvaluator.df_n_at"),
    ("coleman.big_l_at", "coleman", "PolylogEvaluator.big_l_at"),
    ("section3.delprop_check", "section3", "delprop_check"),
    ("section3.f_lemmas_check", "section3", "f_lemmas_check"),
    ("section3.e_recover_check", "section3", "e_recover_check"),
    ("section3.f_series", "section3", "f_series"),
    ("identities.identities_report", "identities", "identities_report"),
    ("power_series.TruncSeries.__mul__", "power_series", "TruncSeries.__mul__"),
    ("power_series.TruncSeries.integrate", "power_series", "TruncSeries.integrate"),
    ("power_series.TruncSeries.eval_at", "power_series", "TruncSeries.eval_at"),
    ("padic_core.teichmuller", "padic_core", "teichmuller"),
    ("padic_core.padic_log", "padic_core", "padic_log"),
    ("padic_core.WittApprox.__mul__", "padic_core", "WittApprox.__mul__"),
    ("padic_core.WittApprox.__add__", "padic_core", "WittApprox.__add__"),
    ("padic_core.WittApprox.inv", "padic_core", "WittApprox.inv"),
    ("finite_poly.li_finite", "finite_poly", "li_finite"),
    ("finite_poly.sigma", "finite_poly", "sigma"),
    ("finite_poly.FpkElement.__mul__", "finite_poly", "FpkElement.__mul__"),
    ("finite_poly.FpkElement.inverse", "finite_poly", "FpkElement.inverse"),
    ("report.assemble", "report", "assemble"),
    ("report.to_json", "report", "to_json"),
    ("rng.SplitMix64.fork", "rng", "SplitMix64.fork"),
]

LAYERS = ["matrix", "coleman", "section3", "power_series", "padic_core",
          "finite_poly", "report", "rng", "identities"]


class SpanRecorder:
    """In-memory span store; ``wrap`` turns a function into a traced one."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.cell = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.cell_id = -1
        self._stack = [-1]
        self._active: list[int] = []  # open spans per name id

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._name_ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        clock, stack, active = self.clock, self._stack, self._active
        names, parents, cells = self.name, self.parent, self.cell
        starts, ends, outer = self.start, self.end, self.outer

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            cells.append(self.cell_id)
            ends.append(0.0)
            outer.append(active[nid] == 0)
            active[nid] += 1
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
                active[nid] -= 1

        return functools.update_wrapper(traced, fn)

    def self_times(self) -> list[float]:
        """Duration of each span minus the union of its children's intervals.

        Spans are stored in call order, so a span's children appear after it
        and in order of their start; ``reach`` is how far the children seen
        so far cover their parent.
        """
        start, end, parent = self.start, self.end, self.parent
        covered = [0.0] * len(start)
        reach = list(start)
        for i in range(len(start)):
            p = parent[i]
            if p < 0:
                continue
            lo = start[i] if start[i] > reach[p] else reach[p]
            if end[i] > lo:
                covered[p] += end[i] - lo
                reach[p] = end[i]
        return [end[i] - start[i] - covered[i] for i in range(len(start))]

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self time, total time of outermost spans), seconds."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        for i, st in enumerate(self.self_times()):
            nid = self.name[i]
            calls[nid] += 1
            self_s[nid] += st
            if self.outer[i]:
                total_s[nid] += self.end[i] - self.start[i]
        return {name: (calls[i], self_s[i], total_s[i])
                for i, name in enumerate(self.names)}

    def write(self, directory: Path) -> None:
        """Write the span columns as raw arrays plus a JSON index."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = {"name": self.name, "parent": self.parent, "cell": self.cell,
                   "start": self.start, "end": self.end, "outer": self.outer}
        for col, data in columns.items():
            with open(directory / f"{col}.bin", "wb") as fh:
                data.tofile(fh)
        index = {
            "spans": len(self),
            "names": self.names,
            "columns": {col: {"file": f"{col}.bin", "typecode": data.typecode,
                              "itemsize": data.itemsize}
                        for col, data in columns.items()},
            "byteorder": sys.byteorder,
            "clock": "time.perf_counter, seconds",
            "parentRoot": -1,
        }
        (directory / "index.json").write_text(json.dumps(index, indent=1) + "\n")


def package_modules() -> list:
    """The loaded polylogp modules."""
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "polylogp" or name.startswith("polylogp."))]


def _resolve(module: str, path: str):
    """(owner, attribute) for a target, or None when it no longer exists."""
    try:
        mod = importlib.import_module(f"polylogp.{module}")
    except ImportError:
        return None
    owner_path, _, leaf = path.rpartition(".")
    owner = getattr(mod, owner_path, None) if owner_path else mod
    if owner is None or leaf not in vars(owner):
        return None
    return owner, leaf


@contextmanager
def installed(recorder: SpanRecorder, targets=TARGETS):
    """Wrap every target for the duration of the block; yields the missing ones.

    A module-level function is replaced under every name that binds it in
    any loaded polylogp module, since callers import functions by name.
    """
    restore = []
    missing = []
    try:
        for name, module, path in targets:
            found = _resolve(module, path)
            if found is None:
                missing.append(name)
                continue
            owner, leaf = found
            original = vars(owner)[leaf]
            wrapper = recorder.wrap(name, original)
            if isinstance(owner, type):
                restore.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for mod in package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield missing
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)
