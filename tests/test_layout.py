"""Layout guard: every name defined in the package is used by the package.

A function, class or method under ``src/polylogp`` must be referenced
elsewhere in ``src/``, referenced from the benchmark scripts
(``perfbench/*.py``), or exported in ``polylogp.__all__``.  A field of a
``@dataclass`` there must be read as an attribute somewhere in ``src/`` or
``perfbench/*.py``, unless the class is exported: its fields are then part
of the public constructor.  Helpers that only tests call belong in
``tests/``.  Only the one record loop, ``report.records``, builds a record
with an ``"index"`` key, and only ``report`` builds a comparison record, one
with an ``"lhsResidue"`` or ``"lhs"`` key.  No module reads the process environment or imports
thread machinery: each value comes from its flag, a replayed report or its
default, and every check runs serially.  Every name that the benchmark's
tracer wraps (``perfbench/tracing.py``) exists in the package.
"""

import ast
import importlib
from pathlib import Path

import polylogp

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "polylogp").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree) -> list:
    return [node.name for node in ast.walk(tree) if isinstance(node, DEFS)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _references(tree) -> set:
    """Names, attributes, and dotted-name strings such as a driver's name in
    the check table or a traced span's attribute path.  A reference inside a
    definition of the same name (recursion, or a method delegating to a
    namesake such as ``self.tail.derivative()``) does not count as a use."""
    refs = set()

    def visit(node, enclosing):
        if isinstance(node, DEFS):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            names = parts if all(part.isidentifier() for part in parts) else []
        else:
            names = []
        refs.update(name for name in names if name not in enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return refs


def _dataclass_fields(tree, exported=()) -> list:
    """Annotated class-body names of every ``@dataclass`` not in ``exported``."""
    fields = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name not in exported and any(
            "dataclass" in ast.unparse(deco) for deco in node.decorator_list
        ):
            fields += [stmt.target.id for stmt in node.body
                       if isinstance(stmt, ast.AnnAssign)
                       and isinstance(stmt.target, ast.Name)]
    return fields


def _attribute_reads(tree) -> set:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _parse_all() -> dict:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC + BENCH}


def unused_definitions() -> list:
    trees = _parse_all()
    refs = set(polylogp.__all__)
    for tree in trees.values():
        refs |= _references(tree)
    return sorted({name for path in SRC for name in _definitions(trees[path])} - refs)


def unread_dataclass_fields() -> list:
    trees = _parse_all()
    reads = set()
    for tree in trees.values():
        reads |= _attribute_reads(tree)
    fields = {name for path in SRC
              for name in _dataclass_fields(trees[path], polylogp.__all__)}
    return sorted(fields - reads)


def keyed_displays(tree, keys=("index",)) -> list:
    """The top-level definition around each dict display with one of ``keys``."""
    found = []
    for top in tree.body:
        found += [getattr(top, "name", None) for node in ast.walk(top)
                  if isinstance(node, ast.Dict) and any(
                      isinstance(key, ast.Constant) and key.value in keys
                      for key in node.keys)]
    return found


COMPARISON_KEYS = ("lhsResidue", "lhs")


def ambient_uses(tree) -> list:
    """Imports of ``threading`` or ``concurrent``, and uses of ``os.environ``
    or ``os.getenv``, as dotted names."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names += [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.append(f"{node.value.id}.{node.attr}")
    return [name for name in names if name in ("os.environ", "os.getenv")
            or name.split(".")[0] in ("threading", "concurrent")]


def test_scan_sees_the_package():
    assert len(SRC) >= 10 and BENCH
    names = {name for path in SRC for name in _definitions(ast.parse(path.read_text()))}
    assert {"PolylogEvaluator", "li_finite", "inversion_identities"} <= names


def test_src_holds_no_unused_or_test_only_code():
    assert unused_definitions() == []


def test_every_dataclass_field_is_read():
    assert unread_dataclass_fields() == []


def test_an_unread_field_is_flagged():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Pair:\n"
        "    order: int\n"
        "    series: list\n"
        "def build(s):\n"
        "    pair = Pair(order=0, series=s)\n"
        "    pair.order = 1\n"
        "    return pair.series\n"
    )
    assert _dataclass_fields(tree) == ["order", "series"]
    assert _dataclass_fields(tree, exported=["Pair"]) == []
    assert "order" not in _attribute_reads(tree)
    assert "series" in _attribute_reads(tree)


def test_a_reference_inside_a_namesake_is_not_a_use():
    inside = ast.parse(
        "class S:\n"
        "    def derivative(self):\n"
        "        return self.tail.derivative()\n"
        "def walk(n):\n"
        "    return walk(n - 1)\n"
    )
    assert not {"derivative", "walk"} & _references(inside)
    outside = ast.parse("def step(s):\n    return s.derivative()\n")
    assert "derivative" in _references(outside)


def test_only_the_record_loop_numbers_records():
    trees = _parse_all()
    found = [(path.stem, name) for path in SRC for name in keyed_displays(trees[path])]
    assert found == [("report", "records")]


def test_a_hand_numbered_record_is_flagged():
    tree = ast.parse(
        "def check(items):\n"
        "    return [{\"index\": i, \"pass\": ok} for i, ok in enumerate(items)]\n"
        "def lookup(rec):\n"
        "    return rec[\"index\"], {**rec, \"n\": 1}\n"
    )
    assert keyed_displays(tree) == ["check"]


def test_only_report_builds_comparison_records():
    # finite_poly lists each counterexample of an inversion identity by its
    # two sides; that is data of a failing record, not a comparison
    trees = _parse_all()
    found = [(path.stem, name) for path in SRC
             for name in keyed_displays(trees[path], COMPARISON_KEYS)]
    assert found == [("finite_poly", "inversion_identities"),
                     ("report", "residue_record"), ("report", "value_record")]


def test_a_hand_built_comparison_record_is_flagged():
    tree = ast.parse(
        "def check(lhs, rhs):\n"
        "    return {\"lhsResidue\": list(lhs.coeffs), \"pass\": lhs == rhs}\n"
        "def tolerance(lhs, rhs):\n"
        "    rec = {\"pass\": True}\n"
        "    rec.update({\"lhs\": lhs.to_record()})\n"
        "    return rec\n"
        "def lookup(rec):\n"
        "    return rec[\"lhs\"], {**rec, \"lhsResidues\": 1}\n"
    )
    assert keyed_displays(tree, COMPARISON_KEYS) == ["check", "tolerance"]


def test_no_module_reads_the_environment_or_spawns_threads():
    trees = _parse_all()
    found = [(path.stem, name) for path in SRC for name in ambient_uses(trees[path])]
    assert found == []


def test_an_environment_read_or_a_thread_import_is_flagged():
    tree = ast.parse(
        "import os\n"
        "import threading\n"
        "from os import getenv\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "A = int(os.environ.get('A', '4'))\n"
        "B = os.path.join('a', 'b')\n"
    )
    assert ambient_uses(tree) == [
        "threading", "os.getenv", "concurrent.futures",
        "concurrent.futures.ThreadPoolExecutor", "os.environ"]


def _traced_targets() -> list:
    """``TARGETS`` of ``perfbench/tracing.py``, read as a literal, not imported."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py assigns no TARGETS")


def test_every_traced_name_exists():
    # a renamed function silently loses its span; the one pinned miss is the
    # series product, which the series layer no longer has
    targets = _traced_targets()
    assert len(targets) == 35
    missing = []
    for span, module, path in targets:
        owner = importlib.import_module(f"polylogp.{module}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(span)
    assert missing == ["power_series.TruncSeries.__mul__"]
