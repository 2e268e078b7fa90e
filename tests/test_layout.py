"""Layout guard: every name defined in the package is used by the package.

A function, class or method under ``src/polylogp`` must be referenced
elsewhere in ``src/``, referenced from the benchmark scripts
(``perfbench/*.py``), or exported in ``polylogp.__all__``.  A field of a
``@dataclass`` there must be read as an attribute somewhere in ``src/`` or
``perfbench/*.py``, unless the class is exported: its fields are then part
of the public constructor.  Helpers that only tests call belong in
``tests/``.
"""

import ast
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
