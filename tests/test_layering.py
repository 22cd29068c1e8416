"""The package is an acyclic stack of modules, each decision with one owner.

Every import of ``src/algebroids`` stands at module level, so the modules'
relative imports form a graph that must have a topological order.  Which
bracket kinds coincide is decided by ``GeometryContext.algebroid``; the
identity suites compare algebroids only where the formula of a kind
differs.
"""

import ast
import graphlib

from conftest import SRC

PACKAGE = SRC / "algebroids"

# The functions of ``calculus`` that may compare algebroids by identity:
# the zero complement of coinciding kinds, the C terms of the general
# Bianchi form, and the d-commute forms of the projected derivative.
IDENTITY_COMPARISONS = {"_complement_locality", "_bianchi", "commutation_pair"}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def function_imports(tree: ast.Module) -> list[int]:
    """Lines of the import statements inside a function or a method."""
    return sorted({
        node.lineno
        for func in ast.walk(tree)
        if isinstance(func, FUNCTIONS)
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def import_graph(modules: dict[str, ast.Module]) -> dict[str, set[str]]:
    """For each module, the sibling modules it imports relatively."""
    graph = {}
    for name, tree in modules.items():
        deps = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:
                    deps.update(alias.name for alias in node.names)
        graph[name] = deps
    return graph


def topological_order(graph: dict[str, set[str]]) -> list[str] | None:
    """Modules after the modules they import, or None on a cycle."""
    try:
        return list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError:
        return None


def identity_comparisons(tree: ast.Module) -> set[str]:
    """Innermost functions holding an ``is`` or ``is not`` comparison with
    no None operand."""
    found = set()

    def is_none(expr) -> bool:
        return isinstance(expr, ast.Constant) and expr.value is None

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Compare):
                operands = [child.left, *child.comparators]
                for op, x, y in zip(child.ops, operands, operands[1:]):
                    if isinstance(op, (ast.Is, ast.IsNot)) and not (is_none(x) or is_none(y)):
                        found.add(owner)
            visit(child, child.name if isinstance(child, FUNCTIONS) else owner)

    visit(tree, None)
    return found


def package_modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_the_guard_finds_function_imports_cycles_and_identity_comparisons():
    assert function_imports(ast.parse("def f():\n    from .calculus import x\n")) == [2]
    assert function_imports(ast.parse("class C:\n    def m(self):\n        import os\n")) == [3]
    assert function_imports(ast.parse("from .calculus import x\n")) == []
    cycle = {"a": ast.parse("from .b import x"), "b": ast.parse("from . import a")}
    assert topological_order(import_graph(cycle)) is None
    chain = {"a": ast.parse("from .b import x"), "b": ast.parse("from .c.d import y")}
    assert topological_order(import_graph(chain)) == ["c", "b", "a"]
    nested = "def f(B, P):\n    def g():\n        return B is not P\n    return g\n"
    assert identity_comparisons(ast.parse(nested)) == {"g"}
    assert identity_comparisons(ast.parse("def f(x):\n    return x is None\n")) == set()
    assert identity_comparisons(ast.parse("def f(x, y):\n    return None is not x is y\n")) == {"f"}


def test_no_import_inside_a_function():
    hits = {name: lines for name, tree in package_modules().items() if (lines := function_imports(tree))}
    assert hits == {}


def test_relative_imports_have_a_topological_order():
    graph = import_graph(package_modules())
    assert topological_order(graph) is not None, graph


def test_calculus_compares_algebroids_only_where_the_formula_differs():
    tree = ast.parse((PACKAGE / "calculus.py").read_text(encoding="utf-8"))
    assert identity_comparisons(tree) <= IDENTITY_COMPARISONS


def outside_reads(tree: ast.Module) -> set[str]:
    """Underscore names imported from ``documents``, and calls of
    ``json.loads`` or ``parse_scalar`` however they were imported."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "documents":
            found |= {f"documents.{a.name}" for a in node.names if a.name.startswith("_")}
        if isinstance(node, ast.ImportFrom) and node.module in ("json", "parsing"):
            found |= {a.name for a in node.names if a.name in ("loads", "parse_scalar")}
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("loads", "parse_scalar"):
                found.add(name)
    return found


def test_the_guard_finds_outside_reads():
    assert outside_reads(ast.parse("from .documents import _parse_matrix, read_frame")) == {
        "documents._parse_matrix"
    }
    assert outside_reads(ast.parse("import json\njson.loads(text)\n")) == {"loads"}
    assert outside_reads(ast.parse("from .parsing import parse_scalar\n")) == {"parse_scalar"}
    assert outside_reads(ast.parse("from json import loads as read\n")) == {"loads"}
    assert outside_reads(ast.parse("import json\njson.dumps(obj)\n")) == set()


def test_cli_reads_no_outside_value_itself():
    # every rule for reading documents and flag values is owned by documents
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert outside_reads(tree) == set()
