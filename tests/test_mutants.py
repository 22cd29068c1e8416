"""The pure parts of the mutation sampler ``tools/mutants.py``: reading a
diff, finding the changed functions, listing and applying the operators,
and drawing a reproducible sample.  Running the mutants is not a tier-1
step."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


@pytest.fixture
def mutants(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "mutants", module)  # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module


DIFF = """\
diff --git a/src/algebroids/m.py b/src/algebroids/m.py
--- a/src/algebroids/m.py
+++ b/src/algebroids/m.py
@@ -3 +3 @@ def f(x):
-    return x
+    return -x
@@ -10,2 +10,0 @@ class C:
-    pass
-    pass
@@ -20,0 +19,3 @@ def h():
+    a
+    b
+    c
diff --git a/src/algebroids/gone.py b/src/algebroids/gone.py
deleted file mode 100644
--- a/src/algebroids/gone.py
+++ /dev/null
@@ -1,2 +0,0 @@
-x = 1
-y = 2
"""

MODULE = """\
def f(x):
    y = 1
    return y - x


class C:
    def m(self):
        def inner():
            return 1
        return inner


def g(acc, t, a, b, r):
    for c in range(b, r):
        acc.add_product(t.get((a, c)), t[(c, a)])
        acc.add(t[(a, b)])
    if acc is not None:
        yield (a, b), 1, None, 1
    return dict[tuple, int], (a, b) + (c,), a - b, t[:a] + t[a + 1 :], (b,) + t[:a] + t[c:]
"""


def test_a_diff_becomes_new_side_lines(mutants):
    lines = mutants.changed_lines(DIFF)
    assert lines == {"src/algebroids/m.py": {3, 10, 19, 20, 21}}


def test_a_function_changes_where_a_line_of_it_does(mutants):
    tree = ast.parse(MODULE)
    assert mutants.changed_functions(tree, "m", {3}) == ["m.f"]
    assert mutants.changed_functions(tree, "m", {9}) == ["m.C.m"]  # a nested line
    assert mutants.changed_functions(tree, "m", {5, 12}) == []
    assert mutants.changed_functions(tree, "m", {1, 14}) == ["m.f", "m.g"]


def applied(mutants, operator):
    """The mutated text of g for every site of the operator."""
    sources = {"src/algebroids/m.py": MODULE}
    found = [
        m for m in mutants.all_mutants(sources, {"src/algebroids/m.py": {14}})
        if m.operator == operator
    ]
    out = []
    for m in found:
        text, line, code = m.apply(MODULE)
        g = next(n for n in ast.parse(text).body if getattr(n, "name", None) == "g")
        out.append((line, ast.unparse(g).splitlines()[1:]))
    return out


def test_each_operator_mutates_its_sites(mutants):
    body = ast.unparse(ast.parse(MODULE).body[2]).splitlines()[1:]

    def changed(operator):
        # for each site, the lines of g that differ from the original
        return [
            [new for old, new in zip(body, lines) if old != new]
            for _, lines in applied(mutants, operator)
        ]

    # sums of numbers only: tuples and slices concatenate
    assert changed("plus-minus") == [
        ["    return (dict[tuple, int], (a, b) + (c,), a + b, t[:a] + t[a + 1:], (b,) + t[:a] + t[c:])"],
        ["    return (dict[tuple, int], (a, b) + (c,), a - b, t[:a] + t[a - 1:], (b,) + t[:a] + t[c:])"],
    ]
    assert changed("negate-sign") == [
        ["        acc.add_product(t.get((a, c)), t[c, a], -1)"],
        ["        acc.add(t[a, b], -1)"],
        ["        yield ((a, b), 1, None, -1)"],
    ]
    # the tuples of names read as keys, not the type parameters of dict
    assert sorted(changed("swap-key")) == [
        ["        acc.add(t[b, a])"],
        ["        acc.add_product(t.get((a, c)), t[a, c])"],
        ["        acc.add_product(t.get((c, a)), t[c, a])"],
        ["        yield ((b, a), 1, None, 1)"],
    ]
    assert changed("range-start") == [["    for c in range(b + 1, r):"]]
    assert changed("drop") == [["        None"], ["        None"], ["        None"]]
    assert changed("is-swap") == [["    if acc is None:"]]


def test_the_sample_is_fixed_by_its_seed(mutants):
    sources = {"src/algebroids/m.py": MODULE}
    every = mutants.all_mutants(sources, {"src/algebroids/m.py": {3, 14}})
    assert {m.function for m in every} == {"m.f", "m.g"}
    assert mutants.sample(every, 5, 0) == mutants.sample(every, 5, 0)
    assert mutants.sample(every, 5, 0) != mutants.sample(every, 5, 1)
    assert sorted(mutants.sample(every, 100, 0), key=every.index) == every
