"""A seeded sample of mutants of the functions of ``src/algebroids`` that
differ from a git revision, each run against the tier-1 tests.

    python3 tools/mutants.py BASE [--dry-run]

The changed functions are the top-level functions and methods whose lines
(nested functions included) meet a hunk of ``git diff -U0 BASE`` on the
package.  Every mutation site in them is listed, for these operators:

- ``plus-minus``: a binary ``+`` made ``-``, or ``-`` made ``+``, where
  neither operand is a tuple, list or slice or a sum of them (a ``-`` of
  sequences cannot run, so such a mutant would only crash; one whose
  operands are sequences held in names is reported ``invalid`` when its
  first failure is a ``TypeError`` of unsupported operand types);
- ``negate-sign``: the sign of an ``add`` or ``add_product`` call, or of a
  keyed term (key, x, y, sign) that is yielded or built in a generator,
  negated;
- ``swap-key``: two neighbouring entries of a tuple of names swapped, as
  in a key (a, b, c) -> (a, c, b);
- ``range-start``: ``range(b, r)`` made ``range(b + 1, r)``;
- ``drop``: a ``yield``, ``yield from``, ``add`` or ``add_product``
  statement dropped;
- ``is-swap``: ``is`` made ``is not``, or ``is not`` made ``is``.

``COUNT`` (20) sites are drawn with ``random.Random(SEED)`` (seed 0).
The checkout's files are copied once to a temporary directory outside
the checkout; each mutant replaces one module there by the ``ast.unparse``
text of its mutated tree, and the tier-1 tests run on the copy with
``-x``, once on the unmutated copy, which must pass, and once per mutant.
One line per mutant: ``killed``, ``survived``, ``invalid`` or ``timeout``
(after ``TIMEOUT`` seconds), the function, the operator, the line and the
mutated code.  A survivor is either a gap in the tests or an equivalent
mutant; which one is for the reader to decide.  ``--dry-run`` prints the
changed functions and the sample without running anything.  Writes
nothing in the checkout; a run takes about a minute per surviving mutant.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/algebroids"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SUMS = ("add", "add_product")
COUNT, SEED = 20, 0
TIMEOUT = 900  # seconds per test run; a passing run takes about a minute
HUNK = re.compile(r"^@@ -\d+(?:,\d+)? \+(\d+)(?:,(\d+))? @@")


def changed_lines(diff: str) -> dict[str, set[int]]:
    """For each file of a ``git diff -U0`` text, the new-side lines its
    hunks touch; a hunk that only deletes marks the line before the gap."""
    lines: dict[str, set[int]] = {}
    current = None
    for line in diff.splitlines():
        if line.startswith("+++ "):
            path = line[4:]
            current = None if path == "/dev/null" else lines.setdefault(path.removeprefix("b/"), set())
        elif current is not None and (m := HUNK.match(line)):
            start, count = int(m[1]), int(m[2] or 1)
            current.update(range(start, start + count) if count else {start})
    return lines


def functions(tree: ast.Module, prefix: str):
    """(qualified name, node) of each top-level function and method."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, FUNCTIONS):
                    yield f"{prefix}{node.name}.{child.name}", child


def changed_functions(tree: ast.Module, module: str, lines: set[int]) -> list[str]:
    return [
        name for name, node in functions(tree, module + ".")
        if any(node.lineno <= k <= node.end_lineno for k in lines)
    ]


# -- the operators ---------------------------------------------------------------


def _negated(expr: ast.expr) -> ast.expr:
    return ast.UnaryOp(ast.USub(), expr)


def _sum_call(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in SUMS


def _term(node) -> ast.Tuple | None:
    """The (key, x, y, sign) tuple a yield or a generator builds, if any."""
    if isinstance(node, (ast.Yield, ast.GeneratorExp, ast.ListComp)):
        elt = node.value if isinstance(node, ast.Yield) else node.elt
        if isinstance(elt, ast.Tuple) and len(elt.elts) == 4:
            return elt
    return None


def _key(node, parent) -> bool:
    """A tuple of two or more names read as a key: a subscript, the
    argument of ``get``, a dict or comprehension key, the left side of
    ``in`` or the key of a term."""
    if not (
        isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load)
        and len(node.elts) >= 2 and all(isinstance(e, ast.Name) for e in node.elts)
    ):
        return False
    return (
        isinstance(parent, ast.Subscript) and parent.slice is node
        and not (isinstance(parent.value, ast.Name) and parent.value.id in ("dict", "list", "tuple"))
        or isinstance(parent, ast.Call) and isinstance(parent.func, ast.Attribute)
        and parent.func.attr == "get" and node in parent.args
        or isinstance(parent, ast.DictComp) and parent.key is node
        or isinstance(parent, ast.Dict) and node in parent.keys
        or isinstance(parent, ast.Compare) and parent.left is node
        and isinstance(parent.ops[0], (ast.In, ast.NotIn))
        or isinstance(parent, ast.Tuple) and len(parent.elts) == 4 and parent.elts[0] is node
    )


def _sequence(node) -> bool:
    """A tuple, list or slice, or a ``+`` of them."""
    return (
        isinstance(node, (ast.Tuple, ast.List, ast.ListComp))
        or isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)
        or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
        and (_sequence(node.left) or _sequence(node.right))
    )


def sites(node: ast.AST):
    """(operator, walk position, detail) of every mutation site under node,
    in ``ast.walk`` order."""
    parents = {child: up for up in ast.walk(node) for child in ast.iter_child_nodes(up)}
    for k, child in enumerate(ast.walk(node)):
        if isinstance(child, ast.BinOp) and isinstance(child.op, (ast.Add, ast.Sub)) and not _sequence(child):
            yield "plus-minus", k, None
        if _sum_call(child) or _term(child) is not None:
            yield "negate-sign", k, None
        if _key(child, parents.get(child)):
            for i in range(len(child.elts) - 1):
                if child.elts[i].id != child.elts[i + 1].id:
                    yield "swap-key", k, i
        if (
            isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
            and child.func.id == "range" and len(child.args) == 2
        ):
            yield "range-start", k, None
        if isinstance(child, ast.Expr) and (
            isinstance(child.value, (ast.Yield, ast.YieldFrom)) or _sum_call(child.value)
        ):
            yield "drop", k, None
        if isinstance(child, ast.Compare):
            for i, op in enumerate(child.ops):
                if isinstance(op, (ast.Is, ast.IsNot)):
                    yield "is-swap", k, i


def mutate(node: ast.AST, operator: str, detail) -> None:
    """Apply one operator, in place, to the node a site names."""
    if operator == "plus-minus":
        node.op = ast.Sub() if isinstance(node.op, ast.Add) else ast.Add()
    elif operator == "negate-sign":
        if _sum_call(node):
            arity = 2 if node.func.attr == "add_product" else 1
            if len(node.args) > arity:
                node.args[arity] = _negated(node.args[arity])
            else:
                node.args.append(ast.Constant(-1))
        else:
            elts = _term(node).elts
            elts[3] = _negated(elts[3])
    elif operator == "swap-key":
        elts = node.elts
        elts[detail], elts[detail + 1] = elts[detail + 1], elts[detail]
    elif operator == "range-start":
        node.args[0] = ast.BinOp(node.args[0], ast.Add(), ast.Constant(1))
    elif operator == "drop":
        node.value = ast.Constant(None)
    elif operator == "is-swap":
        node.ops[detail] = ast.IsNot() if isinstance(node.ops[detail], ast.Is) else ast.Is()
    else:
        raise ValueError(f"unknown operator {operator!r}")


# -- the sample ------------------------------------------------------------------


@dataclass(frozen=True)
class Mutant:
    path: str  # relative to the checkout
    function: str
    operator: str
    position: int  # in ``ast.walk`` order under the function
    detail: int | None

    def apply(self, source: str) -> tuple[str, int, str]:
        """(the mutated module's text, the site's line, the mutated code)."""
        tree = ast.parse(source)
        module = Path(self.path).stem
        node = dict(functions(tree, module + "."))[self.function]
        site = next(n for k, n in enumerate(ast.walk(node)) if k == self.position)
        line = getattr(site, "lineno", node.lineno)
        mutate(site, self.operator, self.detail)
        ast.fix_missing_locations(tree)
        return ast.unparse(tree), line, ast.unparse(site).splitlines()[0][:70]


def all_mutants(sources: dict[str, str], lines: dict[str, set[int]]) -> list[Mutant]:
    """Every mutant of the changed functions, in file and walk order."""
    out = []
    for path in sorted(sources):
        tree = ast.parse(sources[path])
        module = Path(path).stem
        nodes = dict(functions(tree, module + "."))
        for name in changed_functions(tree, module, lines.get(path, set())):
            out += [Mutant(path, name, *site) for site in sites(nodes[name])]
    return out


def sample(mutants: list[Mutant], count: int, seed: int) -> list[Mutant]:
    return random.Random(seed).sample(mutants, min(count, len(mutants)))


# -- the runs --------------------------------------------------------------------


def checkout_files() -> list[str]:
    """The checkout's files, tracked or not, that git does not ignore."""
    out = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "--cached", "--others", "--exclude-standard"],
        capture_output=True, text=True, check=True,
    ).stdout
    return [p for p in out.splitlines() if (ROOT / p).is_file()]


def run_tests(copy: Path, operator: str | None = None) -> str:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(copy / "src")}
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=copy, env=env, capture_output=True, timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    if run.returncode == 0:
        return "survived"
    if operator == "plus-minus" and b"unsupported operand type(s)" in run.stdout:
        return "invalid"  # the mutated sum cannot run: a crash, not a test
    return "killed"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the git revision the functions are compared with")
    parser.add_argument("--dry-run", action="store_true")
    args = parser.parse_args(argv)
    diff = subprocess.run(
        ["git", "-C", str(ROOT), "diff", "-U0", args.base, "--", PACKAGE],
        capture_output=True, text=True, check=True,
    ).stdout
    lines = changed_lines(diff)
    sources = {
        path: (ROOT / path).read_text(encoding="utf-8")
        for path in lines if path.endswith(".py") and (ROOT / path).is_file()
    }
    mutants = all_mutants(sources, lines)
    changed = sorted({m.function for m in mutants})
    print(f"{len(changed)} changed functions, {len(mutants)} mutation sites: {', '.join(changed)}")
    chosen = sample(mutants, COUNT, SEED)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        if not args.dry_run:
            for rel in checkout_files():
                (copy / rel).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / rel, copy / rel)
            if (verdict := run_tests(copy)) != "survived":
                print(f"the unmutated copy did not pass ({verdict}); no mutant run")
                return 1
        for mutant in chosen:
            text, line, code = mutant.apply(sources[mutant.path])
            verdict = "sampled"
            if not args.dry_run:
                (copy / mutant.path).write_text(text, encoding="utf-8")
                verdict = run_tests(copy, mutant.operator)
                (copy / mutant.path).write_text(sources[mutant.path], encoding="utf-8")
            name = Path(mutant.path).name
            print(f"{verdict:8} {mutant.function} {mutant.operator} {name}:{line} {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
