"""The fused sum of products ``scalars.Accumulator``: equal to the sequential
loop it replaces, term budget and exponent limit included, and the one way
the contraction loops of the package sum products."""

import ast
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids.errors import BudgetError
from algebroids.scalars import (
    MAX_DEGREE,
    Accumulator,
    Poly,
    Scalar,
    scalar_to_text,
    set_term_budget,
)

from conftest import SRC

# -- parity with the sequential loop ------------------------------------------


def _poly(nvars: int, terms) -> Poly:
    return Poly(nvars, {exps: Fraction(c) for exps, c in terms})


# denominators drawn from a short list, so that equal denominators meet
# and monomial factors cancel
_DENOMINATORS = {
    1: [[((1,), 1), ((0,), 1)], [((1,), 1), ((0,), 2)], [((1,), 1)], [((2,), 1), ((0,), -3)]],
    2: [[((1, 0), 1), ((0, 1), 1)], [((1, 0), 1), ((0, 0), 2)], [((0, 1), 1)],
        [((1, 1), 1), ((0, 0), -1)]],
}


def _pool(nvars: int) -> list[Scalar]:
    """Zero, polynomial, rational and near-the-exponent-limit scalars: small
    polynomials with rational coefficients over the denominators above."""
    rng = random.Random(nvars)
    exps = list(itertools.product(range(3), repeat=nvars))
    coeffs = [Fraction(n, d) for n in range(-4, 5) if n for d in (1, 1, 2, 3)]

    def poly(size):
        return _poly(nvars, [(rng.choice(exps), rng.choice(coeffs)) for _ in range(size)])

    pool = [Scalar.zero(nvars)]
    pool += [Scalar(poly(size)) for size in (1, 1, 2, 2, 3, 3) for _ in range(3)]
    pool += [Scalar(poly(size), _poly(nvars, den))
             for den in _DENOMINATORS[nvars] for size in (1, 2, 3)]
    # a product of two of these passes MAX_DEGREE
    lead = (MAX_DEGREE // 2 + 1,) + (0,) * (nvars - 1)
    pool += [Scalar(_poly(nvars, [(lead, 1), ((0,) * nvars, c)])) for c in (1, 2)]
    return pool


_POOLS = {nvars: _pool(nvars) for nvars in (1, 2)}


@st.composite
def sums(draw):
    """(nvars, start, terms, budget): terms are (x, y or None, sign)."""
    nvars = draw(st.integers(1, 2))
    scalars = st.sampled_from(_POOLS[nvars])
    start = draw(st.none() | scalars)
    terms = draw(st.lists(
        st.tuples(scalars, st.none() | scalars, st.sampled_from([1, -1])),
        max_size=8,
    ))
    budget = draw(st.sampled_from([3, 5, 8, 13, 100_000]))
    return nvars, start, terms, budget


def _outcome(compute, budget: int):
    old = set_term_budget(budget)
    try:
        return "value", compute()
    except BudgetError as exc:
        return "budget", str(exc)
    finally:
        set_term_budget(old)


def sequential(nvars, start, terms) -> Scalar:
    acc = Scalar.zero(nvars) if start is None else start
    for x, y, sign in terms:
        if y is None:
            acc = acc + x if sign > 0 else acc - x
        else:
            acc = acc + x * y if sign > 0 else acc - x * y
    return acc


def fused(nvars, start, terms) -> Scalar:
    acc = Accumulator(nvars, start)
    for x, y, sign in terms:
        if y is None:
            acc.add(x, sign)
        else:
            acc.add_product(x, y, sign)
    return acc.value()


def assert_same_outcome(nvars, start, terms, budget):
    want = _outcome(lambda: sequential(nvars, start, terms), budget)
    got = _outcome(lambda: fused(nvars, start, terms), budget)
    assert got[0] == want[0], (want, got)
    if want[0] == "budget":
        assert got[1] == want[1]
        return
    names = [f"x{i + 1}" for i in range(nvars)]
    assert got[1].num == want[1].num
    assert got[1].den == want[1].den
    assert scalar_to_text(got[1], names) == scalar_to_text(want[1], names)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=sums())
def test_accumulator_is_the_sequential_loop(case):
    assert_same_outcome(*case)


def test_rational_terms_at_every_position():
    """A rational term first, in the middle and last, among polynomial
    terms with rational contents.  Its negation comes last, and the loop
    then returns a polynomial over that denominator, unreduced."""
    x = Scalar(_poly(1, [((1,), 1), ((0,), Fraction(1, 2))]))
    y = Scalar(_poly(1, [((2,), Fraction(2, 3)), ((0,), 1)]))
    q = Scalar(_poly(1, [((1,), 1)]), _poly(1, [((1,), 1), ((0,), 1)]))
    poly_terms = [(x, y, 1), (y, None, -1), (x, x, 1), (y, y, -1)]
    for at in range(len(poly_terms) + 1):
        for rational in ((q, None), (q, x), (x, q)):
            terms = poly_terms[:at] + [(*rational, 1)] + poly_terms[at:] + [(*rational, -1)]
            for start in (None, x, q):
                assert_same_outcome(1, start, terms, 100_000)


def test_budget_is_checked_on_each_sum_and_product():
    """A lone term over the budget is returned as the loop returns it; a
    sum or a product over the budget raises the loop's error."""
    big = Scalar(_poly(1, [((k,), k + 1) for k in range(6)]))
    small = Scalar(_poly(1, [((1,), 1), ((0,), 1)]))
    for terms in (
        [(big, None, 1)],
        [(big, None, 1), (small, None, 1)],
        [(small, small, 1), (small, big, -1)],
        [(big, big, 1)],
        [(small, None, 1), (big, None, -1), (big, None, 1)],
    ):
        for budget in (3, 5, 6, 7, 12):
            assert_same_outcome(1, None, terms, budget)


def test_exponent_limit():
    high = Scalar(_poly(2, [((MAX_DEGREE - 1, 0), 1), ((0, 0), 1)]))
    one_up = Scalar(_poly(2, [((0, 1), 1), ((0, 0), 2)]))
    assert_same_outcome(2, None, [(high, one_up, 1)], 100_000)
    assert_same_outcome(2, None, [(one_up, None, 1), (high, one_up * one_up, 1)], 100_000)
    with pytest.raises(BudgetError, match="exponent limit"):
        fused(2, None, [(one_up, None, 1), (high, one_up * one_up, 1)])


def test_a_sum_of_one_term_is_that_term():
    x = Scalar(_poly(1, [((1,), 3), ((0,), 1)]))
    assert fused(1, None, [(x, None, 1)]) is x
    assert fused(1, x, []) is x
    assert fused(1, x, [(Scalar.zero(1), x, 1)]) is x
    assert fused(1, None, []).is_zero()


# -- the contraction loops sum through it -------------------------------------

# The loops that sum products through ``Accumulator`` (or ``core.sparse_sum``,
# one accumulator per key), as module.function or module.Class.method.
ROUTED = (
    "core.AlgebroidData.section_derive",
    "core.AlgebroidData.jet_derive",
    "core.EForm.apply",
    "core.interior_product",
    "core.bracket",
    "calculus.torsion_apply",
    "calculus.curvature_apply",
    "core._locality_correction",
    "connection.Metric.raised",
    "connection.pairing",
    "connection.covariant_derivative",
    "connection.frame_covariant_tensor",
    "connection.non_metricity",
    "connection.GeometryContext._curvature",
    "connection._frame_contraction",
    "calculus._exterior_component",
    "calculus._leibniz",
    "calculus._bianchi",
    "calculus._form_sum",
    "linalg.mat_vec",
    "core.check_locality_projector",
    "levicivita._koszul_rhs",
    "levicivita.koszul_residual",
    "levicivita.decompose_connection",
    "levicivita.check_levicivita_props",
    "catalog.higher_compatibility_residual",
    "core.wedge",
)

# The only functions that may still rebind a sum of products in place: the
# exceptions of the ``scalars`` docstring that sum Scalar or Poly products,
# and the accumulator's own rational fallback.
SEQUENTIAL = {
    "core.AlgebroidData.frame_derive",
    "linalg._eliminate",
    "scalars.Poly.divide_exact",
    "scalars.Accumulator.add_product",
}


def sequential_sums(node) -> list[int]:
    """Lines under node that rebind a sum of products in place:
    ``x = x + a * b``, ``x = x - a * b`` (either branch of a conditional
    expression) and ``x += a * b``, x any name or subscript."""

    def product(expr) -> bool:
        return isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Mult)

    def rebinds(target, value) -> bool:
        if isinstance(value, ast.IfExp):
            return rebinds(target, value.body) or rebinds(target, value.orelse)
        return (
            isinstance(value, ast.BinOp)
            and isinstance(value.op, (ast.Add, ast.Sub))
            and product(value.right)
            and ast.unparse(value.left) == ast.unparse(target)
        )

    lines = []
    for child in ast.walk(node):
        if isinstance(child, ast.Assign) and len(child.targets) == 1:
            if rebinds(child.targets[0], child.value):
                lines.append(child.lineno)
        elif isinstance(child, ast.AugAssign):
            if isinstance(child.op, (ast.Add, ast.Sub)) and product(child.value):
                lines.append(child.lineno)
    return lines


def _function(module: ast.Module, path: list[str]):
    node = module
    for name in path:
        node = next(
            child for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name
        )
    return node


def test_the_guard_finds_sequential_sums():
    flagged = (
        "acc = acc + a * b", "acc = acc - f(x) * y", "out[c] = out[c] + t * v",
        "acc += a * b", "acc = acc + a * b if s else acc - a * b",
    )
    for text in flagged:
        assert sequential_sums(ast.parse(text)) == [1], text
    for text in ("acc.add_product(a, b)", "acc = acc + b", "acc = other + a * b"):
        assert sequential_sums(ast.parse(text)) == [], text


@pytest.mark.parametrize("qualname", ROUTED)
def test_routed_loops_sum_through_the_accumulator(qualname):
    module, *path = qualname.split(".")
    tree = ast.parse((SRC / "algebroids" / f"{module}.py").read_text(encoding="utf-8"))
    node = _function(tree, path)
    assert sequential_sums(node) == [], f"{qualname} sums products in place"
    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    assert names & {"Accumulator", "accumulators", "sparse_sum"}, qualname


def functions(node, prefix: str):
    """(module.function or module.Class.method, node) for every function and
    method under node; nested functions count as part of their owner."""
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
        elif isinstance(child, ast.ClassDef):
            yield from functions(child, f"{prefix}{child.name}.")


def test_no_other_function_sums_products_in_place():
    hits = {}
    for path in sorted((SRC / "algebroids").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualname, node in functions(tree, f"{path.stem}."):
            if lines := sequential_sums(node):
                hits[qualname] = lines
    assert set(hits) <= SEQUENTIAL, {q: hits[q] for q in set(hits) - SEQUENTIAL}
