"""Exact field arithmetic, differentiation, evaluation and the grammar."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from algebroids import (
    BudgetError,
    DivisionByZeroError,
    InexactDivisionError,
    ParseError,
    Point,
    Poly,
    PoleError,
    Scalar,
    parse_scalar,
    poly_to_text,
    scalar_to_text,
    set_term_budget,
)
from algebroids.fixtures import random_anticommutable

NAMES = ["x1", "x2"]


def s(text: str) -> Scalar:
    return parse_scalar(text, NAMES)


# -- parsing ---------------------------------------------------------------


def test_parse_zero_literal():
    assert s("0").is_zero()


def test_parse_direct_terms():
    v = s("x1^2 - 2/3*x2")
    assert v.den.is_one()
    assert v.num.terms == {(2, 0): Fraction(1), (0, 1): Fraction(-2, 3)}


def test_parse_then_differentiate_quotient():
    # quotient rule on x1/(1 + x2^2), checked against the expanded form
    v = s("x1/(1 + x2^2)").diff(1)
    assert v.equals(s("-2*x1*x2/(1+x2^2)^2"))


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        s("x1^")
    assert err.value.position == 3


def test_parse_unknown_coordinate():
    with pytest.raises(ParseError):
        s("y1 + 1")


def test_parse_division_by_zero_polynomial():
    with pytest.raises(ParseError):
        s("1/(x1 - x1)")


# -- arithmetic ------------------------------------------------------------


def test_sub_self_is_zero():
    v = s("x1")
    assert (v - v).is_zero()


def test_mul_inverse_is_one():
    assert (s("1/x1") * s("x1")).is_one()


def test_fraction_cancellation_under_cross_multiplication():
    v = s("(x1+x2)/x1") - s("x2/x1")
    assert v.equals(s("1"))


def test_division_by_zero_scalar():
    with pytest.raises(DivisionByZeroError):
        s("x1") / Scalar.zero(2)


# -- differentiation -------------------------------------------------------


def test_power_rule():
    assert s("x1^2*x2").diff(0).equals(s("2*x1*x2"))


def test_derivative_of_constant():
    assert s("5/7").diff(0).is_zero()


def test_quotient_rule_negative_power():
    assert s("1/x2^2").diff(1).equals(s("-2/x2^3"))


# -- evaluation ------------------------------------------------------------


def test_evaluate_square():
    assert s("x1^2").eval_at(Point.of(3, 0)) == 9


def test_evaluate_pole():
    with pytest.raises(PoleError):
        s("1/x1").eval_at(Point.of(0, 1))


def test_evaluate_rational_point():
    assert s("(x1+x2)/(x1-x2)").eval_at(Point.of(3, 1)) == 2


# -- exact equality --------------------------------------------------------


def test_cross_multiplication_equality():
    assert s("(x1^2-x2^2)/(x1-x2)").equals(s("x1+x2"))


def test_distinct_coordinates_differ():
    assert not s("x1").equals(s("x2"))


def test_zero_over_anything_is_zero():
    assert s("0/(1+x1^2)").equals(Scalar.zero(2))


# -- serialization ---------------------------------------------------------


def test_serialize_uses_graded_lex_with_explicit_star():
    assert scalar_to_text(s("x2 + x1^2 - 3"), NAMES) == "x1^2 + x2 - 3"


def test_serialize_leading_negative_folds_into_rational():
    text = scalar_to_text(s("-x1 + 1"), NAMES)
    assert text == "-1*x1 + 1"
    assert parse_scalar(text, NAMES).equals(s("-x1 + 1"))


def test_poly_text_zero():
    assert poly_to_text(Poly.zero(2), NAMES) == "0"


# -- budget ----------------------------------------------------------------


def test_term_budget_aborts_large_products():
    old = set_term_budget(10)
    try:
        big = s("(1 + x1 + x2 + x1*x2 + x1^2 + x2^2)")
        with pytest.raises(BudgetError):
            _ = big * big
    finally:
        set_term_budget(old)


# -- property tests --------------------------------------------------------

rationals = st.builds(
    Fraction, st.integers(-4, 4), st.integers(1, 3)
)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(exponents, rationals, max_size=4))
    return Poly(2, {e: c for e, c in terms.items() if c})


@st.composite
def scalars(draw):
    num = draw(polys())
    den = draw(polys().filter(lambda p: not p.is_zero()))
    return Scalar(num, den)


@given(scalars(), scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_field_axioms(a, b, c):
    assert ((a + b) + c).equals(a + (b + c))
    assert (a * (b + c)).equals(a * b + a * c)
    assert (a - a).is_zero()
    if not b.is_zero():
        assert ((a / b) * b).equals(a)


@given(scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_product_rule(a, b):
    lhs = (a * b).diff(0)
    rhs = a.diff(0) * b + a * b.diff(0)
    assert lhs.equals(rhs)


@given(scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_evaluation_is_a_homomorphism(a, b):
    point = Point.of(Fraction(3, 2), Fraction(-1, 3))
    try:
        va, vb = a.eval_at(point), b.eval_at(point)
    except PoleError:
        return
    assert (a * b).eval_at(point) == va * vb
    assert (a + b).eval_at(point) == va + vb


@given(scalars())
@settings(max_examples=60, deadline=None)
def test_parse_serialize_roundtrip(a):
    text = scalar_to_text(a, NAMES)
    assert parse_scalar(text, NAMES).equals(a)


# -- kernel against a reference -------------------------------------------
#
# The reference is the plain algorithm over {exponent tuple: Fraction}
# dicts; the kernel must agree with it term for term.


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def ref_neg(a):
    return {e: -c for e, c in a.items()}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_diff(a, index):
    out = {}
    for e, c in a.items():
        k = e[index]
        if k:
            e2 = e[:index] + (k - 1,) + e[index + 1 :]
            out[e2] = out.get(e2, Fraction(0)) + c * k
    return {e: c for e, c in out.items() if c}


wide_rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
wide_exponents = st.tuples(*[st.integers(0, 4)] * 3)
WIDE_NAMES = ["x1", "x2", "x3"]


@st.composite
def wide_polys(draw):
    terms = draw(st.dictionaries(wide_exponents, wide_rationals, max_size=6))
    return Poly(3, terms)


@given(wide_polys(), wide_polys())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_reference(p, q):
    a, b = dict(p.terms), dict(q.terms)
    assert dict((p + q).terms) == ref_add(a, b)
    assert dict((p - q).terms) == ref_add(a, ref_neg(b))
    assert dict((p * q).terms) == ref_mul(a, b)
    for i in range(3):
        assert dict(p.diff(i).terms) == ref_diff(a, i)


@given(wide_polys(), wide_polys().filter(lambda q: not q.is_zero()))
@settings(max_examples=60, deadline=None)
def test_divide_exact_inverts_product(p, q):
    assert (p * q).divide_exact(q) == p


@given(wide_polys(), wide_polys(), wide_polys())
@settings(max_examples=60, deadline=None)
def test_equal_values_have_one_form(p, q, r):
    pairs = [
        ((p + q) * r, p * r + q * r),
        (p - q + q, p),
        (p.scale(Fraction(-6, 7)).scale(Fraction(7, 3)), p.scale(-2)),
        ((p * p - q * q), (p + q) * (p - q)),
        (-p, Poly(3, {e: -c for e, c in p.terms.items()})),
    ]
    for lhs, rhs in pairs:
        assert lhs == rhs
        assert poly_to_text(lhs, WIDE_NAMES) == poly_to_text(rhs, WIDE_NAMES)


def test_terms_is_a_read_only_view():
    v = s("x1^2 - 2/3*x2")
    assert len(v.num.terms) == 2
    with pytest.raises(TypeError):
        v.num.terms[(0, 0)] = Fraction(1)


def test_inexact_division_raises_typed_error():
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
    one = Poly.one(2)
    with pytest.raises(InexactDivisionError):
        (x1 * x1 + one).divide_exact(x1 + one)  # nonzero remainder
    with pytest.raises(InexactDivisionError):
        x1.divide_exact(x2)  # leading monomial does not divide
    with pytest.raises(ValueError):  # callers catching ValueError still do
        (x1 + one.scale(2)).divide_exact(x1.scale(2) + one)


def test_constant_ratio_of_polynomials_with_one_primitive_part():
    p = s("x1*x2 + 2").num
    assert p.scale(Fraction(-3, 4)).constant_ratio(p) == (-3, 4)
    assert p.constant_ratio(p.scale(6)) == (1, 6)
    assert Poly.constant(2, 2).constant_ratio(Poly.constant(2, Fraction(-1, 3))) == (-6, 1)
    assert p.constant_ratio(s("x1*x2 + 3").num) is None
    assert Poly.one(2).constant_ratio(p) is None
    with pytest.raises(ZeroDivisionError):
        p.constant_ratio(Poly.zero(2))


def test_exponent_overflow_raises_budget_error():
    x = Poly.variable(1, 0)
    half = x ** (2**14)
    assert half.total_degree() == 2**14
    with pytest.raises(BudgetError) as err:
        _ = half * half
    assert "Poly.__mul__" in str(err.value)
    assert "16384" in str(err.value)
    with pytest.raises(BudgetError):
        Poly(1, {(2**15,): Fraction(1)})


@given(wide_polys(), wide_polys().filter(lambda q: not q.is_zero()))
@settings(max_examples=30, deadline=None)
def test_against_sympy(p, q):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(WIDE_NAMES)

    def to_sympy(poly):
        return sympy.Poly(
            sum(sympy.Rational(c.numerator, c.denominator) * sympy.prod(
                x**k for x, k in zip(xs, e)) for e, c in poly.terms.items()),
            *xs,
            domain="QQ",
        )

    product = p * q
    assert to_sympy(product) == to_sympy(p) * to_sympy(q)
    assert to_sympy(product.divide_exact(q)) == to_sympy(p)


# -- the product of polynomial scalars -----------------------------------------


@given(wide_polys(), wide_polys())
@settings(max_examples=60, deadline=None)
def test_polynomial_product_equals_the_quotient_product(p, q):
    a, b = Scalar(p), Scalar(q)
    got = a * b
    want = Scalar(a.num * b.num, a.den * b.den)
    assert got.num == want.num
    assert got.den == want.den


@given(wide_polys(), wide_polys())
@settings(max_examples=60, deadline=None)
def test_polynomial_product_over_the_budget_raises(p, q):
    terms = (p * q).term_count()
    assume(terms > 1)
    old = set_term_budget(terms - 1)
    try:
        with pytest.raises(BudgetError):
            _ = Scalar(p) * Scalar(q)
    finally:
        set_term_budget(old)


@given(rationals)
@settings(max_examples=30, deadline=None)
def test_frame_derive_of_a_constant_is_zero(c):
    A = random_anticommutable(105, dim=2, rank=3, twist=True).algebroid
    f = Scalar.constant(A.dim, c)
    for a in range(A.rank):
        assert A.frame_derive(a, f) is A.zero()
