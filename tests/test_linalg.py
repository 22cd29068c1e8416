"""Fraction-free elimination and exact matrix inversion."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, given, seed, settings
from hypothesis import strategies as st

from algebroids import (
    Poly,
    Scalar,
    ShapeError,
    SingularMatrixError,
    levicivita,
    parse_scalar,
    scalar_to_text,
)
from algebroids.fixtures import random_anticommutable
from algebroids.levicivita import solve_torsion_free
from algebroids.linalg import (
    LinearSolution,
    _clear_row,
    _poly_quality,
    invert_matrix,
    kernel_basis,
    mat_mul,
    solve_affine,
)

NAMES = ["x1", "x2"]


def s(text):
    return parse_scalar(text, NAMES)


def test_invert_symbolic_matrix():
    m = [[s("1"), s("x1")], [s("0"), s("x2")]]
    inv = invert_matrix(m)
    prod = mat_mul(m, inv)
    for i in range(2):
        for j in range(2):
            want = Scalar.one(2) if i == j else Scalar.zero(2)
            assert prod[i][j].equals(want)


def test_invert_rejects_symbolically_singular():
    m = [[s("x1"), s("x1")], [s("1"), s("1")]]
    with pytest.raises(SingularMatrixError):
        invert_matrix(m)


def test_invert_accepts_pointwise_singular_but_symbolically_regular():
    # vanishes at x1 = 0 but is invertible over the fraction field
    m = [[s("x1"), s("0")], [s("0"), s("1")]]
    inv = invert_matrix(m)
    assert inv[0][0].equals(s("1/x1"))


def test_solve_unique():
    rows = [
        ({0: s("1"), 1: s("1")}, s("3")),
        ({0: s("1"), 1: s("-1")}, s("1")),
    ]
    sol = solve_affine(rows, 2, 2)
    assert sol.status == "unique"
    assert sol.particular[0].equals(s("2"))
    assert sol.particular[1].equals(s("1"))


def test_solve_affine_kernel():
    rows = [({0: s("1"), 1: s("x1")}, s("x1^2"))]
    sol = solve_affine(rows, 2, 2)
    assert sol.status == "affine"
    assert len(sol.kernel_basis) == 1
    # every member satisfies the equation identically
    for member in (sol.particular, [
        a + b for a, b in zip(sol.particular, sol.kernel_basis[0])
    ]):
        residual = member[0] + s("x1") * member[1] - s("x1^2")
        assert residual.is_zero()


def test_solve_infeasible_with_witness():
    rows = [
        ({0: s("1")}, s("1")),
        ({0: s("1")}, s("2")),
    ]
    sol = solve_affine(rows, 1, 2)
    assert sol.status == "infeasible"
    assert not sol.witness.is_zero()


def test_solve_polynomial_pivots_exact():
    # forces elimination through non-constant pivots
    rows = [
        ({0: s("x1"), 1: s("x2")}, s("x1*x2")),
        ({0: s("x2"), 1: s("x1")}, s("x1*x2")),
    ]
    sol = solve_affine(rows, 2, 2)
    assert sol.status == "unique"
    for coeffs, rhs in rows:
        acc = Scalar.zero(2) - rhs
        for col, v in coeffs.items():
            acc = acc + v * sol.particular[col]
        assert acc.is_zero()


def test_shared_denominator_objects_cleared_correctly():
    # one object reused in two slots plus an equal-but-distinct object
    D = s("1/x1")
    D2 = s("1/x1")
    rows = [
        ({0: Scalar.one(2), 1: D}, s("2/x1")),
        ({1: D, 2: D2}, Scalar.zero(2)),
        ({2: Scalar.one(2)}, Scalar.one(2)),
    ]
    sol = solve_affine(rows, 3, 2)
    assert sol.status == "unique"
    x, y, z = sol.particular
    assert z.is_one()
    assert y.equals(s("-1"))
    assert x.equals(s("3/x1"))


@pytest.mark.parametrize(
    "row, message",
    [
        (({-1: Scalar.one(1)}, Scalar.constant(1, 2)), "column -1 out of range"),
        (({2: Scalar.one(1)}, Scalar.one(1)), "column 2 out of range"),
        (({0: Scalar.one(2)}, Scalar.one(1)), "entry in column 0 has 2 coordinates"),
        (({0: Scalar.one(1)}, Scalar.one(2)), "right side has 2 coordinates"),
    ],
    ids=["negative-column", "column-past-the-unknowns", "entry-nvars", "rhs-nvars"],
)
def test_solve_affine_rejects_a_row_outside_its_shape(row, message):
    # unchecked, a negative column indexes the unknowns from the end and a
    # column past them fails with a bare IndexError in the back substitution
    good = ({0: Scalar.one(1)}, Scalar.one(1))
    with pytest.raises(ShapeError, match=message):
        solve_affine([good, row], 2, 1)


def test_kernel_basis_of_anchor_style_matrix():
    m = [[s("1"), s("0"), s("x1")], [s("0"), s("1"), s("x2")]]
    basis = kernel_basis(m, 3, 2)
    assert len(basis) == 1
    vec = basis[0]
    for row in m:
        acc = Scalar.zero(2)
        for entry, x in zip(row, vec):
            acc = acc + entry * x
        assert acc.is_zero()


# -- properties of solve_affine on random sparse systems ---------------------

DENOMINATORS = ("1", "x1", "1 + x2", "x1*x2 + 2")
_point_rng = random.Random(2021)
# A fixed rational point off every pole of DENOMINATORS.  A matrix has the
# same rank there as over the field unless one of its minors vanishes at it.
RANK_POINT = [
    Fraction(_point_rng.randint(-10**6, 10**6), _point_rng.randint(1, 10**6))
    for _ in NAMES
]

ZERO = Scalar.zero(2)
coefficients = st.builds(
    Fraction, st.integers(-3, 3).filter(bool), st.sampled_from((1, 2, 3))
)


@st.composite
def entries(draw):
    # few denominators for many entries, so rows share them
    monomials = st.tuples(st.integers(0, 2), st.integers(0, 2))
    terms = draw(st.dictionaries(monomials, coefficients, min_size=1, max_size=3))
    return Scalar(Poly(2, terms)) / s(draw(st.sampled_from(DENOMINATORS)))


@st.composite
def systems(draw):
    """Up to 6 x 6: sparse rows, unused (free) columns and rows that
    combine two earlier ones, all solved by one drawn vector, then at most
    one right side shifted, which makes the system inconsistent whenever
    that row depends on the others."""
    ncols = draw(st.integers(1, 6))
    solution = [draw(entries()) for _ in range(ncols)]
    rows = []
    for _ in range(draw(st.integers(1, min(ncols, 5)))):
        cols = draw(st.sets(st.integers(0, ncols - 1), min_size=1, max_size=3))
        rows.append({c: draw(entries()) for c in cols})
    for _ in range(draw(st.integers(0, 6 - len(rows)))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        u, v = draw(entries()), draw(entries())
        rows.append(
            {c: u * a.get(c, ZERO) + v * b.get(c, ZERO) for c in set(a) | set(b)}
        )
    rhs = [_residual(coeffs, solution, ZERO) for coeffs in rows]
    shifted = draw(st.sampled_from([None, *range(len(rows))]))
    if shifted is not None:
        rhs[shifted] = rhs[shifted] + Scalar.constant(2, draw(st.integers(1, 3)))
    return list(zip(rows, rhs)), ncols


def _rank_at(matrix: list[list[Fraction]]) -> int:
    m = [list(row) for row in matrix]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _residual(coeffs, x, rhs) -> Scalar:
    acc = -rhs
    for col, v in coeffs.items():
        acc = acc + v * x[col]
    return acc


# No shrink phase: each shrink step re-solves a rational system, so
# minimising a failing example took minutes; a failure reports as drawn.
@seed(2021)
@given(systems())
@settings(
    max_examples=100,
    deadline=None,
    database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
def test_solve_affine_properties(system):
    rows, n = system
    sol = solve_affine(rows, n, 2)
    matrix = [
        [c[j].eval_at(RANK_POINT) if j in c else Fraction(0) for j in range(n)]
        for c, _ in rows
    ]
    rank = _rank_at(matrix)
    augmented = _rank_at(
        [row + [rhs.eval_at(RANK_POINT)] for row, (_, rhs) in zip(matrix, rows)]
    )
    if sol.status == "infeasible":
        assert not sol.witness.is_zero()
        assert augmented > rank
        return
    assert augmented == rank
    assert len(sol.kernel_basis) == n - rank
    assert sol.status == ("unique" if rank == n else "affine")
    free = [c for c in range(n) if c not in sol.pivot_columns]
    for coeffs, rhs in rows:
        assert _residual(coeffs, sol.particular, rhs).is_zero()
        for vec in sol.kernel_basis:
            assert _residual(coeffs, vec, ZERO).is_zero()
    for vec, own in zip(sol.kernel_basis, free):
        assert all(vec[c].is_one() if c == own else vec[c].is_zero() for c in free)


def _cofactor_det(m: list[list[Scalar]]) -> Scalar:
    """Determinant by cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    acc = Scalar.zero(m[0][0].nvars)
    for j, entry in enumerate(m[0]):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = entry * _cofactor_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


@st.composite
def polynomial_matrices(draw):
    n = draw(st.integers(2, 3))
    monomials = st.tuples(st.integers(0, 2), st.integers(0, 2))
    polys = st.dictionaries(monomials, coefficients, max_size=3)
    return [[Scalar(Poly(2, draw(polys))) for _ in range(n)] for _ in range(n)]


@seed(2021)
@given(polynomial_matrices())
@settings(max_examples=60, deadline=None, database=None)
def test_invert_matrix_properties(m):
    # every entry of the inverse is a cofactor over det M, so a fraction-free
    # inverse has denominators that divide det M
    det = _cofactor_det(m)
    assume(not det.is_zero())
    inv = invert_matrix(m)
    prod = mat_mul(m, inv)
    for i, row in enumerate(prod):
        for j, entry in enumerate(row):
            assert entry.equals(Scalar.one(2) if i == j else ZERO)
    for row in inv:
        for entry in row:
            assert not det.num.divide_exact(entry.den).is_zero()


def _det_at(matrix: list[list[Fraction]]) -> Fraction:
    m = [list(row) for row in matrix]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((i for i in range(col, len(m)) if m[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


# constants, monomials and binomials, so that pivots run through constant
# ratios, repeated values, monomials and general polynomials
WITNESS_ENTRIES = ("0", "1", "-2", "3", "2/3", "x1", "-3*x1", "x1^2", "1 + x1", "x1*x2")


@st.composite
def regular_augmented(draw):
    n = draw(st.integers(1, 4))
    cell = st.sampled_from(WITNESS_ENTRIES)
    return [[s(draw(cell)) for _ in range(n + 1)] for _ in range(n + 1)]


def _plain_forward(rows, nvars, pivots=None):
    """Forward elimination as first written, the reference for the shortcuts
    of ``solve_affine``: every pivot search rebuilds the key of every entry,
    and every row becomes (pivot * entry - f * pivot_row_entry) / prev.
    Returns the rows left when no entry remains to pivot on, and appends
    each (column, coefficients, right side) pivot row to ``pivots``."""
    zero = Poly.zero(nvars)
    work = [_clear_row(coeffs, rhs, nvars) for coeffs, rhs in rows]
    work = [(c, r) for c, r in work if c or not r.is_zero()]
    prev = Poly.one(nvars)
    while True:
        keys = [
            (_poly_quality(p), c, i)
            for i, (coeffs, _) in enumerate(work)
            for c, p in coeffs.items()
        ]
        if not keys:
            return work
        _, col, i = min(keys)
        pcoeffs, prhs = work.pop(i)
        pivot = pcoeffs[col]
        if pivots is not None:
            pivots.append((col, pcoeffs, prhs))
        new = []
        for coeffs, rhs in work:
            f = coeffs.get(col, zero)
            out = {}
            for c in set(coeffs) | set(pcoeffs):
                v = pivot * coeffs.get(c, zero) - f * pcoeffs.get(c, zero)
                if c != col and not v.is_zero():
                    out[c] = v.divide_exact(prev)
            r = (pivot * rhs - f * prhs).divide_exact(prev)
            if out or not r.is_zero():
                new.append((out, r))
        work = new
        prev = pivot


@seed(2021)
@given(regular_augmented())
@settings(max_examples=80, deadline=None, database=None)
def test_infeasibility_witness_is_the_augmented_determinant(augmented):
    # n + 1 equations in n unknowns with a regular augmented matrix.  Every
    # fraction-free work entry is a minor of the augmented matrix (Bareiss),
    # so the last row reduces to 0 = +-det, and the pivot order of the
    # reference fixes which sign and which polynomial form.  A row kept
    # when the pivot changed, or a pivot chosen on a stale key, leaves
    # another multiple or another form.
    det = _det_at([[v.eval_at(RANK_POINT) for v in row] for row in augmented])
    assume(det != 0)
    n = len(augmented) - 1
    rows = [
        ({j: v for j, v in enumerate(row[:n]) if not v.is_zero()}, row[n])
        for row in augmented
    ]
    sol = solve_affine(rows, n, 2)
    assert sol.status == "infeasible"
    assert sol.witness.eval_at(RANK_POINT) in (det, -det)
    ((_, rhs),) = _plain_forward(rows, 2)
    assert sol.witness.num == rhs


def _eager_solve(rows, n, nvars) -> LinearSolution:
    """The solve of the eager loop, which rescales every row at every
    pivot: ``_plain_forward``, then the Cramer back substitution of
    ``solve_affine``, x_k = N_k / det."""
    pivots = []
    rest = _plain_forward(rows, nvars, pivots)
    if rest:
        return LinearSolution("infeasible", n, witness=Scalar(rest[0][1]))
    det = Scalar(pivots[-1][1][pivots[-1][0]]) if pivots else Scalar.one(nvars)

    def read_off(right) -> list[Scalar]:
        numerators = {}
        for col, coeffs, rhs in reversed(pivots):
            acc = det.num * right(coeffs, rhs)
            for c, v in coeffs.items():
                if c in numerators:
                    acc = acc - v * numerators[c]
            if not acc.is_zero():
                numerators[col] = acc.divide_exact(coeffs[col])
        x = [Scalar.zero(nvars)] * n
        for col, num in numerators.items():
            x[col] = Scalar(num) / det
        return x

    pivot_columns = sorted(col for col, _, _ in pivots)
    zero = Poly.zero(nvars)
    basis = []
    for fc in (c for c in range(n) if c not in pivot_columns):
        vector = [-v for v in read_off(lambda coeffs, _: coeffs.get(fc, zero))]
        vector[fc] = Scalar.one(nvars)
        basis.append(vector)
    return LinearSolution(
        "unique" if not basis else "affine",
        n,
        particular=read_off(lambda _, rhs: rhs),
        kernel_basis=basis,
        pivot_columns=pivot_columns,
    )


def _forms(values) -> list:
    return [None if v is None else (v.num, v.den) for v in values or []]


# constants with ratios 1, -1, 2 and 1/3 between them, and polynomials, some
# with one primitive part, so that the running pivot changes by a constant
# with and without repeating, and by a polynomial factor
EQUIVALENCE_ENTRIES = (
    "1", "-1", "2", "1/3", "x1", "-2*x1", "x1 + x2", "3*x1 + 3*x2",
    "x1^2 - x2", "x1*x2 + 1", "1/x1", "2/(x1 + x2)",
)


@st.composite
def mixed_systems(draw):
    """Sparse systems whose right sides are drawn apart from the rows, so
    more rows than unknowns are mostly infeasible and fewer are affine.  A
    row may repeat an earlier one with one entry shifted by a constant k:
    the minor of the two is then k times a polynomial pivot, and the
    running pivot changes by a constant that is not 1."""
    ncols = draw(st.integers(1, 5))
    cell = st.sampled_from(EQUIVALENCE_ENTRIES).map(s)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        rhs = draw(st.one_of(st.just(ZERO), cell))
        if rows and draw(st.booleans()):
            coeffs = dict(draw(st.sampled_from(rows))[0])
            c = draw(st.integers(0, ncols - 1))
            coeffs[c] = coeffs.get(c, ZERO) + s(draw(st.sampled_from(("-1", "2", "1/3"))))
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1), min_size=1, max_size=3))
            coeffs = {c: draw(cell) for c in sorted(cols)}
        rows.append(({c: v for c, v in coeffs.items() if not v.is_zero()}, rhs))
    return rows, ncols


@seed(2021)
@given(mixed_systems())
@settings(
    max_examples=150,
    deadline=None,
    database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
def test_solve_affine_matches_the_eager_loop(system):
    # the kept rows carry a constant factor, which the back substitution
    # cancels and the witness divides out, so every form is the eager one
    rows, n = system
    sol, eager = solve_affine(rows, n, 2), _eager_solve(rows, n, 2)
    assert sol.status == eager.status
    assert sol.pivot_columns == eager.pivot_columns
    assert _forms(sol.particular) == _forms(eager.particular)
    assert [_forms(v) for v in sol.kernel_basis] == [_forms(v) for v in eager.kernel_basis]
    assert _forms([sol.witness]) == _forms([eager.witness])


# sha256 of _space_text for the solution of the fixture below, as returned
# by the Gauss-Jordan solver this one replaced: the same text is the same
# value.  A change to the canonical text form of scalars changes it.
SEED_317_DIGEST = "ad61b4f99c0fed77d6f81ec918adc5bb4c1b6c52b390b1b9384d9afae1f1449f"


def _space_text(space, names) -> str:
    lines = [space.status]
    for i, vec in enumerate([space.particular.coeff, *space.kernel_basis]):
        for idx, v in sorted(vec.items()):
            lines.append(f"{i} {idx} {scalar_to_text(v, names)}")
    return "\n".join(lines)


def test_torsion_free_solve_divides_without_reducing_earlier_pivot_rows(monkeypatch):
    # reducing every earlier pivot row at every pivot took 16,715 exact
    # divisions here; forward elimination and back substitution took 9,137
    # products and 7,626 divisions while every row without an entry in the
    # pivot column was multiplied by the pivot and divided by the previous
    # one.  Keeping such a row when the two are equal took 5,258 and 3,747,
    # and keeping it whenever their ratio is a constant takes 4,034 and 2,523.
    calls = {"mul": 0, "divide_exact": 0}
    mul, divide_exact = Poly.__mul__, Poly.divide_exact

    def counting_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counting_divide(self, divisor):
        calls["divide_exact"] += 1
        return divide_exact(self, divisor)

    solutions = []

    def recording(*args):
        solutions.append(solve_affine(*args))
        return solutions[-1]

    A = random_anticommutable(317, dim=1, rank=4, degree=2, density=0.12).algebroid
    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    monkeypatch.setattr(Poly, "divide_exact", counting_divide)
    monkeypatch.setattr(levicivita, "solve_affine", recording)
    space = solve_torsion_free(A)
    assert calls["mul"] < 4_500
    assert calls["divide_exact"] < 3_000
    assert space.status == "affine" and space.dim == 11
    (sol,) = solutions
    free = [c for c in range(sol.nunknowns) if c not in sol.pivot_columns]
    assert free == [0, 16, 20, 21, 25, 38, 42, 47, 48, 52, 53]
    text = _space_text(space, A.coords)
    assert hashlib.sha256(text.encode()).hexdigest() == SEED_317_DIGEST
