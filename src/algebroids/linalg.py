"""Exact linear algebra over the scalar fraction field.

Affine systems are solved by fraction-free (Bareiss) forward elimination
and a fraction-free back substitution, with pivoting on symbolic
nonzero-ness: an entry is a usable pivot iff it is not identically zero,
with constant and short entries preferred to limit expression swell.
Pointwise (numeric) pivoting would be unsound at poles.  Most rows of the
geometric systems have no entry in a given pivot column; such a row only
gains the factor pivot / previous pivot, so it is kept as it is when that
factor is a constant.  Every work row is then a nonzero rational constant
times the row an eager loop (one that rescales every row) would hold: the
pivot order and the solutions do not see the constant, and the witness of
an infeasible system has it divided out.

Rows are kept sparse (dict column -> Scalar) because the geometric systems
assembled elsewhere touch only a handful of unknowns per equation.
``solve_affine`` is the only elimination loop: the exact inverse solves
M x = e_j for each column j, and the kernel basis is the solution space of
the homogeneous system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import ShapeError, SingularMatrixError
from .scalars import Poly, Scalar

Matrix = list[list[Scalar]]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b or len(a[0]) != len(b):
        raise ShapeError("incompatible matrix shapes")
    nvars = a[0][0].nvars
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = Scalar.zero(nvars)
            for k, x in enumerate(row):
                if not x.is_zero() and not b[k][j].is_zero():
                    acc = acc + x * b[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out


@dataclass
class LinearSolution:
    """Full solution set of an affine system A x = b over the scalar field.

    status is "unique", "affine" or "infeasible".  For feasible systems,
    ``particular`` has every free unknown set to zero and ``kernel_basis``
    holds one vector per free unknown.  For infeasible systems ``witness``
    is a nonzero scalar c arising from a reduced equation 0 = c.
    """

    status: str
    nunknowns: int
    particular: list[Scalar] | None = None
    kernel_basis: list[list[Scalar]] = field(default_factory=list)
    witness: Scalar | None = None
    pivot_columns: list[int] = field(default_factory=list)


def _poly_quality(p: Poly) -> tuple:
    return (0 if p.is_constant() else 1, p.term_count(), p.total_degree())


def _clear_row(
    coeffs: dict[int, Scalar], rhs: Scalar, nvars: int
) -> tuple[dict[int, Poly], Poly]:
    """Multiply a row through by its distinct denominators so every entry
    is a polynomial; scaling a row does not change the solution set."""
    items = [(c, v) for c, v in coeffs.items() if not v.is_zero()]
    dens: list[Poly] = []
    for value in [v for _, v in items] + [rhs]:
        if not value.den.is_one() and not any(d == value.den for d in dens):
            dens.append(value.den)

    def cleared(value: Scalar) -> Poly:
        poly = value.num
        skipped = False
        for d in dens:
            if not skipped and d == value.den:
                skipped = True
                continue
            poly = poly * d
        return poly

    return {c: cleared(v) for c, v in items}, cleared(rhs)


def _times(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The product of two nonzero rationals held as reduced (numerator,
    denominator) pairs, with a positive denominator."""
    num, den = a[0] * b[0], a[1] * b[1]
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    return num // g, den // g


def _check_row(
    coeffs: dict[int, Scalar], rhs: Scalar, nunknowns: int, nvars: int
) -> None:
    for c, v in coeffs.items():
        if not 0 <= c < nunknowns:
            raise ShapeError(f"column {c} out of range for {nunknowns} unknowns")
        if v.nvars != nvars:
            raise ShapeError(
                f"entry in column {c} has {v.nvars} coordinates, not {nvars}"
            )
    if rhs.nvars != nvars:
        raise ShapeError(f"right side has {rhs.nvars} coordinates, not {nvars}")


def solve_affine(
    rows: list[tuple[dict[int, Scalar], Scalar]], nunknowns: int, nvars: int
) -> LinearSolution:
    """Solve A x = b given as sparse rows (coefficient dict, right side).
    Raises ``ShapeError`` for a column outside 0 .. nunknowns - 1, or an
    entry or right side over other than ``nvars`` coordinates.

    Forward elimination is fraction-free (one-step Bareiss): rows are
    cleared to polynomial entries and every update

        new = (pivot * entry - entry_in_pivot_column * pivot_row_entry)
              / previous_pivot

    divides exactly, so intermediate entries are minors of the original
    matrix and never grow into nested fractions.  A row with no entry in
    the pivot column becomes pivot * entry / previous_pivot.  When that
    factor is a constant (pivot and previous pivot share their primitive
    part) the row is kept as it is, so each work row holds a nonzero
    rational constant m times the row of the eager loop, which rescales
    every such row.  A row with an entry in the pivot column, and every
    row at a step whose factor is not constant, is updated by the formula
    above; its m stays a constant, so every division stays exact.  Each
    work row carries its best (quality, column) key, computed when the
    row is made or changed and kept with the row; the pivot is the least
    (key, row position).  Keys ignore constant factors, so the pivot
    order is the eager loop's.
    Each pivot row is frozen when it is chosen.  With det the last pivot,
    a fraction-free back substitution over the frozen rows, last pivot
    first, computes

        N_k = (det * rhs_k - sum over later pivots j of a_kj * N_j) / p_k

    exactly (p_k is the row's own pivot), and x_k = N_k / det.  A kernel
    vector is the same walk with a_kc of its free column c for rhs_k,
    negated.  The factor of a row cancels against that of its p_k, and
    the factor of det against that of every N_k, so the solutions are
    those of the eager loop.  Only the witness of an infeasible system,
    the right side of a reduced equation 0 = c, shows m; it is divided
    out there, with m the product of three rationals: the row's own
    factor, stored when the row is rewritten; the running product of
    previous_pivot / pivot over the steps that kept rows; and the factor
    of the last pivot row.
    """

    def keyed(coeffs: dict[int, Poly], rhs: Poly, own: tuple[int, int]) -> tuple:
        # a work row carries its best (quality, column), None when empty,
        # and its own factor (see the docstring)
        key = min(((_poly_quality(p), c) for c, p in coeffs.items()), default=None)
        return coeffs, rhs, key, own

    work: list[tuple[dict[int, Poly], Poly, tuple | None, tuple[int, int]]] = []
    for coeffs, rhs in rows:
        _check_row(coeffs, rhs, nunknowns, nvars)
        cleared = _clear_row(coeffs, rhs, nvars)
        if cleared[0] or not cleared[1].is_zero():
            work.append(keyed(*cleared, (1, 1)))
    pivots: list[tuple[int, dict[int, Poly], Poly]] = []  # col, coeffs, rhs
    prev = Poly.one(nvars)
    # m of a row is own * kept * last: kept is the product of prev / pivot
    # over the steps with a constant ratio, last the m of prev's row
    kept = last = (1, 1)

    def bareiss_update(work_row, pivot, pcoeffs, prhs, col, ratio):
        coeffs, rhs, _, own = work_row
        f = coeffs.get(col)
        if f is None:  # only reached when the ratio pivot / prev is not constant
            return keyed(
                {c: (pivot * v).divide_exact(prev) for c, v in coeffs.items()},
                (pivot * rhs).divide_exact(prev),
                own,
            )
        new_coeffs: dict[int, Poly] = {}
        for c in set(coeffs) | set(pcoeffs):
            if c == col:
                continue
            a = coeffs.get(c)
            b = pcoeffs.get(c)
            term = pivot * a if a is not None else Poly.zero(nvars)
            if b is not None:
                term = term - f * b
            if term.is_zero():
                continue
            nv = term.divide_exact(prev)
            if not nv.is_zero():
                new_coeffs[c] = nv
        return keyed(
            new_coeffs,
            (pivot * rhs - f * prhs).divide_exact(prev),
            own if ratio is None else _times(own, ratio),
        )

    while True:
        # global pivot selection on simplicity: constants first, then short
        # low-degree entries, with a deterministic tie-break on (column,
        # row position).  Keeping the running pivot constant for as long
        # as possible stops the minor degrees from growing.
        best = min(
            ((key, i) for i, (_, _, key, _) in enumerate(work) if key is not None),
            default=None,
        )
        if best is None:
            break
        (_, col), row_index = best
        pcoeffs, prhs, _, own = work.pop(row_index)
        pivot = pcoeffs[col]
        ratio = pivot.constant_ratio(prev)
        last = _times(last, _times(own, kept))
        if ratio is not None:
            kept = _times(kept, (ratio[1], ratio[0]))
        work = [
            new
            for new in (
                work_row
                if ratio is not None and col not in work_row[0]
                else bareiss_update(work_row, pivot, pcoeffs, prhs, col, ratio)
                for work_row in work
            )
            if new[0] or not new[1].is_zero()
        ]
        pivots.append((col, pcoeffs, prhs))
        prev = pivot
    if work:
        # no entry is left to pivot on, so every remaining row reads 0 = c
        _, rhs, _, own = work[0]
        num, den = _times(own, _times(kept, last))
        return LinearSolution(
            status="infeasible",
            nunknowns=nunknowns,
            witness=Scalar(rhs.scale(Fraction(den, num))),
        )
    zero = Scalar.zero(nvars)
    one = Scalar.one(nvars)
    det = Scalar(prev)

    def back_substitute(free_col: int | None) -> dict[int, Poly]:
        # nonzero N_k by pivot column; Cramer's rule makes each division
        # exact, so an InexactDivisionError here is a bug
        numerators: dict[int, Poly] = {}
        for col, coeffs, rhs in reversed(pivots):
            right = rhs if free_col is None else coeffs.get(free_col)
            acc = Poly.zero(nvars) if right is None else det.num * right
            for c, v in coeffs.items():
                n = numerators.get(c)
                if n is not None:
                    acc = acc - v * n
            if not acc.is_zero():
                numerators[col] = acc.divide_exact(coeffs[col])
        return numerators

    pivot_cols = {col for col, _, _ in pivots}
    free_cols = [c for c in range(nunknowns) if c not in pivot_cols]
    particular = [zero] * nunknowns
    for col, n in back_substitute(None).items():
        particular[col] = Scalar(n) / det
    basis = []
    for fc in free_cols:
        vector = [zero] * nunknowns
        vector[fc] = one
        for col, n in back_substitute(fc).items():
            vector[col] = -(Scalar(n) / det)
        basis.append(vector)
    return LinearSolution(
        status="unique" if not free_cols else "affine",
        nunknowns=nunknowns,
        particular=particular,
        kernel_basis=basis,
        pivot_columns=sorted(pivot_cols),
    )


def invert_matrix(m: Matrix) -> Matrix:
    """Exact inverse: column j is the unique solution of M x = e_j by
    ``solve_affine``; raises if symbolically singular."""
    size = len(m)
    if any(len(row) != size for row in m):
        raise ShapeError("inverse requires a square matrix")
    if not size:
        return []
    nvars = m[0][0].nvars
    zero, one = Scalar.zero(nvars), Scalar.one(nvars)
    coeffs = [{j: v for j, v in enumerate(row) if not v.is_zero()} for row in m]
    columns = []
    for j in range(size):
        rows = [(c, one if i == j else zero) for i, c in enumerate(coeffs)]
        solution = solve_affine(rows, size, nvars)
        if solution.status != "unique":
            raise SingularMatrixError("matrix is symbolically singular")
        columns.append(solution.particular)
    return [list(row) for row in zip(*columns)]


def kernel_basis(matrix: Matrix, ncols: int, nvars: int) -> list[list[Scalar]]:
    """Basis of the right null space of a dense matrix with ``ncols``
    columns over the field; a matrix with no rows has the unit vectors."""
    if any(len(row) != ncols for row in matrix):
        raise ShapeError(f"kernel_basis requires rows of {ncols} entries")
    zero = Scalar.zero(nvars)
    rows = [
        ({j: v for j, v in enumerate(row) if not v.is_zero()}, zero) for row in matrix
    ]
    return solve_affine(rows, ncols, nvars).kernel_basis
