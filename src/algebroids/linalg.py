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
assembled elsewhere touch only a handful of unknowns per equation.  A
right side is one more column, past the unknowns, that goes through every
update and is never a pivot, so one elimination serves every caller:
``solve_affine`` reads its particular solution off the right side's
column and a kernel vector off each free column (the kernel basis is the
solution space of the homogeneous system), and the exact inverse appends
the unit columns e_j to M and reads column j of the inverse off e_j.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import ShapeError, SingularMatrixError
from .scalars import Accumulator, Poly, Scalar

Matrix = list[list[Scalar]]


def mat_vec(m: Matrix, x, nvars: int) -> list[Scalar]:
    """m x: each row's sum in column order, zero terms skipped."""
    if any(len(row) != len(x) for row in m):
        raise ShapeError("vector length does not match the matrix rows")
    out = []
    for row in m:
        acc = Accumulator(nvars)
        for a, b in zip(row, x):
            if not a.is_zero() and not b.is_zero():
                acc.add_product(a, b)
        out.append(acc.value())
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b or any(len(row) != len(b[0]) for row in b):
        raise ShapeError("incompatible matrix shapes")
    nvars = a[0][0].nvars
    columns = [mat_vec(a, column, nvars) for column in zip(*b)]
    return [list(row) for row in zip(*columns)]


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


def _clear_row(items: Iterable[tuple[int, Scalar]]) -> dict[int, Poly]:
    """Multiply a row of (column, entry) pairs through by its distinct
    denominators so every entry is a polynomial; scaling a row does not
    change the solution set."""
    items = [(c, v) for c, v in items if not v.is_zero()]
    dens: list[Poly] = []
    for _, value in items:
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

    return {c: cleared(v) for c, v in items}


def _times(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The product of two nonzero rationals held as reduced (numerator,
    denominator) pairs, with a positive denominator."""
    num, den = a[0] * b[0], a[1] * b[1]
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    return num // g, den // g


def _augmented(
    coeffs: dict[int, Scalar], rhs: Scalar, nunknowns: int, nvars: int, at: int
) -> list[tuple[int, Scalar]]:
    """The (column, entry) pairs of a row with its right side at column
    ``at``.  Raises ``ShapeError`` for a column outside 0 .. nunknowns - 1,
    or an entry or right side over other than ``nvars`` coordinates."""
    for c, v in coeffs.items():
        if not 0 <= c < nunknowns:
            raise ShapeError(f"column {c} out of range for {nunknowns} unknowns")
        if v.nvars != nvars:
            raise ShapeError(
                f"entry in column {c} has {v.nvars} coordinates, not {nvars}"
            )
    if rhs.nvars != nvars:
        raise ShapeError(f"right side has {rhs.nvars} coordinates, not {nvars}")
    return [*coeffs.items(), (at, rhs)]


def _eliminate(rows: Iterable[list[tuple[int, Scalar]]], nunknowns: int, nvars: int):
    """The elimination of ``solve_affine`` on rows of (column, entry) pairs
    whose columns from ``nunknowns`` on are right sides.  Returns the set
    of pivot columns; the first row left with no entry in the unknowns,
    its factor divided out, or None; and ``read_off(c)``, the nonzero
    unknowns by pivot column with column c as the right side.  Cramer's
    rule makes each division of ``read_off`` exact, so an
    ``InexactDivisionError`` there is a bug."""

    def keyed(row: dict[int, Poly], own: tuple[int, int]) -> tuple:
        # a work row carries its best (quality, column) over the unknowns,
        # None when it has none, and its own factor (see solve_affine)
        qualities = ((_poly_quality(p), c) for c, p in row.items() if c < nunknowns)
        return row, min(qualities, default=None), own

    work = [keyed(row, (1, 1)) for row in map(_clear_row, rows) if row]
    pivots: list[tuple[int, dict[int, Poly]]] = []
    prev = Poly.one(nvars)
    # m of a row is own * kept * last: kept is the product of prev / pivot
    # over the steps with a constant ratio, last the m of prev's row
    kept = last = (1, 1)

    def bareiss_update(work_row, pivot, prow, col, ratio):
        row, _, own = work_row
        f = row.get(col)
        if f is None:  # only reached when the ratio pivot / prev is not constant
            scaled = {c: (pivot * v).divide_exact(prev) for c, v in row.items()}
            return keyed(scaled, own)
        new_row: dict[int, Poly] = {}
        for c in set(row) | set(prow):
            if c == col:
                continue
            a, b = row.get(c), prow.get(c)
            term = pivot * a if a is not None else Poly.zero(nvars)
            if b is not None:
                term = term - f * b
            if not term.is_zero():
                new_row[c] = term.divide_exact(prev)
        return keyed(new_row, own if ratio is None else _times(own, ratio))

    while True:
        # global pivot selection on simplicity: constants first, then short
        # low-degree entries, with a deterministic tie-break on (column,
        # row position).  Keeping the running pivot constant for as long
        # as possible stops the minor degrees from growing.
        keys = ((key, i) for i, (_, key, _) in enumerate(work) if key is not None)
        best = min(keys, default=None)
        if best is None:
            break
        (_, col), row_index = best
        prow, _, own = work.pop(row_index)
        pivot = prow[col]
        ratio = pivot.constant_ratio(prev)
        last = _times(last, _times(own, kept))
        if ratio is not None:
            kept = _times(kept, (ratio[1], ratio[0]))
        work = [
            new
            for new in (
                work_row
                if ratio is not None and col not in work_row[0]
                else bareiss_update(work_row, pivot, prow, col, ratio)
                for work_row in work
            )
            if new[0]
        ]
        pivots.append((col, prow))
        prev = pivot
    det = Scalar(prev)

    def read_off(column: int) -> dict[int, Scalar]:
        numerators: dict[int, Poly] = {}
        for col, row in reversed(pivots):
            right = row.get(column)
            acc = Poly.zero(nvars) if right is None else prev * right
            for c, v in row.items():
                n = numerators.get(c)
                if n is not None:
                    acc = acc - v * n
            if not acc.is_zero():
                numerators[col] = acc.divide_exact(row[col])
        return {col: Scalar(n) / det for col, n in numerators.items()}

    residue = None
    if work:  # no entry is left to pivot on, so every such row reads 0 = c
        row, _, own = work[0]
        num, den = _times(own, _times(kept, last))
        residue = {c: p.scale(Fraction(den, num)) for c, p in row.items()}
    return {col for col, _ in pivots}, residue, read_off


def solve_affine(
    rows: list[tuple[dict[int, Scalar], Scalar]], nunknowns: int, nvars: int
) -> LinearSolution:
    """Solve A x = b given as sparse rows (coefficient dict, right side).
    Raises ``ShapeError`` for a column outside 0 .. nunknowns - 1, or an
    entry or right side over other than ``nvars`` coordinates.

    The right side of a row is its column ``nunknowns``.  Forward
    elimination is fraction-free (one-step Bareiss): rows are cleared to
    polynomial entries and every update

        new = (pivot * entry - entry_in_pivot_column * pivot_row_entry)
              / previous_pivot

    divides exactly, so intermediate entries are minors of the original
    matrix and never grow into nested fractions.  A row with no entry in
    the pivot column becomes pivot * entry / previous_pivot, and is kept
    as it is when that factor is a constant, so each work row holds a
    nonzero rational constant m times the row of the eager loop.  A row
    with an entry in the pivot column, and every row at a step whose
    factor is not constant, is updated by the formula above; its m stays
    a constant, so every division stays exact.  Each work row carries its
    best (quality, column) key over the unknowns, computed when the row
    is made or changed; the pivot is the least (key, row position).  Keys
    ignore constant factors, so the pivot order is the eager loop's.
    Each pivot row is frozen when it is chosen.  With det the last pivot,
    a fraction-free back substitution over the frozen rows, last pivot
    first, takes a column c as the right side and computes

        N_k = (det * a_kc - sum over later pivots j of a_kj * N_j) / p_k

    exactly (p_k is the row's own pivot), and x_k = N_k / det.  Column
    ``nunknowns`` gives the particular solution, and each free column c a
    kernel vector, negated.  The factor of a row cancels against that of
    its p_k, and the factor of det against that of every N_k, so the
    solutions are those of the eager loop.  Only the witness of an
    infeasible system, the right side of a reduced equation 0 = c, shows
    m; it is divided out there, with m the product of three rationals:
    the row's own factor, stored when the row is rewritten; the running
    product of previous_pivot / pivot over the steps that kept rows; and
    the factor of the last pivot row.
    """
    augmented = (_augmented(c, b, nunknowns, nvars, nunknowns) for c, b in rows)
    pivot_cols, residue, read_off = _eliminate(augmented, nunknowns, nvars)
    if residue is not None:
        witness = Scalar(residue[nunknowns])
        return LinearSolution("infeasible", nunknowns, witness=witness)
    zero, one = Scalar.zero(nvars), Scalar.one(nvars)
    solved = read_off(nunknowns)
    free_cols = [c for c in range(nunknowns) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vector = [zero] * nunknowns
        vector[fc] = one
        for col, x in read_off(fc).items():
            vector[col] = -x
        basis.append(vector)
    return LinearSolution(
        status="unique" if not free_cols else "affine",
        nunknowns=nunknowns,
        particular=[solved.get(c, zero) for c in range(nunknowns)],
        kernel_basis=basis,
        pivot_columns=sorted(pivot_cols),
    )


def invert_matrix(m: Matrix) -> Matrix:
    """Exact inverse by one forward elimination of M with the unit columns
    e_j appended as columns n .. 2n - 1; column j of the inverse is read
    off with e_j as the right side.  Raises if symbolically singular."""
    size = len(m)
    if any(len(row) != size for row in m):
        raise ShapeError("inverse requires a square matrix")
    if not size:
        return []
    nvars = m[0][0].nvars
    zero, one = Scalar.zero(nvars), Scalar.one(nvars)
    augmented = (
        _augmented(dict(enumerate(row)), one, size, nvars, size + i)
        for i, row in enumerate(m)
    )
    _, residue, read_off = _eliminate(augmented, size, nvars)
    if residue is not None:  # [M | I] has full row rank: M is singular
        raise SingularMatrixError("matrix is symbolically singular")
    columns = [read_off(size + j) for j in range(size)]
    return [[column.get(i, zero) for column in columns] for i in range(size)]


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
