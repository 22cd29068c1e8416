"""Local pre-Leibniz algebroid data model and the bracket engine.

Index conventions, fixed once for the whole package (all 0-based in code):

* anchor        rho[i][a]            row i = chart coordinate, col a = frame slot
* anholonomy    gamma[(c, a, b)]     <e^c, [X_a, X_b]> = gamma^c_ab
* locality      loc[(a, d, e, c)]    L(e^d, X_e, X_c) = L^{a d}_{e c} X_a
* projector     proj[a][b]           P(X_b) = P^a_b X_a
* connection    coeff[(a, b, c)]     <e^a, D_{X_b} X_c> = Gamma^a_bc  (see connection.py)

Sparse arrays are dicts from index tuples to scalars with zero entries
omitted.  All values are immutable after construction and every operation
is pure, so anything here may be shared freely between threads.  Validity
of a stored projector is established by check_locality_projector, not at
construction time.  The bracket of arbitrary sections is the unique
extension of the frame data by the right- and left-Leibniz rules:

    [u, v]^c = u^a v^b gamma^c_ab + u^a rho^i_a d_i(v^c) - v^b rho^i_b d_i(u^c)
               + rho^i_d d_i(u^a) v^b L^{c d}_{a b}

The last term is ``_locality_correction``, the one section-valued
contraction with the locality operator: the modified bracket reuses it
with D_{X_d} u in place of rho_d(u), and ``apply_locality`` with
omega_d u^e.  The only P.L loop is condition 1 of
``check_locality_projector``.  A frame change writes no transformation
law of its own: each new datum is one of these operations on the new frame
sections X'_a, read back into the new frame through the inverse matrix.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import PoleError, ShapeError
from .linalg import invert_matrix, kernel_basis
from .reports import CheckReport, report_from_residuals
from .scalars import Point, Scalar

SparseArray = dict[tuple, Scalar]


def sparse_clean(entries: SparseArray) -> SparseArray:
    return {idx: v for idx, v in entries.items() if not v.is_zero()}


def sparse_add(x: SparseArray, y: SparseArray) -> SparseArray:
    """x plus y entrywise, zero entries dropped; x's keys come first."""
    out = dict(x)
    for idx, v in y.items():
        s = out.get(idx)
        out[idx] = v if s is None else s + v
    return sparse_clean(out)


def sparse_sub(x: SparseArray, y: SparseArray) -> SparseArray:
    """x minus y entrywise, zero entries dropped; x's keys come first."""
    return sparse_add(x, {idx: -v for idx, v in y.items()})


def transposed(x: SparseArray) -> SparseArray:
    """x with its last two indices swapped."""
    return {idx[:-2] + (idx[-1], idx[-2]): v for idx, v in x.items()}


def symmetric_part(x: SparseArray) -> SparseArray:
    """x + x^T kept on idx[-2] <= idx[-1], in sorted key order."""
    upper = [
        {idx: v for idx, v in y.items() if idx[-2] <= idx[-1]}
        for y in (x, transposed(x))
    ]
    return dict(sorted(sparse_add(*upper).items()))


@dataclass(frozen=True)
class AlgebroidData:
    """A local pre-Leibniz algebroid over one coordinate chart."""

    dim: int
    rank: int
    coords: tuple[str, ...]
    anchor: tuple[tuple[Scalar, ...], ...]  # dim x rank
    gamma: SparseArray
    loc: SparseArray
    proj: tuple[tuple[Scalar, ...], ...] | None = None

    def __post_init__(self):
        if len(self.coords) != self.dim:
            raise ShapeError("coordinate name count does not match dimension")
        if len(self.anchor) != self.dim or any(
            len(row) != self.rank for row in self.anchor
        ):
            raise ShapeError("anchor must be a dim x rank matrix")
        for idx in self.gamma:
            if len(idx) != 3 or not all(0 <= k < self.rank for k in idx):
                raise ShapeError(f"bad anholonomy index {idx}")
        for idx in self.loc:
            if len(idx) != 4 or not all(0 <= k < self.rank for k in idx):
                raise ShapeError(f"bad locality index {idx}")
        if self.proj is not None and (
            len(self.proj) != self.rank
            or any(len(row) != self.rank for row in self.proj)
        ):
            raise ShapeError("projector must be a rank x rank matrix")

    # -- scalar helpers ------------------------------------------------

    def zero(self) -> Scalar:
        return Scalar.zero(self.dim)

    def one(self) -> Scalar:
        return Scalar.one(self.dim)

    def const(self, value) -> Scalar:
        return Scalar.constant(self.dim, value)

    def gamma_at(self, c: int, a: int, b: int) -> Scalar:
        return self.gamma.get((c, a, b), self.zero())

    def proj_at(self, a: int, b: int) -> Scalar:
        if self.proj is None:
            raise ShapeError("algebroid has no locality projector")
        return self.proj[a][b]

    # -- differentiation along the anchor -------------------------------

    def frame_derive(self, a: int, f: Scalar) -> Scalar:
        """rho(X_a) applied to a scalar: rho^i_a d_i f."""
        if f.is_constant():
            return self.zero()
        acc = self.zero()
        for i in range(self.dim):
            r = self.anchor[i][a]
            if not r.is_zero():
                acc = acc + r * f.diff(i)
        return acc

    def section_derive(self, u: "Section", f: Scalar) -> Scalar:
        """rho(u) applied to a scalar."""
        acc = self.zero()
        for a, ua in enumerate(u.comp):
            if not ua.is_zero():
                acc = acc + ua * self.frame_derive(a, f)
        return acc

    def anchor_of(self, u: "Section") -> list[Scalar]:
        """Chart components of rho(u)."""
        return [
            sum(
                (self.anchor[i][a] * u.comp[a] for a in range(self.rank)),
                self.zero(),
            )
            for i in range(self.dim)
        ]


@dataclass(frozen=True)
class Section:
    """A section of the bundle, given by its frame components."""

    comp: tuple[Scalar, ...]

    @classmethod
    def frame(cls, A: AlgebroidData, a: int) -> Section:
        return cls(
            tuple(A.one() if b == a else A.zero() for b in range(A.rank))
        )

    @classmethod
    def zero(cls, A: AlgebroidData) -> Section:
        return cls(tuple(A.zero() for _ in range(A.rank)))

    @property
    def rank(self) -> int:
        return len(self.comp)

    def add(self, other: Section) -> Section:
        return Section(tuple(a + b for a, b in zip(self.comp, other.comp)))

    def sub(self, other: Section) -> Section:
        return Section(tuple(a - b for a, b in zip(self.comp, other.comp)))

    def scale(self, f: Scalar) -> Section:
        return Section(tuple(f * a for a in self.comp))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comp)


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _sort_with_sign(idx: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """Sorted tuple and permutation sign; None if an index repeats."""
    if len(set(idx)) != len(idx):
        return None
    order = sorted(range(len(idx)), key=lambda k: idx[k])
    perm = tuple(order)
    return tuple(idx[k] for k in order), _perm_sign(perm)


@dataclass(frozen=True)
class EForm:
    """Antisymmetric p-form on the bundle, stored on increasing index tuples."""

    degree: int
    rank: int
    nvars: int
    comp: SparseArray  # strictly increasing tuples -> Scalar

    @classmethod
    def zero(cls, A: AlgebroidData, degree: int) -> EForm:
        return cls(degree, A.rank, A.dim, {})

    @classmethod
    def from_scalar(cls, A: AlgebroidData, f: Scalar) -> EForm:
        return cls(0, A.rank, A.dim, {} if f.is_zero() else {(): f})

    @classmethod
    def coframe(cls, A: AlgebroidData, a: int) -> EForm:
        """The dual coframe element e^a."""
        return cls(1, A.rank, A.dim, {(a,): A.one()})

    @classmethod
    def from_components(
        cls, A: AlgebroidData, degree: int, comp: SparseArray
    ) -> EForm:
        clean = {}
        for idx, v in comp.items():
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ShapeError(f"form components need strictly increasing {degree}-tuples, got {idx}")
            if not v.is_zero():
                clean[idx] = v
        return cls(degree, A.rank, A.dim, clean)

    def zero_scalar(self) -> Scalar:
        return Scalar.zero(self.nvars)

    def at(self, idx: tuple[int, ...]) -> Scalar:
        """Component at an arbitrary index tuple, using antisymmetry."""
        if len(idx) != self.degree:
            raise ShapeError("index length does not match form degree")
        ss = _sort_with_sign(idx)
        if ss is None:
            return self.zero_scalar()
        key, sign = ss
        v = self.comp.get(key)
        if v is None:
            return self.zero_scalar()
        return v if sign == 1 else -v

    def add(self, other: EForm) -> EForm:
        if self.degree != other.degree:
            raise ShapeError("cannot add forms of different degree")
        return EForm(self.degree, self.rank, self.nvars, sparse_add(self.comp, other.comp))

    def sub(self, other: EForm) -> EForm:
        return self.add(other.scale(Scalar.constant(self.nvars, -1)))

    def scale(self, f: Scalar) -> EForm:
        if f.is_zero():
            return EForm(self.degree, self.rank, self.nvars, {})
        return EForm(
            self.degree,
            self.rank,
            self.nvars,
            {idx: f * v for idx, v in self.comp.items()},
        )

    def is_zero(self) -> bool:
        return not self.comp

    def apply(self, sections: list[Section]) -> Scalar:
        """Evaluate on p sections: sum over increasing tuples of
        component times the determinant of the section components."""
        if len(sections) != self.degree:
            raise ShapeError("wrong number of section arguments")
        if self.degree == 0:
            return self.comp.get((), self.zero_scalar())
        total = self.zero_scalar()
        for idx, v in self.comp.items():
            det = self.zero_scalar()
            for perm in itertools.permutations(range(self.degree)):
                sign = _perm_sign(perm)
                prod = Scalar.one(self.nvars)
                for i, k in enumerate(perm):
                    prod = prod * sections[i].comp[idx[k]]
                    if prod.is_zero():
                        break
                if prod.is_zero():
                    continue
                det = det + prod if sign == 1 else det - prod
            if not det.is_zero():
                total = total + v * det
        return total


def interior_product(omega: EForm, v: Section) -> EForm:
    """Contraction in the first slot; a degree -1 graded derivation."""
    if omega.degree < 1:
        raise ShapeError("interior product needs a form of degree >= 1")
    out: SparseArray = {}
    for idx, value in omega.comp.items():
        for pos, a in enumerate(idx):
            f = v.comp[a]
            if f.is_zero():
                continue
            rest = idx[:pos] + idx[pos + 1 :]
            term = f * value
            if pos % 2 == 1:
                term = -term
            s = out.get(rest)
            out[rest] = term if s is None else s + term
    return EForm(omega.degree - 1, omega.rank, omega.nvars, sparse_clean(out))


def wedge(a: EForm, b: EForm) -> EForm:
    """Exterior product; beyond top degree the zero form is returned."""
    degree = a.degree + b.degree
    if degree > a.rank:
        return EForm(degree, a.rank, a.nvars, {})
    out: SparseArray = {}
    for ia, va in a.comp.items():
        sa = set(ia)
        for ib, vb in b.comp.items():
            if sa & set(ib):
                continue
            ss = _sort_with_sign(ia + ib)
            if ss is None:
                continue
            key, sign = ss
            term = va * vb
            if sign == -1:
                term = -term
            s = out.get(key)
            out[key] = term if s is None else s + term
    return EForm(degree, a.rank, a.nvars, sparse_clean(out))


@dataclass(frozen=True)
class ETensor:
    """Tensor with q contravariant followed by s covariant slots."""

    q: int
    s: int
    rank: int
    nvars: int
    comp: SparseArray

    @classmethod
    def from_components(
        cls, A: AlgebroidData, q: int, s: int, comp: SparseArray
    ) -> ETensor:
        for idx in comp:
            if len(idx) != q + s or not all(0 <= k < A.rank for k in idx):
                raise ShapeError(f"bad tensor index {idx}")
        return cls(q, s, A.rank, A.dim, sparse_clean(comp))

    def at(self, idx: tuple[int, ...]) -> Scalar:
        return self.comp.get(idx, Scalar.zero(self.nvars))


@dataclass(frozen=True)
class FrameChange:
    """Invertible change of frame X'_a = A^b_a X_b."""

    matrix: tuple[tuple[Scalar, ...], ...]
    inverse: tuple[tuple[Scalar, ...], ...]

    @classmethod
    def of(cls, matrix) -> FrameChange:
        rows = tuple(tuple(row) for row in matrix)
        inv = invert_matrix([list(r) for r in rows])
        return cls(rows, tuple(tuple(r) for r in inv))

    @property
    def rank(self) -> int:
        return len(self.matrix)


# -- the bracket engine ------------------------------------------------


def bracket(A: AlgebroidData, u: Section, v: Section) -> Section:
    """Bracket of arbitrary sections via the Leibniz-rule extension."""
    if u.rank != A.rank or v.rank != A.rank:
        raise ShapeError("section rank does not match algebroid")
    r = A.rank
    zero = A.zero()
    out = [zero for _ in range(r)]

    # structure-function term u^a v^b gamma^c_ab
    for (c, a, b), g in A.gamma.items():
        t = u.comp[a] * v.comp[b]
        if not t.is_zero():
            out[c] = out[c] + t * g

    # derivative terms rho(u)(v^c) - rho(v)(u^c)
    for c in range(r):
        out[c] = out[c] + A.section_derive(u, v.comp[c]) - A.section_derive(v, u.comp[c])

    # locality term rho^i_d d_i(u^a) v^b L^{c d}_{a b}
    if not A.loc:
        return Section(tuple(out))
    du = {
        (d, a): val
        for a, ua in enumerate(u.comp)
        if not ua.is_zero()
        for d in range(r)
        if not (val := A.frame_derive(d, ua)).is_zero()
    }
    return _locality_correction(A, du, v, out)


def _locality_correction(
    A: AlgebroidData,
    table: dict[tuple[int, int], Scalar],
    v: Section,
    start: list[Scalar] | None = None,
) -> Section:
    """L^{c d}_{e b} table[(d, e)] v^b X_c summed over d, e and b, added
    term by term onto ``start`` when given.  With table[(d, e)] =
    rho_d(u^e) this is the bracket's locality term; with the components
    (D_{X_d} u)^e it is L(e^d, D_{X_d} u, v), the modified bracket's
    correction; with omega_d u^e it is L(omega, u, v)."""
    out = list(start) if start is not None else [A.zero()] * A.rank
    for (c, d, e, b), lv in A.loc.items():
        w = table.get((d, e))
        if w is None:
            continue
        t = w * v.comp[b]
        if not t.is_zero():
            out[c] = out[c] + t * lv
    return Section(tuple(out))


def coboundary(A: AlgebroidData, f: Scalar) -> EForm:
    """The degree-1 form Df with (Df)(u) = rho(u)(f)."""
    comp: SparseArray = {}
    for a in range(A.rank):
        v = A.frame_derive(a, f)
        if not v.is_zero():
            comp[(a,)] = v
    return EForm(1, A.rank, A.dim, comp)


def apply_locality(
    A: AlgebroidData, omega_comp: list[Scalar], u: Section, v: Section,
    projected: bool = False,
) -> Section:
    """L(omega, u, v), optionally followed by the locality projector."""
    table = {(d, e): omega_comp[d] * u.comp[e] for (_, d, e, _) in A.loc}
    sec = _locality_correction(A, table, v)
    if projected:
        sec = project_section(A, sec)
    return sec


def project_section(A: AlgebroidData, u: Section) -> Section:
    if A.proj is None:
        raise ShapeError("algebroid has no locality projector")
    out = []
    for a in range(A.rank):
        acc = A.zero()
        for b in range(A.rank):
            p = A.proj[a][b]
            if not p.is_zero() and not u.comp[b].is_zero():
                acc = acc + p * u.comp[b]
        out.append(acc)
    return Section(tuple(out))


# -- structural classification ------------------------------------------


@dataclass(frozen=True)
class Classification:
    almost_dull: bool
    almost_lie: bool
    pre_leibniz: bool
    pre_dull: bool
    pre_lie: bool


def classify(A: AlgebroidData) -> Classification:
    """Structural flags from the frame data.

    The anchor-morphism test is the frame form of rho([u,v]) = [rho u, rho v];
    the Leibniz rules propagate it to arbitrary sections whenever the
    locality operator output on exact coframes lies in ker(rho).
    """
    almost_dull = not sparse_clean(A.loc)
    antisym = not symmetric_part(A.gamma)
    pre_leibniz = True
    for a in range(A.rank):
        for b in range(A.rank):
            for i in range(A.dim):
                lhs = A.zero()
                for c in range(A.rank):
                    g = A.gamma_at(c, a, b)
                    if not g.is_zero():
                        lhs = lhs + g * A.anchor[i][c]
                rhs = A.zero()
                for j in range(A.dim):
                    ra = A.anchor[j][a]
                    rb = A.anchor[j][b]
                    if not ra.is_zero():
                        rhs = rhs + ra * A.anchor[i][b].diff(j)
                    if not rb.is_zero():
                        rhs = rhs - rb * A.anchor[i][a].diff(j)
                if not lhs.equals(rhs):
                    pre_leibniz = False
                    break
            if not pre_leibniz:
                break
        if not pre_leibniz:
            break
    almost_lie = almost_dull and antisym
    return Classification(
        almost_dull=almost_dull,
        almost_lie=almost_lie,
        pre_leibniz=pre_leibniz,
        pre_dull=pre_leibniz and almost_dull,
        pre_lie=pre_leibniz and almost_lie,
    )


def check_locality_projector(
    A: AlgebroidData, sample_points: int = 5, seed: int = 0
) -> CheckReport:
    """Verify the two locality-projector conditions.

    Condition 1: rho composed with the projected locality operator vanishes
    identically.  Condition 2: the projector restricts to the identity on a
    ker(rho) basis computed over the fraction field.  Constant rank of the
    anchor is additionally spot-checked at random rational points; a
    mismatch is recorded as an assumption, not a failure.
    """
    if A.proj is None:
        raise ShapeError("no locality projector present")
    residuals: dict[tuple, Scalar] = {}
    # condition 1: rho^i_a (P L)^a_{(d e c)} = 0, the only P.L loop.  Kept
    # as its own loop: equal scalars summed in another order can print
    # differently, so reading P L off another contraction would change the
    # printed text of failing rational residuals.
    for (aa, d, e, c), lv in A.loc.items():
        for a in range(A.rank):
            p = A.proj_at(a, aa)
            if p.is_zero():
                continue
            for i in range(A.dim):
                rho = A.anchor[i][a]
                if rho.is_zero():
                    continue
                key = ("rho_PL", i, d, e, c)
                acc = residuals.get(key, A.zero())
                residuals[key] = acc + rho * p * lv
    # condition 2: P k = k for a fraction-field kernel basis of the anchor
    anchor_rows = [list(row) for row in A.anchor]
    basis = kernel_basis(anchor_rows, A.rank, A.dim)
    for k_index, vec in enumerate(basis):
        pk = project_section(A, Section(tuple(vec)))
        for a in range(A.rank):
            residuals[("P_fix_kernel", k_index, a)] = pk.comp[a] - vec[a]
    assumptions = [
        "anchor regularity certified at sample points only; "
        "constant rank is assumed elsewhere"
    ]
    symbolic_rank = A.rank - len(basis)
    rng = random.Random(seed)
    checked = 0
    attempts = 0
    while checked < sample_points and attempts < 50 * sample_points:
        attempts += 1
        pt = Point.of(*[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(A.dim)])
        try:
            numeric = [
                [A.const(entry.eval_at(pt)) for entry in row] for row in A.anchor
            ]
        except PoleError:
            continue  # pole at this sample, draw again
        checked += 1
        if A.rank - len(kernel_basis(numeric, A.rank, A.dim)) != symbolic_rank:
            assumptions.append(
                f"anchor rank at sample point {tuple(str(c) for c in pt.coords)} "
                f"differs from symbolic rank {symbolic_rank}"
            )
    return report_from_residuals("locality-projector", residuals, assumptions)


# -- frame changes -------------------------------------------------------


def change_frame(
    A: AlgebroidData,
    F: FrameChange,
    conn: SparseArray | None = None,
    metric: list[list[Scalar]] | None = None,
):
    """Transform all bundle data to the frame X'_a = A^b_a X_b.

    Each datum is an operation of the package on the new frame sections,
    read back into the new frame through F.inverse: the anchor is
    ``anchor_of(X'_a)``; the anholonomy is ``bracket(X'_a, X'_b)``, so it
    picks up derivative and locality terms and is deliberately not
    tensorial; the locality operator is ``apply_locality`` of the coframe
    e'^d (row d of F.inverse) on (X'_e, X'_c) and the projector
    ``project_section(X'_b)``, both tensorial; the connection is
    ``covariant_derivative`` of X'_c along X'_b, which gains the usual
    derivative term.  The metric transforms as a (0, 2) tensor.  Returns
    (algebroid, connection, metric) with None propagated.
    """
    from .connection import Connection, covariant_derivative  # imports core

    if F.rank != A.rank:
        raise ShapeError("frame matrix rank mismatch")
    r = A.rank
    Amat = F.matrix
    frames = [Section(tuple(col)) for col in zip(*Amat)]  # X'_a in old frame
    pairs = list(itertools.product(range(r), repeat=2))

    def read_back(u: Section) -> list[Scalar]:
        """New-frame components of u: (F^-1)^c_d u^d."""
        out = []
        for row in F.inverse:
            acc = A.zero()
            for x, y in zip(row, u.comp):
                if not x.is_zero() and not y.is_zero():
                    acc = acc + x * y
            out.append(acc)
        return out

    def sparse(entries) -> SparseArray:
        """(key, section) pairs as the nonzero entries (c, *key), sorted."""
        return dict(sorted(
            ((c,) + key, v)
            for key, u in entries
            for c, v in enumerate(read_back(u))
            if not v.is_zero()
        ))

    A2 = AlgebroidData(
        dim=A.dim,
        rank=r,
        coords=A.coords,
        anchor=tuple(zip(*(A.anchor_of(x) for x in frames))),
        gamma=sparse(((a, b), bracket(A, frames[a], frames[b])) for a, b in pairs),
        loc=sparse(
            ((d, e, c), apply_locality(A, list(F.inverse[d]), frames[e], frames[c]))
            for d in range(r)
            for e, c in pairs
        ),
        proj=None if A.proj is None else tuple(
            zip(*(read_back(project_section(A, x)) for x in frames))
        ),
    )
    conn2 = None
    if conn is not None:
        D = Connection(r, conn)
        conn2 = sparse(
            ((b, c), covariant_derivative(A, D, frames[b], frames[c]))
            for b, c in pairs
        )

    metric2 = None
    if metric is not None:
        metric2 = [[A.zero() for _ in range(r)] for _ in range(r)]
        for a in range(r):
            for b in range(r):
                acc = A.zero()
                for c in range(r):
                    if Amat[c][a].is_zero():
                        continue
                    for d in range(r):
                        t = Amat[c][a] * Amat[d][b]
                        if not t.is_zero():
                            acc = acc + t * metric[c][d]
                metric2[a][b] = acc

    return A2, conn2, metric2
