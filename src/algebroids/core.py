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

Every derivative in it is an entry of the anchor jets rho_d(u^e) and
rho_d(v^e) (``anchor_jet``), which a caller that brackets one section many
times passes in.  The last term is ``_locality_terms``, the one stream of
the contraction with the locality operator; ``_locality_correction`` sums
it alone, and ``apply_locality`` with omega_d u^e.  The modified and
projected brackets of a connection are this same ``bracket`` of other data
with the same anchor: (W, no L) and (W^, (1 - P) L), W and W^ the modified
and projected anholonomies (see ``connection.GeometryContext``).  The only
P.L loop is condition 1 of ``check_locality_projector``.

The chart conventions of the catalog and the fixtures live here too: chart
coordinates x1 .. xn (``_chart``), the anchor that projects onto the first
k frame slots (``_projection_anchor``) and the locality projector onto the
remaining slots (``_slot_projector``).

Sums are taken as the ``scalars`` docstring states, ``sparse_sum`` being
the keyed form.  A contraction is a stream of keyed terms with no zero
product in it (``contraction_terms``, ``_locality_terms``); the bracket is
one ``sparse_sum`` of its three streams, keyed by component, and the
derivative stream holds only the components that a jet holds.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from types import MappingProxyType

from .errors import PoleError, ProjectorRequiredError, ShapeError
from .linalg import invert_matrix, kernel_basis, mat_vec
from .reports import CheckReport, report_from_residuals
from .scalars import Accumulator, Point, Scalar

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


def sparse_sum(nvars: int, terms) -> SparseArray:
    """The nonzero sums of keyed terms (key, x, y, sign), each sign * x * y,
    or sign * x when y is None, added in order by one ``Accumulator`` per
    key; keys come in the order of their first term."""
    sums: dict[tuple, Accumulator] = {}
    for key, x, y, sign in terms:
        acc = sums.get(key)
        if acc is None:
            acc = sums[key] = Accumulator(nvars)
        if y is None:
            acc.add(x, sign)
        else:
            acc.add_product(x, y, sign)
    return {key: v for key, acc in sums.items() if not (v := acc.value()).is_zero()}


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


def sliced(x: SparseArray, k: int) -> dict[int, list[tuple[tuple, Scalar]]]:
    """x's nonzero entries grouped by index k, as (other indices, value)."""
    out: dict[int, list[tuple[tuple, Scalar]]] = {}
    for idx, v in x.items():
        if not v.is_zero():
            out.setdefault(idx[k], []).append((idx[:k] + idx[k + 1 :], v))
    return out


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
        # read-only copies: contexts reuse a pair's values while A is the
        # same object, so its structure must not change in place
        object.__setattr__(self, "gamma", MappingProxyType(dict(self.gamma)))
        object.__setattr__(self, "loc", MappingProxyType(dict(self.loc)))

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
            raise ProjectorRequiredError("algebroid has no locality projector")
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
        acc = Accumulator(self.dim)
        for a, ua in enumerate(u.comp):
            if not ua.is_zero():
                acc.add_product(ua, self.frame_derive(a, f))
        return acc.value()

    def jet_derive(self, u: "Section", jet: dict[tuple, Scalar], e) -> Scalar:
        """rho(u)(x_e) read off the anchor jet of x (``anchor_jet``): the
        ``section_derive`` of the component x_e, summed in the same order."""
        acc = Accumulator(self.dim)
        for a, ua in enumerate(u.comp):
            w = jet.get((a, e))
            if w is not None and not ua.is_zero():
                acc.add_product(ua, w)
        return acc.value()

    def anchor_of(self, u: "Section") -> list[Scalar]:
        """Chart components of rho(u)."""
        return mat_vec(self.anchor, u.comp, self.dim)


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

    @classmethod
    def from_sparse(cls, A: AlgebroidData, x: dict[int, Scalar]) -> Section:
        """The section with components x[c], zero where x has no entry."""
        zero = A.zero()
        return cls(tuple([x.get(c, zero) for c in range(A.rank)]))

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


@functools.cache
def _sort_with_sign(idx: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """Sorted tuple and permutation sign; None if an index repeats.  Cached:
    every form component lookup asks, and there are few distinct tuples."""
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
        ss = _sort_with_sign(tuple(idx))
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
        return self.add(replace(other, comp={idx: -v for idx, v in other.comp.items()}))

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
        total = Accumulator(self.nvars)
        for idx, v in self.comp.items():
            det = Accumulator(self.nvars)
            for perm in itertools.permutations(range(self.degree)):
                prod = Scalar.one(self.nvars)
                for i, k in enumerate(perm):
                    prod = prod * sections[i].comp[idx[k]]
                    if prod.is_zero():
                        break
                det.add(prod, _perm_sign(perm))
            total.add_product(v, det.value())
        return total.value()


def interior_product(omega: EForm, v: Section) -> EForm:
    """Contraction in the first slot; a degree -1 graded derivation."""
    if omega.degree < 1:
        raise ShapeError("interior product needs a form of degree >= 1")
    out = sparse_sum(omega.nvars, (
        (idx[:pos] + idx[pos + 1 :], v.comp[a], value, -1 if pos % 2 else 1)
        for idx, value in omega.comp.items()
        for pos, a in enumerate(idx)
        if not v.comp[a].is_zero()
    ))
    return EForm(omega.degree - 1, omega.rank, omega.nvars, out)


def wedge(a: EForm, b: EForm) -> EForm:
    """Exterior product; beyond top degree the zero form is returned."""
    degree = a.degree + b.degree
    if degree > a.rank:
        return EForm(degree, a.rank, a.nvars, {})
    out = sparse_sum(a.nvars, (
        (ss[0], va, vb, ss[1])
        for ia, va in a.comp.items()
        for ib, vb in b.comp.items()
        if (ss := _sort_with_sign(ia + ib)) is not None
    ))
    return EForm(degree, a.rank, a.nvars, out)


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


# -- chart conventions ---------------------------------------------------


def _chart(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


def _projection_anchor(n: int, r: int, k: int) -> tuple[tuple[Scalar, ...], ...]:
    one, zero = Scalar.one(n), Scalar.zero(n)
    return tuple(
        tuple(one if (a == i and a < k) else zero for a in range(r))
        for i in range(n)
    )


def _slot_projector(n: int, r: int, k: int) -> tuple[tuple[Scalar, ...], ...]:
    """Projection onto slots k..r-1."""
    one, zero = Scalar.one(n), Scalar.zero(n)
    return tuple(
        tuple(one if (a == b and a >= k) else zero for b in range(r))
        for a in range(r)
    )


# -- the bracket engine ------------------------------------------------


def anchor_jet(A: AlgebroidData, x: Section | EForm) -> dict[tuple, Scalar]:
    """The anchor jet of a section or form: rho_d(x_e) keyed (d, e), for
    every frame index d and component e of x (a slot of a section, an
    increasing index tuple of a form), zero entries omitted."""
    comps = x.comp.items() if isinstance(x, EForm) else enumerate(x.comp)
    return {
        (d, e): val
        for e, f in comps
        if not f.is_zero()
        for d in range(A.rank)
        if not (val := A.frame_derive(d, f)).is_zero()
    }


def bracket(
    A: AlgebroidData, u: Section, v: Section, du: dict | None = None, dv: dict | None = None
) -> Section:
    """Bracket of arbitrary sections via the Leibniz-rule extension.  du and
    dv are the anchor jets of u and v, built here when not given; they hold
    every derivative the bracket takes."""
    if u.rank != A.rank or v.rank != A.rank:
        raise ShapeError("section rank does not match algebroid")
    du = anchor_jet(A, u) if du is None else du
    dv = anchor_jet(A, v) if dv is None else dv
    held_u, held_v = {e for _, e in du}, {e for _, e in dv}
    derivatives = (  # rho(u)(v^c) - rho(v)(u^c), for the c that a jet holds
        (c, A.jet_derive(x, jet, c), None, sign)
        for c in range(A.rank)
        for x, jet, held, sign in ((u, dv, held_v, 1), (v, du, held_u, -1))
        if c in held
    )
    return Section.from_sparse(A, sparse_sum(A.dim, itertools.chain(
        contraction_terms(A.gamma, [u, v]),  # u^a v^b gamma^c_ab
        derivatives,
        _locality_terms(A, du, v),  # rho^i_d d_i(u^a) v^b L^{c d}_{a b}
    )))


def contraction_terms(x: SparseArray, sections: list[Section]):
    """The terms (c, u1^b1 .. uk^bk, x[(c, b1, .., bk)], 1) of the
    contraction of x with the k given sections, in x's order, zero products
    left out; each product u1^b1 .. uk^bk is formed once."""
    products: dict[tuple, Scalar | None] = {}  # None for a zero product
    for idx, val in x.items():
        rest = idx[1:]
        if rest not in products:
            t = None
            for u, b in zip(sections, rest):
                f = u.comp[b]
                if f.is_zero():
                    t = None
                    break
                t = f if t is None else t * f
            products[rest] = t
        if (t := products[rest]) is not None:
            yield idx[0], t, val, 1


def _locality_terms(A: AlgebroidData, table: dict[tuple[int, int], Scalar], v: Section):
    """The terms (c, table[(d, e)] v^b, L^{c d}_{e b}, 1) in L's order, zero
    products left out; table holds no zero."""
    for (c, d, e, b), lv in A.loc.items():
        w = table.get((d, e))
        if w is not None and not (vb := v.comp[b]).is_zero():
            yield c, w * vb, lv, 1


def _locality_correction(
    A: AlgebroidData, table: dict[tuple[int, int], Scalar], v: Section
) -> Section:
    """L^{c d}_{e b} table[(d, e)] v^b X_c summed over d, e and b.  With
    table[(d, e)] = rho_d(u^e), the anchor jet of u, this is the bracket's
    locality term; with (D_{X_d} u)^e it is the correction L(e^d, D_{X_d}
    u, v) that turns the bracket into the modified one; with omega_d u^e it
    is L(omega, u, v)."""
    return Section.from_sparse(A, sparse_sum(A.dim, _locality_terms(A, table, v)))


def coboundary(A: AlgebroidData, f: Scalar) -> EForm:
    """The degree-1 form Df with (Df)(u) = rho(u)(f): the anchor jet of f."""
    jet = anchor_jet(A, EForm.from_scalar(A, f))
    return EForm(1, A.rank, A.dim, {(d,): v for (d, _), v in jet.items()})


def apply_locality(
    A: AlgebroidData, omega_comp: list[Scalar], u: Section, v: Section
) -> Section:
    """L(omega, u, v)."""
    table = {(d, e): omega_comp[d] * u.comp[e] for (_, d, e, _) in A.loc}
    return _locality_correction(A, sparse_clean(table), v)


def project_section(A: AlgebroidData, u: Section) -> Section:
    if A.proj is None:
        raise ProjectorRequiredError("algebroid has no locality projector")
    return Section(tuple(mat_vec(A.proj, u.comp, A.dim)))


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
    # rho([X_a, X_b]) = [rho(X_a), rho(X_b)], chart component by component
    pre_leibniz = all(
        lhs.equals(
            A.frame_derive(a, A.anchor[i][b]) - A.frame_derive(b, A.anchor[i][a])
        )
        for a in range(A.rank)
        for b in range(A.rank)
        for i, lhs in enumerate(
            A.anchor_of(Section(tuple(A.gamma_at(c, a, b) for c in range(A.rank))))
        )
    )
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
        raise ProjectorRequiredError("no locality projector present")
    # condition 1: rho^i_a (P L)^a_{(d e c)} = 0, the only P.L loop.  Kept
    # as its own sum: equal scalars summed in another order can print
    # differently, so reading P L off another contraction would change the
    # printed text of failing rational residuals.
    residuals = sparse_sum(A.dim, (
        (("rho_PL", i, d, e, c), rho * p, lv, 1)
        for (aa, d, e, c), lv in A.loc.items()
        for a in range(A.rank)
        if not (p := A.proj_at(a, aa)).is_zero()
        for i in range(A.dim)
        if not (rho := A.anchor[i][a]).is_zero()
    ))
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
