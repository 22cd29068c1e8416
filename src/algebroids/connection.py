"""Linear connections on the bundle and the tensors derived from them:
covariant derivatives, modified and projected brackets and anholonomies,
torsion, curvature, non-metricity, admissibility and difference tensors,
and the frame change of all of them (``change_frame``).

Connection coefficients follow Gamma^a_bc = <e^a, D_{X_b} X_c>: the first
lower index is the differentiation direction.  The connection one-form view
omega^a_b with (omega^a_b)_c = Gamma^a_cb is an accessor, never a stored
duplicate.  A covariant derivative is sum_b v^b D_{X_b} on a (q, s)
tensor, a section being the (1, 0) tensor of its components.

``GeometryContext`` holds the values that depend only on one (algebroid,
connection) pair, computed on first use: the admissibility report, the
frame corrections, the torsions, the curvature and the algebroid of each
bracket kind.  ``GeometryContext.algebroid(kind)`` is the one place where a
kind becomes structure, and the projected kind is refused, without a
projector, where its frame corrections are built.  Kinds whose brackets
coincide share one algebroid: where P fixes the image of L, the projected
kind is the modified algebroid itself, so every value keyed by the
algebroid is computed once for both.  Public functions resolve the
algebroid B of their kind once, and nothing below them takes a kind: the
anholonomy of a kind is B.gamma, its torsion Gamma - Gamma^T - B.gamma and
its bracket ``core.bracket`` of B.  A connection is admissible
exactly when the modified bracket is anti-symmetric, that is when the
symmetric part of the modified anholonomy vanishes.  Torsion and the
bracket of a connection are read with the sparse-array algebra of
``core``; ``Metric.raised`` is the one index raising.  A public function
builds a context when it is called.  The values of the last (algebroid,
connection, term budget) a context was built for are kept for the next
call on the same pair, and a public function returns its own copy of one.
So that no edit in place can meet a kept value, ``Connection.coeff``,
``AlgebroidData.gamma`` and ``loc`` are read-only copies and ``Metric.g``
is tuples.  What else is memoized, and for how long, is the memo policy
of ``GeometryContext``.  Sums are taken as the ``scalars`` docstring
states.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product
from types import MappingProxyType
from typing import Literal, Sequence, Union

from .core import (
    AlgebroidData,
    EForm,
    ETensor,
    FrameChange,
    Section,
    SparseArray,
    anchor_jet,
    apply_locality,
    bracket,
    project_section,
    sliced,
    sparse_add,
    sparse_clean,
    sparse_sub,
    sparse_sum,
    symmetric_part,
    transposed,
)
from .errors import ProjectorRequiredError, ShapeError, SingularMatrixError
from .linalg import invert_matrix, mat_vec
from .reports import CheckReport, report_from_residuals
from .scalars import Accumulator, Scalar, get_term_budget

BracketKind = Literal["original", "modified", "projected"]
DerivativeKind = Literal["modified", "projected"]


@dataclass(frozen=True)
class Connection:
    """Coefficient array of a linear connection, stored sparsely."""

    rank: int
    coeff: SparseArray  # (a, b, c) -> Gamma^a_bc

    def __post_init__(self):
        for idx in self.coeff:
            if len(idx) != 3 or not all(0 <= k < self.rank for k in idx):
                raise ShapeError(f"bad connection index {idx}")
        # a read-only copy: contexts reuse a pair's values while conn is the
        # same object, so its coefficients must not change in place
        object.__setattr__(self, "coeff", MappingProxyType(dict(self.coeff)))

    @classmethod
    def zero(cls, rank: int) -> Connection:
        return cls(rank, {})

    @classmethod
    def of(cls, rank: int, coeff: SparseArray) -> Connection:
        return cls(rank, sparse_clean(coeff))

    def at(self, a: int, b: int, c: int, nvars: int) -> Scalar:
        return self.coeff.get((a, b, c), Scalar.zero(nvars))

    def omega(self, A: AlgebroidData, a: int, b: int) -> EForm:
        """Connection one-form omega^a_b, components Gamma^a_cb."""
        return EForm.from_components(A, 1, {
            (c,): v for c in range(self.rank) if (v := self.coeff.get((a, c, b))) is not None
        })


class Metric:
    """Symmetric non-degenerate pairing with a cached exact inverse."""

    def __init__(self, g: Sequence[Sequence[Scalar]]):
        r = len(g)
        if r == 0:
            raise ShapeError("metric must have rank at least 1")
        if any(len(row) != r for row in g):
            raise ShapeError("metric must be square")
        for a in range(r):
            for b in range(a + 1, r):
                if not g[a][b].equals(g[b][a]):
                    raise ShapeError("metric must be symmetric")
        self.g = tuple(tuple(row) for row in g)
        try:
            self.ginv = invert_matrix(self.g)
        except SingularMatrixError:
            raise ShapeError("metric is degenerate") from None
        self.rank = r

    def at(self, a: int, b: int) -> Scalar:
        return self.g[a][b]

    def inv_at(self, a: int, b: int) -> Scalar:
        return self.ginv[a][b]

    def raised(self, x: SparseArray) -> SparseArray:
        """g^{ad} x_{...d}: the last index of x raised into the first slot,
        keyed (a, ...) in sorted order and summed over increasing d."""
        items = sorted(x.items())
        return sparse_sum(self.ginv[0][0].nvars, (
            ((a,) + idx[:-1], ginv[idx[-1]], v, 1)
            for a, ginv in enumerate(self.ginv)
            for idx, v in items
            if not ginv[idx[-1]].is_zero()
        ))

    def inner(self, u: Section, v: Section) -> Scalar:
        return pairing(self.g, u, v)


def pairing(g: Sequence[Sequence[Scalar]], u: Section, v: Section) -> Scalar:
    """u^a v^b g_ab, summed over a then b, zero terms skipped."""
    if u.rank != len(g) or v.rank != len(g):
        raise ShapeError("section rank does not match the metric")
    acc = Accumulator(g[0][0].nvars)
    for ua, row in zip(u.comp, g):
        if not ua.is_zero():
            for vb, gab in zip(v.comp, row):
                acc.add_product(ua * vb, gab)
    return acc.value()


def _require_rank(A: AlgebroidData, *data: Connection | Metric | None) -> None:
    """Refuse a connection or metric whose rank is not A's."""
    for x in data:
        if x is not None and x.rank != A.rank:
            raise ShapeError(f"{type(x).__name__} of rank {x.rank} on an algebroid of rank {A.rank}")


TensorLike = Union[Scalar, Section, ETensor]


def covariant_derivative(
    A: AlgebroidData, conn: Connection, v: Section, target: TensorLike
) -> TensorLike:
    """D_v on scalars, sections, or mixed tensors via the Leibniz extension:
    sum_b v^b D_{X_b}, a section taken as a (1, 0) tensor."""
    if isinstance(target, Scalar):
        return A.section_derive(v, target)
    if isinstance(target, Section):
        tensor = _as_tensor(A, target)
    elif isinstance(target, ETensor):
        tensor = target
    else:
        raise ShapeError(f"cannot differentiate a {type(target).__name__}")
    out = sparse_sum(A.dim, (
        (idx, f, val, 1)
        for b, f in enumerate(v.comp)
        if not f.is_zero()
        for idx, val in frame_covariant_tensor(A, conn, b, tensor).items()
    ))
    if isinstance(target, Section):
        return Section(tuple(out.get((a,), A.zero()) for a in range(A.rank)))
    return ETensor(target.q, target.s, target.rank, target.nvars, out)


def _as_tensor(A: AlgebroidData, u: Section) -> ETensor:
    """A section as the (1, 0) tensor of its nonzero components."""
    return ETensor(1, 0, A.rank, A.dim, {(e,): x for e, x in enumerate(u.comp) if not x.is_zero()})


def covariant_table(A: AlgebroidData, conn: Connection, tensor: ETensor) -> SparseArray:
    """D_{X_b} of a (q, s) tensor for every frame index b, keyed (b, *index)."""
    return {
        (b,) + idx: val
        for b in range(A.rank)
        for idx, val in frame_covariant_tensor(A, conn, b, tensor).items()
    }


def frame_covariant_tensor(
    A: AlgebroidData, conn: Connection, b: int, tensor: ETensor
) -> SparseArray:
    """Components of D_{X_b} applied to a (q, s) tensor."""
    q, s = tensor.q, tensor.s

    def terms():
        # zero terms are skipped, so an index enters at its first nonzero term
        for idx, val in tensor.comp.items():
            if val.is_zero():
                continue
            if not (d := A.frame_derive(b, val)).is_zero():
                yield idx, d, None, 1
            # contravariant slots gain +Gamma^{a_k}_{b e}
            for k in range(q):
                e = idx[k]
                for a in range(A.rank):
                    g = conn.coeff.get((a, b, e))
                    if g is not None and not g.is_zero():
                        yield idx[:k] + (a,) + idx[k + 1 :], g, val, 1
            # covariant slots gain -Gamma^{e}_{b c_l}: the stored slot value e
            # feeds every output slot c with coefficient -Gamma^e_bc
            for k in range(q, q + s):
                e = idx[k]
                for c in range(A.rank):
                    g = conn.coeff.get((e, b, c))
                    if g is not None and not g.is_zero():
                        yield idx[:k] + (c,) + idx[k + 1 :], g, val, -1

    return sparse_sum(A.dim, terms())


def modified_anholonomy(
    A: AlgebroidData, conn: Connection, kind: DerivativeKind = "modified"
) -> SparseArray:
    """Anholonomy of the modified or projected modified bracket:
    gamma^c_ab minus the frame locality correction of the kind."""
    return dict(GeometryContext(A, conn).algebroid(kind).gamma)


def modified_bracket(
    A: AlgebroidData,
    conn: Connection,
    u: Section,
    v: Section,
    kind: DerivativeKind = "modified",
) -> Section:
    """[u, v] minus the locality correction L(e^a, D_{X_a} u, v)."""
    ctx = GeometryContext(A, conn)
    return ctx.bracket(u, v, ctx.algebroid(kind))


def torsion(
    A: AlgebroidData,
    conn: Connection,
    kind: DerivativeKind = "modified",
) -> SparseArray:
    """Torsion components Gamma^a_bc - Gamma^a_cb - gamma(kind)^a_bc."""
    ctx = GeometryContext(A, conn)
    return dict(ctx.torsion(ctx.algebroid(kind)))


def curvature(A: AlgebroidData, conn: Connection) -> SparseArray:
    """Curvature components R^a_bcd of R(X_b, X_c) X_d = R^a_bcd X_a.

    Requires a locality projector: the projected modified bracket is what
    makes this operator tensorial, and defaulting to the identity would
    silently hide modelling errors.
    """
    return dict(GeometryContext(A, conn).curvature())


def non_metricity(
    A: AlgebroidData,
    conn: Connection,
    metric: Metric,
    theta: Sequence[Scalar] | None = None,
) -> SparseArray:
    """Q_abc = rho(X_a)(g_bc) - Gamma^d_ab g_dc - Gamma^d_ac g_bd, plus
    theta_a g_bc when a scale one-form ``theta`` is given (the
    scale-covariant compatibility of conformal Courant algebroids)."""
    _require_rank(A, conn, metric)
    r = A.rank
    g = {(b, c): v for b, row in enumerate(metric.g) for c, v in enumerate(row) if not v.is_zero()}
    upper = [(bc, v) for bc, v in g.items() if bc[0] <= bc[1]]
    by_first = sliced(conn.coeff, 0)

    def terms():
        # keyed (a, b, c), b <= c, each key's terms in the order of the formula
        for a in range(r):
            yield from (((a, *bc), x, None, 1) for bc, v in upper
                        if not (x := A.frame_derive(a, v)).is_zero())
        if theta is not None:
            for a in range(r):
                if not theta[a].is_zero():
                    yield from (((a, *bc), theta[a], v, 1) for bc, v in upper)
        for d in range(r):
            for (a, b), x in by_first.get(d, ()):
                yield from (((a, b, c), x, g[(d, c)], -1) for c in range(b, r) if (d, c) in g)
            for (a, c), x in by_first.get(d, ()):
                yield from (((a, b, c), g[(b, d)], x, -1) for b in range(c + 1) if (b, d) in g)

    summed = sorted(sparse_sum(A.dim, terms()).items())
    return {key: v for (a, b, c), v in summed for key in ((a, b, c), (a, c, b))}


def locality_contraction(A: AlgebroidData, conn: Connection) -> SparseArray:
    """Frame components of L(e^d, D_{X_d} u, v): the map A(u, v) that turns
    a connection into an anti-commutable bracket."""
    return dict(GeometryContext(A, conn).contraction("modified"))


def check_admissible(A: AlgebroidData, conn: Connection) -> CheckReport:
    """Frame check of the anti-commutability condition: the symmetric part
    of the modified anholonomy vanishes,

        gamma^c_ab + gamma^c_ba = Gamma^e_da L^{c d}_{e b} + Gamma^e_db L^{c d}_{e a}

    with one residual per (c, a, b), a <= b.  The difference of the two
    sides is function-multilinear, so the frame check extends to all
    sections.
    """
    report = GeometryContext(A, conn).admissibility()
    return replace(
        report, residuals=list(report.residuals), assumptions=list(report.assumptions)
    )


def is_admissible(A: AlgebroidData, conn: Connection) -> bool:
    return check_admissible(A, conn).passed


# The (A, conn, term budget, pair store) of the last context built.
_pair_slot: tuple = (None, None, None, {})


class GeometryContext:
    """Values of one (A, conn) pair, each computed on first use.

    ``algebroid(kind)`` is the one place where a bracket kind becomes
    structure: A, (gamma, L), for "original"; (W, no L) for "modified";
    (W^, (1 - P) L) for "projected", where W and W^ are gamma minus the
    frame corrections ``contraction(kind)``.  Written out, [u, v] - L(e^d,
    D_{X_d} u, v) is u^a v^b W^c_ab + rho(u)(v^c) - rho(v)(u^c): the
    bracket's locality term cancels against the rho_d(u^e) part of the
    correction, and projecting the correction leaves (1 - P) of it.  Every
    other value of a kind is the plain value of its algebroid B: its
    bracket is ``core.bracket`` of B, its anholonomy B.gamma and its
    torsion Gamma - Gamma^T - B.gamma.  The projected kind is refused,
    without a projector, where its contraction is built.  When (1 - P) L is
    empty and W^ has W's entries, the same keys in the same order with the
    same num and den structures, the projected kind is the modified
    algebroid object itself, so that the values keyed by the algebroid
    (torsions, brackets, the magic suite's forms) are computed once for
    both kinds.  Entries that are equal but print differently keep the
    kinds apart.

    Memo policy: a value is memoized only where it is asked for again,
    and each memo below is kept for the figure given with it (requests
    that repeat one earlier request, per pass of the ``identity_batch``
    workload unless another input is named).  Everything else, the
    Leibniz and exterior derivatives of ``calculus`` among it, is
    computed at each request.

    - The pair slot, one per process, keeps the pair store of the last
      pair, reused when A and conn are that pair's objects (``is``) and
      the term budget is the one it was built under: the admissibility
      report, the algebroids, contractions, torsions and curvature (169
      of 195 algebroid, 91 of 104 torsion and 52 of 65 curvature requests
      repeat; each public entry asks for admissibility once, and 78 of
      those 91 requests repeat).  Without it a pass took about 30% more
      CPU time (median of 6 alternating passes).
    - For one public call, in a memo keyed by object ids that holds the
      objects, so the ids stay unique: the anchor jets (3,437 of 4,960),
      the brackets (1,386 of 3,130; ``frame_brackets`` reads each [v,
      X_a] from it) and the covariant derivatives D_x y (372 of 1,314, and
      1,200 of 1,716 on the Courant n = 2 document of
      ``tools/output_digests.py``).  Each section's or form's anchor jet
      is computed at most once per call.
    - In ``check_magic_and_derivations``, each builder's residual forms
      and the commutation pair are memoized per algebroid, so kinds that
      share one algebroid evaluate once (26 of 52 ``derivations``
      requests repeat, 15 of 39 commutation pairs).

    Returned values are shared and must not be mutated."""

    def __init__(self, A: AlgebroidData, conn: Connection | None):
        global _pair_slot
        _require_rank(A, conn)
        self.A = A
        self.conn = conn
        budget = get_term_budget()
        slot_A, slot_conn, slot_budget, store = _pair_slot
        if slot_A is not A or slot_conn is not conn or slot_budget != budget:
            store = {}
            _pair_slot = (A, conn, budget, store)
        self._pair_store: dict = store
        self._memo: dict = {}

    @cached_property
    def frames(self) -> list[Section]:
        return [Section.frame(self.A, a) for a in range(self.A.rank)]

    def _pair(self, key, build):
        if key not in self._pair_store:
            self._pair_store[key] = build()
        return self._pair_store[key]

    def _cached(self, key, build, *held):
        # held: the objects whose ids the key contains, kept alive with it
        if key not in self._memo:
            self._memo[key] = (build(), held)
        return self._memo[key][0]

    def admissibility(self) -> CheckReport:
        return self._pair("admissible", self._admissibility)

    def algebroid(self, kind: BracketKind) -> AlgebroidData:
        """The algebroid whose plain bracket is the bracket of the kind."""
        if kind == "original":
            return self.A
        return self._pair(("algebroid", kind), lambda: self._algebroid(kind))

    def contraction(self, kind: DerivativeKind) -> SparseArray:
        """The frame corrections L(e^d, D_{X_d} X_a, X_b) = Gamma^e_da
        L^{c d}_{e b} X_c, projected for "projected", keyed (c, a, b)."""
        return self._pair(("contraction", kind), lambda: self._contraction(kind))

    def torsion(self, B: AlgebroidData) -> SparseArray:
        """Gamma - Gamma^T - B.gamma, the torsion of the kind whose algebroid
        B is; B is one of ``algebroid``'s values, which the store or the
        slot keeps alive, so its id stays unique."""
        return self._pair(("torsion", id(B)), lambda: self._torsion(B))

    def curvature(self) -> SparseArray:
        return self._pair("curvature", self._curvature)

    def jet(self, x: Section | EForm) -> dict[tuple, Scalar]:
        """The anchor jet rho_d(x_e) of a section or form (``anchor_jet``)."""
        return self._cached(("jet", id(x)), lambda: anchor_jet(self.A, x), x)

    def bracket(self, u: Section, v: Section, B: AlgebroidData) -> Section:
        """[u, v] in B, the algebroid of a bracket kind."""
        return self._cached((id(u), id(v), id(B)), lambda: bracket(
            B, u, v, self.jet(u), self.jet(v)
        ), u, v, B)

    def covariant(self, x: Section, y: Section) -> Section:
        """D_x y, by ``covariant_derivative``."""
        return self._cached(
            ("D", id(x), id(y)), lambda: covariant_derivative(self.A, self.conn, x, y), x, y
        )

    def frame_brackets(self, v: Section, B: AlgebroidData) -> list[Section]:
        """[v, X_a] in B for every frame index a, from the bracket memo."""
        return [self.bracket(v, x, B) for x in self.frames]

    def _admissibility(self) -> CheckReport:
        """The report of ``check_admissible``: the symmetric part of the
        modified anholonomy, keyed (c, a, b) with a <= b."""
        return report_from_residuals(
            "admissible", symmetric_part(self.algebroid("modified").gamma)
        )

    def _algebroid(self, kind: DerivativeKind) -> AlgebroidData:
        A = self.A
        gamma = sparse_sub(A.gamma, self.contraction(kind))
        loc: SparseArray = {}
        if kind == "projected" and A.loc:
            # (1 - P) L: each column L^{. d}_{e b} minus its projection
            loc = _map_columns(A, A.loc, lambda x: x.sub(project_section(A, x)))
        if kind == "projected" and not loc:
            # P fixes the image of L: the projected bracket is the modified one
            M = self.algebroid("modified")
            if _same_entries(gamma, M.gamma):
                return M
        if not A.loc:
            # the bracket is A's: A itself, unless its gamma holds zeros
            return A if len(gamma) == len(A.gamma) else replace(A, gamma=gamma)
        return replace(A, gamma=gamma, loc=loc)

    def _contraction(self, kind: DerivativeKind) -> SparseArray:
        A = self.A
        if kind == "projected" and A.proj is None:
            raise ProjectorRequiredError("locality projector required")
        if not A.loc:
            return {}
        if self.conn is None:
            raise ShapeError("modified brackets need a connection")
        if kind == "modified":
            return _frame_contraction(A, self.conn)
        # the projection of each column C^._ab of the modified contraction
        return _map_columns(A, self.contraction("modified"), lambda x: project_section(A, x))

    def _torsion(self, B: AlgebroidData) -> SparseArray:
        coeff = self.conn.coeff
        skew = sparse_sub(coeff, transposed(coeff))
        return dict(sorted(sparse_sub(skew, B.gamma).items()))

    def _curvature(self) -> SparseArray:
        # R^a_bcd = rho_b(Gamma^a_cd) - rho_c(Gamma^a_bd) + sum_e (Gamma^e_cd Gamma^a_be
        # - Gamma^e_bd Gamma^a_ce - W^e_bc Gamma^a_ed), W the projected anholonomy
        A, conn = self.A, self.conn
        first, middle, last = (sliced(conn.coeff, k) for k in range(3))
        anhol = sliced(self.algebroid("projected").gamma, 0)
        derivs = [((a, b, c, d), x) for (a, c, d), g in conn.coeff.items()
                  for b in range(A.rank) if not (x := A.frame_derive(b, g)).is_zero()]

        def terms():
            yield from ((key, x, None, 1) for key, x in derivs)
            yield from (((a, c, b, d), x, None, -1) for (a, b, c, d), x in derivs)
            for e in range(A.rank):
                for (c, d), x in first.get(e, ()):
                    yield from (((a, b, c, d), x, y, 1) for (a, b), y in last.get(e, ()))
                for (b, d), x in first.get(e, ()):
                    yield from (((a, b, c, d), x, y, -1) for (a, c), y in last.get(e, ()))
                for (b, c), x in anhol.get(e, ()):
                    yield from (((a, b, c, d), x, y, -1) for (a, d), y in middle.get(e, ()))

        return dict(sorted(sparse_sum(A.dim, terms()).items()))


def _same_entries(x: SparseArray, y: SparseArray) -> bool:
    """The same keys in the same order, each value with the same num and
    den structures: equal values that print differently do not count."""
    return list(x) == list(y) and all(
        v.num == w.num and v.den == w.den for v, w in zip(x.values(), y.values())
    )


def _map_columns(A: AlgebroidData, x: SparseArray, f) -> SparseArray:
    """f of each nonzero column x^._rest of an array keyed (c, *rest), as
    a section, keyed back (c, *rest) in sorted (rest, c) order, zeros
    omitted."""
    out: SparseArray = {}
    for rest in sorted({idx[1:] for idx in x}):
        column = Section(tuple(x.get((c,) + rest, A.zero()) for c in range(A.rank)))
        for c, val in enumerate(f(column).comp):
            if not val.is_zero():
                out[(c,) + rest] = val
    return out


def locality_terms(A: AlgebroidData) -> dict[tuple, list[tuple[tuple, Scalar]]]:
    """C^c_ab = Gamma^e_da L^{c d}_{e b} as a linear map of Gamma: for each
    (c, a, b), keyed in (a, b, c) order, the Gamma index (e, d, a) and the L
    entry of each term, in L's order, as the per-pair
    ``core._locality_correction`` sums them."""
    terms: dict[tuple, list[tuple[tuple, Scalar]]] = {}
    for (c, d, e, b), lv in A.loc.items():
        for a in range(A.rank):
            terms.setdefault((c, a, b), []).append(((e, d, a), lv))
    return {(c, a, b): terms[(c, a, b)] for a, b, c in sorted((a, b, c) for c, a, b in terms)}


def _frame_contraction(A: AlgebroidData, conn: Connection) -> SparseArray:
    """C(Gamma), the corrections L(e^d, D_{X_d} X_a, X_b) of all frame
    pairs, keyed (c, a, b) in (a, b, c) order (``locality_terms``)."""
    return sparse_sum(A.dim, (
        (key, g, lv, 1)
        for key, terms in locality_terms(A).items()
        for idx, lv in terms
        if (g := conn.coeff.get(idx)) is not None and not g.is_zero()
    ))


def difference_tensor(conn1: Connection, conn2: Connection) -> SparseArray:
    """Entrywise difference; transforms tensorially although neither
    connection does."""
    return sparse_sub(conn1.coeff, conn2.coeff)


def check_equivalent_connections(
    A: AlgebroidData, conn1: Connection, conn2: Connection
) -> CheckReport:
    """Two connections induce the same anti-commutable structure iff the
    locality contraction of their difference is antisymmetric: its
    symmetric part, keyed (c, a, b) with a <= b, is the residual."""
    _require_rank(A, conn1, conn2)
    delta = Connection(A.rank, difference_tensor(conn1, conn2))
    return report_from_residuals(
        "equivalent-connections", symmetric_part(_frame_contraction(A, delta))
    )


def check_anholonomy_decomposition(A: AlgebroidData, conn: Connection) -> CheckReport:
    """Split the anholonomy into the modified anholonomy plus the locality
    contraction and test that for an admissible connection with symmetric
    contraction these are exactly its antisymmetric and symmetric parts.

    Residual groups: "reconstruction" (gamma minus the two parts, an exact
    rearrangement), "antisym-part" (symmetric part of the modified
    anholonomy), "sym-precondition" (antisymmetric part of the
    contraction, zero exactly when the splitting hypothesis holds).
    """
    ctx = GeometryContext(A, conn)
    anhol = ctx.algebroid("modified").gamma
    lc = ctx.contraction("modified")
    groups = {
        "reconstruction": sparse_sub(sparse_sub(A.gamma, anhol), lc),
        "antisym-part": symmetric_part(anhol),
        "sym-precondition": {
            idx: v for idx, v in sparse_sub(lc, transposed(lc)).items()
            if idx[-2] < idx[-1]
        },
    }
    residuals = {
        (label,) + idx: v
        for label, group in groups.items()
        for idx, v in sorted(group.items())
    }
    return report_from_residuals(
        "anholonomy-decomposition",
        residuals,
        [
            "the printed splitting formula's contraction coincides with the "
            "modified-anholonomy contraction after renaming its colliding "
            "summation index; only that contraction is evaluated"
        ],
    )


def bracket_from_connection(
    A: AlgebroidData, conn: Connection, amap: SparseArray | None = None
) -> AlgebroidData:
    """Build the algebroid whose bracket is D_u v - D_v u + A(u, v).

    With the default amap, the locality contraction of the connection, the
    resulting bracket is anti-commutable and the connection is admissible
    for it by construction.  The anchor, locality operator and projector
    are carried over unchanged.
    """
    _require_rank(A, conn)
    if amap is None:
        amap = _frame_contraction(A, conn)
    skew = sparse_sub(conn.coeff, transposed(conn.coeff))
    return AlgebroidData(
        dim=A.dim,
        rank=A.rank,
        coords=A.coords,
        anchor=A.anchor,
        gamma=dict(sorted(sparse_add(skew, amap).items())),
        loc=A.loc,
        proj=A.proj,
    )


# -- frame changes -------------------------------------------------------


def change_frame(
    A: AlgebroidData,
    F: FrameChange,
    conn: SparseArray | None = None,
    metric: list[list[Scalar]] | None = None,
):
    """Transform all bundle data to the frame X'_a = A^b_a X_b.

    A frame change writes no transformation law of its own: each datum is
    an operation of the package on the new frame sections, read back into
    the new frame through F.inverse.  The anchor is ``anchor_of(X'_a)``;
    the anholonomy is ``bracket(X'_a, X'_b)``, so it picks up derivative
    and locality terms and is deliberately not tensorial; the locality
    operator is ``apply_locality`` of the coframe e'^d (row d of F.inverse)
    on (X'_e, X'_c) and the projector ``project_section(X'_b)``, both
    tensorial; the connection is ``covariant_derivative`` of X'_c along
    X'_b, which gains the usual derivative term.  The metric is
    ``pairing`` of the new frame sections.  Returns (algebroid, connection,
    metric) with None propagated.
    """
    r = A.rank
    if F.rank != r:
        raise ShapeError("frame matrix rank mismatch")
    if metric is not None and (len(metric) != r or any(len(row) != r for row in metric)):
        raise ShapeError("metric must be a rank x rank matrix")
    frames = [Section(tuple(col)) for col in zip(*F.matrix)]  # X'_a in old frame
    pairs = list(product(range(r), repeat=2))

    def read_back(u: Section) -> list[Scalar]:
        """New-frame components of u: (F^-1)^c_d u^d."""
        return mat_vec(F.inverse, u.comp, A.dim)

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
        metric2 = [[pairing(metric, x, y) for y in frames] for x in frames]
    return A2, conn2, metric2
