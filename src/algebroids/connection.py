"""Linear connections on the bundle and the tensors derived from them:
covariant derivatives, modified and projected brackets and anholonomies,
torsion, curvature, non-metricity, admissibility and difference tensors.

Connection coefficients follow Gamma^a_bc = <e^a, D_{X_b} X_c>: the first
lower index is the differentiation direction.  The connection one-form view
omega^a_b with (omega^a_b)_c = Gamma^a_cb is an accessor, never a stored
duplicate.  A covariant derivative is sum_b v^b D_{X_b} on a (q, s)
tensor, a section being the (1, 0) tensor of its components.

``GeometryContext`` holds the values that depend only on one (algebroid,
connection) pair: the admissibility report, the anholonomies, both
torsions, the curvature, each section's D_{X_d} u table, brackets of
sections and the rho(v) parts of Leibniz derivatives of forms, each
computed on first use.  It is the one place that builds a modified or
projected bracket: the plain bracket minus ``core._locality_correction``
of the D_{X_d} u table, projected for the projected kind, with one plain
bracket and one correction per section pair shared by all three kinds.
The corrections of frame pairs are the context's ``contraction``: since
[X_a, X_b] = gamma^c_ab X_c, each modified anholonomy is gamma minus it.
A connection is admissible exactly when the modified bracket is
anti-symmetric, that is when the symmetric part of the modified anholonomy
vanishes.  Torsion and the bracket of a connection are Gamma - Gamma^T
combined with an anholonomy, read with the sparse-array algebra of
``core``; ``Metric.raised`` is the one index raising.  A public function
builds a context when it is called and drops it when it returns, so no
value outlives the call that computed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Literal, Sequence, Union

from .core import (
    AlgebroidData,
    EForm,
    ETensor,
    Section,
    SparseArray,
    _locality_correction,
    bracket,
    project_section,
    sparse_add,
    sparse_clean,
    sparse_sub,
    symmetric_part,
    transposed,
)
from .errors import ProjectorRequiredError, ShapeError, SingularMatrixError
from .linalg import invert_matrix
from .reports import CheckReport, report_from_residuals
from .scalars import Scalar

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
        comp = {}
        for c in range(self.rank):
            v = self.coeff.get((a, c, b))
            if v is not None and not v.is_zero():
                comp[(c,)] = v
        return EForm(1, A.rank, A.dim, comp)


class Metric:
    """Symmetric non-degenerate pairing with a cached exact inverse."""

    def __init__(self, g: list[list[Scalar]]):
        r = len(g)
        if any(len(row) != r for row in g):
            raise ShapeError("metric must be square")
        for a in range(r):
            for b in range(a + 1, r):
                if not g[a][b].equals(g[b][a]):
                    raise ShapeError("metric must be symmetric")
        self.g = [list(row) for row in g]
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
        rows: dict[tuple, list[tuple[int, Scalar]]] = {}
        for idx, v in sorted(x.items()):
            rows.setdefault(idx[:-1], []).append((idx[-1], v))
        out: SparseArray = {}
        for a, ginv in enumerate(self.ginv):
            for head, terms in rows.items():
                acc = None
                for d, v in terms:
                    if not ginv[d].is_zero():
                        t = ginv[d] * v
                        acc = t if acc is None else acc + t
                if acc is not None and not acc.is_zero():
                    out[(a,) + head] = acc
        return out

    def inner(self, u: Section, v: Section) -> Scalar:
        nvars = self.g[0][0].nvars
        acc = Scalar.zero(nvars)
        for a in range(self.rank):
            if u.comp[a].is_zero():
                continue
            for b in range(self.rank):
                t = u.comp[a] * v.comp[b]
                if not t.is_zero():
                    acc = acc + t * self.g[a][b]
        return acc


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
    out: SparseArray = {}
    for b, f in enumerate(v.comp):
        if f.is_zero():
            continue
        for idx, val in frame_covariant_tensor(A, conn, b, tensor).items():
            t = f * val
            if t.is_zero():
                continue
            s = out.get(idx)
            out[idx] = t if s is None else s + t
    if isinstance(target, Section):
        return Section(tuple(out.get((a,), A.zero()) for a in range(A.rank)))
    return ETensor(target.q, target.s, target.rank, target.nvars, sparse_clean(out))


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


def _frame_covariants(
    A: AlgebroidData, conn: Connection, u: Section
) -> dict[tuple[int, int], Scalar]:
    """The nonzero (D_{X_d} u)^e, keyed (d, e)."""
    return covariant_table(A, conn, _as_tensor(A, u))


def frame_covariant_tensor(
    A: AlgebroidData, conn: Connection, b: int, tensor: ETensor
) -> SparseArray:
    """Components of D_{X_b} applied to a (q, s) tensor."""
    q, s = tensor.q, tensor.s
    out: SparseArray = {}

    def accumulate(idx, val):
        if val.is_zero():
            return
        cur = out.get(idx)
        out[idx] = val if cur is None else cur + val

    for idx, val in tensor.comp.items():
        accumulate(idx, A.frame_derive(b, val))
        # contravariant slots gain +Gamma^{a_k}_{b e}
        for k in range(q):
            e = idx[k]
            for a in range(A.rank):
                g = conn.coeff.get((a, b, e))
                if g is not None:
                    accumulate(idx[:k] + (a,) + idx[k + 1 :], g * val)
        # covariant slots gain -Gamma^{e}_{b c_l}: the stored slot value e
        # feeds every output slot c with coefficient -Gamma^e_bc
        for k in range(q, q + s):
            e = idx[k]
            for c in range(A.rank):
                g = conn.coeff.get((e, b, c))
                if g is not None:
                    accumulate(idx[:k] + (c,) + idx[k + 1 :], -(g * val))
    return sparse_clean(out)


def modified_anholonomy(
    A: AlgebroidData, conn: Connection, kind: DerivativeKind = "modified"
) -> SparseArray:
    """Anholonomy of the modified or projected modified bracket:
    gamma^c_ab minus the frame locality correction of the kind."""
    return GeometryContext(A, conn).anholonomy(kind)


def modified_bracket(
    A: AlgebroidData,
    conn: Connection,
    u: Section,
    v: Section,
    kind: DerivativeKind = "modified",
) -> Section:
    """[u, v] minus the locality correction L(e^a, D_{X_a} u, v)."""
    return GeometryContext(A, conn).bracket(u, v, kind)


def torsion(
    A: AlgebroidData,
    conn: Connection,
    kind: DerivativeKind = "modified",
) -> SparseArray:
    """Torsion components Gamma^a_bc - Gamma^a_cb - gamma(kind)^a_bc."""
    return GeometryContext(A, conn).torsion(kind)


def curvature(A: AlgebroidData, conn: Connection) -> SparseArray:
    """Curvature components R^a_bcd of R(X_b, X_c) X_d = R^a_bcd X_a.

    Requires a locality projector: the projected modified bracket is what
    makes this operator tensorial, and defaulting to the identity would
    silently hide modelling errors.
    """
    return GeometryContext(A, conn).curvature()


def non_metricity(
    A: AlgebroidData,
    conn: Connection,
    metric: Metric,
    theta: Sequence[Scalar] | None = None,
) -> SparseArray:
    """Q_abc = rho(X_a)(g_bc) - Gamma^d_ab g_dc - Gamma^d_ac g_bd, plus
    theta_a g_bc when a scale one-form ``theta`` is given (the
    scale-covariant compatibility of conformal Courant algebroids)."""
    r = A.rank
    out: SparseArray = {}
    for a in range(r):
        for b in range(r):
            for c in range(b, r):
                acc = A.frame_derive(a, metric.at(b, c))
                if theta is not None:
                    acc = acc + theta[a] * metric.at(b, c)
                for d in range(r):
                    g1 = conn.coeff.get((d, a, b))
                    if g1 is not None:
                        acc = acc - g1 * metric.at(d, c)
                    g2 = conn.coeff.get((d, a, c))
                    if g2 is not None:
                        acc = acc - metric.at(b, d) * g2
                if not acc.is_zero():
                    out[(a, b, c)] = acc
                    if b != c:
                        out[(a, c, b)] = acc
    return out


def locality_contraction(A: AlgebroidData, conn: Connection) -> SparseArray:
    """Frame components of L(e^d, D_{X_d} u, v): the map A(u, v) that turns
    a connection into an anti-commutable bracket."""
    return GeometryContext(A, conn).contraction("modified")


def check_admissible(A: AlgebroidData, conn: Connection) -> CheckReport:
    """Frame check of the anti-commutability condition: the symmetric part
    of the modified anholonomy vanishes,

        gamma^c_ab + gamma^c_ba = Gamma^e_da L^{c d}_{e b} + Gamma^e_db L^{c d}_{e a}

    with one residual per (c, a, b), a <= b.  The difference of the two
    sides is function-multilinear, so the frame check extends to all
    sections.
    """
    return GeometryContext(A, conn).admissibility()


def is_admissible(A: AlgebroidData, conn: Connection) -> bool:
    return check_admissible(A, conn).passed


class GeometryContext:
    """Values of one (A, conn) pair, each computed on first use and kept
    for the life of the context, one public call; all bracket kinds share
    one plain bracket and one locality correction per section pair.  A
    memo keyed by an object's id holds that object, so the id stays
    unique.  Returned values are shared and must not be mutated."""

    def __init__(self, A: AlgebroidData, conn: Connection | None):
        self.A = A
        self.conn = conn
        self.frames = [Section.frame(A, a) for a in range(A.rank)]
        self._memo: dict = {}

    def _need_conn(self) -> Connection:
        if self.conn is None:
            raise ShapeError("modified brackets need a connection")
        return self.conn

    def _cached(self, key, build, *held):
        # held: the objects whose ids the key contains, kept alive with it
        if key not in self._memo:
            self._memo[key] = (build(), held)
        return self._memo[key][0]

    def admissibility(self) -> CheckReport:
        return self._cached("admissible", self._admissibility)

    def anholonomy(self, kind: DerivativeKind) -> SparseArray:
        """gamma^c_ab minus the frame correction of the kind: the structure
        functions of [X_a, X_b] of that kind."""
        return self._cached(
            ("anholonomy", kind), lambda: sparse_sub(self.A.gamma, self.contraction(kind))
        )

    def contraction(self, kind: DerivativeKind) -> SparseArray:
        """The frame corrections L(e^d, D_{X_d} X_a, X_b) = Gamma^e_da
        L^{c d}_{e b} X_c, projected for "projected", keyed (c, a, b)."""
        return self._cached(("contraction", kind), lambda: self._contraction(kind))

    def torsion(self, kind: DerivativeKind) -> SparseArray:
        return self._cached(("torsion", kind), lambda: self._torsion(kind))

    def curvature(self) -> SparseArray:
        return self._cached("curvature", self._curvature)

    def bracket(self, u: Section, v: Section, kind: BracketKind) -> Section:
        """The original, modified or projected bracket of u and v."""
        return self._cached((id(u), id(v), kind), lambda: self._bracket(u, v, kind), u, v)

    def frame_brackets(self, v: Section, kind: BracketKind) -> list[Section]:
        """[v, X_a] of the given kind for every frame index a."""
        return self._cached(
            (id(v), kind), lambda: [self.bracket(v, x, kind) for x in self.frames], v
        )

    def anchor_derivatives(self, v: Section, form: EForm) -> dict[tuple, Scalar]:
        """rho(v)(form(X_idx)) for every increasing index tuple idx: the
        part of the Leibniz derivative of a form that no bracket kind
        changes."""
        A = self.A
        return self._cached(("rho", id(v), id(form)), lambda: {
            idx: A.section_derive(v, form.at(idx))
            for idx in combinations(range(A.rank), form.degree)
        }, v, form)

    def _covariants(self, u: Section) -> dict[tuple[int, int], Scalar]:
        """The nonzero (D_{X_d} u)^e, keyed (d, e), built once per section."""
        return self._cached(
            ("D", id(u)), lambda: _frame_covariants(self.A, self._need_conn(), u), u
        )

    def correction(self, u: Section, v: Section) -> Section:
        """The modified bracket's locality correction L(e^d, D_{X_d} u, v)."""
        return self._cached(
            ("correction", id(u), id(v)),
            lambda: _locality_correction(self.A, self._covariants(u), v), u, v
        )

    def _admissibility(self) -> CheckReport:
        """The report of ``check_admissible``: the symmetric part of the
        modified anholonomy, keyed (c, a, b) with a <= b."""
        return report_from_residuals(
            "admissible", symmetric_part(self.anholonomy("modified"))
        )

    def _contraction(self, kind: DerivativeKind) -> SparseArray:
        A = self.A
        if kind == "projected" and A.proj is None:
            raise ProjectorRequiredError("locality projector required")
        out: SparseArray = {}
        if not A.loc:
            return out
        for a, x in enumerate(self.frames):
            for b, y in enumerate(self.frames):
                correction = self.correction(x, y)
                if kind == "projected":
                    correction = project_section(A, correction)
                for c, val in enumerate(correction.comp):
                    if not val.is_zero():
                        out[(c, a, b)] = val
        return out

    def _bracket(self, u: Section, v: Section, kind: BracketKind) -> Section:
        if kind == "original":
            return bracket(self.A, u, v)
        if kind == "projected" and self.A.proj is None:
            raise ProjectorRequiredError("locality projector required")
        base = self.bracket(u, v, "original")
        if not self.A.loc:
            return base
        correction = self.correction(u, v)
        if kind == "projected":
            correction = project_section(self.A, correction)
        return base.sub(correction)

    def _torsion(self, kind: DerivativeKind) -> SparseArray:
        coeff = self.conn.coeff
        skew = sparse_sub(coeff, transposed(coeff))
        return dict(sorted(sparse_sub(skew, self.anholonomy(kind)).items()))

    def _curvature(self) -> SparseArray:
        A, conn = self.A, self.conn
        if A.proj is None:
            raise ProjectorRequiredError("curvature requires a locality projector")
        anhol = self.anholonomy("projected")
        r = A.rank
        out: SparseArray = {}
        for a in range(r):
            for b in range(r):
                for c in range(r):
                    for d in range(r):
                        acc = A.frame_derive(b, conn.at(a, c, d, A.dim))
                        acc = acc - A.frame_derive(c, conn.at(a, b, d, A.dim))
                        for e in range(r):
                            g_cd = conn.coeff.get((e, c, d))
                            if g_cd is not None:
                                t = conn.coeff.get((a, b, e))
                                if t is not None:
                                    acc = acc + g_cd * t
                            g_bd = conn.coeff.get((e, b, d))
                            if g_bd is not None:
                                t = conn.coeff.get((a, c, e))
                                if t is not None:
                                    acc = acc - g_bd * t
                            an = anhol.get((e, b, c))
                            if an is not None:
                                t = conn.coeff.get((a, e, d))
                                if t is not None:
                                    acc = acc - an * t
                        if not acc.is_zero():
                            out[(a, b, c, d)] = acc
        return out


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
    delta = Connection(A.rank, difference_tensor(conn1, conn2))
    return report_from_residuals(
        "equivalent-connections", symmetric_part(locality_contraction(A, delta))
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
    anhol = ctx.anholonomy("modified")
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
    if amap is None:
        amap = locality_contraction(A, conn)
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
