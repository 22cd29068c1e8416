"""Constructors for the standard example algebroids and the specialized
admissibility verdicts that each family enjoys.

Frame conventions.  Pairing-type entries on a chart of dimension n use the
frame (d_1 .. d_n, w^1 .. w^J): chart vector fields first, then a basis of
p-th exterior powers of the coframe enumerated on strictly increasing
index tuples.  The anchor is the projection onto the vector slots and the
locality projector is the projection onto the form slots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Literal, Sequence

from .connection import Connection, Metric, check_admissible, non_metricity
from .core import (
    AlgebroidData,
    EForm,
    FrameChange,
    SparseArray,
    _sort_with_sign,
    change_frame,
    sparse_add,
    sparse_clean,
)
from .errors import ShapeError
from .levicivita import _half_raised, _on_triples
from .reports import CheckReport, report_from_residuals
from .scalars import Scalar

ExampleKind = Literal[
    "tangent_lie",
    "twisted_frame_lie",
    "courant_standard",
    "courant_h_twisted",
    "metric_algebroid",
    "higher_courant",
    "conformal_courant",
]


@dataclass(frozen=True)
class HigherMetricValue:
    """Form-valued pairing g_{ab}^I with I over increasing (p-1)-tuples."""

    p: int
    dim: int
    comp: SparseArray  # (I tuple appended to (a, b)) handled as ((a, b), I)

    def at(self, a: int, b: int, I: tuple[int, ...], nvars: int) -> Scalar:
        return self.comp.get((a, b, I), Scalar.zero(nvars))


@dataclass(frozen=True)
class ExampleBundle:
    """A catalog entry: the algebroid plus whatever pairing data its
    family carries."""

    kind: ExampleKind
    algebroid: AlgebroidData
    metric: Metric | None = None
    higher_metric: HigherMetricValue | None = None
    theta: tuple[Scalar, ...] | None = None  # line-bundle connection components


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


def pairing_locality(metric: Metric, nvars: int) -> SparseArray:
    """L^{a d}_{e c} = g_{ec} g^{ad}: the locality operator of a
    pairing-type bracket, L(W, u, v) = g(u, v) g^{-1}(W)."""
    out: SparseArray = {}
    r = metric.rank
    for e in range(r):
        for c in range(r):
            gec = metric.at(e, c)
            if gec.is_zero():
                continue
            for a in range(r):
                for d in range(r):
                    gad = metric.inv_at(a, d)
                    if gad.is_zero():
                        continue
                    out[(a, d, e, c)] = gec * gad
    return out


def _pairing_metric(n: int, r: int) -> Metric:
    """Off-diagonal block pairing between vector and form slots."""
    k = r // 2
    one, zero = Scalar.one(n), Scalar.zero(n)
    g = [[zero for _ in range(r)] for _ in range(r)]
    for i in range(k):
        g[i][k + i] = one
        g[k + i][i] = one
    return Metric(g)


def make_tangent_lie(n: int) -> ExampleBundle:
    """Chart vector fields with the coordinate frame: everything vanishes."""
    zero = Scalar.zero(n)
    A = AlgebroidData(
        dim=n,
        rank=n,
        coords=_chart(n),
        anchor=_projection_anchor(n, n, n),
        gamma={},
        loc={},
        proj=tuple(tuple(zero for _ in range(n)) for _ in range(n)),
    )
    return ExampleBundle(kind="tangent_lie", algebroid=A)


def make_twisted_frame_lie(n: int, frame: Sequence[Sequence[Scalar]]) -> ExampleBundle:
    base = make_tangent_lie(n)
    F = FrameChange.of(frame)
    A2, _, _ = change_frame(base.algebroid, F)
    return ExampleBundle(kind="twisted_frame_lie", algebroid=A2)


def make_courant_standard(n: int) -> ExampleBundle:
    """Generalized tangent bundle with the standard pairing: rank 2n,
    vanishing structure functions on the coordinate-induced frame, and the
    pairing-contracted locality operator."""
    r = 2 * n
    eta = _pairing_metric(n, r)
    A = AlgebroidData(
        dim=n,
        rank=r,
        coords=_chart(n),
        anchor=_projection_anchor(n, r, n),
        gamma={},
        loc=pairing_locality(eta, n),
        proj=_slot_projector(n, r, n),
    )
    return ExampleBundle(kind="courant_standard", algebroid=A, metric=eta)


def closed_3form_check(n: int, h: SparseArray) -> CheckReport:
    """Residuals of dH = 0 for an antisymmetric 3-index array given on
    strictly increasing coordinate triples."""
    residuals: dict[tuple, Scalar] = {}
    h_at = EForm(3, n, n, h).at

    for quad in itertools.combinations(range(n), 4):
        i, j, k, l = quad
        acc = (
            h_at((j, k, l)).diff(i)
            - h_at((i, k, l)).diff(j)
            + h_at((i, j, l)).diff(k)
            - h_at((i, j, k)).diff(l)
        )
        if not acc.is_zero():
            residuals[quad] = acc
    return report_from_residuals("closed-3form", residuals)


def make_courant_h_twisted(n: int, h: SparseArray) -> ExampleBundle:
    """Pairing bracket twisted by a closed 3-form: the vector-vector
    brackets acquire form components H_{ijk}.  A non-closed twist is
    refused."""
    rep = closed_3form_check(n, h)
    if not rep.passed:
        raise ShapeError("twist 3-form is not closed")
    base = make_courant_standard(n)
    gamma: SparseArray = {}
    for (i, j, k), v in sparse_clean(h).items():
        if not (0 <= i < j < k < n):
            raise ShapeError("twist entries must use strictly increasing triples")
        # [d_i, d_j] -> H_ijm dx^m on all antisymmetric slots
        for (a, b, c), sign in (
            ((i, j, k), 1), ((j, i, k), -1),
            ((j, k, i), 1), ((k, j, i), -1),
            ((k, i, j), 1), ((i, k, j), -1),
        ):
            val = v if sign == 1 else -v
            gamma[(n + c, a, b)] = val
    A = base.algebroid
    A2 = AlgebroidData(
        dim=A.dim, rank=A.rank, coords=A.coords, anchor=A.anchor,
        gamma=gamma, loc=A.loc, proj=A.proj,
    )
    return ExampleBundle(kind="courant_h_twisted", algebroid=A2, metric=base.metric)


def _pairing_algebroid(
    n: int,
    gamma_antisym: SparseArray,
    metric: Metric,
    anchor: tuple[tuple[Scalar, ...], ...] | None,
    theta: Sequence[Scalar] | None = None,
) -> AlgebroidData:
    """The pairing algebroid whose bracket has the given antisymmetric part
    and the symmetric part gamma^c_(ab) = (1/2) g^{cd} (rho_d(g_ab)
    + theta_d g_ab), with no theta term when ``theta`` is None."""
    r = metric.rank
    if anchor is None:
        anchor = _projection_anchor(n, r, min(n, r))
    A0 = AlgebroidData(
        dim=n, rank=r, coords=_chart(n), anchor=anchor, gamma={}, loc={}
    )

    def scaled_derivative(a: int, b: int, d: int) -> Scalar:
        """rho_d(g_ab) + theta_d g_ab."""
        dg = A0.frame_derive(d, metric.at(a, b))
        return dg if theta is None else dg + theta[d] * metric.at(a, b)

    sym = _half_raised(A0, metric, _on_triples(A0, scaled_derivative))
    return AlgebroidData(
        dim=n, rank=r, coords=_chart(n), anchor=anchor,
        gamma=sparse_add(sparse_clean(gamma_antisym), sym),
        loc=pairing_locality(metric, n), proj=None,
    )


def make_metric_algebroid(
    n: int,
    gamma_antisym: SparseArray,
    metric: Metric,
    anchor: tuple[tuple[Scalar, ...], ...] | None = None,
) -> ExampleBundle:
    """Bracket whose symmetric part is forced by the metric:
    gamma^c_(ab) = (1/2) g^{cd} rho_d(g_ab)."""
    A = _pairing_algebroid(n, gamma_antisym, metric, anchor)
    return ExampleBundle(kind="metric_algebroid", algebroid=A, metric=metric)


# -- higher pairing entries ------------------------------------------------


def _wedge_basis(n: int, p: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(n), p))


def _interior_basis(i: int, J: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """iota_{d_i} dx^J as (basis tuple, sign); None if i not in J."""
    if i not in J:
        return None
    pos = J.index(i)
    return J[:pos] + J[pos + 1 :], (-1) ** pos


def make_higher_courant(n: int, p: int) -> ExampleBundle:
    """Chart vector fields summed with p-th powers of the coframe, the
    projection anchor, vanishing structure functions, and the wedge-type
    locality operator L(W, u, v) = pr(W) wedge g(u, v) with the
    form-valued pairing g(u, v) = iota_U eta + iota_V omega."""
    if not 1 <= p <= n:
        raise ShapeError("need 1 <= p <= n")
    forms = _wedge_basis(n, p)
    r = n + len(forms)
    zero, one = Scalar.zero(n), Scalar.one(n)

    # form-valued pairing
    comp: SparseArray = {}
    for i in range(n):
        for j, J in enumerate(forms):
            hit = _interior_basis(i, J)
            if hit is None:
                continue
            I, sign = hit
            val = one if sign == 1 else -one
            comp[(i, n + j, I)] = val
            comp[(n + j, i, I)] = val
    higher = HigherMetricValue(p=p, dim=n, comp=comp)

    # locality: L(e^d, X_e, X_c) = dx^d wedge g(X_e, X_c), vector coframes only
    loc: SparseArray = {}
    form_index = {J: k for k, J in enumerate(forms)}
    for d in range(n):
        for (e, c, I), gval in comp.items():
            hit = _sort_with_sign((d,) + I)
            if hit is None:
                continue
            K, sign = hit
            v = gval if sign == 1 else -gval
            key = (n + form_index[K], d, e, c)
            s = loc.get(key)
            loc[key] = v if s is None else s + v
    A = AlgebroidData(
        dim=n,
        rank=r,
        coords=_chart(n),
        anchor=_projection_anchor(n, r, n),
        gamma={},
        loc=sparse_clean(loc),
        proj=_slot_projector(n, r, n),
    )
    return ExampleBundle(kind="higher_courant", algebroid=A, higher_metric=higher)


def make_conformal_courant(
    n: int,
    gamma_antisym: SparseArray,
    metric: Metric,
    theta: Sequence[Scalar],
    anchor: tuple[tuple[Scalar, ...], ...] | None = None,
) -> ExampleBundle:
    """Line-bundle-valued pairing on a trivialized line bundle: the scale
    connection is the component list theta_a, and the bracket's symmetric
    part is gamma^c_(ab) = (1/2) g^{cd} (rho_d(g_ab) + theta_d g_ab)."""
    if len(theta) != metric.rank:
        raise ShapeError("theta must have one component per frame slot")
    A = _pairing_algebroid(n, gamma_antisym, metric, anchor, theta)
    return ExampleBundle(
        kind="conformal_courant", algebroid=A, metric=metric, theta=tuple(theta)
    )


def make_example(kind: ExampleKind, **params) -> ExampleBundle:
    """Dispatch constructor for every catalog family."""
    builders = {
        "tangent_lie": make_tangent_lie,
        "twisted_frame_lie": make_twisted_frame_lie,
        "courant_standard": make_courant_standard,
        "courant_h_twisted": make_courant_h_twisted,
        "metric_algebroid": make_metric_algebroid,
        "higher_courant": make_higher_courant,
        "conformal_courant": make_conformal_courant,
    }
    if kind not in builders:
        raise ShapeError(f"unknown example kind {kind!r}")
    return builders[kind](**params)


# -- family-specific admissibility ----------------------------------------


def specialized_admissibility(bundle: ExampleBundle, conn: Connection) -> CheckReport:
    """Compute both the generic anti-commutability verdict and the
    family-specific compatibility condition, and assert they coincide.

    * pairing families (standard/twisted pairing, metric, conformal):
      compatibility is vanishing (theta-shifted) non-metricity;
    * higher pairing: the form-valued condition
      iota_{rho(X_a)} d(g(X_b, X_c)) = g(D_a X_b, X_c) + g(X_b, D_a X_c),
      with the interior product taken along the anchor image.
    """
    A = bundle.algebroid
    generic = check_admissible(A, conn)
    residuals: dict[tuple, Scalar] = {}
    assumptions: list[str] = []
    if bundle.kind in ("tangent_lie", "twisted_frame_lie"):
        specific_pass = True
        assumptions.append("vanishing locality operator: every connection is admissible")
    elif bundle.kind in (
        "courant_standard", "courant_h_twisted", "metric_algebroid", "conformal_courant"
    ):
        q = non_metricity(A, conn, bundle.metric, bundle.theta)
        specific_pass = not q
        label = "nonmetricity" if bundle.theta is None else "scale-nonmetricity"
        for idx, v in q.items():
            residuals[(label,) + idx] = v
    elif bundle.kind == "higher_courant":
        q = higher_compatibility_residual(bundle, conn)
        specific_pass = not q
        for idx, v in q.items():
            residuals[("form-valued",) + idx] = v
        assumptions.append(
            "interior product taken along the anchor image of the third "
            "argument; the literal section reading is not function-linear"
        )
        assumptions.append(
            "for form degree >= 2 the compatibility condition is strictly "
            "stronger than anti-commutability (verified by exact kernel "
            "comparison); agreement is expected, not guaranteed"
        )
    else:
        raise ShapeError(f"no specialized condition for {bundle.kind!r}")
    agree = generic.passed == specific_pass
    if not agree:
        residuals[("verdict-disagreement", generic.passed, specific_pass)] = A.one()
    for at, v in generic.residuals:
        residuals[("generic", at)] = v
    report = report_from_residuals("specialized-admissibility", residuals, assumptions)
    # overall pass means: verdicts agree (residuals document both sides)
    report.passed = agree
    report.assumptions.append(
        f"generic={generic.passed} specific={specific_pass} agree={agree}"
    )
    return report


def higher_compatibility_residual(
    bundle: ExampleBundle, conn: Connection
) -> SparseArray:
    """Frame residuals of the form-valued compatibility condition for the
    higher pairing, indexed by (a, b, c, I)."""
    A = bundle.algebroid
    hm = bundle.higher_metric
    n, r, p = A.dim, A.rank, hm.p
    out: SparseArray = {}
    lower = _wedge_basis(n, p - 1)
    # d(g(X_b, X_c)) per chart coordinates; pairing entries are constant for
    # the standard frame, but stay general here
    for b in range(r):
        for c in range(r):
            # the (p-1)-form g(X_b, X_c); exterior derivative in the chart
            dg: dict[tuple[int, ...], Scalar] = {}
            for I in _wedge_basis(n, p):
                acc = Scalar.zero(n)
                for pos in range(p):
                    i = I[pos]
                    rest = I[:pos] + I[pos + 1 :]
                    v = hm.at(b, c, rest, n)
                    if not v.is_zero():
                        term = v.diff(i)
                        if not term.is_zero():
                            acc = acc + term if pos % 2 == 0 else acc - term
                if not acc.is_zero():
                    dg[I] = acc
            for a in range(r):
                # iota along rho(X_a): anchor is arbitrary, contract chart slots
                for I in lower:
                    lhs = Scalar.zero(n)
                    for i in range(n):
                        rho = A.anchor[i][a]
                        if rho.is_zero():
                            continue
                        hit = _sort_with_sign((i,) + I)
                        if hit is None:
                            continue
                        K, sign = hit
                        v = dg.get(K)
                        if v is None:
                            continue
                        t = rho * v
                        lhs = lhs + t if sign == 1 else lhs - t
                    rhs = Scalar.zero(n)
                    for e in range(r):
                        g1 = conn.coeff.get((e, a, b))
                        if g1 is not None:
                            w = hm.at(e, c, I, n)
                            if not w.is_zero():
                                rhs = rhs + g1 * w
                        g2 = conn.coeff.get((e, a, c))
                        if g2 is not None:
                            w = hm.at(b, e, I, n)
                            if not w.is_zero():
                                rhs = rhs + g2 * w
                    val = lhs - rhs
                    if not val.is_zero():
                        out[(a, b, c) + (I,)] = val
    return out


def check_conformal_compatibility(bundle: ExampleBundle) -> CheckReport:
    """The bracket-compatibility half of the conformal structure:
    theta-shifted derivative of the pairing along the bracket arguments,
    which is the theta-shifted non-metricity of the structure functions
    taken as connection coefficients.  Exposed separately; the constructor
    does not enforce it."""
    if bundle.kind != "conformal_courant":
        raise ShapeError("conformal compatibility applies to conformal entries")
    A = bundle.algebroid
    q = non_metricity(A, Connection(A.rank, A.gamma), bundle.metric, bundle.theta)
    return report_from_residuals("conformal-bracket-compatibility", dict(sorted(q.items())))
