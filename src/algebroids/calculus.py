"""Exterior and Leibniz derivatives on the bundle, the associator, and
executable verifiers for the structural identities of the geometry: Cartan
structure equations, algebraic and differential Bianchi identities, the
Ricci identity, Cartan magic formulas and the graded-derivation relations.

Every verifier quantifies over frame tuples, which settles the
function-multilinear identities exactly, and adds a deterministic seeded
sample of polynomial sections for identities that differentiate section
components.  All verdicts are exact: a check passes iff every residual is
the zero scalar.

Each public verifier and derivative builds one ``GeometryContext`` for its
(algebroid, connection), so the admissibility gate, the algebroid of each
bracket kind, the torsions and the curvature are computed once per call
and shared with the next calls on the same pair.  A public entry resolves
the algebroid B = ``ctx.algebroid(kind)`` of each kind it reads, which
refuses the projected kind without a projector, and the helpers below it
take B: the exterior derivative reads B.gamma, and the Leibniz
derivative, the associator and the nested brackets of the Bianchi
identities bracket in B.  The kind survives in the public signatures and
the report keys only.  The locality terms C(u, v) = (1 - P) L(e^d,
D_{X_d} u, v) of the general Bianchi and Ricci identities are the
projected bracket minus the modified one (``_complement_locality``).
Which kinds coincide is decided by ``GeometryContext.algebroid`` alone:
values keyed by the algebroid are then computed once for every kind that
maps to it, and C is the zero section.  Only two places compare
algebroids, because their formula differs: the general form of
``_bianchi`` adds the C terms, and ``commutation_pair`` builds the
d-commute forms for the projected derivative only.  The memo policy of
``GeometryContext`` says what a call memoizes; the Leibniz and exterior
derivatives are not memoized.  The algebraic Bianchi check sums its cyclic
terms as two keyed arrays, each one ``sparse_sum`` over stored entries in
the formula's order, and only the rotation orbits that a side holds; its
residuals read frame tuples only and are a value of the pair keyed by the
algebroid.  Sums are taken as the ``scalars`` docstring states.
"""

from __future__ import annotations

import itertools
import random
from typing import Literal

from .connection import (
    BracketKind,
    Connection,
    DerivativeKind,
    GeometryContext,
    covariant_table,
)
from .core import (
    AlgebroidData,
    EForm,
    ETensor,
    Section,
    SparseArray,
    _sort_with_sign,
    contraction_terms,
    interior_product,
    sliced,
    sparse_sum,
    wedge,
)
from .errors import AdmissibilityError, ShapeError
from .fixtures import random_scalar
from .reports import CheckReport, report_from_residuals
from .scalars import Accumulator, Scalar

def _require_admissible(ctx: GeometryContext, identity: str) -> None:
    """The gate of a public entry: refuses the check named identity when the
    connection is not admissible.  Nothing below an entry gates again."""
    report = ctx.admissibility()
    if not report.passed:
        raise AdmissibilityError(identity, report.residuals)


def exterior_derivative_raw(
    A: AlgebroidData,
    conn: Connection,
    omega: EForm,
    kind: DerivativeKind = "projected",
) -> SparseArray:
    """The alternating-sum formula evaluated literally on every ordered
    frame tuple, with no antisymmetry assumed.  Diagnostic: for an
    admissible connection the result is antisymmetric, otherwise not."""
    ctx = GeometryContext(A, conn)
    indices = itertools.product(range(A.rank), repeat=omega.degree + 1)
    return _exterior_array(ctx.algebroid(kind), ctx.jet(omega), omega, indices)


def _exterior_form(B: AlgebroidData, jet: dict, omega: EForm) -> EForm:
    """d omega in B, given omega's anchor jet: the alternating sum on
    increasing frame tuples."""
    indices = itertools.combinations(range(B.rank), omega.degree + 1)
    return EForm(omega.degree + 1, B.rank, B.dim, _exterior_array(B, jet, omega, indices))


def _exterior_array(B: AlgebroidData, jet: dict, omega: EForm, indices):
    values = ((idx, _exterior_component(B, jet, omega, idx)) for idx in indices)
    return {idx: v for idx, v in values if not v.is_zero()}


def _exterior_component(
    B: AlgebroidData, jet: dict, omega: EForm, idx: tuple[int, ...]
) -> Scalar:
    p1 = len(idx)
    acc = Accumulator(B.dim)
    for i in range(p1):
        # rho_{idx[i]} of omega at the other indices, read off omega's jet
        ss = _sort_with_sign(idx[:i] + idx[i + 1 :])
        term = None if ss is None else jet.get((idx[i], ss[0]))
        if term is not None:
            acc.add(term, ss[1] if i % 2 == 0 else -ss[1])
    # one sub-sum per position pair (i, j), over the stored gamma that meet omega
    subs = sparse_sum(B.dim, (
        ((i, j), g, w, 1)
        for i, j in itertools.combinations(range(p1), 2)
        for e in range(B.rank)
        if (g := B.gamma.get((e, idx[i], idx[j]))) is not None
        and not (w := omega.at((e,) + idx[:i] + idx[i + 1 : j] + idx[j + 1 :])).is_zero()
    ))
    for (i, j), v in subs.items():
        # 0-based (i, j) maps to 1-based (i+1, j+1): sign (-1)^(i+j)
        acc.add(v, -1 if (i + j) % 2 == 1 else 1)
    return acc.value()


def e_exterior_derivative(
    A: AlgebroidData,
    conn: Connection,
    omega: EForm | Scalar,
    kind: DerivativeKind = "projected",
) -> EForm:
    """Degree-raising derivative built from the modified (or projected
    modified) bracket.  Admissibility is required: without it the raw
    alternating sum is not antisymmetric and does not define a form.  On
    scalars both kinds reduce to the coboundary."""
    ctx = GeometryContext(A, conn)
    B = ctx.algebroid(kind)
    _require_admissible(ctx, "exterior-derivative")
    return _e_exterior(ctx, B, omega)


def _e_exterior(ctx: GeometryContext, B: AlgebroidData, omega: EForm | Scalar) -> EForm:
    form = EForm.from_scalar(B, omega) if isinstance(omega, Scalar) else omega
    return _exterior_form(B, ctx.jet(form), form)


def leibniz_derivative(
    A: AlgebroidData,
    conn: Connection | None,
    v: Section,
    target: Scalar | Section | EForm,
    kind: BracketKind = "original",
):
    """Derivative along a section through the chosen bracket.

    Scalars: rho(v)(f) for every kind.  Sections: the bracket [v, u].
    Forms: duality, (L_v W)(u_1..u_p) = rho(v)(W(u_1..u_p))
    - sum_i W(u_1, .., [v, u_i], .., u_p).
    """
    ctx = GeometryContext(A, conn)
    return _leibniz(ctx, ctx.algebroid(kind), v, target)


def _leibniz(ctx: GeometryContext, B: AlgebroidData, v: Section, target):
    if isinstance(target, Scalar):
        return B.section_derive(v, target)
    if isinstance(target, Section):
        return ctx.bracket(v, target, B)
    if not isinstance(target, EForm):
        raise ShapeError(f"cannot differentiate a {type(target).__name__}")
    p = target.degree
    if p == 0:
        f = target.comp.get((), B.zero())
        return EForm.from_scalar(B, B.section_derive(v, f))
    frame_brackets = ctx.frame_brackets(v, B)
    jet = ctx.jet(target)
    out: SparseArray = {}
    for idx in itertools.combinations(range(B.rank), p):
        # rho(v)(target(X_idx)), the part no bracket kind changes
        acc = Accumulator(B.dim, B.jet_derive(v, jet, idx))
        for pos in range(p):
            br = frame_brackets[idx[pos]]
            for e, x in enumerate(br.comp):
                if not x.is_zero():
                    acc.add_product(x, target.at(idx[:pos] + (e,) + idx[pos + 1 :]), -1)
        if not (value := acc.value()).is_zero():
            out[idx] = value
    return EForm(p, B.rank, B.dim, out)


def associator(
    A: AlgebroidData,
    kind: BracketKind,
    u: Section,
    v: Section,
    w: Section,
    conn: Connection | None = None,
) -> Section:
    """Leibniz-identity defect [u,[v,w]] - [[u,v],w] - [v,[u,w]] of the
    chosen bracket."""
    ctx = GeometryContext(A, conn)
    return _associator(ctx, ctx.algebroid(kind), u, v, w)


def _associator(
    ctx: GeometryContext, B: AlgebroidData, u: Section, v: Section, w: Section
) -> Section:
    def br(x, y):
        return ctx.bracket(x, y, B)

    return br(u, br(v, w)).sub(br(br(u, v), w)).sub(br(v, br(u, w)))


# -- shared helpers for the identity suite --------------------------------


def seeded_sections(
    A: AlgebroidData, seed: int, count: int, degree: int
) -> list[Section]:
    """Deterministic pseudo-random polynomial sections for the verifiers."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        comp = []
        for _ in range(A.rank):
            comp.append(random_scalar(rng, A.dim, degree, terms=3))
        out.append(Section(tuple(comp)))
    return out


def seeded_forms(
    A: AlgebroidData, seed: int, count: int, degree: int, max_poly_degree: int
) -> list[EForm]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        comp: SparseArray = {}
        for idx in itertools.combinations(range(A.rank), degree):
            s = random_scalar(rng, A.dim, max_poly_degree, terms=3)
            if not s.is_zero():
                comp[idx] = s
        out.append(EForm(degree, A.rank, A.dim, comp))
    return out


def _sample_note(seed: int, samples: int, degree: int) -> str:
    return f"section samples: seed={seed} count={samples} degree<={degree}"


# -- identity checks ------------------------------------------------------


def check_cartan_structure(A: AlgebroidData, conn: Connection) -> CheckReport:
    """Residuals of the first (plain and projected) and second structure
    equations on all frame pairs."""
    name = "cartan-structure"
    ctx = GeometryContext(A, conn)
    _require_admissible(ctx, name)
    M, P = ctx.algebroid("modified"), ctx.algebroid("projected")
    residuals: dict[tuple, Scalar] = {}
    r = A.rank
    tor = ctx.torsion(M)
    tor_hat = ctx.torsion(P)
    curv = ctx.curvature()
    omegas = [[conn.omega(A, a, b) for b in range(r)] for a in range(r)]
    coframes = [EForm.coframe(A, a) for a in range(r)]
    for a in range(r):
        de, de_hat = _e_exterior(ctx, M, coframes[a]), _e_exterior(ctx, P, coframes[a])
        wedges = [wedge(omegas[a][b], coframes[b]) for b in range(r)]
        rhs, rhs_hat = _form_sum([de, *wedges]), _form_sum([de_hat, *wedges])
        for b in range(r):
            for c in range(b + 1, r):
                residuals[("first", a, b, c)] = tor.get((a, b, c), A.zero()) - rhs.at((b, c))
                residuals[("first-projected", a, b, c)] = (
                    tor_hat.get((a, b, c), A.zero()) - rhs_hat.at((b, c))
                )
    for a in range(r):
        for b in range(r):
            rhs = _form_sum([_e_exterior(ctx, P, omegas[a][b])] + [
                wedge(omegas[a][c], omegas[c][b]) for c in range(r)
            ])
            for c in range(r):
                for d in range(c + 1, r):
                    residuals[("second", a, b, c, d)] = curv.get(
                        (a, c, d, b), A.zero()
                    ) - rhs.at((c, d))
    return report_from_residuals(name, residuals)


def _form_sum(forms: list[EForm]) -> EForm:
    """The sum of forms of one degree, each entry summed in form order."""
    first = forms[0]
    terms = ((idx, v, None, 1) for form in forms for idx, v in form.comp.items())
    return EForm(first.degree, first.rank, first.nvars, sparse_sum(first.nvars, terms))


def check_bianchi_algebraic(
    A: AlgebroidData,
    conn: Connection,
    form: Literal["general", "projected"] = "projected",
    seed: int = 0,
    samples: int = 4,
    degree: int = 2,
) -> CheckReport:
    """First and second algebraic Bianchi identities on every frame tuple.

    With D the connection, T its torsion, R its curvature and each sum
    cyclic over (u, v, w) = (X_b, X_c, X_d), they read

        sum R(u, v) w = sum ( (D_u T)(v, w) + T(T(u, v), w) + [u, [v, w]] )
        sum (D_u R)(v, w) e' = sum ( R(u, T(v, w)) e' + D_{[[u, v], w]} e' )

    The projected form uses the projected torsion and bracket.  The general
    form uses the modified ones and writes out C(u, v) = [u, v]^proj -
    [u, v]^mod = (1 - P) L(e^d, D_{X_d} u, v).  Substituting [u, v]^proj =
    [u, v]^mod + C and T^proj = T^mod - C into the projected pair, with the
    same curvature R, adds - D_{C(u, v)} w to the first identity, where both
    brackets and C are antisymmetric for an admissible connection, and
    - R(u, C(v, w)) e' + D_{[C(u, v), w]^mod + C([u, v]^proj, w)} e' to the
    second.  Both forms are evaluated on frame tuples only, so no sections
    are drawn and ``seed``, ``samples`` and ``degree`` are unused.
    """
    name = "bianchi-algebraic-" + ("projected" if form == "projected" else "general")
    ctx = GeometryContext(A, conn)
    _require_admissible(ctx, name)
    P = ctx.algebroid("projected")
    B = P if form == "projected" else ctx.algebroid("modified")
    # the residuals use frame tuples only, so they are a value of the pair
    residuals = ctx._pair(("bianchi", id(B)), lambda: _bianchi(ctx, B, P))
    return report_from_residuals(name, residuals, ["evaluated on frame tuples"])


def _bianchi(ctx: GeometryContext, B: AlgebroidData, P: AlgebroidData) -> dict[tuple, Scalar]:
    """Residuals of both algebraic Bianchi identities with the torsion and
    bracket of B, plus the locality terms of C = [., .]^P - [., .]^B when B
    is not the projected algebroid P, keyed ("first", a, b, c, d) and
    ("second", a, b, c, d, e').  The cyclic terms, keyed (u, v, w, a) and (u,
    v, w, e', a), are one keyed sum over stored entries each, and the three
    triples (b, c, d) of one rotation orbit share their residual."""
    A, conn, frames = ctx.A, ctx.conn, ctx.frames
    r = A.rank
    zero = A.zero()
    curv = ctx.curvature()
    tor = ctx.torsion(B)
    nabla_t = covariant_table(A, conn, ETensor(1, 2, r, A.dim, tor))
    nabla_r = covariant_table(A, conn, ETensor(1, 3, r, A.dim, curv))
    # left[(b, c, d)] = [[X_b, X_c], X_d] and right[(b, c, d)] = [X_b, [X_c, X_d]]
    inners, left = _nested_brackets(ctx, B)
    right = {key: ctx.bracket(frames[key[0]], inners[key[1:]], B) for key in left}
    # C(X_u, X_v), once per frame pair, and [C(u, v), w]^B + C([u, v]^P, w);
    # none when B is P
    complement, shifted = {}, {}
    if B is not P:
        for u, v in itertools.product(range(r), repeat=2):
            c_uv = complement[(u, v)] = _complement_locality(ctx, B, P, frames[u], frames[v])
            p_uv = Section(tuple(P.gamma.get((e, u, v), zero) for e in range(r)))
            for w in range(r):
                shifted[(u, v, w)] = ctx.bracket(c_uv, frames[w], B).add(
                    _complement_locality(ctx, B, P, p_uv, frames[w])
                )
    t_first, t_middle = sliced(tor, 0), sliced(tor, 1)
    r_third, g_middle = sliced(curv, 2), sliced(conn.coeff, 1)

    def components(sections, sign):  # the nonzero components, keyed (*key, a)
        return ((key + (a,), x, None, sign)
                for key, s in sections for a, x in enumerate(s.comp) if not x.is_zero())

    def first_terms():
        # (D_u T)(v, w) + T(T(u, v), w) - D_{C(u, v)} w + [u, [v, w]], keyed (u, v, w, a)
        yield from (((u, v, w, a), x, None, 1) for (u, a, v, w), x in nabla_t.items())
        for e in range(r):
            for (u, v), x in t_first.get(e, ()):
                yield from (((u, v, w, a), x, y, 1) for (a, w), y in t_middle.get(e, ()))
        yield from components((((u, v, w), ctx.covariant(s, frames[w]))
                               for (u, v), s in complement.items() for w in range(r)), -1)
        yield from components(right.items(), 1)

    def second_terms():
        # R(u, T(v, w)) e' + D_{[[u, v], w]} e', then - R(u, C(v, w)) e'
        # + D_{[C(u, v), w] + C([u, v]^P, w)} e', keyed (u, v, w, e', a)
        for f in range(r):
            for (v, w), x in t_first.get(f, ()):
                yield from (((u, v, w, e2, a), x, y, 1) for (a, u, e2), y in r_third.get(f, ()))
            for key, s in left.items():
                if not (x := s.comp[f]).is_zero():
                    yield from ((key + (e2, a), x, y, 1) for (a, e2), y in g_middle.get(f, ()))
        for (v, w), s in complement.items():
            for f, x in enumerate(s.comp):
                if not x.is_zero():
                    yield from (((u, v, w, e2, a), x, y, -1)
                                for (a, u, e2), y in r_third.get(f, ()))
        yield from components((((u, v, w, e2), ctx.covariant(s, frames[e2]))
                               for (u, v, w), s in shifted.items() for e2 in range(r)), 1)

    residuals: dict[tuple, Scalar] = {}
    for label, lhs, terms in (
        ("first", {(u, v, w, a): x for (a, u, v, w), x in curv.items()}, first_terms()),
        ("second", {(u, v, w, e, a): x for (u, a, v, w, e), x in nabla_r.items()}, second_terms()),
    ):
        rhs = sparse_sum(A.dim, terms)
        found: dict[tuple, Scalar] = {}
        # each orbit of (b, c, d) under rotation that either side holds is
        # summed once (b = c = d is one term, three times)
        orbits = sorted({min(k[:3], k[1:3] + k[:1], k[2:3] + k[:2]) + k[3:] for k in (*lhs, *rhs)})
        for b, c, d, *rest in orbits:
            orbit = [(b, c, d, *rest), (c, d, b, *rest), (d, b, c, *rest)]
            sums = [Accumulator(A.dim), Accumulator(A.dim)]
            for key in orbit:
                sums[0].add(lhs.get(key, zero))
                sums[1].add(rhs.get(key, zero))
            if not (val := sums[0].value() - sums[1].value()).is_zero():
                found.update((key, val) for key in orbit)
        for key in sorted(found):  # (b, c, d, [e',] a), reported in key order
            residuals[(label, key[-1]) + key[:-1]] = found[key]
    return residuals


def _nested_brackets(ctx: GeometryContext, B: AlgebroidData):
    """[X_b, X_c] in B, read off B.gamma and keyed (b, c), and [[X_b, X_c],
    X_d] in B, keyed (b, c, d)."""
    r = B.rank
    inners = {
        (b, c): Section(tuple(B.gamma.get((e, b, c), B.zero()) for e in range(r)))
        for b, c in itertools.product(range(r), repeat=2)
    }
    triples = itertools.product(range(r), repeat=3)
    outer = {(b, c, d): ctx.bracket(inners[(b, c)], ctx.frames[d], B) for b, c, d in triples}
    return inners, outer


def _complement_locality(
    ctx: GeometryContext, B: AlgebroidData, P: AlgebroidData, u: Section, v: Section
) -> Section:
    """C(u, v) = [u, v]^P - [u, v]^B: with B the modified algebroid and P
    the projected one, (1 - P) L(e^d, D_{X_d} u, v).  The zero section,
    with no bracket taken, when both kinds are one algebroid."""
    if P is B:
        return Section.zero(B)
    return ctx.bracket(u, v, P).sub(ctx.bracket(u, v, B))


def check_bianchi_differential(A: AlgebroidData, conn: Connection) -> CheckReport:
    """Differential Bianchi identities in form language, with the explicit
    square-of-the-derivative anomaly terms."""
    name = "bianchi-differential"
    ctx = GeometryContext(A, conn)
    _require_admissible(ctx, name)
    P = ctx.algebroid("projected")
    r = A.rank
    residuals: dict[tuple, Scalar] = {}
    tor_hat = ctx.torsion(P)
    curv = ctx.curvature()
    coframes = [EForm.coframe(A, a) for a in range(r)]
    omegas = [[conn.omega(A, a, b) for b in range(r)] for a in range(r)]

    def two_form(entries: SparseArray, head: tuple, tail: tuple = ()) -> EForm:
        # the 2-form with components entries[head + (c, d) + tail], c < d
        return EForm.from_components(A, 2, {
            cd: v for cd in itertools.combinations(range(r), 2)
            if (v := entries.get(head + cd + tail)) is not None
        })

    t_forms = [two_form(tor_hat, (a,)) for a in range(r)]
    r_forms = [[two_form(curv, (a,), (b,)) for b in range(r)] for a in range(r)]

    for a in range(r):
        lhs = _e_exterior(ctx, P, t_forms[a])
        for b in range(r):
            lhs = lhs.add(wedge(omegas[a][b], t_forms[b]))
        rhs = EForm.zero(A, 3)
        for b in range(r):
            rhs = rhs.add(wedge(r_forms[a][b], coframes[b]))
        dd = _e_exterior(ctx, P, _e_exterior(ctx, P, coframes[a]))
        rhs = rhs.add(dd)
        diff = lhs.sub(rhs)
        for idx, v in diff.comp.items():
            residuals[("first", a) + idx] = v

    for a in range(r):
        for b in range(r):
            lhs = _e_exterior(ctx, P, r_forms[a][b])
            for c in range(r):
                lhs = lhs.add(wedge(omegas[a][c], r_forms[c][b]))
            rhs = EForm.zero(A, 3)
            for c in range(r):
                rhs = rhs.add(wedge(r_forms[a][c], omegas[c][b]))
            dd = _e_exterior(ctx, P, _e_exterior(ctx, P, omegas[a][b]))
            rhs = rhs.add(dd)
            diff = lhs.sub(rhs)
            for idx, v in diff.comp.items():
                residuals[("second", a, b) + idx] = v
    return report_from_residuals(name, residuals)


def second_covariant(
    A: AlgebroidData, conn: Connection, u: Section, v: Section, w: Section
) -> Section:
    """D^2_{u,v} w = D_u D_v w - D_{D_u v} w."""
    return _second_covariant(GeometryContext(A, conn), u, v, w)


def _second_covariant(ctx: GeometryContext, u: Section, v: Section, w: Section) -> Section:
    D = ctx.covariant
    return D(u, D(v, w)).sub(D(D(u, v), w))


def curvature_apply(
    A: AlgebroidData, curv: SparseArray, u: Section, v: Section, w: Section
) -> Section:
    return Section.from_sparse(A, sparse_sum(A.dim, contraction_terms(curv, [u, v, w])))


def torsion_apply(
    A: AlgebroidData, tor: SparseArray, u: Section, v: Section
) -> Section:
    return Section.from_sparse(A, sparse_sum(A.dim, contraction_terms(tor, [u, v])))


def check_ricci(
    A: AlgebroidData,
    conn: Connection,
    seed: int = 0,
    samples: int = 4,
    degree: int = 2,
) -> CheckReport:
    """Ricci identity, valid for any linear connection (admissibility not
    required); a projector must be present for the curvature operator."""
    ctx = GeometryContext(A, conn)
    P, M = ctx.algebroid("projected"), ctx.algebroid("modified")
    residuals: dict[tuple, Scalar] = {}
    curv = ctx.curvature()
    tor = ctx.torsion(M)
    frames, D = ctx.frames, ctx.covariant

    def residual(u: Section, v: Section, w: Section) -> Section:
        lhs = _second_covariant(ctx, u, v, w).sub(_second_covariant(ctx, v, u, w))
        rhs = curvature_apply(A, curv, u, v, w)
        rhs = rhs.sub(D(torsion_apply(A, tor, u, v), w))
        if not (cuv := _complement_locality(ctx, M, P, u, v)).is_zero():
            rhs = rhs.add(D(cuv, w))
        return lhs.sub(rhs)

    for b in range(A.rank):
        for c in range(b + 1, A.rank):
            for d in range(A.rank):
                res = residual(frames[b], frames[c], frames[d])
                for a in range(A.rank):
                    if not res.comp[a].is_zero():
                        residuals[("frame", a, b, c, d)] = res.comp[a]
    sections = seeded_sections(A, seed, 3 * samples, degree)
    for k in range(samples):
        u, v, w = sections[3 * k : 3 * k + 3]
        res = residual(u, v, w)
        for a in range(A.rank):
            if not res.comp[a].is_zero():
                residuals[("sample", k, a)] = res.comp[a]
    return report_from_residuals(
        "ricci", residuals, [_sample_note(seed, samples, degree)]
    )


def check_magic_and_derivations(
    A: AlgebroidData,
    conn: Connection,
    seed: int = 0,
    samples: int = 4,
    degree: int = 2,
) -> CheckReport:
    """Cartan magic formulas, the rescaling corollary, the derivation
    commutators, graded Leibniz rules of the exterior derivatives, and,
    gated on a vanishing associator, the derivative-commutation pair."""
    name = "magic-and-derivations"
    ctx = GeometryContext(A, conn)
    _require_admissible(ctx, name)
    # the algebroid of each bracket kind, keyed by the kind its residuals name
    kinds = {kind: ctx.algebroid(kind) for kind in ("original", "modified", "projected")}
    residuals: dict[tuple, Scalar] = {}
    assumptions = [_sample_note(seed, samples, degree)]
    rng_forms1 = seeded_forms(A, seed + 1, samples, 1, degree)
    rng_forms2 = seeded_forms(A, seed + 2, samples, min(2, A.rank), degree)
    sections = seeded_sections(A, seed + 3, 2 * samples, degree)
    fs = [
        random_scalar(random.Random(seed + 4 + i), A.dim, degree, terms=3)
        for i in range(samples)
    ]

    def add_form_residuals(kind: str, forms) -> None:
        # forms: (name, rest, form) triples, keyed (name, kind, *rest, *idx)
        for name, rest, form in forms:
            for idx, v in form.comp.items():
                residuals[(name, kind) + rest + idx] = v

    for k in range(samples):
        u = sections[2 * k]
        v = sections[2 * k + 1]
        f = fs[k]
        fv = v.scale(f)
        om2 = rng_forms2[k]
        omA = rng_forms1[k]
        omB = rng_forms1[(k + 1) % samples]
        # built once per sample, so every kind reads the same objects and
        # their anchor jets are computed once
        pairs = (("p1", omA), ("p2", om2))
        contracted = {lb: interior_product(om, v) for lb, om in pairs if om.degree >= 1}
        wedged = wedge(omA, omB)

        def derivations(B: AlgebroidData) -> list:
            out = []
            for label, omega in pairs:
                # magic formula
                lie = _leibniz(ctx, B, v, omega)
                d_iv = _e_exterior(ctx, B, contracted[label]) \
                    if omega.degree >= 1 else EForm.zero(A, omega.degree)
                iv_d = interior_product(_e_exterior(ctx, B, omega), v)
                out.append(("magic", (label, k), lie.sub(d_iv.add(iv_d))))
                # rescaling corollary
                lie_fv = _leibniz(ctx, B, fv, omega)
                rhs = lie.scale(f).add(
                    wedge(_e_exterior(ctx, B, f), contracted[label])
                ) if omega.degree >= 1 else lie.scale(f)
                out.append(("rescale", (label, k), lie_fv.sub(rhs)))
            # commutator with the same section vanishes for admissible conn
            if om2.degree >= 1:
                lhs = _leibniz(ctx, B, v, contracted["p2"])
                rhs = interior_product(_leibniz(ctx, B, v, om2), v)
                out.append(("self-commute", (k,), lhs.sub(rhs)))
            return out

        def bracket_rules(B: AlgebroidData) -> list:
            out = []
            # derivation commutator with the original bracket
            if om2.degree >= 1:
                lhs = _leibniz(ctx, B, u, contracted["p2"])
                rhs = interior_product(_leibniz(ctx, B, u, om2), v)
                uv = ctx.bracket(u, v, B)
                rhs = rhs.add(interior_product(om2, uv))
                out.append(("commutator", (k,), lhs.sub(rhs)))
            # Leibniz rule of the derivative over wedges
            lw = _leibniz(ctx, B, v, wedged)
            rhs = wedge(_leibniz(ctx, B, v, omA), omB).add(
                wedge(omA, _leibniz(ctx, B, v, omB))
            )
            out.append(("wedge-leibniz", (k,), lw.sub(rhs)))
            return out

        def graded_leibniz(B: AlgebroidData) -> list:
            lhs = _e_exterior(ctx, B, wedged)
            rhs = wedge(_e_exterior(ctx, B, omA), omB).sub(
                wedge(omA, _e_exterior(ctx, B, omB))
            )
            return [("graded-leibniz", (k,), lhs.sub(rhs))]

        for names, build in (
            (("modified", "projected"), derivations),
            (kinds, bracket_rules),  # all three kinds
            (("modified", "projected"), graded_leibniz),  # both exterior derivatives
        ):
            for kind in names:
                B = kinds[kind]
                add_form_residuals(kind, ctx._cached(
                    (build.__name__, k, id(B)), lambda: build(B), B
                ))

    # conditional pair: only valid when the bracket's associator vanishes
    frames = ctx.frames
    gate_sections = seeded_sections(A, seed + 9, 6, degree)
    triples = [
        (frames[b], frames[c], frames[d])
        for b in range(A.rank)
        for c in range(A.rank)
        for d in range(A.rank)
    ] + [tuple(gate_sections[3 * i : 3 * i + 3]) for i in range(2)]

    def commutation_pair(B: AlgebroidData):
        # None when the associator of B is nonzero; else the lie-commutator
        # forms and, when B is the projected algebroid, the d-commute forms
        if any(not _associator(ctx, B, *t).is_zero() for t in triples):
            return None
        lies, d_commutes = [], []
        for k in range(samples):
            u = sections[2 * k]
            v = sections[2 * k + 1]
            om1 = rng_forms1[k]
            lhs = _leibniz(ctx, B, u, _leibniz(ctx, B, v, om1))
            rhs = _leibniz(ctx, B, v, _leibniz(ctx, B, u, om1))
            uv = ctx.bracket(u, v, B)
            rhs = rhs.add(_leibniz(ctx, B, uv, om1))
            lies.append(lhs.sub(rhs))
        if B is kinds["projected"]:
            for k in range(samples):
                v, om1 = sections[2 * k + 1], rng_forms1[k]
                dlie = _e_exterior(ctx, B, _leibniz(ctx, B, v, om1))
                lied = _leibniz(ctx, B, v, _e_exterior(ctx, B, om1))
                d_commutes.append(dlie.sub(lied))
        return lies, d_commutes

    for kind, B in kinds.items():
        pair = ctx._cached(("commutation_pair", id(B)), lambda: commutation_pair(B), B)
        if pair is None:
            assumptions.append(
                f"associator of the {kind} bracket is nonzero: "
                "derivative-commutation pair skipped"
            )
            continue
        lies, d_commutes = pair
        for k in range(samples):
            add_form_residuals(kind, [("lie-commutator", (k,), lies[k])])
            if kind == "projected":
                add_form_residuals(kind, [("d-commute", (k,), d_commutes[k])])
    return report_from_residuals(name, residuals, assumptions)


def check_square_laws(
    A: AlgebroidData,
    conn: Connection,
    seed: int = 0,
    samples: int = 4,
    degree: int = 2,
) -> CheckReport:
    """The square of the projected derivative: zero on scalars, and on
    degree-1 forms the negative of the associator pairing.

    With the alternating-sum convention used here and the standard
    associator, one checks exactly d^2 W (u, v, w) = -W(Assoc(u, v, w)).
    """
    name = "square-laws"
    ctx = GeometryContext(A, conn)
    _require_admissible(ctx, name)
    P = ctx.algebroid("projected")
    residuals: dict[tuple, Scalar] = {}
    rng = random.Random(seed)
    for k in range(samples):
        f = random_scalar(rng, A.dim, degree, terms=3)
        ddf = _e_exterior(ctx, P, _e_exterior(ctx, P, f))
        for idx, v in ddf.comp.items():
            residuals[("ddf", k) + idx] = v
    forms = seeded_forms(A, seed + 1, samples, 1, degree)
    sections = seeded_sections(A, seed + 2, 3 * samples, degree)
    for k in range(samples):
        omega = forms[k]
        dd = _e_exterior(ctx, P, _e_exterior(ctx, P, omega))
        u, v, w = sections[3 * k : 3 * k + 3]
        lhs = dd.apply([u, v, w]) if dd.degree <= A.rank else A.zero()
        assoc = _associator(ctx, P, u, v, w)
        rhs = -omega.apply([assoc])
        val = lhs - rhs
        if not val.is_zero():
            residuals[("ddomega", k)] = val
    return report_from_residuals(
        name,
        residuals,
        [
            _sample_note(seed, samples, degree),
            "sign convention: d^2 W(u,v,w) = -W(Assoc(u,v,w)) for the "
            "standard associator and alternating-sum derivative",
        ],
    )
