"""Bracket engine, form algebra, classification, projector and frame changes."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids import (
    AlgebroidData,
    Connection,
    EForm,
    FrameChange,
    PoleError,
    ProjectorRequiredError,
    Scalar,
    Section,
    ShapeError,
    bracket,
    change_frame,
    check_locality_projector,
    classify,
    coboundary,
    interior_product,
    make_example,
    parse_scalar,
    torsion,
    wedge,
)
from algebroids.core import apply_locality, project_section
from algebroids.fixtures import (
    random_anticommutable,
    random_constant_metric,
    random_frame_change,
    random_scalar,
    random_section,
)
from algebroids.linalg import mat_mul

from conftest import scal


# -- bracket ---------------------------------------------------------------


def test_bracket_coordinate_lie(tangent2):
    names = tangent2.coords
    u = Section.frame(tangent2, 0)
    v = Section((Scalar.zero(2), scal("x1", names)))
    w = bracket(tangent2, u, v)
    assert w.comp[0].is_zero()
    assert w.comp[1].is_one()


def test_bracket_on_frame_elements_returns_structure_functions():
    names = ("x1",)
    one = Scalar.one(1)
    A = AlgebroidData(
        dim=1, rank=1, coords=names, anchor=((one,),),
        gamma={(0, 0, 0): scal("x1", names)}, loc={},
    )
    w = bracket(A, Section.frame(A, 0), Section.frame(A, 0))
    assert w.comp[0].equals(scal("x1", names))


def test_bracket_dorfman_oracle(courant2):
    # [x2 dx1, d1] = dx2, worked out from the pairing bracket on the chart
    A = courant2.algebroid
    names = A.coords
    u = Section((A.zero(), A.zero(), scal("x2", names), A.zero()))
    v = Section.frame(A, 0)
    w = bracket(A, u, v)
    expected = [A.zero(), A.zero(), A.zero(), A.one()]
    for got, want in zip(w.comp, expected):
        assert got.equals(want)


def test_bracket_right_leibniz_property(courant2):
    A = courant2.algebroid
    rng = random.Random(3)
    for _ in range(3):
        f = random_scalar(rng, A.dim, 2)
        u = random_section(rng, A)
        v = random_section(rng, A)
        lhs = bracket(A, u, v.scale(f))
        rhs = v.scale(A.section_derive(u, f)).add(bracket(A, u, v).scale(f))
        assert lhs.sub(rhs).is_zero()


def test_bracket_left_leibniz_property(courant2):
    A = courant2.algebroid
    rng = random.Random(4)
    for _ in range(3):
        f = random_scalar(rng, A.dim, 2)
        u = random_section(rng, A)
        v = random_section(rng, A)
        df = [A.frame_derive(a, f) for a in range(A.rank)]
        lhs = bracket(A, u.scale(f), v)
        rhs = (
            u.scale(-(A.section_derive(v, f)))
            .add(bracket(A, u, v).scale(f))
            .add(apply_locality(A, df, u, v))
        )
        assert lhs.sub(rhs).is_zero()


# -- coboundary ------------------------------------------------------------


def test_coboundary_tangent(tangent2):
    names = tangent2.coords
    D = coboundary(tangent2, scal("x1*x2", names))
    assert D.at((0,)).equals(scal("x2", names))
    assert D.at((1,)).equals(scal("x1", names))


def test_coboundary_constant_is_zero(tangent2):
    assert coboundary(tangent2, Scalar.constant(2, 5)).is_zero()


def test_coboundary_courant_kills_form_slot(courant1):
    A = courant1.algebroid
    D = coboundary(A, scal("x1", A.coords))
    assert D.at((0,)).is_one()
    assert D.at((1,)).is_zero()


# -- exterior algebra ------------------------------------------------------


def test_wedge_square_of_one_form_vanishes(tangent2):
    e1 = EForm.coframe(tangent2, 0)
    assert wedge(e1, e1).is_zero()


def test_wedge_graded_commutativity(tangent2):
    e1, e2 = EForm.coframe(tangent2, 0), EForm.coframe(tangent2, 1)
    lhs = wedge(e1, e2)
    rhs = wedge(e2, e1)
    assert lhs.add(rhs).is_zero()


def test_wedge_determinant_evaluation(tangent2):
    names = tangent2.coords
    a = EForm.coframe(tangent2, 0).scale(scal("x1", names))
    b = EForm.coframe(tangent2, 1).scale(scal("x2", names))
    value = wedge(a, b).apply(
        [Section.frame(tangent2, 0), Section.frame(tangent2, 1)]
    )
    assert value.equals(scal("x1*x2", names))


def test_wedge_beyond_top_degree_is_zero(tangent2):
    e1, e2 = EForm.coframe(tangent2, 0), EForm.coframe(tangent2, 1)
    top = wedge(e1, e2)
    assert wedge(top, e1).is_zero()


def test_interior_duality_and_antisymmetry(tangent2):
    e1, e2 = EForm.coframe(tangent2, 0), EForm.coframe(tangent2, 1)
    x1, x2 = Section.frame(tangent2, 0), Section.frame(tangent2, 1)
    assert interior_product(e1, x1).comp[()].is_one()
    two_form = wedge(e1, e2)
    ie = interior_product(two_form, x2)
    assert ie.at((0,)).equals(Scalar.constant(2, -1))
    assert interior_product(ie, x2).is_zero() or ie.degree == 1
    # components read through antisymmetry, the index given as any sequence
    assert two_form.at((1, 0)).equals(Scalar.constant(2, -1))
    assert two_form.at([1, 0]).equals(Scalar.constant(2, -1))
    assert two_form.at((1, 1)).is_zero()


def test_interior_twice_with_same_section_vanishes(courant2):
    A = courant2.algebroid
    rng = random.Random(5)
    v = random_section(rng, A)
    omega = wedge(
        EForm.coframe(A, 0).scale(random_scalar(rng, A.dim, 2)),
        EForm.coframe(A, 2),
    )
    assert interior_product(interior_product(omega, v), v).is_zero()


def test_interior_graded_derivation(courant2):
    A = courant2.algebroid
    rng = random.Random(6)
    v = random_section(rng, A)
    a = EForm.coframe(A, 0).scale(random_scalar(rng, A.dim, 1))
    b = wedge(EForm.coframe(A, 1), EForm.coframe(A, 3))
    lhs = interior_product(wedge(a, b), v)
    rhs = wedge(interior_product(a, v), b).sub(wedge(a, interior_product(b, v)))
    assert lhs.sub(rhs).is_zero()


# -- classification --------------------------------------------------------


def test_classify_tangent_lie_all_flags(tangent2):
    flags = classify(tangent2)
    assert flags.almost_dull and flags.almost_lie
    assert flags.pre_leibniz and flags.pre_dull and flags.pre_lie


def test_classify_non_morphism_anchor():
    names = ("x1",)
    one = Scalar.one(1)
    A = AlgebroidData(
        dim=1, rank=1, coords=names, anchor=((one,),),
        gamma={(0, 0, 0): one}, loc={},
    )
    flags = classify(A)
    assert flags.almost_dull
    assert not flags.pre_leibniz


def test_classify_courant(courant2):
    flags = classify(courant2.algebroid)
    assert flags.pre_leibniz
    assert not flags.almost_dull


def test_classify_extends_to_sections(courant2):
    # the anchor respects the section-level bracket, not just the frame one
    A = courant2.algebroid
    rng = random.Random(7)
    for _ in range(3):
        u = random_section(rng, A)
        v = random_section(rng, A)
        w = bracket(A, u, v)
        ru = A.anchor_of(u)
        rv = A.anchor_of(v)
        rw = A.anchor_of(w)
        for i in range(A.dim):
            lie = A.zero()
            for j in range(A.dim):
                lie = lie + ru[j] * rv[i].diff(j) - rv[j] * ru[i].diff(j)
            assert rw[i].equals(lie)


# -- locality projector ----------------------------------------------------


def test_projector_form_slots_pass(courant2):
    assert check_locality_projector(courant2.algebroid).passed


def test_projector_tangent_lie_anything_passes(tangent2):
    assert check_locality_projector(tangent2).passed


def test_projector_identity_verdict_computed(courant2):
    # P = identity passes iff the anchor kills every locality output;
    # for the pairing operator it does not, and the verdict must say so
    A = courant2.algebroid
    one, zero = A.one(), A.zero()
    identity = tuple(
        tuple(one if i == j else zero for j in range(A.rank)) for i in range(A.rank)
    )
    A2 = AlgebroidData(
        dim=A.dim, rank=A.rank, coords=A.coords, anchor=A.anchor,
        gamma=A.gamma, loc=A.loc, proj=identity,
    )
    report = check_locality_projector(A2)
    rho_l_nonzero = any(
        not A.frame_derive(a, Scalar.zero(A.dim)).is_zero()  # placeholder false
        for a in range(A.rank)
    )
    # independent expansion of rho . L on coframe arguments
    residual_found = False
    for (aa, d, e, c), lv in A.loc.items():
        for i in range(A.dim):
            if not (A.anchor[i][aa] * lv).is_zero():
                residual_found = True
    assert report.passed == (not residual_found)
    assert not report.passed


def test_projector_on_a_point_base_must_fix_the_whole_bundle():
    # with dim 0 the anchor is the 0 x r matrix: its kernel is the whole
    # bundle and its symbolic rank is 0, so P must be the identity
    one, zero = Scalar.one(0), Scalar.zero(0)

    def algebroid(proj):
        return AlgebroidData(
            dim=0, rank=2, coords=(), anchor=(), gamma={},
            loc={(1, 0, 0, 0): one}, proj=proj,
        )

    report = check_locality_projector(algebroid(((zero, zero), (zero, one))))
    assert not report.passed
    assert [key for key, _ in report.residuals] == [("P_fix_kernel", 0, 0)]
    report = check_locality_projector(algebroid(((one, zero), (zero, one))))
    assert report.passed
    assert not any("differs from symbolic rank" in a for a in report.assumptions)


def test_projector_missing_raises(tangent2):
    A = AlgebroidData(
        dim=2, rank=2, coords=tangent2.coords, anchor=tangent2.anchor,
        gamma={}, loc={}, proj=None,
    )
    with pytest.raises(ShapeError):
        check_locality_projector(A)


def test_every_projector_site_raises_the_one_error():
    one = Scalar.one(1)
    A = AlgebroidData(
        dim=1, rank=1, coords=("x1",), anchor=((one,),), gamma={},
        loc={(0, 0, 0, 0): one},
    )
    u = Section((Scalar.variable(1, 0),))
    calls = {
        "algebroid has no locality projector": [
            lambda: A.proj_at(0, 0),
            lambda: project_section(A, u),
        ],
        "no locality projector present": [lambda: check_locality_projector(A)],
    }
    for message, sites in calls.items():
        for call in sites:
            with pytest.raises(ProjectorRequiredError, match=message):
                call()
    assert issubclass(ProjectorRequiredError, ShapeError)


# -- frame changes ---------------------------------------------------------


def test_change_frame_identity(tangent2):
    one, zero = tangent2.one(), tangent2.zero()
    F = FrameChange.of([[one, zero], [zero, one]])
    A2, _, _ = change_frame(tangent2, F)
    assert A2.gamma == {}
    for i in range(2):
        for a in range(2):
            assert A2.anchor[i][a].equals(tangent2.anchor[i][a])


def test_change_frame_twisted_structure_functions(tangent2):
    names = tangent2.coords
    one, zero = tangent2.one(), tangent2.zero()
    F = FrameChange.of([[one, zero], [zero, scal("x1", names)]])
    A2, _, _ = change_frame(tangent2, F)
    assert A2.gamma[(1, 0, 1)].equals(scal("1/x1", names))
    assert A2.gamma[(1, 1, 0)].equals(scal("-1/x1", names))


def test_change_frame_round_trip(courant2):
    A = courant2.algebroid
    names = A.coords
    rng = random.Random(8)
    one, zero = A.one(), A.zero()
    mat = [[one if i == j else zero for j in range(4)] for i in range(4)]
    mat[0][1] = scal("x1", names)
    mat[2][3] = scal("x2^2", names)
    F = FrameChange.of(mat)
    Finv = FrameChange.of([list(r) for r in F.inverse])
    conn = {(0, 1, 2): scal("x1+x2", names)}
    metric = [list(row) for row in courant2.metric.g]
    A2, conn2, metric2 = change_frame(A, F, conn, metric)
    A3, conn3, metric3 = change_frame(A2, Finv, conn2, metric2)
    assert A3.gamma == {} == A.gamma
    for idx in set(conn) | set(conn3):
        assert conn3.get(idx, zero).equals(conn.get(idx, zero))
    for a in range(4):
        for b in range(4):
            assert metric3[a][b].equals(metric[a][b])
            assert A3.proj[a][b].equals(A.proj[a][b])
    for (aa, d, e, c) in set(A.loc) | set(A3.loc):
        assert A3.loc.get((aa, d, e, c), zero).equals(A.loc.get((aa, d, e, c), zero))


def test_torsion_tensorial_anholonomy_not(tangent2):
    # one witness where the anholonomy violates the tensor law while the
    # torsion transforms exactly tensorially
    A = tangent2
    names = A.coords
    one, zero = A.one(), A.zero()
    conn = Connection.of(2, {(0, 1, 0): scal("x2", names)})
    F = FrameChange.of([[one, zero], [scal("x2", names), one]])
    A2, conn2_coeff, _ = change_frame(A, F, conn.coeff)
    conn2 = Connection(2, conn2_coeff)
    T = torsion(A, conn, "modified")
    T2 = torsion(A2, conn2, "modified")
    Amat, Ainv = F.matrix, F.inverse
    violations = 0
    for a in range(2):
        for b in range(2):
            for c in range(2):
                want = A.zero()
                want_g = A.zero()
                for d in range(2):
                    for e in range(2):
                        for f in range(2):
                            factor = Ainv[a][d] * Amat[e][b] * Amat[f][c]
                            if factor.is_zero():
                                continue
                            want = want + factor * T.get((d, e, f), zero)
                            want_g = want_g + factor * A.gamma_at(d, e, f)
                assert T2.get((a, b, c), zero).equals(want)
                if not A2.gamma_at(a, b, c).equals(want_g):
                    violations += 1
    assert violations > 0


def test_change_frame_on_a_point_base():
    # dimension 0: no anchor rows, and every datum is tensorial
    one, zero = Scalar.one(0), Scalar.zero(0)
    A = AlgebroidData(
        dim=0, rank=2, coords=(), anchor=(), gamma={},
        loc={(0, 0, 0, 0): one}, proj=((one, zero), (zero, one)),
    )
    F = FrameChange.of([[one, one], [zero, Scalar.constant(0, 2)]])
    metric = [[one, zero], [zero, one]]
    A2, conn2, metric2 = change_frame(A, F, {(0, 0, 0): one}, metric)
    assert A2.anchor == () and A2.gamma == {}
    # X'_0 = X_0 and X'_1 = X_0 + 2 X_1, while e'^0 = e^0 - e^1 / 2
    assert set(A2.loc) == {(0, 0, e, c) for e in range(2) for c in range(2)}
    assert all(v.is_one() for v in A2.loc.values())
    assert set(conn2) == {(0, b, c) for b in range(2) for c in range(2)}
    assert all(v.is_one() for v in conn2.values())
    assert [[x.equals(zero) for x in row] for row in A2.proj] == [
        [False, True], [True, False],
    ]
    want = [["1", "1"], ["1", "5"]]
    for a in range(2):
        for b in range(2):
            assert metric2[a][b].equals(Scalar.constant(0, int(want[a][b])))


def _reference_change_frame(A, F, conn=None, metric=None):
    """The hand-written transformation laws that the section operations
    replaced, kept as the reference for structural equality."""
    r = A.rank
    Amat = [list(row) for row in F.matrix]
    Ainv = [list(row) for row in F.inverse]
    anchor2 = mat_mul([list(row) for row in A.anchor], Amat)
    frames = [Section(tuple(col)) for col in zip(*Amat)]
    gamma2 = {}
    for a in range(r):
        for b in range(r):
            w = bracket(A, frames[a], frames[b])
            for c in range(r):
                acc = A.zero()
                for d in range(r):
                    if not Ainv[c][d].is_zero() and not w.comp[d].is_zero():
                        acc = acc + Ainv[c][d] * w.comp[d]
                if not acc.is_zero():
                    gamma2[(c, a, b)] = acc
    loc2 = {}
    for a2, d2, e2, c2 in itertools.product(range(r), repeat=4):
        acc = A.zero()
        for (a1, d1, e1, c1), lv in A.loc.items():
            t = Ainv[a2][a1] * Ainv[d2][d1]
            if t.is_zero():
                continue
            t = t * Amat[e1][e2]
            if t.is_zero():
                continue
            t = t * Amat[c1][c2]
            if not t.is_zero():
                acc = acc + t * lv
        if not acc.is_zero():
            loc2[(a2, d2, e2, c2)] = acc
    proj2 = None
    if A.proj is not None:
        proj2 = mat_mul(mat_mul(Ainv, [list(p) for p in A.proj]), Amat)
    conn2 = None
    if conn is not None:
        conn2 = {}
        for a, b, c in itertools.product(range(r), repeat=3):
            acc = A.zero()
            for d in range(r):
                inv = Ainv[a][d]
                if inv.is_zero():
                    continue
                term = A.zero()
                for e in range(r):
                    ae = Amat[e][b]
                    if ae.is_zero():
                        continue
                    term = term + ae * A.frame_derive(e, Amat[d][c])
                    for f in range(r):
                        g = conn.get((d, e, f))
                        if g is None:
                            continue
                        t = ae * Amat[f][c]
                        if not t.is_zero():
                            term = term + t * g
                if not term.is_zero():
                    acc = acc + inv * term
            if not acc.is_zero():
                conn2[(a, b, c)] = acc
    metric2 = None
    if metric is not None:
        metric2 = [
            [
                sum(
                    (Amat[c][a] * Amat[d][b] * metric[c][d]
                     for c in range(r) for d in range(r)),
                    A.zero(),
                )
                for b in range(r)
            ]
            for a in range(r)
        ]
    return anchor2, gamma2, loc2, proj2, conn2, metric2


def _same(x: Scalar, y: Scalar) -> bool:
    return x.num == y.num and x.den == y.den


def _same_sparse(x, y) -> bool:
    return set(x) == set(y) and all(_same(v, y[k]) for k, v in x.items())


def _same_matrix(x, y) -> bool:
    return len(x) == len(y) and all(
        len(u) == len(v) and all(map(_same, u, v)) for u, v in zip(x, y)
    )


def _frame_cases():
    for seed in range(101, 108):
        dim, rank = 1 + (seed // 3) % 2, 2 + seed % 2
        fx = random_anticommutable(seed, dim=dim, rank=rank, twist=True)
        A = fx.algebroid
        F = random_frame_change(random.Random(seed), A)
        metric = random_constant_metric(random.Random(seed), dim, rank).g
        yield f"twisted-{seed}", A, F, fx.connection.coeff, metric
    # the rational frames of the tests above
    tangent = make_example("tangent_lie", n=2).algebroid
    t = lambda text: scal(text, tangent.coords)  # noqa: E731
    one, zero = tangent.one(), tangent.zero()
    F = FrameChange.of([[one, zero], [zero, t("x1")]])
    yield "tangent-x1", tangent, F, {(0, 1, 0): t("x2/x1")}, [
        [t("1/x2^2"), zero], [zero, t("1/x2^2")],
    ]
    F = FrameChange.of([[one, zero], [t("x2"), one]])
    yield "tangent-x2", tangent, F, {(0, 1, 0): t("x2")}, None
    courant = make_example("courant_standard", n=2)
    A = courant.algebroid
    c = lambda text: scal(text, A.coords)  # noqa: E731
    mat = [[A.one() if i == j else A.zero() for j in range(4)] for i in range(4)]
    mat[0][1] = c("x1")
    mat[2][3] = c("x2^2")
    F = FrameChange.of(mat)
    conn = {(0, 1, 2): c("x1+x2"), (3, 0, 1): c("1/(1+x1)")}
    metric = [list(row) for row in courant.metric.g]
    yield "courant", A, F, conn, metric
    A2, conn2, metric2 = change_frame(A, F, conn, metric)
    yield "courant-back", A2, FrameChange.of(F.inverse), conn2, metric2


@pytest.mark.parametrize("case", list(_frame_cases()), ids=lambda c: c[0])
def test_change_frame_matches_the_transformation_laws(case):
    _, A, F, conn, metric = case
    A2, conn2, metric2 = change_frame(A, F, conn, metric)
    anchor, gamma, loc, proj, conn_ref, metric_ref = _reference_change_frame(
        A, F, conn, metric
    )
    assert _same_matrix(A2.anchor, anchor)
    assert _same_sparse(A2.gamma, gamma)
    assert _same_sparse(A2.loc, loc)
    assert _same_matrix(A2.proj, proj)
    assert _same_sparse(conn2, conn_ref)
    if metric is not None:
        assert _same_matrix(metric2, metric_ref)


def test_projector_sampling_skips_an_anchor_pole(monkeypatch):
    # the first sample point is a pole of the anchor; it is drawn again
    rng = random.Random(0)
    first = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    names = ("x1",)
    anchor = scal(f"1/(x1 - ({first}))", names)
    A = AlgebroidData(
        dim=1, rank=1, coords=names, anchor=((anchor,),),
        gamma={}, loc={}, proj=((Scalar.one(1),),),
    )
    with pytest.raises(PoleError):
        anchor.eval_at((first,))
    report = check_locality_projector(A, seed=0)
    assert report.passed
    assert not any("differs" in a for a in report.assumptions)

    # an evaluation that fails for another reason is not a pole
    def broken(self, point):
        raise ZeroDivisionError("not a pole")

    monkeypatch.setattr(Scalar, "eval_at", broken)
    with pytest.raises(ZeroDivisionError):
        check_locality_projector(A, seed=0)


def anchor_morphism_reference(A):
    """The anchor-morphism flag by the quadruple loop classify used to run."""
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
                    ra, rb = A.anchor[j][a], A.anchor[j][b]
                    if not ra.is_zero():
                        rhs = rhs + ra * A.anchor[i][b].diff(j)
                    if not rb.is_zero():
                        rhs = rhs - rb * A.anchor[i][a].diff(j)
                if not lhs.equals(rhs):
                    return False
    return True


@given(
    seed=st.integers(0, 10_000),
    dim=st.integers(1, 2),
    rank=st.integers(2, 3),
    twist=st.booleans(),
    change=st.sampled_from(["none", "gamma", "kernel gamma", "anchor"]),
)
@settings(max_examples=60, deadline=None)
def test_classify_anchor_morphism_matches_the_frame_loop(seed, dim, rank, twist, change):
    A = random_anticommutable(seed, dim=dim, rank=rank, twist=twist).algebroid
    rng = random.Random(seed)
    cell = tuple(rng.randrange(A.rank) for _ in range(3))
    if change == "gamma":
        A = replace(A, gamma={**A.gamma, cell: A.gamma_at(*cell) + random_scalar(rng, dim, 2)})
    elif change == "kernel gamma":
        # a change along a frame slot the anchor kills keeps the morphism
        killed = [c for c in range(A.rank) if all(row[c].is_zero() for row in A.anchor)]
        if killed:
            cell = (rng.choice(killed),) + cell[1:]
            A = replace(A, gamma={**A.gamma, cell: A.gamma_at(*cell) + random_scalar(rng, dim, 2)})
    elif change == "anchor":
        anchor = [list(row) for row in A.anchor]
        anchor[rng.randrange(dim)][rng.randrange(rank)] = random_scalar(rng, dim, 2)
        A = replace(A, anchor=tuple(map(tuple, anchor)))
    assert classify(A).pre_leibniz == anchor_morphism_reference(A)
