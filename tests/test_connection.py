"""Covariant derivatives, modified structures, torsion, curvature,
non-metricity, admissibility, and the connection-to-bracket map."""

import ast
import dataclasses
import functools
import itertools
import operator
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids import (
    AlgebroidData,
    BudgetError,
    Connection,
    EForm,
    ETensor,
    Metric,
    ProjectorRequiredError,
    Scalar,
    Section,
    ShapeError,
    bracket,
    bracket_from_connection,
    change_frame,
    check_admissible,
    check_anholonomy_decomposition,
    check_equivalent_connections,
    classify,
    covariant_derivative,
    curvature,
    decompose_connection,
    difference_tensor,
    get_term_budget,
    locality_contraction,
    make_example,
    modified_anholonomy,
    modified_bracket,
    non_metricity,
    scalar_to_text,
    set_term_budget,
    torsion,
)
import algebroids.calculus as calculus_module
import algebroids.connection as connection_module
from algebroids.calculus import (
    associator,
    check_bianchi_algebraic,
    check_bianchi_differential,
    check_cartan_structure,
    check_magic_and_derivations,
    check_ricci,
    check_square_laws,
    e_exterior_derivative,
    leibniz_derivative,
    seeded_sections,
)
from algebroids.connection import GeometryContext, _frame_contraction, frame_covariant_tensor
from algebroids.core import FrameChange, _locality_correction, project_section
from algebroids.fixtures import (
    random_anticommutable,
    random_constant_metric,
    random_scalar,
    random_section,
)

from conftest import frame_covariants, record_calls, scal


def halfplane():
    A = make_example("tangent_lie", n=2).algebroid
    names = A.coords
    g = Metric(
        [
            [scal("1/x2^2", names), A.zero()],
            [A.zero(), scal("1/x2^2", names)],
        ]
    )
    conn = Connection.of(
        2,
        {
            (0, 0, 1): scal("-1/x2", names),
            (0, 1, 0): scal("-1/x2", names),
            (1, 0, 0): scal("1/x2", names),
            (1, 1, 1): scal("-1/x2", names),
        },
    )
    return A, g, conn


# -- covariant derivative ---------------------------------------------------


def test_covariant_scalar_is_anchor_derivative(tangent2):
    names = tangent2.coords
    rng = random.Random(0)
    v = random_section(rng, tangent2)
    f = scal("x1^2*x2", names)
    out = covariant_derivative(tangent2, Connection.zero(2), v, f)
    assert out.equals(tangent2.section_derive(v, f))


def test_covariant_frame_reproduces_coefficients(tangent2):
    names = tangent2.coords
    conn = Connection.of(2, {(1, 0, 1): scal("x1", names)})
    out = covariant_derivative(
        tangent2, conn, Section.frame(tangent2, 0), Section.frame(tangent2, 1)
    )
    assert out.comp[0].is_zero()
    assert out.comp[1].equals(scal("x1", names))


def test_covariant_metric_matches_nonmetricity():
    # two independent code paths for the same tensor
    A, g, _ = halfplane()
    names = A.coords
    conn = Connection.of(2, {(0, 1, 1): scal("x1", names), (1, 0, 0): scal("2", names)})
    q = non_metricity(A, conn, g)
    gt = ETensor.from_components(
        A, 0, 2, {(a, b): g.at(a, b) for a in range(2) for b in range(2)}
    )
    for a in range(2):
        arr = frame_covariant_tensor(A, conn, a, gt)
        for b in range(2):
            for c in range(2):
                assert arr.get((b, c), A.zero()).equals(q.get((a, b, c), A.zero()))


# -- modified anholonomy ----------------------------------------------------


def test_modified_anholonomy_trivial_cases(tangent2, courant1):
    names = tangent2.coords
    conn = Connection.of(2, {(0, 0, 0): scal("x1", names)})
    assert modified_anholonomy(tangent2, conn, "modified") == {}
    A = courant1.algebroid
    assert modified_anholonomy(A, Connection.zero(2), "modified") == dict(A.gamma)


def test_modified_anholonomy_courant_hand_expansion(courant1):
    # single connection entry against the pairing-contraction expansion
    A = courant1.algebroid
    names = A.coords
    g = scal("x1", names)
    conn = Connection.of(2, {(1, 0, 1): g})
    anhol = modified_anholonomy(A, conn, "modified")
    zero = A.zero()
    for a in range(2):
        for b in range(2):
            for c in range(2):
                expected = zero
                for d in range(2):
                    for e in range(2):
                        lv = A.loc.get((a, d, e, c))
                        if lv is None:
                            continue
                        gg = conn.coeff.get((e, d, b))
                        if gg is not None:
                            expected = expected - gg * lv
                assert anhol.get((a, b, c), zero).equals(expected)


# -- modified bracket -------------------------------------------------------


def test_modified_bracket_reduces_to_bracket_without_locality(tangent2):
    rng = random.Random(1)
    conn = Connection.of(2, {(0, 1, 1): random_scalar(rng, 2, 2)})
    u, v = random_section(rng, tangent2), random_section(rng, tangent2)
    lhs = modified_bracket(tangent2, conn, u, v)
    assert lhs.sub(bracket(tangent2, u, v)).is_zero()


def test_modified_bracket_antisymmetric_for_admissible():
    fx = random_anticommutable(21, dim=2, rank=3)
    A, conn = fx.algebroid, fx.connection
    rng = random.Random(2)
    for _ in range(3):
        u, v = random_section(rng, A), random_section(rng, A)
        lhs = modified_bracket(A, conn, u, v)
        rhs = modified_bracket(A, conn, v, u)
        assert lhs.add(rhs).is_zero()


def test_modified_bracket_courant_zero_connection_on_frames(courant1):
    # with no connection coefficients the correction needs derivatives of
    # the first argument's components, so it dies on frame sections
    A = courant1.algebroid
    rng = random.Random(3)
    v = random_section(rng, A)
    for a in range(A.rank):
        u = Section.frame(A, a)
        lhs = modified_bracket(A, Connection.zero(2), u, v)
        assert lhs.sub(bracket(A, u, v)).is_zero()
    anhol = modified_anholonomy(A, Connection.zero(2), "modified")
    assert anhol == dict(A.gamma)


# -- torsion ----------------------------------------------------------------


def test_torsion_zero_connection_is_minus_gamma():
    names = ("x1", "x2")
    one = Scalar.one(2)
    A = AlgebroidData(
        dim=2, rank=2, coords=names,
        anchor=((one, Scalar.zero(2)), (Scalar.zero(2), one)),
        gamma={(0, 0, 1): scal("x1", names), (0, 1, 0): scal("-x1", names)},
        loc={},
    )
    T = torsion(A, Connection.zero(2), "modified")
    assert T[(0, 0, 1)].equals(scal("-x1", names))


def test_torsion_single_entry(tangent2):
    names = tangent2.coords
    conn = Connection.of(2, {(0, 1, 0): scal("x2", names)})
    T = torsion(tangent2, conn, "modified")
    assert T[(0, 1, 0)].equals(scal("x2", names))
    assert T[(0, 0, 1)].equals(scal("-x2", names))


def test_torsion_courant_zero(courant2):
    assert torsion(courant2.algebroid, Connection.zero(4), "modified") == {}


def test_torsion_antisymmetric_for_admissible():
    fx = random_anticommutable(22, dim=2, rank=4)
    A, conn = fx.algebroid, fx.connection
    T = torsion(A, conn, "modified")
    That = torsion(A, conn, "projected")
    for arr in (T, That):
        for (a, b, c), v in arr.items():
            assert v.equals(-(arr.get((a, c, b), A.zero())))


# -- curvature --------------------------------------------------------------


def test_curvature_zero_connection(courant2):
    assert curvature(courant2.algebroid, Connection.zero(4)) == {}


def test_curvature_halfplane():
    A, g, conn = halfplane()
    names = A.coords
    R = curvature(A, conn)
    assert R[(0, 0, 1, 1)].equals(scal("-1/x2^2", names))
    # constant curvature -1 cross-check: R(u,v)w = -(g(v,w)u - g(u,w)v)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    want = A.zero()
                    if a == b:
                        want = want - g.at(c, d)
                    if a == c:
                        want = want + g.at(b, d)
                    assert R.get((a, b, c, d), A.zero()).equals(want)


def test_curvature_constant_connection_anchor_zero():
    # with a vanishing anchor only the quadratic terms survive
    names = ("x1",)
    zero = Scalar.zero(1)
    one = Scalar.one(1)
    A = AlgebroidData(
        dim=1, rank=2, coords=names, anchor=((zero, zero),),
        gamma={}, loc={},
        proj=((one, zero), (zero, one)),
    )
    rng = random.Random(4)
    coeff = {
        (a, b, c): Scalar.constant(1, rng.randint(-2, 2))
        for a in range(2)
        for b in range(2)
        for c in range(2)
    }
    conn = Connection.of(2, coeff)
    R = curvature(A, conn)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    want = A.zero()
                    for e in range(2):
                        want = want + conn.at(e, c, d, 1) * conn.at(a, b, e, 1)
                        want = want - conn.at(e, b, d, 1) * conn.at(a, c, e, 1)
                    assert R.get((a, b, c, d), A.zero()).equals(want)


def test_curvature_requires_projector():
    names = ("x1",)
    one = Scalar.one(1)
    A = AlgebroidData(dim=1, rank=1, coords=names, anchor=((one,),), gamma={}, loc={})
    with pytest.raises(ProjectorRequiredError):
        curvature(A, Connection.zero(1))


def test_curvature_antisymmetric_for_admissible():
    fx = random_anticommutable(23, dim=1, rank=3)
    A, conn = fx.algebroid, fx.connection
    R = curvature(A, conn)
    for (a, b, c, d), v in R.items():
        assert v.equals(-(R.get((a, c, b, d), A.zero())))


# -- non-metricity ----------------------------------------------------------


def test_nonmetricity_constant_metric_zero_connection(tangent2):
    g = Metric([[tangent2.one(), tangent2.zero()], [tangent2.zero(), tangent2.one()]])
    assert non_metricity(tangent2, Connection.zero(2), g) == {}


def test_nonmetricity_diagonal_growth(tangent2):
    names = tangent2.coords
    g = Metric([[tangent2.one(), tangent2.zero()], [tangent2.zero(), scal("x1^2", names)]])
    q = non_metricity(tangent2, Connection.zero(2), g)
    assert q[(0, 1, 1)].equals(scal("2*x1", names))
    assert set(q) == {(0, 1, 1)}


def test_nonmetricity_symmetric_in_last_slots(courant2):
    A = courant2.algebroid
    rng = random.Random(5)
    coeff = {
        (rng.randrange(4), rng.randrange(4), rng.randrange(4)): random_scalar(rng, 2, 2)
        for _ in range(6)
    }
    q = non_metricity(A, Connection.of(4, coeff), courant2.metric)
    for (a, b, c), v in q.items():
        assert v.equals(q.get((a, c, b), A.zero()))


# -- admissibility ----------------------------------------------------------


def test_admissible_trivial_locality_antisymmetric_gamma():
    names = ("x1", "x2")
    one = Scalar.one(2)
    A = AlgebroidData(
        dim=2, rank=2, coords=names,
        anchor=((one, Scalar.zero(2)), (Scalar.zero(2), one)),
        gamma={(0, 0, 1): scal("x2", names), (0, 1, 0): scal("-x2", names)},
        loc={},
    )
    rng = random.Random(6)
    conn = Connection.of(2, {(0, 1, 1): random_scalar(rng, 2, 2)})
    assert check_admissible(A, conn).passed


def test_admissible_courant_zero_connection(courant2):
    assert check_admissible(courant2.algebroid, Connection.zero(4)).passed


def test_admissible_residual_is_pairing_contraction_of_nonmetricity(courant2):
    A = courant2.algebroid
    eta = courant2.metric
    names = A.coords
    conn = Connection.of(4, {(0, 0, 0): scal("3", names)})
    report = check_admissible(A, conn)
    assert not report.passed
    q = non_metricity(A, conn, eta)
    res = {at: v for at, v in report.residuals}
    for c in range(4):
        for a in range(4):
            for b in range(a, 4):
                want = A.zero()
                for d in range(4):
                    qv = q.get((d, a, b))
                    if qv is not None:
                        want = want + eta.inv_at(c, d) * qv
                assert res.get((c, a, b), A.zero()).equals(want)


# -- difference tensor and equivalence --------------------------------------


def test_difference_of_connection_with_itself(tangent2):
    rng = random.Random(7)
    conn = Connection.of(2, {(0, 1, 1): random_scalar(rng, 2, 2)})
    assert difference_tensor(conn, conn) == {}


def test_difference_entrywise():
    c1 = Connection.of(2, {(0, 0, 0): Scalar.constant(2, 3)})
    c2 = Connection.of(2, {(0, 0, 0): Scalar.constant(2, 1)})
    delta = difference_tensor(c1, c2)
    assert delta[(0, 0, 0)].equals(Scalar.constant(2, 2))


def test_difference_tensorial_while_connections_are_not(courant2):
    A = courant2.algebroid
    names = A.coords
    one, zero = A.one(), A.zero()
    rng = random.Random(8)
    c1 = Connection.of(4, {(0, 1, 2): scal("x1", names)})
    c2 = Connection.of(4, {(1, 0, 3): scal("x2", names)})
    mat = [[one if i == j else zero for j in range(4)] for i in range(4)]
    mat[0][1] = scal("x1*x2", names)
    F = FrameChange.of(mat)
    _, c1p, _ = change_frame(A, F, c1.coeff)
    _, c2p, _ = change_frame(A, F, c2.coeff)
    delta = difference_tensor(c1, c2)
    delta_p = difference_tensor(Connection(4, c1p), Connection(4, c2p))
    Amat, Ainv = F.matrix, F.inverse
    conn_violation = 0
    for a in range(4):
        for b in range(4):
            for c in range(4):
                want = zero
                want_conn = zero
                for d in range(4):
                    for e in range(4):
                        for f in range(4):
                            factor = Ainv[a][d] * Amat[e][b] * Amat[f][c]
                            if factor.is_zero():
                                continue
                            want = want + factor * delta.get((d, e, f), zero)
                            want_conn = want_conn + factor * c1.coeff.get(
                                (d, e, f), zero
                            )
                assert delta_p.get((a, b, c), zero).equals(want)
                if not Connection(4, c1p).at(a, b, c, 2).equals(want_conn):
                    conn_violation += 1
    assert conn_violation > 0


def test_equivalent_connections_share_admissibility(courant1):
    # on courant_standard n = 1, shifting the zero connection by a difference
    # whose locality contraction is nonzero but antisymmetric keeps it
    # equivalent, hence admissible
    A = courant1.algebroid
    names = A.coords
    zero = Connection.zero(2)
    shifted = Connection.of(
        2, {(0, 0, 0): scal("-x1", names), (1, 0, 1): scal("x1", names)}
    )
    contraction = locality_contraction(
        A, Connection(2, difference_tensor(shifted, zero))
    )
    assert sorted(contraction) == [(1, 0, 1), (1, 1, 0)]
    assert contraction[(1, 0, 1)].equals(scal("-x1", names))
    assert contraction[(1, 1, 0)].equals(scal("x1", names))
    assert check_equivalent_connections(A, zero, shifted).passed
    assert check_admissible(A, zero).passed
    assert check_admissible(A, shifted).passed
    # the first entry alone has a symmetric contraction
    control = Connection.of(2, {(0, 0, 0): scal("x1", names)})
    assert not check_equivalent_connections(A, zero, control).passed
    assert not check_admissible(A, control).passed


def test_equivalent_connections_list_each_pair_once():
    # criterion-2 fixture 4 with Gamma^0_00 raised by one: the symmetric
    # part of the difference's contraction, on a <= b as check_admissible
    fx = random_anticommutable(4, dim=2, rank=3)
    A, conn = fx.algebroid, fx.connection
    coeff = dict(conn.coeff)
    coeff[(0, 0, 0)] = coeff.get((0, 0, 0), A.zero()) + A.one()
    rep = check_equivalent_connections(A, conn, Connection(3, coeff))
    assert not rep.passed
    assert [at for at, _ in rep.residuals] == [(2, 0, 0), (2, 0, 1)]
    assert rep.residuals[0][1].equals(scal("4*x2^2", A.coords))
    assert rep.residuals[1][1].equals(scal("-3*x2", A.coords))


@pytest.mark.parametrize("with_locality", [False, True])
def test_projected_kind_without_a_projector_is_refused(with_locality):
    # the same typed error from every projected operation, whether or not
    # the locality operator vanishes
    one = Scalar.one(1)
    A = AlgebroidData(
        dim=1, rank=1, coords=("x1",), anchor=((one,),), gamma={},
        loc={(0, 0, 0, 0): one} if with_locality else {},
    )
    conn = Connection.zero(1)
    assert check_admissible(A, conn).passed
    u = Section((Scalar.variable(1, 0),))
    f = Scalar.variable(1, 0)
    calls = [
        lambda: modified_bracket(A, conn, u, u, "projected"),
        lambda: associator(A, "projected", u, u, u, conn),
        lambda: modified_anholonomy(A, conn, "projected"),
        lambda: leibniz_derivative(A, conn, u, u, "projected"),
        lambda: curvature(A, conn),
        # the suites that need a projector, with no section drawn
        lambda: check_cartan_structure(A, conn),
        lambda: check_bianchi_algebraic(A, conn, "projected", samples=0),
        lambda: check_bianchi_algebraic(A, conn, "general", samples=0),
        lambda: check_bianchi_differential(A, conn),
        lambda: check_ricci(A, conn, samples=0),
        lambda: check_magic_and_derivations(A, conn, samples=0),
        lambda: check_square_laws(A, conn, samples=0),
        # the scalar shortcuts come after the kind is resolved
        lambda: e_exterior_derivative(A, conn, f, "projected"),
        lambda: leibniz_derivative(A, conn, u, f, "projected"),
    ]
    for call in calls:
        with pytest.raises(ProjectorRequiredError):
            call()


def test_one_site_raises_the_projector_refusal():
    # the projected kind is refused where its contraction is built, and
    # nowhere else in the two modules that resolve kinds
    sites = []
    for module in (calculus_module, connection_module):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        sites += [
            (module.__name__, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "ProjectorRequiredError"
        ]
    assert len(sites) == 1, sites


def test_modified_kinds_need_a_connection_only_with_locality():
    one = Scalar.one(1)
    u = Section((Scalar.variable(1, 0),))
    for loc in ({}, {(0, 0, 0, 0): one}):
        A = AlgebroidData(
            dim=1, rank=1, coords=("x1",), anchor=((one,),), gamma={}, loc=loc,
            proj=((one,),),
        )
        ctx = GeometryContext(A, None)
        plain = ctx.bracket(u, u, A)
        for kind in ("modified", "projected"):
            if loc:
                with pytest.raises(ShapeError, match="modified brackets need a connection"):
                    ctx.bracket(u, u, ctx.algebroid(kind))
            else:
                assert ctx.bracket(u, u, ctx.algebroid(kind)) == plain


# -- bracket from a connection ----------------------------------------------


def test_bracket_from_connection_trivial(tangent2):
    out = bracket_from_connection(tangent2, Connection.zero(2), amap={})
    assert out.gamma == {}


def test_bracket_from_connection_levicivita_recovers_lie():
    A, g, conn = halfplane()
    out = bracket_from_connection(A, conn, amap={})
    assert out.gamma == {}


def test_bracket_from_connection_is_admissible_by_construction():
    fx = random_anticommutable(25, dim=2, rank=4)
    A, conn = fx.algebroid, fx.connection
    out = bracket_from_connection(A, conn)
    assert check_admissible(out, conn).passed
    # and differs from A only in the bracket data
    assert out.loc == A.loc


# -- standalone modified brackets form almost-Lie structures ------------------


def test_modified_gamma_is_almost_lie_for_admissible():
    fx = random_anticommutable(26, dim=2, rank=3)
    A, conn = fx.algebroid, fx.connection
    anhol = modified_anholonomy(A, conn, "modified")
    standalone = AlgebroidData(
        dim=A.dim, rank=A.rank, coords=A.coords, anchor=A.anchor,
        gamma=anhol, loc={},
    )
    flags = classify(standalone)
    assert flags.almost_dull and flags.almost_lie


def test_projected_gamma_is_pre_lie_for_admissible():
    fx = random_anticommutable(27, dim=2, rank=3)
    A, conn = fx.algebroid, fx.connection
    anhol = modified_anholonomy(A, conn, "projected")
    standalone = AlgebroidData(
        dim=A.dim, rank=A.rank, coords=A.coords, anchor=A.anchor,
        gamma=anhol, loc={},
    )
    flags = classify(standalone)
    assert flags.pre_dull and flags.pre_lie


def test_modified_gamma_is_almost_dull_for_any_connection():
    fx = random_anticommutable(28, dim=2, rank=3)
    A = fx.algebroid
    rng = random.Random(29)
    coeff = {
        (rng.randrange(3), rng.randrange(3), rng.randrange(3)): random_scalar(rng, 2, 2)
        for _ in range(6)
    }
    anhol = modified_anholonomy(A, Connection.of(3, coeff), "modified")
    standalone = AlgebroidData(
        dim=A.dim, rank=A.rank, coords=A.coords, anchor=A.anchor,
        gamma=anhol, loc={},
    )
    assert classify(standalone).almost_dull


# -- anholonomy decomposition -------------------------------------------------


def test_anholonomy_decomposition_symmetric_contraction(courant1):
    # engineered connection with symmetric pairing contraction
    A = courant1.algebroid
    names = A.coords
    # contraction LC^c_ab = eta^{cd} Gamma^e_{d a} eta_{e b}; choose the
    # lowered array symmetric in (a, b)
    eta = courant1.metric
    sym_entries = {(0, 0): scal("x1", names), (0, 1): scal("2", names), (1, 1): scal("x1^2", names)}
    coeff = {}
    for d in range(2):
        for a in range(2):
            for b in range(2):
                key = (min(a, b), max(a, b))
                v = sym_entries.get(key)
                if v is None:
                    continue
                # Gamma^e_{d a} with e chosen so that eta_{e b} = 1
                e = 1 - b
                coeff[(e, d, a)] = v
    conn = Connection.of(2, coeff)
    lc = locality_contraction(A, conn)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                assert lc.get((c, a, b), A.zero()).equals(lc.get((c, b, a), A.zero()))
    out = bracket_from_connection(A, conn)
    report = check_anholonomy_decomposition(out, conn)
    assert report.passed


# -- the per-call geometry context --------------------------------------------


def test_context_builds_each_bracket_algebroid_once_and_no_covariant_table(monkeypatch):
    fx = random_anticommutable(1, dim=1, rank=3)
    A, conn = fx.algebroid, fx.connection
    assert A.loc and A.proj is not None
    u, v = seeded_sections(A, 5, 2, 2)
    clear_slot()
    built = record_calls(monkeypatch, GeometryContext, "_algebroid")
    tables = record_calls(monkeypatch, connection_module, "frame_covariant_tensor")
    # two contexts on the pair, as two consecutive public calls build
    for _ in range(2):
        ctx = GeometryContext(A, conn)
        for kind in ("original", "modified", "projected"):
            ctx.bracket(u, v, ctx.algebroid(kind))
            ctx.bracket(v, u, ctx.algebroid(kind))
    modified_bracket(A, conn, u, v, "projected")
    assert [kind for _, kind in built] == ["modified", "projected"]
    assert tables == []


def test_context_kinds_are_the_plain_bracket_minus_the_correction():
    fx = random_anticommutable(105, dim=2, rank=3, twist=True)
    A, conn = fx.algebroid, fx.connection
    assert A.loc
    u, v = seeded_sections(A, 5, 2, 2)
    correction = _locality_correction(A, frame_covariants(A, conn, u), v)
    base = bracket(A, u, v)
    expected = {
        "original": base,
        "modified": base.sub(correction),
        "projected": base.sub(project_section(A, correction)),
    }
    ctx = GeometryContext(A, conn)
    for kind, want in expected.items():
        got = ctx.bracket(u, v, ctx.algebroid(kind))
        # structural equality: the same numerators and denominators
        assert [(c.num, c.den) for c in got.comp] == [(c.num, c.den) for c in want.comp]


def test_magic_suite_builds_each_bracket_algebroid_once(monkeypatch):
    fx = random_anticommutable(1, dim=1, rank=3)
    clear_slot()
    built = record_calls(monkeypatch, GeometryContext, "_algebroid")
    tables = record_calls(monkeypatch, connection_module, "frame_covariant_tensor")
    for _ in range(2):
        assert check_magic_and_derivations(fx.algebroid, fx.connection, 0, 2).passed
    assert sorted(kind for _, kind in built) == ["modified", "projected"]
    assert tables == []


def rational_projector(A):
    """A with the projector replaced by P^a_b = (a+1)/(1 + x1^2 + b): not
    a locality projector, but its sums print differently when reordered."""
    x1 = Scalar.variable(A.dim, 0)
    proj = tuple(
        tuple(A.const(a + 1) / (A.one() + x1 * x1 + A.const(b)) for b in range(A.rank))
        for a in range(A.rank)
    )
    return dataclasses.replace(A, proj=proj)


def test_anholonomy_is_the_frame_bracket():
    checked = 0
    for seed in (101, 103, 104, 107, 111):
        fx = random_anticommutable(seed, dim=2, rank=3, twist=True)
        A = rational_projector(fx.algebroid)
        ctx = GeometryContext(A, fx.connection)
        for kind in ("modified", "projected"):
            B = ctx.algebroid(kind)
            for a, x in enumerate(ctx.frames):
                for b, y in enumerate(ctx.frames):
                    br = ctx.bracket(x, y, B)
                    for c in range(A.rank):
                        got = B.gamma.get((c, a, b), A.zero())
                        # structural equality: the same printed text
                        assert (got.num, got.den) == (br.comp[c].num, br.comp[c].den)
                        checked += 1
    assert checked == 270


def reference_contraction(A, conn, loc):
    """Gamma^e_da loc^{c d}_{e b} at (c, a, b), the sum written out."""
    out = {}
    for (c, d, e, b), lv in loc.items():
        for a in range(A.rank):
            g = conn.coeff.get((e, d, a))
            if g is not None:
                out[(c, a, b)] = out.get((c, a, b), A.zero()) + g * lv
    return out


def reference_projected_locality(A):
    """P^a_{a'} L^{a' d}_{e c} at (a, d, e, c)."""
    out = {}
    for (a1, d, e, c), lv in A.loc.items():
        for a in range(A.rank):
            out[(a, d, e, c)] = out.get((a, d, e, c), A.zero()) + A.proj[a][a1] * lv
    return out


def reference_covariant(A, conn, v, u):
    """(D_v u)^a = rho(v)(u^a) + v^b u^c Gamma^a_bc."""
    out = []
    for a in range(A.rank):
        acc = A.section_derive(v, u.comp[a])
        for (a2, b, c), g in conn.coeff.items():
            if a2 == a:
                acc = acc + v.comp[b] * u.comp[c] * g
        out.append(acc)
    return out


def assert_same_values(got, want, keys):
    for key in keys:
        assert got.get(key, Scalar.zero(2)).equals(want.get(key, Scalar.zero(2))), key


@pytest.mark.parametrize("seed, twist", [(1, False), (4, False), (16, False), (104, True)])
def test_contractions_and_covariant_derivative_match_the_written_out_sums(seed, twist):
    fx = random_anticommutable(seed, dim=2, rank=3, twist=twist)
    A, conn = fx.algebroid, fx.connection
    if twist:
        A = rational_projector(A)
    keys = [(c, a, b) for c in range(3) for a in range(3) for b in range(3)]
    lc = reference_contraction(A, conn, A.loc)
    assert lc and any(not v.is_zero() for v in lc.values())
    assert_same_values(locality_contraction(A, conn), lc, keys)
    for kind, loc in (("modified", A.loc), ("projected", reference_projected_locality(A))):
        contracted = reference_contraction(A, conn, loc)
        want = {k: A.gamma_at(*k) - contracted.get(k, A.zero()) for k in keys}
        assert_same_values(modified_anholonomy(A, conn, kind), want, keys)
    frames = [Section.frame(A, a) for a in range(3)]
    sections = seeded_sections(A, seed, 4, 2) + frames
    for v in sections:
        for u in sections:
            got = covariant_derivative(A, conn, v, u)
            want = reference_covariant(A, conn, v, u)
            assert all(x.equals(y) for x, y in zip(got.comp, want))


# -- each bracket kind is the plain bracket of its own algebroid --------------


def random_connection(rng, A, rational: bool):
    """A random connection, with rational coefficients when asked; such
    draws are in general not admissible."""
    def value():
        num = random_scalar(rng, A.dim, 1)
        if not rational:
            return num
        return num / (Scalar.variable(A.dim, rng.randrange(A.dim)) + A.const(rng.randint(1, 3)))

    return Connection.of(A.rank, {
        idx: value() for idx in itertools.product(range(A.rank), repeat=3)
        if rng.random() < 0.3
    })


def bracket_definition_cases():
    """(algebroid, connection) pairs with a locality operator and a
    projector, on random connections, two of them rational each."""
    rng = random.Random(15)
    names = ("x1", "x2")
    # a rational diagonal metric of rank 3 over two coordinates: the anchor
    # sees slots 0 and 1, the slot projector keeps slot 2
    g = Metric([
        [scal("1/(x1 + 2)", names), Scalar.zero(2), Scalar.zero(2)],
        [Scalar.zero(2), scal("(x2 + 1)/(x1 + 3)", names), Scalar.zero(2)],
        [Scalar.zero(2), Scalar.zero(2), scal("x1 + x2 + 1", names)],
    ])
    pairing = make_example("metric_algebroid", n=2, gamma_antisym={}, metric=g).algebroid
    slot = tuple(
        tuple(Scalar.one(2) if a == b == 2 else Scalar.zero(2) for b in range(3))
        for a in range(3)
    )
    twisted = random_anticommutable(105, dim=2, rank=3, twist=True)
    algebroids = [
        make_example("courant_standard", n=1).algebroid,
        make_example("courant_standard", n=2).algebroid,
        dataclasses.replace(pairing, proj=slot),
        twisted.algebroid,
    ]
    for A in algebroids:
        for rational in (False, True):
            yield A, random_connection(rng, A, rational)
    yield twisted.algebroid, twisted.connection


def test_each_bracket_kind_is_its_definition():
    # [u, v] - L(e^d, D_{X_d} u, v), with the correction projected for the
    # projected kind, against core.bracket of the kind's own algebroid
    rng = random.Random(16)
    checked = not_admissible = 0
    for A, conn in bracket_definition_cases():
        assert A.loc and A.proj is not None
        not_admissible += not check_admissible(A, conn).passed
        ctx = GeometryContext(A, conn)
        for _ in range(2):
            u, v = random_section(rng, A, 1), random_section(rng, A, 1)
            correction = _locality_correction(A, frame_covariants(A, conn, u), v)
            expected = {
                "modified": correction,
                "projected": project_section(A, correction),
            }
            for kind, subtracted in expected.items():
                want = bracket(A, u, v).sub(subtracted)
                got = ctx.bracket(u, v, ctx.algebroid(kind))
                assert all(x.equals(y) for x, y in zip(got.comp, want.comp)), kind
                checked += 1
    assert checked == 36 and not_admissible >= 6


def test_modified_bracket_has_no_locality_term():
    # [fu, v] = f[u, v] - rho(v)(f) u and [u, fv] = f[u, v] + rho(u)(f) v
    rng = random.Random(17)
    for A, conn in bracket_definition_cases():
        ctx = GeometryContext(A, conn)
        M = ctx.algebroid("modified")
        u, v = random_section(rng, A, 1), random_section(rng, A, 1)
        f = random_scalar(rng, A.dim, 2)
        uv = ctx.bracket(u, v, M)
        left = uv.scale(f).sub(u.scale(A.section_derive(v, f)))
        right = uv.scale(f).add(v.scale(A.section_derive(u, f)))
        for got, want in ((ctx.bracket(u.scale(f), v, M), left),
                          (ctx.bracket(u, v.scale(f), M), right)):
            assert all(x.equals(y) for x, y in zip(got.comp, want.comp))


# -- one pass over L, and brackets read off anchor jets ------------------------


@functools.cache
def locality_algebroids() -> tuple:
    """The algebroids of ``bracket_definition_cases``, all with a locality
    operator and a projector, and a twisted fixture with a rational
    projector."""
    seen = []
    for A, _ in bracket_definition_cases():
        if all(A is not B for B in seen):
            seen.append(A)
    twisted = random_anticommutable(101, dim=2, rank=3, twist=True).algebroid
    return (*seen, rational_projector(twisted))


def texts(A, values) -> list[str]:
    return [scalar_to_text(x, A.coords) for x in values]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=st.integers(0, 4), seed=st.integers(0, 2**16), rational=st.booleans())
def test_one_pass_contraction_is_the_correction_of_each_frame_pair(case, seed, rational):
    A = locality_algebroids()[case]
    conn = random_connection(random.Random(seed), A, rational)
    ctx = GeometryContext(A, conn)
    contraction = {kind: ctx.contraction(kind) for kind in ("modified", "projected")}
    assert list(contraction["modified"]) == list(_frame_contraction(A, conn))
    for x in contraction.values():
        # keyed (c, a, b) in (a, b, c) order, the order the sums are read in
        assert list(x) == sorted(x, key=lambda idx: (idx[1], idx[2], idx[0]))
    for a, x in enumerate(ctx.frames):
        for b, y in enumerate(ctx.frames):
            correction = _locality_correction(A, frame_covariants(A, conn, x), y)
            want = {"modified": correction, "projected": project_section(A, correction)}
            for kind, section in want.items():
                got = [contraction[kind].get((c, a, b), A.zero()) for c in range(A.rank)]
                assert all(g.equals(w) for g, w in zip(got, section.comp))
                # the same summation order: the same printed text
                assert texts(A, got) == texts(A, section.comp)


def leibniz_rule_bracket(B, u, v) -> list:
    """[u, v]^c of B summed as the bracket formula reads: u^a v^b gamma^c_ab
    + rho(u)(v^c) - rho(v)(u^c) + rho_d(u^e) v^b L^{c d}_{e b}."""
    out = [B.zero()] * B.rank
    for (c, a, b), g in B.gamma.items():
        t = u.comp[a] * v.comp[b]
        if not t.is_zero():
            out[c] = out[c] + t * g
    for c in range(B.rank):
        out[c] = out[c] + B.section_derive(u, v.comp[c]) - B.section_derive(v, u.comp[c])
    for (c, d, e, b), lv in B.loc.items():
        t = B.frame_derive(d, u.comp[e]) * v.comp[b]
        if not t.is_zero():
            out[c] = out[c] + t * lv
    return out


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=st.integers(0, 4), seed=st.integers(0, 2**16), rational=st.booleans())
def test_jet_bracket_is_the_leibniz_rule_bracket(case, seed, rational):
    A = locality_algebroids()[case]
    # a rational projector already makes the data of the kinds rational;
    # rational connections and sections on top of it take up to minutes
    rational = rational and all(p.den.is_one() for row in A.proj for p in row)
    rng = random.Random(seed)
    conn = random_connection(rng, A, rational)

    def section():
        u = random_section(rng, A, 1)
        if not rational:
            return u
        x = Scalar.variable(A.dim, rng.randrange(A.dim))
        return Section(tuple(f / (x + A.const(rng.randint(1, 3))) for f in u.comp))

    u, v = section(), section()
    ctx = GeometryContext(A, conn)
    pairs = [(u, v), (u, u), (u, ctx.frames[0]), (ctx.frames[1], v)]
    for kind in ("original", "modified", "projected"):
        B = ctx.algebroid(kind)
        for x, y in pairs:
            assert texts(A, ctx.bracket(x, y, B).comp) == texts(A, leibniz_rule_bracket(B, x, y))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(case=st.integers(0, 3), seed=st.integers(0, 2**16), rational=st.booleans())
def test_each_kind_is_a_fixed_point_of_its_own_algebroid(case, seed, rational):
    # every value of a kind is the plain value of B = algebroid(kind); the
    # rational-projector fixture is left out, its projected brackets take
    # half a minute
    A = locality_algebroids()[case]
    conn = random_connection(random.Random(seed), A, rational)
    ctx = GeometryContext(A, conn)

    def same(x, y):
        return x.keys() == y.keys() and all(x[k].equals(y[k]) for k in x)

    for kind in ("original", "modified", "projected"):
        B = ctx.algebroid(kind)
        again = GeometryContext(B, conn).algebroid(kind)
        assert same(again.gamma, B.gamma) and same(again.loc, B.loc)
        if kind != "original":
            assert same(torsion(A, conn, kind), torsion(B, conn, kind))
            assert same(modified_anholonomy(B, conn, kind), B.gamma)
    # the anchor is a bracket morphism only for the projected bracket, so
    # only its algebroid keeps A's curvature
    B = ctx.algebroid("projected")
    assert same(curvature(A, conn), curvature(B, conn))


# -- the pair store shared by consecutive contexts ----------------------------


def clear_slot():
    """Evict the shared pair store by building a context on another pair."""
    GeometryContext(make_example("tangent_lie", n=1).algebroid, None)


def test_consecutive_calls_on_one_pair_share_the_frame_corrections(monkeypatch):
    fx = random_anticommutable(1, dim=1, rank=3)
    A, conn = fx.algebroid, fx.connection
    assert A.loc
    corrections = record_calls(monkeypatch, connection_module, "_frame_contraction")
    check_admissible(A, conn)
    assert len(corrections) == 1
    torsion(A, conn, "modified")
    assert len(corrections) == 1


def test_another_connection_algebroid_or_budget_rebuilds(monkeypatch):
    fx = random_anticommutable(1, dim=1, rank=3)
    A, conn = fx.algebroid, fx.connection
    corrections = record_calls(monkeypatch, connection_module, "_frame_contraction")

    def built(B, conn2, budget=None):
        """Frame contractions built by a torsion call on (B, conn2) after
        one on (A, conn), under the given budget."""
        torsion(A, conn, "modified")
        before = len(corrections)
        old = set_term_budget(budget or get_term_budget())
        try:
            torsion(B, conn2, "modified")
        finally:
            set_term_budget(old)
        return len(corrections) - before

    assert built(A, conn) == 0
    assert built(A, Connection(A.rank, dict(conn.coeff))) == 1
    assert built(dataclasses.replace(A), conn) == 1
    assert built(A, conn, get_term_budget() + 1) == 1


def test_brackets_of_other_sections_stay_per_call():
    fx = random_anticommutable(1, dim=1, rank=3)
    A, conn = fx.algebroid, fx.connection
    store = GeometryContext(A, conn)._pair_store
    rng = random.Random(3)
    modified_bracket(A, conn, random_section(rng, A), random_section(rng, A))
    size = len(store)
    for _ in range(3):
        modified_bracket(A, conn, random_section(rng, A), random_section(rng, A))
    assert GeometryContext(A, conn)._pair_store is store
    assert len(store) == size


def test_an_edited_result_does_not_reach_the_next_call():
    fx = random_anticommutable(1, dim=1, rank=3)
    A, conn = fx.algebroid, fx.connection
    for call in (torsion, curvature, modified_anholonomy, locality_contraction):
        first = call(A, conn)
        want = dict(first)
        first[(0, 0, 0)] = A.one()
        assert call(A, conn) == want
    report = check_admissible(A, conn)
    assert report.passed
    report.residuals.append(((0, 0, 0), A.one()))
    assert check_admissible(A, conn).residuals == []


def test_an_edited_input_raises_and_never_meets_an_old_verdict():
    # the slot reuses a pair's values while A and conn are the same
    # objects, so their data cannot change in place
    A = make_example("courant_standard", n=1).algebroid
    coeff = {}
    conn = Connection(A.rank, coeff)
    metric = Metric([[A.one(), A.zero()], [A.zero(), A.one()]])
    assert check_admissible(A, conn).passed and not torsion(A, conn, "modified")
    edits = [
        lambda: operator.setitem(conn.coeff, (0, 0, 1), A.const(5)),
        lambda: conn.coeff.update({(0, 0, 1): A.const(5)}),
        lambda: operator.setitem(A.gamma, (0, 0, 0), A.one()),
        lambda: A.loc.clear(),
        lambda: operator.setitem(metric.g[0], 0, A.const(2)),
        lambda: operator.setitem(metric.g, 0, (A.zero(), A.one())),
    ]
    for edit in edits:
        with pytest.raises((TypeError, AttributeError)):
            edit()
    # the connection holds a copy of the dict it was built from, so a
    # verdict built afresh is the one the store kept
    coeff[(0, 0, 1)] = A.const(5)
    clear_slot()
    assert check_admissible(A, conn).passed and not torsion(A, conn, "modified")
    edited = Connection(A.rank, coeff)
    assert not check_admissible(A, edited).passed
    assert len(torsion(A, edited, "modified")) == 3


def test_a_lower_budget_is_not_met_from_the_store():
    fx = random_anticommutable(2, dim=1, rank=4)
    A, conn = fx.algebroid, fx.connection
    curvature(A, conn)
    old = set_term_budget(3)
    try:
        with pytest.raises(BudgetError):
            curvature(A, conn)
    finally:
        set_term_budget(old)


def test_a_d_of_a_form_on_a_fresh_context_builds_no_frame_section(monkeypatch):
    fx = random_anticommutable(1, dim=1, rank=3)
    A, conn = fx.algebroid, fx.connection
    frames = record_calls(monkeypatch, Section, "frame")
    rng = random.Random(1)
    form = EForm(1, A.rank, A.dim, {
        (a,): random_scalar(rng, A.dim, 2) for a in range(A.rank)
    })
    assert not e_exterior_derivative(A, conn, form, "modified").is_zero()
    assert frames == []


def test_equivalence_and_bracket_from_connection_keep_the_pair_slot():
    fx = random_anticommutable(1, dim=1, rank=3)
    A, conn = fx.algebroid, fx.connection
    other = Connection.of(A.rank, {(0, 1, 2): A.one(), (2, 2, 0): A.const(3)})
    check_admissible(A, conn)
    slot = connection_module._pair_slot
    check_equivalent_connections(A, conn, other)
    assert connection_module._pair_slot is slot
    bracket_from_connection(A, other)
    assert connection_module._pair_slot is slot


def suite_reports(A, conn, metric):
    """Every identity suite on one pair, each as comparable text."""
    names = A.coords

    def sparse(x):
        return sorted((idx, scalar_to_text(v, names)) for idx, v in x.items())

    def decomposition():
        lc, contortion, disformation, report = decompose_connection(A, conn, metric)
        return (sparse(lc.coeff), sparse(contortion), sparse(disformation),
                report.to_json_obj(names))

    checks = {
        "admissible": lambda: check_admissible(A, conn),
        "cartan": lambda: check_cartan_structure(A, conn),
        "bianchi-projected": lambda: check_bianchi_algebraic(A, conn, "projected"),
        "bianchi-general": lambda: check_bianchi_algebraic(A, conn, "general"),
        "bianchi-differential": lambda: check_bianchi_differential(A, conn),
        "ricci": lambda: check_ricci(A, conn, samples=2),
        "magic": lambda: check_magic_and_derivations(A, conn, samples=2),
        "square-laws": lambda: check_square_laws(A, conn, samples=2),
    }
    reports = {
        name: lambda check=check: check().to_json_obj(names) for name, check in checks.items()
    }
    reports.update({
        "torsion": lambda: sparse(torsion(A, conn, "modified")),
        "projected-torsion": lambda: sparse(torsion(A, conn, "projected")),
        "curvature": lambda: sparse(curvature(A, conn)),
        "decomposition": decomposition,
    })
    return reports


def test_identity_reports_do_not_depend_on_call_order():
    pairs = []
    for seed, twist in ((1, False), (104, True)):
        fx = random_anticommutable(seed, dim=1, rank=2 + seed % 2, twist=twist)
        metric = random_constant_metric(random.Random(seed), fx.algebroid.dim, fx.algebroid.rank)
        pairs.append(suite_reports(fx.algebroid, fx.connection, metric))
    calls = [(i, name) for i, reports in enumerate(pairs) for name in reports]
    forward = {call: pairs[call[0]][call[1]]() for call in calls}
    # the suites in reverse order, alternating between the two pairs
    interleaved = [(i, name) for name in reversed(pairs[0]) for i in (1, 0)]
    backward = {call: pairs[call[0]][call[1]]() for call in interleaved}
    cleared = {}
    for call in calls:
        clear_slot()
        cleared[call] = pairs[call[0]][call[1]]()
    assert forward == backward == cleared
