"""Exterior/Leibniz derivatives, the associator, and the identity suite."""

import itertools
import random
from fractions import Fraction

import pytest

from algebroids import (
    AdmissibilityError,
    AlgebroidData,
    Connection,
    EForm,
    ETensor,
    Scalar,
    Section,
    associator,
    bracket,
    bracket_from_connection,
    check_admissible,
    check_bianchi_algebraic,
    check_bianchi_differential,
    check_cartan_structure,
    check_magic_and_derivations,
    check_ricci,
    check_square_laws,
    coboundary,
    covariant_derivative,
    curvature,
    e_exterior_derivative,
    exterior_derivative_raw,
    interior_product,
    leibniz_derivative,
    make_example,
    solve_torsion_free,
    torsion,
    wedge,
)
from algebroids.calculus import (
    _bianchi,
    _nested_brackets,
    curvature_apply,
    second_covariant,
    seeded_sections,
)
import algebroids.calculus as calculus_module
import algebroids.connection as connection_module
from algebroids.connection import GeometryContext, covariant_table, modified_bracket
from algebroids.core import _locality_correction, project_section
from algebroids.fixtures import random_anticommutable, random_scalar, random_section

from conftest import frame_covariants, record_calls, scal


def halfplane_connection(tangent2):
    names = tangent2.coords
    return Connection.of(
        2,
        {
            (0, 0, 1): scal("-1/x2", names),
            (0, 1, 0): scal("-1/x2", names),
            (1, 0, 0): scal("1/x2", names),
            (1, 1, 1): scal("-1/x2", names),
        },
    )


def classical_d(A, omega: EForm) -> EForm:
    """Independent chart exterior derivative for the coordinate frame of
    the chart vector fields (anchor the identity, no structure functions)."""
    out = {}
    for idx in itertools.combinations(range(A.rank), omega.degree + 1):
        acc = A.zero()
        for pos in range(len(idx)):
            rest = idx[:pos] + idx[pos + 1 :]
            term = omega.at(rest).diff(idx[pos]) if omega.degree else omega.comp.get(
                (), A.zero()
            ).diff(idx[pos])
            if not term.is_zero():
                acc = acc + term if pos % 2 == 0 else acc - term
        if not acc.is_zero():
            out[idx] = acc
    return EForm(omega.degree + 1, A.rank, A.dim, out)


# -- exterior derivative -----------------------------------------------------


def test_degree_zero_is_coboundary(tangent2):
    names = tangent2.coords
    conn = halfplane_connection(tangent2)
    f = scal("x1^2*x2", names)
    for kind in ("modified", "projected"):
        d = e_exterior_derivative(tangent2, conn, f, kind)
        assert d.sub(coboundary(tangent2, f)).is_zero()


def test_matches_chart_exterior_derivative_all_degrees(tangent2):
    names = tangent2.coords
    conn = halfplane_connection(tangent2)
    rng = random.Random(0)
    for degree in (0, 1, 2):
        comp = {
            idx: random_scalar(rng, 2, 2)
            for idx in itertools.combinations(range(2), degree)
        }
        omega = EForm(degree, 2, 2, {k: v for k, v in comp.items() if not v.is_zero()})
        for kind in ("modified", "projected"):
            d = e_exterior_derivative(tangent2, conn, omega, kind)
            assert d.sub(classical_d(tangent2, omega)).is_zero()


def test_exterior_example_pattern(tangent2):
    names = tangent2.coords
    conn = halfplane_connection(tangent2)
    omega = EForm(1, 2, 2, {(0,): scal("x2", names)})
    d = e_exterior_derivative(tangent2, conn, omega, "modified")
    assert d.at((0, 1)).equals(scal("-1", names))


def test_refuses_non_admissible(courant2):
    A = courant2.algebroid
    names = A.coords
    bad = Connection.of(4, {(0, 0, 0): scal("1", names)})
    with pytest.raises(AdmissibilityError) as err:
        e_exterior_derivative(A, bad, EForm.coframe(A, 0), "modified")
    assert err.value.residuals


def test_raw_array_asymmetric_for_non_admissible(courant2):
    A = courant2.algebroid
    names = A.coords
    bad = Connection.of(4, {(0, 0, 0): scal("1", names)})
    zero = A.zero()
    asym = False
    for a in range(4):
        raw = exterior_derivative_raw(A, bad, EForm.coframe(A, a), "modified")
        asym = asym or any(
            not (raw.get((b, c), zero) + raw.get((c, b), zero)).is_zero()
            for b in range(4)
            for c in range(4)
        )
    assert asym


def test_projected_square_on_functions_vanishes():
    fx = random_anticommutable(31, dim=2, rank=3)
    A, conn = fx.algebroid, fx.connection
    rng = random.Random(1)
    for _ in range(3):
        f = random_scalar(rng, A.dim, 2)
        df = e_exterior_derivative(A, conn, f, "projected")
        assert e_exterior_derivative(A, conn, df, "projected").is_zero()


def test_projected_square_pairs_with_associator():
    # two independent paths: double derivative vs nested brackets
    fx = random_anticommutable(32, dim=2, rank=3)
    A, conn = fx.algebroid, fx.connection
    rng = random.Random(2)
    omega = EForm(
        1, A.rank, A.dim,
        {(a,): random_scalar(rng, A.dim, 2) for a in range(A.rank)},
    )
    dd = e_exterior_derivative(
        A, conn, e_exterior_derivative(A, conn, omega, "projected"), "projected"
    )
    u, v, w = (random_section(rng, A) for _ in range(3))
    lhs = dd.apply([u, v, w])
    assoc = associator(A, "projected", u, v, w, conn)
    rhs = -omega.apply([assoc])
    assert lhs.equals(rhs)


# -- Leibniz derivatives ------------------------------------------------------


def test_leibniz_on_scalars_all_kinds_agree():
    fx = random_anticommutable(33, dim=2, rank=3)
    A, conn = fx.algebroid, fx.connection
    rng = random.Random(3)
    v = random_section(rng, A)
    f = random_scalar(rng, A.dim, 2)
    want = A.section_derive(v, f)
    for kind in ("original", "modified", "projected"):
        assert leibniz_derivative(A, conn, v, f, kind).equals(want)


def test_leibniz_on_sections_is_the_bracket(courant2):
    A = courant2.algebroid
    rng = random.Random(4)
    u, v = random_section(rng, A), random_section(rng, A)
    out = leibniz_derivative(A, None, v, u, "original")
    assert out.sub(bracket(A, v, u)).is_zero()


def test_magic_formula_direct():
    fx = random_anticommutable(34, dim=2, rank=3)
    A, conn = fx.algebroid, fx.connection
    rng = random.Random(5)
    v = random_section(rng, A)
    omega = EForm(
        2, A.rank, A.dim,
        {idx: random_scalar(rng, A.dim, 2) for idx in itertools.combinations(range(3), 2)},
    )
    lie = leibniz_derivative(A, conn, v, omega, "modified")
    rhs = e_exterior_derivative(A, conn, interior_product(omega, v), "modified").add(
        interior_product(e_exterior_derivative(A, conn, omega, "modified"), v)
    )
    assert lie.sub(rhs).is_zero()


# -- associator ---------------------------------------------------------------


def test_associator_tangent_lie_vanishes(tangent2):
    rng = random.Random(6)
    u, v, w = (random_section(rng, tangent2) for _ in range(3))
    assert associator(tangent2, "original", u, v, w).is_zero()


def test_associator_dorfman_vanishes(courant2):
    A = courant2.algebroid
    rng = random.Random(7)
    u, v, w = (random_section(rng, A) for _ in range(3))
    assert associator(A, "original", u, v, w).is_zero()


def non_jacobi_constant_algebra(antisymmetric: bool = False):
    names = ("x1",)
    zero, one = Scalar.zero(1), Scalar.one(1)
    if antisymmetric:
        # [X1, X2] = X3, [X1, X3] = X1: antisymmetric but not Jacobi
        gamma = {
            (2, 0, 1): one,
            (2, 1, 0): -one,
            (0, 0, 2): one,
            (0, 2, 0): -one,
        }
    else:
        gamma = {
            (2, 0, 1): one,
            (0, 1, 2): one,
            (1, 2, 0): one,
            (0, 0, 0): one,
        }
    return AlgebroidData(
        dim=1, rank=3, coords=names,
        anchor=((zero, zero, zero),),
        gamma=gamma, loc={},
        proj=tuple(tuple(one if i == j else zero for j in range(3)) for i in range(3)),
    )


def test_associator_constant_structure_brute_force():
    A = non_jacobi_constant_algebra()
    frames = [Section.frame(A, a) for a in range(3)]

    def br(u_idx, v_idx):
        return [A.gamma_at(c, u_idx, v_idx) for c in range(3)]

    found_nonzero = False
    for (i, j, k) in itertools.product(range(3), repeat=3):
        got = associator(A, "original", frames[i], frames[j], frames[k])
        # brute-force triple sum over the constant structure algebra
        want = [A.zero() for _ in range(3)]
        for e in range(3):
            g = A.gamma_at(e, j, k)
            if not g.is_zero():
                for c in range(3):
                    want[c] = want[c] + g * A.gamma_at(c, i, e)
            g = A.gamma_at(e, i, j)
            if not g.is_zero():
                for c in range(3):
                    want[c] = want[c] - g * A.gamma_at(c, e, k)
            g = A.gamma_at(e, i, k)
            if not g.is_zero():
                for c in range(3):
                    want[c] = want[c] - g * A.gamma_at(c, j, e)
        for c in range(3):
            assert got.comp[c].equals(want[c])
            if not want[c].is_zero():
                found_nonzero = True
    assert found_nonzero


# -- structure equations and Bianchi ------------------------------------------


def test_cartan_structure_halfplane(tangent2):
    conn = halfplane_connection(tangent2)
    assert check_cartan_structure(tangent2, conn).passed


def test_cartan_structure_courant_compatible(courant2):
    assert check_cartan_structure(courant2.algebroid, Connection.zero(4)).passed


def test_cartan_refuses_non_admissible(courant2):
    A = courant2.algebroid
    bad = Connection.of(4, {(0, 0, 0): A.one()})
    with pytest.raises(AdmissibilityError):
        check_cartan_structure(A, bad)


def test_bianchi_algebraic_tangent_lie(tangent2):
    conn = halfplane_connection(tangent2)
    assert check_bianchi_algebraic(tangent2, conn, "projected").passed
    assert check_bianchi_algebraic(tangent2, conn, "general").passed


def test_bianchi_algebraic_courant(courant2):
    for form in ("projected", "general"):
        assert check_bianchi_algebraic(courant2.algebroid, Connection.zero(4), form).passed


def test_bianchi_algebraic_random_fixture():
    fx = random_anticommutable(35, dim=2, rank=3)
    for form in ("projected", "general"):
        assert check_bianchi_algebraic(fx.algebroid, fx.connection, form).passed


def test_bianchi_algebraic_notes_name_no_section_samples(tangent2):
    # both forms evaluate frame tuples only, whatever sample settings they get
    conn = halfplane_connection(tangent2)
    for form in ("projected", "general"):
        report = check_bianchi_algebraic(tangent2, conn, form, seed=11, samples=4)
        assert report.assumptions == ["evaluated on frame tuples"]


@pytest.mark.parametrize("kind", ["modified", "projected"])
def test_bianchi_fails_on_a_corrupted_curvature_entry(kind):
    fx = random_anticommutable(1, dim=1, rank=3)
    A = fx.algebroid
    ctx = GeometryContext(A, fx.connection)
    curv = dict(ctx.curvature())
    key = (0, 0, 1, 2)
    curv[key] = curv.get(key, A.zero()) + A.one()
    ctx._pair_store["curvature"] = curv
    residuals = _bianchi(ctx, ctx.algebroid(kind), ctx.algebroid("projected"))
    assert {at[0] for at in residuals} == {"first", "second"}
    assert all(not v.is_zero() for v in residuals.values())


@pytest.mark.parametrize("member", range(3))
def test_general_bianchi_passes_where_the_complement_is_nonzero(member):
    # C = [., .]^proj - [., .]^mod is nonzero on frames for every
    # torsion-free connection of the standard Courant algebroid of dimension 2
    A, conn = courant2_torsion_free(3 + member)
    assert check_admissible(A, conn).passed and not torsion(A, conn, "modified")
    ctx = GeometryContext(A, conn)
    assert ctx.algebroid("modified").gamma != ctx.algebroid("projected").gamma
    for form in ("projected", "general"):
        assert check_bianchi_algebraic(A, conn, form).passed


@pytest.mark.parametrize("member", range(3))
def test_ricci_holds_where_the_complement_is_nonzero(member):
    # the Ricci identity carries D_{C(u, v)} w; without it 72 to 80
    # residuals remain
    A, conn = courant2_torsion_free(3 + member)
    assert check_ricci(A, conn, samples=2).passed


def test_general_bianchi_fails_on_a_corrupted_curvature_entry_where_the_complement_is_nonzero():
    A, conn = courant2_torsion_free(3)
    ctx = GeometryContext(A, conn)
    curv = dict(ctx.curvature())
    key = (0, 0, 1, 2)
    curv[key] = curv.get(key, A.zero()) + A.one()
    ctx._pair_store["curvature"] = curv
    report = check_bianchi_algebraic(A, conn, "general")
    assert not report.passed
    assert {at[0] for at, _ in report.residuals} == {"first", "second"}


def test_bianchi_differential_cases(tangent2, courant2):
    assert check_bianchi_differential(tangent2, halfplane_connection(tangent2)).passed
    assert check_bianchi_differential(courant2.algebroid, Connection.zero(4)).passed


def test_bianchi_differential_twisted_lie():
    names = ("x1", "x2")
    bundle = make_example(
        "twisted_frame_lie",
        n=2,
        frame=[
            [Scalar.one(2), Scalar.zero(2)],
            [Scalar.zero(2), scal("x1", names)],
        ],
    )
    A = bundle.algebroid
    assert A.gamma  # twisted structure functions present
    conn = Connection.of(2, {(1, 0, 1): scal("1/x1", names)})
    assert check_bianchi_differential(A, conn).passed


# -- Ricci ---------------------------------------------------------------------


def test_ricci_tangent_lie_non_admissible_connection(tangent2):
    # the identity holds for any linear connection
    names = tangent2.coords
    conn = Connection.of(2, {(0, 0, 0): scal("x1*x2", names)})
    assert check_ricci(tangent2, conn, samples=2).passed


def test_ricci_courant_arbitrary_connection(courant2):
    A = courant2.algebroid
    names = A.coords
    conn = Connection.of(4, {(2, 1, 0): scal("x1", names), (0, 0, 0): scal("x2", names)})
    assert check_ricci(A, conn, samples=2).passed


def test_curvature_from_second_covariant_for_torsion_free():
    fx = random_anticommutable(36, dim=2, rank=2, degree=1, density=0.25)
    A = fx.algebroid
    space = solve_torsion_free(A)
    assert space.status in ("unique", "affine")
    weights = [Fraction(0)] * space.dim
    if weights:
        weights[0] = Fraction(1, 2)
    conn = space.member(weights)
    assert not torsion(A, conn, "modified")
    curv = curvature(A, conn)
    rng = random.Random(8)
    sections = [random_section(rng, A, degree=1) for _ in range(3)]
    frames = [Section.frame(A, a) for a in range(A.rank)]
    for (u, v, w) in [tuple(sections), (frames[0], frames[1], frames[0])]:
        lhs = curvature_apply(A, curv, u, v, w)
        rhs = second_covariant(A, conn, u, v, w).sub(second_covariant(A, conn, v, u, w))
        lsec = _locality_correction(A, frame_covariants(A, conn, u), v)
        lsec = lsec.sub(project_section(A, lsec))
        rhs = rhs.sub(covariant_derivative(A, conn, lsec, w))
        assert lhs.sub(rhs).is_zero()


# -- magic formulas and derivations ---------------------------------------------


def test_magic_tangent_lie_includes_conditional_pair(tangent2):
    conn = halfplane_connection(tangent2)
    report = check_magic_and_derivations(tangent2, conn, samples=2)
    assert report.passed
    assert not any("skipped" in a for a in report.assumptions)


def test_magic_courant(courant2):
    report = check_magic_and_derivations(courant2.algebroid, Connection.zero(4), samples=2)
    assert report.passed


def test_magic_non_jacobi_skips_conditional_pair():
    A = non_jacobi_constant_algebra(antisymmetric=True)
    conn = Connection.zero(3)  # admissible: zero locality, antisymmetric bracket
    frames = [Section.frame(A, a) for a in range(3)]
    assert not associator(A, "original", frames[0], frames[1], frames[2]).is_zero()
    report = check_magic_and_derivations(A, conn, samples=2)
    assert report.passed
    assert any("associator" in a and "skipped" in a for a in report.assumptions)


def test_square_laws_random_fixture():
    fx = random_anticommutable(37, dim=2, rank=3)
    assert check_square_laws(fx.algebroid, fx.connection, samples=2).passed


# -- the per-call geometry context ---------------------------------------------

GATED_SUITES = {
    "cartan": lambda A, conn: check_cartan_structure(A, conn),
    "bianchi-projected": lambda A, conn: check_bianchi_algebraic(A, conn, "projected"),
    "bianchi-general": lambda A, conn: check_bianchi_algebraic(A, conn, "general"),
    "bianchi-differential": lambda A, conn: check_bianchi_differential(A, conn),
    "magic": lambda A, conn: check_magic_and_derivations(A, conn, samples=2),
    "square-laws": lambda A, conn: check_square_laws(A, conn, samples=2),
}


def pushed_off(A, conn):
    """The connection with 1 added to the first coefficient, among those
    that meet the locality operator, that breaks admissibility."""
    for (c, d, e, b) in sorted(A.loc):
        for a in range(A.rank):
            coeff = dict(conn.coeff)
            coeff[(e, d, a)] = coeff.get((e, d, a), A.zero()) + A.one()
            bad = Connection.of(A.rank, coeff)
            if not check_admissible(A, bad).passed:
                return bad
    raise AssertionError("no perturbation leaves admissibility")


@pytest.mark.parametrize("suite", sorted(GATED_SUITES))
def test_gated_suite_checks_admissibility_once(suite, monkeypatch):
    fx = random_anticommutable(6, dim=1, rank=2)
    assert fx.algebroid.loc
    calls = []
    original = GeometryContext._admissibility

    # the builder of the context's admissibility report
    def counting(ctx):
        calls.append(ctx.conn)
        return original(ctx)

    monkeypatch.setattr(GeometryContext, "_admissibility", counting)
    GATED_SUITES[suite](fx.algebroid, fx.connection)
    assert calls == [fx.connection]


@pytest.mark.parametrize("suite", sorted(GATED_SUITES))
def test_gated_suite_refuses_a_connection_pushed_off_admissibility(suite):
    fx = random_anticommutable(6, dim=1, rank=2)
    A = fx.algebroid
    # nothing carries over from a call on the admissible connection
    GATED_SUITES[suite](A, fx.connection)
    with pytest.raises(AdmissibilityError) as err:
        GATED_SUITES[suite](A, pushed_off(A, fx.connection))
    assert err.value.residuals


@pytest.mark.parametrize("form", ["general", "projected"])
def test_bianchi_builds_each_bracket_algebroid_once(form, monkeypatch):
    fx = random_anticommutable(1, dim=1, rank=3)
    A = fx.algebroid
    assert A.loc
    GeometryContext(make_example("tangent_lie", n=1).algebroid, None)  # evict the pair
    built = record_calls(monkeypatch, GeometryContext, "_algebroid")
    tables = record_calls(monkeypatch, connection_module, "covariant_table")
    for _ in range(2):
        check_bianchi_algebraic(A, fx.connection, form)
    # the admissibility gate reads the modified algebroid, and the general
    # form reads its (1 - P) terms off the projected bracket
    assert sorted(kind for _, kind in built) == ["modified", "projected"]
    # no bracket builds a D table: the only covariant tables are those of
    # the torsion and the curvature, and the residuals are a value of the
    # pair, so the second call builds none
    assert [(t[2].q, t[2].s) for t in tables] == [(1, 2), (1, 3)]
    # P fixes the image of L, so both forms read one algebroid and the
    # other form builds no table either
    other = "projected" if form == "general" else "general"
    assert check_bianchi_algebraic(A, fx.connection, other).passed
    assert len(tables) == 2
    # where the kinds differ, each form builds its own tables, once
    A, conn = courant2_torsion_free(3)
    for f in (form, form, other):
        assert check_bianchi_algebraic(A, conn, f).passed
    assert [(t[2].q, t[2].s) for t in tables[2:]] == [(1, 2), (1, 3)] * 2


# -- each derivative once per call --------------------------------------------


def per_triple_bianchi(ctx, kind):
    """The algebraic Bianchi residuals summed triple by triple, each cyclic
    term evaluated again in every triple (b, c, d) whose rotations hold it.
    For the modified kind the locality terms of C(x, y) = [x, y]^proj -
    [x, y]^mod are written out from the public brackets: - D_{C(u, v)} w in
    the first identity, and - R(u, C(v, w)) e' + D_{[C(u, v), w]^mod +
    C([u, v]^proj, w)} e' in the second."""
    A, conn = ctx.A, ctx.conn
    r = A.rank
    B = ctx.algebroid(kind)
    residuals = {}
    curv = ctx.curvature()
    tor = ctx.torsion(B)
    nabla_t = covariant_table(A, conn, ETensor(1, 2, r, A.dim, tor))
    nabla_r = covariant_table(A, conn, ETensor(1, 3, r, A.dim, curv))
    inners, left = _nested_brackets(ctx, B)
    right = {
        (b, c, d): ctx.bracket(ctx.frames[b], inners[(c, d)], B)
        for (b, c, d) in itertools.product(range(r), repeat=3)
    }
    X = ctx.frames

    def brackets(x, y, k):
        return ctx.bracket(x, y, ctx.algebroid(k))

    def C(x, y):
        if kind == "projected":
            return Section.zero(A)
        return brackets(x, y, "projected").sub(brackets(x, y, "modified"))

    def first_local(u, v, w):
        return covariant_derivative(A, conn, C(X[u], X[v]), X[w]).comp

    def second_local(u, v, w, e2):
        shift = brackets(C(X[u], X[v]), X[w], "modified").add(
            C(brackets(X[u], X[v], "projected"), X[w])
        )
        along = covariant_derivative(A, conn, shift, X[e2])
        return along.sub(curvature_apply(A, curv, X[u], C(X[v], X[w]), X[e2])).comp

    def cyclic(b, c, d):
        return [(b, c, d), (c, d, b), (d, b, c)]

    for b, c, d, a in itertools.product(range(r), repeat=4):
        lhs = rhs = A.zero()
        for (u, v, w) in cyclic(b, c, d):
            lhs = lhs + curv.get((a, u, v, w), A.zero())
            rhs = rhs + nabla_t.get((u, a, v, w), A.zero())
            for e in range(r):
                if (e, u, v) in tor and (a, e, w) in tor:
                    rhs = rhs + tor[(e, u, v)] * tor[(a, e, w)]
            rhs = rhs - first_local(u, v, w)[a]
            rhs = rhs + right[(u, v, w)].comp[a]
        if not (lhs - rhs).is_zero():
            residuals[("first", a, b, c, d)] = lhs - rhs
    for b, c, d, e2, a in itertools.product(range(r), repeat=5):
        lhs = rhs = A.zero()
        for (u, v, w) in cyclic(b, c, d):
            lhs = lhs + nabla_r.get((u, a, v, w, e2), A.zero())
            for f in range(r):
                if (f, v, w) in tor and (a, u, f, e2) in curv:
                    rhs = rhs + tor[(f, v, w)] * curv[(a, u, f, e2)]
                if (a, f, e2) in conn.coeff:
                    rhs = rhs + left[(u, v, w)].comp[f] * conn.coeff[(a, f, e2)]
            rhs = rhs + second_local(u, v, w, e2)[a]
        if not (lhs - rhs).is_zero():
            residuals[("second", a, b, c, d, e2)] = lhs - rhs
    return residuals


def courant2_torsion_free(weights_seed: int):
    """A torsion-free member of the affine space of ``solve_torsion_free``
    on the standard Courant algebroid of dimension 2, with integer weights;
    admissible, and its complement C = [., .]^proj - [., .]^mod is nonzero
    on frames."""
    A = make_example("courant_standard", n=2).algebroid
    space = solve_torsion_free(A)
    rng = random.Random(weights_seed)
    return A, space.member([rng.randint(-3, 3) for _ in range(space.dim)])


@pytest.mark.parametrize("kind", ["modified", "projected"])
@pytest.mark.parametrize("seed, twist", [(1, False), (105, True)])
def test_bianchi_terms_read_once_match_the_per_triple_loop_on_failing_input(seed, twist, kind):
    fx = random_anticommutable(seed, dim=1 + twist, rank=3, twist=twist)
    A = fx.algebroid
    ctx = GeometryContext(A, pushed_off(A, fx.connection))
    assert not ctx.admissibility().passed
    B, P = ctx.algebroid(kind), ctx.algebroid("projected")
    got, want = _bianchi(ctx, B, P), per_triple_bianchi(ctx, kind)
    assert got and list(got) == list(want)
    assert all(got[key].equals(want[key]) for key in want)


@pytest.mark.parametrize("kind", ["modified", "projected"])
def test_bianchi_terms_read_once_match_the_per_triple_loop_where_the_complement_is_nonzero(kind):
    A, conn = courant2_torsion_free(3)
    ctx = GeometryContext(A, conn)
    M, P = ctx.algebroid("modified"), ctx.algebroid("projected")
    assert M.gamma != P.gamma
    # one coefficient off: the connection is no longer torsion-free, and the
    # curvature gains terms
    coeff = dict(conn.coeff)
    coeff[(0, 1, 2)] = coeff.get((0, 1, 2), A.zero()) + A.one()
    ctx = GeometryContext(A, Connection.of(A.rank, coeff))
    got = _bianchi(ctx, ctx.algebroid(kind), ctx.algebroid("projected"))
    want = per_triple_bianchi(ctx, kind)
    assert got and list(got) == list(want)
    assert all(got[key].equals(want[key]) for key in want)


def test_memoized_derivatives_of_the_magic_suite_are_fresh_values(monkeypatch):
    rng = random.Random(0)
    conn = Connection.of(2, {
        idx: random_scalar(rng, 1, 1)
        for idx in itertools.product(range(2), repeat=3) if rng.random() < 0.5
    })
    # conn is admissible for this algebroid, whose two kinds differ, so a
    # memo the derivatives read (the brackets and frame brackets, keyed by
    # the algebroid) that ignored the kind would be seen
    A = bracket_from_connection(make_example("courant_standard", n=1).algebroid, conn)
    ctx = GeometryContext(A, conn)
    assert ctx.algebroid("modified").gamma != ctx.algebroid("projected").gamma
    served = {"_leibniz": [], "_e_exterior": []}
    for name, calls in served.items():
        def recording(ctx, *args, original=getattr(calculus_module, name), calls=calls):
            value = original(ctx, *args)
            calls.append((args, value))
            return value

        monkeypatch.setattr(calculus_module, name, recording)
    check_magic_and_derivations(A, conn, 0, 2)
    monkeypatch.undo()
    # the kind of each algebroid the suite passed down, from the pair store
    # the suite left
    kind_of = {id(ctx.algebroid(k)): k for k in ("original", "modified", "projected")}
    fresh = {
        "_leibniz": lambda B, v, target: leibniz_derivative(A, conn, v, target, kind_of[id(B)]),
        "_e_exterior": lambda B, omega: e_exterior_derivative(A, conn, omega, kind_of[id(B)]),
    }
    for name, calls in served.items():
        # some (section, form, kind) is requested more than once
        assert len({tuple(map(id, args)) for args, _ in calls}) < len(calls)
        for args, value in calls:
            want = fresh[name](*args)
            assert (value.degree, set(value.comp)) == (want.degree, set(want.comp))
            assert all(value.comp[idx].equals(want.comp[idx]) for idx in want.comp)


@pytest.mark.parametrize("suite", [
    check_magic_and_derivations,
    check_cartan_structure,
    check_bianchi_differential,
    check_square_laws,
])
def test_each_anchor_jet_is_computed_at_most_once_per_call(suite, monkeypatch):
    # twisted fixture 105: the anchor is not constant, so jets have entries
    fx = random_anticommutable(105, dim=2, rank=3, twist=True)
    A = fx.algebroid
    # the recorded arguments hold each section and form, so ids stay unique
    jets = record_calls(monkeypatch, connection_module, "anchor_jet")
    assert suite(A, fx.connection).passed
    assert jets and any(x for _, x in jets)
    assert len({id(x) for _, x in jets}) == len(jets)
