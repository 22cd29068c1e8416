"""Koszul and torsion-free solvers, decomposition, Levi-Civita predicates."""

import functools
import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from algebroids import (
    AdmissibilityError,
    AlgebroidData,
    Connection,
    FrameChange,
    Metric,
    Scalar,
    Poly,
    ShapeError,
    bracket_from_connection,
    change_frame,
    check_equivalent_connections,
    check_admissible,
    check_levicivita_props,
    curvature,
    decompose_connection,
    koszul_residual,
    locality_contraction,
    make_example,
    modified_anholonomy,
    non_metricity,
    solve_koszul,
    solve_torsion_free,
    torsion,
)
from algebroids.connection import locality_terms
from algebroids.core import sparse_add
from algebroids.fixtures import (
    random_almost_dull_not_almost_lie,
    random_anticommutable,
    random_constant_metric,
    random_scalar,
)
from algebroids.linalg import solve_affine

from conftest import scal


def polar_metric(tangent2):
    names = tangent2.coords
    return Metric(
        [[tangent2.one(), tangent2.zero()], [tangent2.zero(), scal("x1^2", names)]]
    )


# -- Koszul solver -----------------------------------------------------------


def test_koszul_polar_metric_exact(tangent2):
    names = tangent2.coords
    space = solve_koszul(tangent2, polar_metric(tangent2))
    assert space.status == "unique"
    got = space.particular.coeff
    assert set(got) == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}
    assert got[(0, 1, 1)].equals(scal("-x1", names))
    assert got[(1, 0, 1)].equals(scal("1/x1", names))
    assert got[(1, 1, 0)].equals(scal("1/x1", names))
    assert curvature(tangent2, space.particular) == {}
    assert space.denominator_loci(names) == ["x1"]


def test_koszul_constant_metric_unique_zero(tangent2):
    g = Metric([[tangent2.one(), tangent2.zero()], [tangent2.zero(), tangent2.one()]])
    space = solve_koszul(tangent2, g)
    assert space.status == "unique"
    assert space.particular.coeff == {}


def test_koszul_courant_solution_space(courant1):
    # the elimination oracle fixes the homogeneous rank: the lowered system
    # 3 G_bcd + G_cbd - G_dbc = 0 forces G = 0, so the space is a single
    # point here rather than a positive-dimensional family
    space = solve_koszul(courant1.algebroid, courant1.metric)
    assert space.status == "unique"
    assert space.particular.coeff == {}
    A = courant1.algebroid
    assert not torsion(A, space.particular, "modified")
    assert not non_metricity(A, space.particular, courant1.metric)


def test_koszul_members_on_random_fixture_respect_biconditional():
    # on arbitrary anti-commutable data a solution of the compatibility
    # system need not be admissible, and then it is not Levi-Civita; the
    # predicate biconditional must hold either way
    fx = random_anticommutable(41, dim=2, rank=3)
    A = fx.algebroid
    g = random_constant_metric(random.Random(41), A.dim, A.rank)
    space = solve_koszul(A, g)
    if space.status == "infeasible":
        pytest.skip("no Koszul connection for this fixture")
    members = [space.particular]
    rng = random.Random(5)
    for _ in range(2):
        members.append(
            space.member([Fraction(rng.randint(-2, 2), 3) for _ in range(space.dim)])
        )
    for m in members:
        assert koszul_residual(A, m, g) == {}
        assert check_levicivita_props(A, m, g, samples=1).passed
        if check_admissible(A, m).passed:
            assert not torsion(A, m, "modified")
            assert not non_metricity(A, m, g)


def test_koszul_backward_direction(tangent2):
    # torsion-free and metric-compatible implies zero residual
    g = polar_metric(tangent2)
    space = solve_koszul(tangent2, g)
    assert koszul_residual(tangent2, space.particular, g) == {}


# -- torsion-free solver -------------------------------------------------------


def test_torsion_free_tangent_lie_space(tangent2):
    space = solve_torsion_free(tangent2)
    assert space.status == "affine"
    # free parameters: one per output slot and unordered index pair
    assert space.dim == 2 * 3
    assert space.particular.coeff == {}


def test_torsion_free_infeasible_hand_case():
    names = ("x1", "x2")
    one = Scalar.one(2)
    zero = Scalar.zero(2)
    A = AlgebroidData(
        dim=2, rank=2, coords=names,
        anchor=((one, zero), (zero, one)),
        gamma={(0, 0, 1): one, (0, 1, 0): one},
        loc={},
    )
    space = solve_torsion_free(A)
    assert space.status == "infeasible"
    assert space.witness is not None and not space.witness.is_zero()


def test_torsion_free_members_admissible():
    fx = random_anticommutable(42, dim=2, rank=3)
    A = fx.algebroid
    space = solve_torsion_free(A)
    assert space.status in ("unique", "affine")
    members = [space.particular]
    if space.dim:
        w = [Fraction(0)] * space.dim
        w[0] = Fraction(1, 2)
        members.append(space.member(w))
    for m in members:
        assert not torsion(A, m, "modified")
        assert check_admissible(A, m).passed


def test_member_refuses_more_weights_than_kernel_vectors():
    # zip dropped the weights past dim, so [1, 0, 7, 9] gave the member of
    # [1, 0]; fewer weights than dim still mean zeros
    space = solve_torsion_free(make_example("courant_standard", n=1).algebroid)
    assert space.dim == 2
    assert space.member([1]).coeff == space.member([1, 0]).coeff
    with pytest.raises(ShapeError, match="4 weights for 2 kernel vectors"):
        space.member([1, 0, 7, 9])


def test_admissible_connection_without_a_torsion_free_one():
    """Not anti-commutable implies no torsion-free connection, but not the
    converse: this rank-2, dim-1 algebroid with zero anchor has an
    admissible connection and an infeasible torsion-free system."""
    c = lambda v: Scalar.constant(1, v)
    A = AlgebroidData(
        dim=1, rank=2, coords=("x1",),
        anchor=((c(0), c(0)),),
        gamma={(0, 1, 0): c(2), (1, 0, 0): c(1)},
        loc={(0, 1, 0, 1): c(2), (1, 0, 0, 0): c(2)},
    )
    conn = Connection(2, {(0, 0, 0): c(Fraction(1, 2)), (0, 1, 0): c(1)})
    assert check_admissible(A, conn).passed
    space = solve_torsion_free(A)
    assert space.status == "infeasible"
    assert space.witness == c(16)


# (seed, dim, rank, twist) of fixtures with a locality operator
WITH_LOCALITY = [(0, 1, 2, False), (1, 1, 3, False), (4, 2, 3, False),
                 (7, 1, 3, False), (102, 1, 2, True), (105, 2, 3, True)]


def contraction_by_formula(A, coeff):
    """C^c_ab = Gamma^e_da L^{c d}_{e b}, summed straight from A.loc."""
    out = {}
    for (c, d, e, b), lv in A.loc.items():
        for a in range(A.rank):
            g = coeff.get((e, d, a))
            if g is not None:
                out[(c, a, b)] = out.get((c, a, b), A.zero()) + g * lv
    return out


def kernel_of_contraction(A):
    """A basis of the kernel of Gamma -> C(Gamma): ``solve_affine`` on the
    ``locality_terms`` rows, each vector times the product of its distinct
    denominators, keyed (e, d, a)."""
    r = A.rank
    index = list(itertools.product(range(r), repeat=3))
    rows = []
    for terms in locality_terms(A).values():
        row = {}
        for idx, lv in terms:
            col = index.index(idx)
            row[col] = row.get(col, A.zero()) + lv
        rows.append((row, A.zero()))
    basis = []
    for vec in solve_affine(rows, r**3, A.dim).kernel_basis:
        dens = []
        for v in vec:
            if not v.den.is_one() and v.den not in dens:
                dens.append(v.den)
        clear = functools.reduce(operator.mul, dens, Poly.one(A.dim))
        basis.append({
            idx: Scalar(v.num * clear.divide_exact(v.den))
            for idx, v in zip(index, vec) if not v.is_zero()
        })
    return basis


def structure(x):
    return {idx: (v.num, v.den) for idx, v in x.items()}


@given(
    case=st.sampled_from(WITH_LOCALITY),
    weights=st.lists(st.integers(-3, 3), min_size=1, max_size=6),
    factor_seed=st.integers(0, 1000),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_anticommutability_is_a_property_of_the_equivalence_class(case, weights, factor_seed):
    """Gamma and Gamma + Delta, Delta in the kernel of C, have the same
    modified anholonomy and so the same admissibility verdict."""
    seed, dim, rank, twist = case
    fx = random_anticommutable(seed, dim=dim, rank=rank, twist=twist)
    A = fx.algebroid
    rng = random.Random(factor_seed)
    delta = {}
    for w, vec in zip(weights, kernel_of_contraction(A)):
        f = random_scalar(rng, A.dim, 1).scale(w)
        delta = sparse_add(delta, {idx: f * v for idx, v in vec.items()})
    assume(delta)
    assert all(v.is_zero() for v in contraction_by_formula(A, delta).values())
    first = next(iter(sorted(A.loc)))
    pushed = sparse_add(fx.connection.coeff, {(first[2], first[1], 0): A.one()})
    for coeff in (fx.connection.coeff, pushed):
        conn = Connection.of(A.rank, coeff)
        shifted = Connection.of(A.rank, sparse_add(coeff, delta))
        by_formula = contraction_by_formula(A, coeff)
        got = locality_contraction(A, conn)
        assert all(got.get(k, A.zero()).equals(v) for k, v in by_formula.items())
        assert all(k in by_formula for k in got)
        assert structure(modified_anholonomy(A, shifted)) == structure(
            modified_anholonomy(A, conn))
        assert check_admissible(A, shifted).passed == check_admissible(A, conn).passed
        assert check_equivalent_connections(A, conn, shifted).passed
    assert check_admissible(A, fx.connection).passed


def test_torsion_free_infeasible_on_generated_family():
    for seed in range(5):
        A = random_almost_dull_not_almost_lie(seed, dim=2, rank=3)
        assert solve_torsion_free(A).status == "infeasible"


# -- decomposition ---------------------------------------------------------


def test_decompose_levicivita_connection_is_its_own_part(tangent2):
    g = polar_metric(tangent2)
    conn = solve_koszul(tangent2, g).particular
    lc, contortion, disformation, report = decompose_connection(tangent2, conn, g)
    assert report.passed
    assert contortion == {} and disformation == {}
    for idx, v in conn.coeff.items():
        assert lc.at(*idx, tangent2.dim).equals(v)


def test_decompose_classical_split_oracle(tangent2):
    # transcription of the classical frame decomposition as the oracle
    names = tangent2.coords
    g = Metric([[tangent2.one(), tangent2.zero()], [tangent2.zero(), tangent2.one()]])
    conn = Connection.of(2, {(0, 1, 0): scal("x2", names)})
    lc, contortion, disformation, report = decompose_connection(tangent2, conn, g)
    assert report.passed
    assert lc.coeff == {}
    T = torsion(tangent2, conn, "modified")
    Q = non_metricity(tangent2, conn, g)
    half = Scalar.constant(2, Fraction(1, 2))
    zero = tangent2.zero()
    for a in range(2):
        for b in range(2):
            for c in range(2):
                want_t = zero
                want_q = zero
                for d in range(2):
                    gi = g.inv_at(a, d)
                    if gi.is_zero():
                        continue
                    qt = (
                        -Q.get((b, d, c), zero)
                        + Q.get((d, c, b), zero)
                        - Q.get((c, b, d), zero)
                    )
                    tt = zero
                    for e in range(2):
                        tt = tt - g.at(e, c) * T.get((e, b, d), zero)
                        tt = tt + g.at(e, d) * T.get((e, b, c), zero)
                        tt = tt - g.at(e, b) * T.get((e, c, d), zero)
                    want_q = want_q + gi * qt
                    want_t = want_t + gi * tt
                assert contortion.get((a, b, c), zero).equals(half * want_t)
                assert disformation.get((a, b, c), zero).equals(half * want_q)


def test_decompose_reconstruction_random_fixtures():
    for seed in (43, 44):
        fx = random_anticommutable(seed, dim=2, rank=3)
        A = fx.algebroid
        g = random_constant_metric(random.Random(seed), A.dim, A.rank)
        _, _, _, report = decompose_connection(A, fx.connection, g)
        assert report.passed


def test_decompose_requires_admissible(courant2):
    A = courant2.algebroid
    bad = Connection.of(4, {(0, 0, 0): A.one()})
    with pytest.raises(AdmissibilityError):
        decompose_connection(A, bad, courant2.metric)


# -- Levi-Civita predicates --------------------------------------------------


def test_levicivita_props_halfplane(tangent2):
    names = tangent2.coords
    g = Metric(
        [[scal("1/x2^2", names), tangent2.zero()], [tangent2.zero(), scal("1/x2^2", names)]]
    )
    conn = solve_koszul(tangent2, g).particular
    report = check_levicivita_props(tangent2, conn, g, samples=2)
    assert report.passed
    assert any("admissible=True" in a for a in report.assumptions)


def test_levicivita_props_torsional_connection_consistent(tangent2):
    names = tangent2.coords
    g = Metric([[tangent2.one(), tangent2.zero()], [tangent2.zero(), tangent2.one()]])
    conn = Connection.of(2, {(0, 1, 0): scal("x2", names)})
    report = check_levicivita_props(tangent2, conn, g, samples=2)
    assert report.passed  # biconditional consistent: both sides false
    assert any("torsion_free=False" in a for a in report.assumptions)
    assert any("koszul=False" in a for a in report.assumptions)


def test_levicivita_props_courant(courant1):
    conn = solve_koszul(courant1.algebroid, courant1.metric).particular
    report = check_levicivita_props(
        courant1.algebroid, conn, courant1.metric, samples=2
    )
    assert report.passed


def _rank_mismatches():
    """Calls on courant_standard n = 1, of rank 2, with a metric or a
    connection of another rank."""
    A = make_example("courant_standard", n=1).algebroid
    one, zero = A.one(), A.zero()
    rank1 = Metric([[one]])
    rank3 = Metric([[one if a == b else zero for b in range(3)] for a in range(3)])
    conn1 = Connection(1, {(0, 0, 0): one})
    conn3 = Connection(3, {(2, 2, 2): one, (0, 0, 1): one})
    identity = FrameChange.of([[one, zero], [zero, one]])
    return {
        "koszul-rank-1": lambda: solve_koszul(A, rank1),
        "koszul-rank-3": lambda: solve_koszul(A, rank3),
        "non-metricity": lambda: non_metricity(A, Connection.zero(2), rank3),
        "decompose": lambda: decompose_connection(A, Connection.zero(2), rank3),
        "levicivita-props": lambda: check_levicivita_props(A, Connection.zero(2), rank3),
        "curvature": lambda: curvature(A, conn3),
        "torsion": lambda: torsion(A, conn3, "modified"),
        "equivalence": lambda: check_equivalent_connections(A, conn1, Connection.zero(2)),
        "bracket-from-connection": lambda: bracket_from_connection(A, conn1),
        "change-frame": lambda: change_frame(A, identity, None, [list(row) for row in rank3.g]),
    }


@pytest.mark.parametrize("name", list(_rank_mismatches()))
def test_rank_mismatches_raise_shape_error(name):
    with pytest.raises(ShapeError):
        _rank_mismatches()[name]()
