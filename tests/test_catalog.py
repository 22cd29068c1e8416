"""Catalog constructors and the family-specific admissibility verdicts."""

import itertools
import random
from dataclasses import replace

import pytest

from algebroids import (
    Connection,
    Metric,
    Scalar,
    ShapeError,
    check_admissible,
    check_bianchi_algebraic,
    check_bianchi_differential,
    check_cartan_structure,
    check_magic_and_derivations,
    check_ricci,
    classify,
    curvature,
    make_example,
    non_metricity,
    scalar_to_text,
    specialized_admissibility,
)
from algebroids.catalog import (
    HigherMetricValue,
    check_conformal_compatibility,
    closed_3form_check,
    higher_compatibility_residual,
)
import algebroids.connection as connection_module
from algebroids.connection import locality_contraction
from algebroids.fixtures import random_scalar
from algebroids.linalg import solve_affine

from conftest import scal


def test_tangent_lie_flags():
    bundle = make_example("tangent_lie", n=2)
    flags = classify(bundle.algebroid)
    assert flags.almost_dull and flags.almost_lie and flags.pre_lie


def test_courant_standard_locality_entries(courant1):
    A = courant1.algebroid
    eta = courant1.metric
    # exactly the pairing contractions eta_ec eta^{ad}
    expected = {}
    for e in range(2):
        for c in range(2):
            for a in range(2):
                for d in range(2):
                    v = eta.at(e, c) * eta.inv_at(a, d)
                    if not v.is_zero():
                        expected[(a, d, e, c)] = v
    assert set(A.loc) == set(expected)
    assert len(A.loc) == 4
    for idx, v in expected.items():
        assert A.loc[idx].equals(v)
    assert classify(A).pre_leibniz


def test_h_twisted_structure_functions():
    names = ("x1", "x2", "x3")
    c = scal("5", names)
    bundle = make_example("courant_h_twisted", n=3, h={(0, 1, 2): c})
    A = bundle.algebroid
    # vector-vector brackets acquire the twist components on form slots
    assert A.gamma[(3 + 2, 0, 1)].equals(c)
    assert A.gamma[(3 + 2, 1, 0)].equals(-c)
    assert A.gamma[(3 + 1, 2, 0)].equals(c)
    assert A.gamma[(3 + 0, 1, 2)].equals(c)
    assert classify(A).pre_leibniz


def test_h_twisted_rejects_non_closed():
    names = ("x1", "x2", "x3", "x4")
    h = {
        (0, 1, 2): scal("x4", names),
    }
    with pytest.raises(ShapeError):
        make_example("courant_h_twisted", n=4, h=h)


def test_h_twisted_accepts_closed_in_four_dims():
    names = ("x1", "x2", "x3", "x4")
    h = {(0, 1, 2): scal("x1 + x2", names)}  # no x4 dependence: closed
    bundle = make_example("courant_h_twisted", n=4, h=h)
    assert bundle.algebroid.gamma


def test_higher_courant_shapes():
    bundle = make_example("higher_courant", n=3, p=2)
    A = bundle.algebroid
    assert A.rank == 3 + 3
    assert A.gamma == {}
    assert classify(A).pre_leibniz
    # locality output lands in form slots only
    assert all(idx[0] >= 3 for idx in A.loc)
    # wedge-type locality has vanishing anchor composition
    for (a, d, e, c), lv in A.loc.items():
        for i in range(3):
            assert (A.anchor[i][a] * lv).is_zero()


def test_higher_courant_reduces_to_pairing_at_p1(courant1):
    bundle = make_example("higher_courant", n=1, p=1)
    A = bundle.algebroid
    B = courant1.algebroid
    # vector-coframe slots agree with the pairing operator there
    for (a, d, e, c), lv in A.loc.items():
        assert d < 1  # only vector coframes
        assert B.loc[(a, d, e, c)].equals(lv)


def test_metric_algebroid_symmetric_part_and_admissibility():
    names = ("x1", "x2")
    g = Metric(
        [
            [scal("1 + x1^2", names), Scalar.zero(2)],
            [Scalar.zero(2), scal("1", names)],
        ]
    )
    bundle = make_example("metric_algebroid", n=2, gamma_antisym={}, metric=g)
    A = bundle.algebroid
    # symmetric part forced: gamma^c_(ab) = (1/2) g^{cd} rho_d(g_ab)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                want = Scalar.zero(2)
                for d in range(2):
                    want = want + g.inv_at(c, d) * A.frame_derive(d, g.at(a, b))
                sym = A.gamma_at(c, a, b) + A.gamma_at(c, b, a)
                assert sym.equals(want)
    # a metric-compatible connection is admissible by construction
    half = Scalar.constant(2, 1) / Scalar.constant(2, 2)
    coeff = {}
    for e in range(2):
        for d in range(2):
            for a in range(2):
                acc = Scalar.zero(2)
                for f in range(2):
                    acc = acc + g.inv_at(e, f) * A.frame_derive(d, g.at(f, a))
                acc = half * acc
                if not acc.is_zero():
                    coeff[(e, d, a)] = acc
    conn = Connection.of(2, coeff)
    assert not non_metricity(A, conn, g)
    assert check_admissible(A, conn).passed
    lc = locality_contraction(A, conn)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                sym_gamma = A.gamma_at(c, a, b) + A.gamma_at(c, b, a)
                sym_lc = lc.get((c, a, b), A.zero()) + lc.get((c, b, a), A.zero())
                assert sym_gamma.equals(sym_lc)


def conformal_fixture():
    names = ("x1", "x2")
    g = Metric(
        [
            [scal("1", names), Scalar.zero(2)],
            [Scalar.zero(2), scal("1 + x2^2", names)],
        ]
    )
    theta = (scal("x1", names), scal("2", names))
    return make_example(
        "conformal_courant", n=2, gamma_antisym={}, metric=g, theta=theta
    )


def test_conformal_courant_symmetric_part():
    bundle = conformal_fixture()
    A = bundle.algebroid
    g, theta = bundle.metric, bundle.theta
    for a in range(2):
        for b in range(2):
            for c in range(2):
                want = Scalar.zero(2)
                for d in range(2):
                    want = want + g.inv_at(c, d) * (
                        A.frame_derive(d, g.at(a, b)) + theta[d] * g.at(a, b)
                    )
                sym = A.gamma_at(c, a, b) + A.gamma_at(c, b, a)
                assert sym.equals(want)


def test_conformal_bracket_compatibility_reported_not_enforced():
    report = check_conformal_compatibility(conformal_fixture())
    assert report.identity == "conformal-bracket-compatibility"
    # verdict is computed; the constructor makes no promise about it
    assert isinstance(report.passed, bool)


# -- specialized admissibility ------------------------------------------------


def test_specialized_courant_zero_connection(courant1):
    report = specialized_admissibility(courant1, Connection.zero(2))
    assert report.passed
    assert "generic=True specific=True agree=True" in report.assumptions[-1]


def test_specialized_courant_incompatible_connection(courant2):
    A = courant2.algebroid
    conn = Connection.of(4, {(0, 0, 0): A.one()})
    report = specialized_admissibility(courant2, conn)
    assert report.passed  # verdicts agree: both False
    assert "generic=False specific=False" in report.assumptions[-1]


def test_specialized_higher_courant_zero_connection():
    bundle = make_example("higher_courant", n=3, p=2)
    report = specialized_admissibility(bundle, Connection.zero(6))
    assert report.passed


def test_specialized_higher_courant_random_agreement_n2_p2():
    bundle = make_example("higher_courant", n=2, p=2)
    A = bundle.algebroid
    rng = random.Random(11)
    for _ in range(10):
        coeff = {
            (a, b, c): random_scalar(rng, A.dim, 2)
            for a in range(A.rank)
            for b in range(A.rank)
            for c in range(A.rank)
        }
        report = specialized_admissibility(bundle, Connection.of(A.rank, coeff))
        assert report.passed


def test_specialized_conformal():
    bundle = conformal_fixture()
    A = bundle.algebroid
    g, theta = bundle.metric, bundle.theta
    # scale-compatible connection: Gamma^e_da = (1/2) g^{ef}(rho_d(g_fa) + theta_d g_fa)
    half = Scalar.constant(2, 1) / Scalar.constant(2, 2)
    coeff = {}
    for e in range(2):
        for d in range(2):
            for a in range(2):
                acc = Scalar.zero(2)
                for f in range(2):
                    acc = acc + g.inv_at(e, f) * (
                        A.frame_derive(d, g.at(f, a)) + theta[d] * g.at(f, a)
                    )
                acc = half * acc
                if not acc.is_zero():
                    coeff[(e, d, a)] = acc
    conn = Connection.of(2, coeff)
    report = specialized_admissibility(bundle, conn)
    assert report.passed
    assert "generic=True specific=True" in report.assumptions[-1]
    # and a random connection agrees on the negative side
    rng = random.Random(9)
    bad = Connection.of(2, {(0, 0, 0): random_scalar(rng, 2, 2)})
    report2 = specialized_admissibility(bundle, bad)
    assert report2.passed
    assert "agree=True" in report2.assumptions[-1]


def test_pairing_biconditional_exact_subspace(courant2):
    # the admissibility and compatibility conditions are the same linear
    # subspace of connection space for the scalar pairing families
    A = courant2.algebroid
    eta = courant2.metric
    r = A.rank
    zero = A.zero()

    def unk(a, b, c):
        return (a * r + b) * r + c

    rows_adm = []
    for c in range(r):
        for a in range(r):
            for b in range(a, r):
                coeffs = {}
                for (cc, d, e, arg), lv in A.loc.items():
                    if cc != c:
                        continue
                    if arg == b:
                        k = unk(e, d, a)
                        coeffs[k] = coeffs.get(k, zero) + lv
                    if arg == a:
                        k = unk(e, d, b)
                        coeffs[k] = coeffs.get(k, zero) + lv
                rows_adm.append((coeffs, zero))
    rows_q = []
    for a in range(r):
        for b in range(r):
            for c in range(b, r):
                coeffs = {}
                for d in range(r):
                    k = unk(d, a, b)
                    coeffs[k] = coeffs.get(k, zero) + eta.at(d, c)
                    k = unk(d, a, c)
                    coeffs[k] = coeffs.get(k, zero) + eta.at(b, d)
                rows_q.append((coeffs, zero))
    sol_adm = solve_affine(rows_adm, r**3, A.dim)
    sol_q = solve_affine(rows_q, r**3, A.dim)
    assert len(sol_adm.kernel_basis) == len(sol_q.kernel_basis)

    def residual_ok(vec, rows):
        for coeffs, rhs in rows:
            acc = zero
            for k, v in coeffs.items():
                if not vec[k].is_zero():
                    acc = acc + v * vec[k]
            if not acc.equals(rhs):
                return False
        return True

    assert all(residual_ok(v, rows_q) for v in sol_adm.kernel_basis)
    assert all(residual_ok(v, rows_adm) for v in sol_q.kernel_basis)


def test_higher_courant_compatibility_strictly_stronger():
    # documented caveat: at form degree 2 the compatibility kernel is a
    # proper subspace of the admissibility kernel, so the two verdicts can
    # genuinely disagree on engineered connections
    bundle = make_example("higher_courant", n=3, p=2)
    A = bundle.algebroid
    r = A.rank
    zero = A.zero()

    def unk(a, b, c):
        return (a * r + b) * r + c

    rows_adm = []
    for c in range(r):
        for a in range(r):
            for b in range(a, r):
                coeffs = {}
                for (cc, d, e, arg), lv in A.loc.items():
                    if cc != c:
                        continue
                    if arg == b:
                        k = unk(e, d, a)
                        coeffs[k] = coeffs.get(k, zero) + lv
                    if arg == a:
                        k = unk(e, d, b)
                        coeffs[k] = coeffs.get(k, zero) + lv
                rows_adm.append((coeffs, zero))
    sol_adm = solve_affine(rows_adm, r**3, A.dim)
    # some admissible direction violates the form-valued condition
    strictly_stronger = False
    for vec in sol_adm.kernel_basis:
        coeff = {}
        for a in range(r):
            for b in range(r):
                for c in range(r):
                    v = vec[unk(a, b, c)]
                    if not v.is_zero():
                        coeff[(a, b, c)] = v
        conn = Connection.of(r, coeff)
        assert check_admissible(A, conn).passed
        if higher_compatibility_residual(bundle, conn):
            strictly_stronger = True
    assert strictly_stronger


def test_courant_full_identity_suite(courant1):
    A = courant1.algebroid
    conn = Connection.zero(2)
    assert check_cartan_structure(A, conn).passed
    assert check_bianchi_algebraic(A, conn, "projected").passed
    assert check_bianchi_differential(A, conn).passed
    assert check_ricci(A, conn, samples=2).passed
    assert check_magic_and_derivations(A, conn, samples=2).passed


def theta_compatibility_reference(A, coeff, g, theta):
    """rho_a(g_bc) + theta_a g_bc - C^e_ab g_ec - C^e_ac g_be on every
    frame triple, written out independently of ``non_metricity``."""
    out = {}
    for a, b, c in itertools.product(range(A.rank), repeat=3):
        val = A.frame_derive(a, g.at(b, c)) + theta[a] * g.at(b, c)
        for e in range(A.rank):
            val = val - coeff.get((e, a, b), A.zero()) * g.at(e, c)
            val = val - coeff.get((e, a, c), A.zero()) * g.at(b, e)
        if not val.is_zero():
            out[(a, b, c)] = scalar_to_text(val, A.coords)
    return out


def test_conformal_reports_follow_the_theta_shifted_non_metricity():
    names = ("x1", "x2")
    zero = Scalar.zero(2)
    g = Metric([[scal("1", names), zero], [zero, scal("1 + x2^2", names)]])
    theta = (scal("x1", names), scal("2", names))
    bundle = make_example(
        "conformal_courant", n=2, gamma_antisym={(0, 0, 1): scal("x2", names)},
        metric=g, theta=theta,
    )
    A = bundle.algebroid
    conn = Connection.of(
        2, {(0, 0, 1): scal("x1*x2", names), (1, 1, 0): scal("3", names)}
    )
    report = specialized_admissibility(bundle, conn)
    got = {
        at[1:]: scalar_to_text(v, names)
        for at, v in report.residuals
        if at[0] == "scale-nonmetricity"
    }
    want = theta_compatibility_reference(A, conn.coeff, g, theta)
    assert want and got == want
    assert "specific=False" in report.assumptions[-1]

    report = check_conformal_compatibility(bundle)
    got = [(at, scalar_to_text(v, names)) for at, v in report.residuals]
    want = theta_compatibility_reference(A, A.gamma, g, theta)
    assert want and got == list(want.items())
    assert not report.passed


# -- chart forms against the index loops they replaced ------------------------
# Test-local copies of the catalog's former wedge, interior-product and
# chart-derivative loops.  The form algebra must give the same entries, in
# the same order and with the same printed text.


def _sort_with_sign_reference(idx):
    if len(set(idx)) != len(idx):
        return None
    order = sorted(range(len(idx)), key=lambda k: idx[k])
    sign = 1
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                sign = -sign
    return tuple(idx[k] for k in order), sign


def higher_courant_reference(n, p):
    """(pairing comp, loc) of the higher Courant entry by index loops."""
    forms = list(itertools.combinations(range(n), p))
    one = Scalar.one(n)
    comp = {}
    for i in range(n):
        for j, J in enumerate(forms):
            if i not in J:
                continue
            pos = J.index(i)
            val = one if pos % 2 == 0 else -one
            comp[(i, n + j, J[:pos] + J[pos + 1 :])] = val
            comp[(n + j, i, J[:pos] + J[pos + 1 :])] = val
    loc = {}
    form_index = {J: k for k, J in enumerate(forms)}
    for d in range(n):
        for (e, c, I), gval in comp.items():
            hit = _sort_with_sign_reference((d,) + I)
            if hit is None:
                continue
            K, sign = hit
            v = gval if sign == 1 else -gval
            key = (n + form_index[K], d, e, c)
            s = loc.get(key)
            loc[key] = v if s is None else s + v
    return comp, {k: v for k, v in loc.items() if not v.is_zero()}


def higher_residual_reference(bundle, conn):
    A, hm = bundle.algebroid, bundle.higher_metric
    n, r, p = A.dim, A.rank, hm.p
    out = {}
    lower = list(itertools.combinations(range(n), p - 1))
    for b in range(r):
        for c in range(r):
            dg = {}
            for I in itertools.combinations(range(n), p):
                acc = Scalar.zero(n)
                for pos in range(p):
                    v = hm.at(b, c, I[:pos] + I[pos + 1 :], n)
                    if not v.is_zero():
                        term = v.diff(I[pos])
                        if not term.is_zero():
                            acc = acc + term if pos % 2 == 0 else acc - term
                if not acc.is_zero():
                    dg[I] = acc
            for a in range(r):
                for I in lower:
                    lhs = Scalar.zero(n)
                    for i in range(n):
                        rho = A.anchor[i][a]
                        if rho.is_zero():
                            continue
                        hit = _sort_with_sign_reference((i,) + I)
                        if hit is None or hit[0] not in dg:
                            continue
                        t = rho * dg[hit[0]]
                        lhs = lhs + t if hit[1] == 1 else lhs - t
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
                        out[(a, b, c, I)] = val
    return out


def closed_3form_reference(n, h):
    def at(idx):
        hit = _sort_with_sign_reference(idx)
        v = h.get(hit[0]) if hit else None
        if v is None:
            return Scalar.zero(n)
        return v if hit[1] == 1 else -v

    residuals = {}
    for i, j, k, l in itertools.combinations(range(n), 4):
        acc = (
            at((j, k, l)).diff(i) - at((i, k, l)).diff(j)
            + at((i, j, l)).diff(k) - at((i, j, k)).diff(l)
        )
        if not acc.is_zero():
            residuals[(i, j, k, l)] = acc
    return residuals


def as_text(arr, names):
    return [(idx, scalar_to_text(v, names)) for idx, v in arr.items()]


def random_rational(rng, n):
    num = random_scalar(rng, n, 2, terms=3)
    if rng.random() < 0.5:
        return num
    return num / (random_scalar(rng, n, 1) + Scalar.constant(n, rng.randint(4, 6)))


@pytest.mark.parametrize("n, p", [(n, p) for n in range(1, 5) for p in range(1, n + 1)])
def test_higher_courant_entries_match_the_index_loops(n, p):
    bundle = make_example("higher_courant", n=n, p=p)
    names = bundle.algebroid.coords
    comp, loc = higher_courant_reference(n, p)
    assert as_text(bundle.higher_metric.comp, names) == as_text(comp, names)
    assert as_text(bundle.algebroid.loc, names) == as_text(loc, names)


@pytest.mark.parametrize("seed", range(8))
def test_higher_residual_matches_the_index_loops(seed):
    rng = random.Random(seed)
    n = 2 + seed % 2
    p = 1 + seed % n
    bundle = make_example("higher_courant", n=n, p=p)
    A = bundle.algebroid
    r = A.rank
    coeff = {
        (a, b, c): random_rational(rng, n)
        for a in range(r) for b in range(r) for c in range(r)
        if rng.random() < 0.3
    }
    conn = Connection.of(r, coeff)
    # a pairing with non-constant entries, so d g(X_b, X_c) is not zero
    hm = bundle.higher_metric
    varied = replace(bundle, higher_metric=HigherMetricValue(
        p, n, {k: v * random_rational(rng, n) for k, v in hm.comp.items()}
    ))
    for b in (bundle, varied):
        got = higher_compatibility_residual(b, conn)
        assert as_text(got, A.coords) == as_text(higher_residual_reference(b, conn), A.coords)


@pytest.mark.parametrize("seed", range(12))
def test_closed_3form_check_matches_the_alternating_sum(seed):
    rng = random.Random(seed)
    n = 3 + seed % 3
    names = tuple(f"x{i + 1}" for i in range(n))
    triples = list(itertools.combinations(range(n), 3))
    if seed % 2:
        # closed: H_ijk depends only on coordinates among i, j, k
        h = {
            t: sum((scal(f"{rng.randint(-3, 3)}*x{i + 1}^2", names) for i in t), Scalar.zero(n))
            for t in rng.sample(triples, k=min(3, len(triples)))
        }
    else:
        h = {t: random_rational(rng, n) for t in rng.sample(triples, k=min(3, len(triples)))}
    want = closed_3form_reference(n, h)
    rep = closed_3form_check(n, h)
    assert rep.passed == (not want)
    assert [(at, scalar_to_text(v, names)) for at, v in rep.residuals] == as_text(want, names)


def test_chart_exterior_derivatives_keep_the_pair_slot():
    # the chart d of the higher pairing and of a twist 3-form builds no
    # context, so the caller's pair keeps the slot and its values
    bundle = make_example("higher_courant", n=3, p=2)
    A, conn = bundle.algebroid, Connection.zero(bundle.algebroid.rank)
    curvature(A, conn)
    slot = connection_module._pair_slot
    assert slot[0] is A and slot[1] is conn
    specialized_admissibility(bundle, conn)
    assert connection_module._pair_slot is slot
    closed_3form_check(3, {(0, 1, 2): A.one()})
    assert connection_module._pair_slot is slot
