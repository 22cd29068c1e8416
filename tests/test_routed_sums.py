"""The running sums routed through ``scalars.Accumulator`` and
``core.sparse_sum`` print as the loops they replaced.

The loops are kept below as references.  Equal scalars summed in another
order can print differently, so each routed sum must give the same text as
its loop, entry for entry and in the same order, on rational data where a
reordered sum would show (the ``rational_*`` helpers of
``test_linear_maps``).  The Cartan right-hand sides are read entry by
entry, so there the sums are compared entry by entry, and the report is
compared with a copy of the ``EForm.add`` chain version under a planted
``wedge`` fault that makes it fail."""

import dataclasses
import functools
import itertools
import json
import random

import pytest

import algebroids.calculus as calculus
from algebroids import (
    Connection,
    EForm,
    Metric,
    Scalar,
    change_frame,
    check_cartan_structure,
    decompose_connection,
    make_example,
    non_metricity,
    scalar_to_text,
    solve_torsion_free,
    torsion,
)
from algebroids.connection import GeometryContext
from algebroids.core import check_locality_projector, sparse_add
from algebroids.fixtures import random_anticommutable, random_scalar
from algebroids.levicivita import _half_raised, _koszul_rhs, _on_triples, koszul_residual, koszul_rows
from algebroids.linalg import mat_vec

from test_connection import rational_projector
from test_linear_maps import (
    rational_connection,
    rational_frame_change,
    rational_metric,
    rational_pairing,
    sparse_texts,
    texts,
    twisted,
)

# -- the loops the routed sums replaced ---------------------------------------


def loop_mat_vec(m, x, nvars):
    out = []
    for row in m:
        acc = Scalar.zero(nvars)
        for a, b in zip(row, x):
            if not a.is_zero() and not b.is_zero():
                acc = acc + a * b
        out.append(acc)
    return out


def loop_condition_1(A):
    residuals = {}
    for (aa, d, e, c), lv in A.loc.items():
        for a in range(A.rank):
            p = A.proj_at(a, aa)
            if p.is_zero():
                continue
            for i in range(A.dim):
                rho = A.anchor[i][a]
                if rho.is_zero():
                    continue
                key = ("rho_PL", i, d, e, c)
                acc = residuals.get(key, A.zero())
                residuals[key] = acc + rho * p * lv
    return {key: v for key, v in residuals.items() if not v.is_zero()}


def loop_koszul_rhs(A, gamma, metric, b, c, d):
    acc = (
        A.frame_derive(b, metric.at(c, d))
        + A.frame_derive(c, metric.at(b, d))
        - A.frame_derive(d, metric.at(b, c))
    )
    for e in range(A.rank):
        g1 = gamma.get((e, c, d))
        if g1 is not None:
            acc = acc - g1 * metric.at(e, b)
        g2 = gamma.get((e, b, d))
        if g2 is not None:
            acc = acc - g2 * metric.at(e, c)
        g3 = gamma.get((e, b, c))
        if g3 is not None:
            acc = acc + g3 * metric.at(e, d)
    return acc


def loop_koszul_residual(A, conn, metric):
    out = {}
    triples = list(itertools.product(range(A.rank), repeat=3))
    for row, (coeffs, _) in zip(triples, koszul_rows(A, metric)):
        acc = -loop_koszul_rhs(A, A.gamma, metric, *row)
        for k, v in coeffs.items():
            g = conn.coeff.get(triples[k])
            if g is not None:
                acc = acc + v * g
        if not acc.is_zero():
            out[row] = acc
    return out


def loop_decomposition_parts(A, conn, metric):
    """The contortion and disformation of ``decompose_connection``."""
    tor = torsion(A, conn, "modified")
    q = non_metricity(A, conn, metric)
    zero = A.zero()

    def torsion_term(b, c, d):
        acc = zero
        for e in range(A.rank):
            terms = ((-1, c, (e, b, d)), (1, d, (e, b, c)), (-1, b, (e, c, d)))
            for sign, f, key in terms:
                t = tor.get(key)
                if t is not None:
                    t = metric.at(e, f) * t
                    acc = acc + t if sign == 1 else acc - t
        return acc

    def nonmetricity_term(b, c, d):
        return -q.get((b, d, c), zero) + q.get((d, c, b), zero) - q.get((c, b, d), zero)

    return [_half_raised(A, metric, _on_triples(A, term))
            for term in (torsion_term, nonmetricity_term)]


def chain_sum(forms):
    return functools.reduce(EForm.add, forms)


def chain_cartan_structure(A, conn):
    """``check_cartan_structure`` with its right-hand sides built by one
    ``EForm.add`` per term form; ``wedge`` is read from ``calculus`` at
    call time, so a planted fault there reaches both versions."""
    ctx = GeometryContext(A, conn)
    calculus._require_admissible(ctx, "cartan-structure")
    M, P = ctx.algebroid("modified"), ctx.algebroid("projected")
    residuals = {}
    r = A.rank
    tor, tor_hat, curv = ctx.torsion(M), ctx.torsion(P), ctx.curvature()
    omegas = [[conn.omega(A, a, b) for b in range(r)] for a in range(r)]
    coframes = [EForm.coframe(A, a) for a in range(r)]
    for a in range(r):
        rhs = calculus._e_exterior(ctx, M, coframes[a])
        rhs_hat = calculus._e_exterior(ctx, P, coframes[a])
        for b in range(r):
            wb = calculus.wedge(omegas[a][b], coframes[b])
            rhs = rhs.add(wb)
            if P is not M:
                rhs_hat = rhs_hat.add(wb)
        for b in range(r):
            for c in range(b + 1, r):
                first = tor.get((a, b, c), A.zero()) - rhs.at((b, c))
                residuals[("first", a, b, c)] = first
                residuals[("first-projected", a, b, c)] = first if P is M else (
                    tor_hat.get((a, b, c), A.zero()) - rhs_hat.at((b, c))
                )
    for a in range(r):
        for b in range(r):
            rhs = calculus._e_exterior(ctx, P, omegas[a][b])
            for c in range(r):
                rhs = rhs.add(calculus.wedge(omegas[a][c], omegas[c][b]))
            for c in range(r):
                for d in range(c + 1, r):
                    residuals[("second", a, b, c, d)] = curv.get(
                        (a, c, d, b), A.zero()
                    ) - rhs.at((c, d))
    return calculus.report_from_residuals("cartan-structure", residuals)


# -- rational data -------------------------------------------------------------


def two_denominators(rng, nvars):
    """A random polynomial over x1 + 1 or x1 + 2: with so few denominators,
    equal ones meet, and a sum taken in another order prints differently."""
    x = Scalar.variable(nvars, 0)
    return random_scalar(rng, nvars, 1) / (x + Scalar.constant(nvars, rng.randint(1, 2)))


def with_torsion(seed):
    """An untwisted fixture's admissible connection plus rational entries
    Gamma^e_da at the (d, e) that L never reads, so that it stays
    admissible and gains torsion."""
    fx = random_anticommutable(seed, dim=2, rank=3)
    A = fx.algebroid
    read = {(d, e) for (_, d, e, _) in A.loc}
    rng = random.Random(seed)
    delta = {
        (e, d, a): two_denominators(rng, A.dim)
        for e, d, a in itertools.product(range(A.rank), repeat=3)
        if (d, e) not in read and rng.random() < 0.8
    }
    return A, Connection.of(A.rank, sparse_add(fx.connection.coeff, delta))


def torsion_free_member(n):
    A = make_example("courant_standard", n=n).algebroid
    space = solve_torsion_free(A)
    return A, space.member([k % 3 - 1 for k in range(space.dim)])


def admissible_rational_cases():
    """Admissible connections with rational entries: a torsion-free Courant
    member under a rational frame change, where the projected and modified
    brackets differ, and dense rational connections on a Lie algebroid
    under a rational frame change, where every connection is admissible."""
    A, conn = torsion_free_member(1)
    A2, coeff2, _ = change_frame(A, rational_frame_change(random.Random(5), A), conn.coeff)
    yield A2, Connection(A.rank, coeff2)
    for n in (2, 3):
        rng = random.Random(n)
        T = make_example("tangent_lie", n=n).algebroid
        T2, _, _ = change_frame(T, rational_frame_change(rng, T))
        yield T2, Connection.of(n, {
            idx: two_denominators(rng, n) for idx in itertools.product(range(n), repeat=3)
        })


# -- the routed sums against their loops ---------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mat_vec_prints_as_its_loop(seed):
    rng = random.Random(seed)
    nvars = 2

    def entry():
        return two_denominators(rng, nvars) if rng.random() < 0.8 else Scalar.zero(nvars)

    m = [[entry() for _ in range(4)] for _ in range(6)]
    x = [entry() for _ in range(4)]
    names = ["x1", "x2"]
    want = [scalar_to_text(v, names) for v in loop_mat_vec(m, x, nvars)]
    assert [scalar_to_text(v, names) for v in mat_vec(m, x, nvars)] == want


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_locality_condition_1_prints_as_its_loop(seed):
    for A in (rational_pairing(seed), rational_projector(twisted(101 + seed))):
        report = check_locality_projector(A)
        got = [(at, scalar_to_text(v, A.coords)) for at, v in report.residuals
               if at[0] == "rho_PL"]
        want = sparse_texts(A, loop_condition_1(A))
        assert want
        assert got == want


def koszul_cases():
    for seed in (0, 1):
        rng = random.Random(seed)
        A = rational_pairing(seed)
        yield A, rational_connection(rng, A), Metric(rational_metric(rng, 2, 3))
    for seed in (101, 104):
        rng = random.Random(seed)
        A = twisted(seed)
        yield A, rational_connection(rng, A), Metric(rational_metric(rng, 2, 3))


@pytest.mark.parametrize("case", list(koszul_cases()))
def test_koszul_sums_print_as_their_loops(case):
    A, conn, metric = case
    triples = list(itertools.product(range(A.rank), repeat=3))
    want = texts(A, [loop_koszul_rhs(A, A.gamma, metric, *t) for t in triples])
    assert texts(A, [_koszul_rhs(A, A.gamma, metric, *t) for t in triples]) == want
    want = sparse_texts(A, loop_koszul_residual(A, conn, metric))
    assert want
    assert sparse_texts(A, koszul_residual(A, conn, metric)) == want


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize("diagonal", [True, False])
def test_decomposition_parts_print_as_their_loops(seed, diagonal):
    A, conn = with_torsion(seed)
    g = rational_metric(random.Random(seed), A.dim, A.rank)
    if diagonal:
        g[0][1] = g[1][0] = A.zero()
        g[0][0] = g[0][0] + A.one()
    metric = Metric(g)
    _, contortion, disformation, report = decompose_connection(A, conn, metric)
    assert report.passed
    want_contortion, want_disformation = loop_decomposition_parts(A, conn, metric)
    assert want_contortion and want_disformation
    assert sparse_texts(A, contortion) == sparse_texts(A, want_contortion)
    assert sparse_texts(A, disformation) == sparse_texts(A, want_disformation)


def cartan_right_hand_sides(A, conn):
    """The term forms of each right-hand side of the Cartan structure
    equations, as ``check_cartan_structure`` sums them."""
    ctx = GeometryContext(A, conn)
    M, P = ctx.algebroid("modified"), ctx.algebroid("projected")
    r = A.rank
    omegas = [[conn.omega(A, a, b) for b in range(r)] for a in range(r)]
    coframes = [EForm.coframe(A, a) for a in range(r)]
    for a in range(r):
        wedges = [calculus.wedge(omegas[a][b], coframes[b]) for b in range(r)]
        for B in (M,) if P is M else (M, P):
            yield [calculus._e_exterior(ctx, B, coframes[a]), *wedges]
    for a, b in itertools.product(range(r), repeat=2):
        yield [calculus._e_exterior(ctx, P, omegas[a][b])] + [
            calculus.wedge(omegas[a][c], omegas[c][b]) for c in range(r)
        ]


@pytest.mark.parametrize("case", list(admissible_rational_cases()))
def test_cartan_right_hand_sides_print_as_their_chains(case):
    A, conn = case
    summed = 0
    for forms in cartan_right_hand_sides(A, conn):
        want = chain_sum(forms).comp
        got = calculus._form_sum(forms).comp
        assert sorted(sparse_texts(A, got)) == sorted(sparse_texts(A, want))
        summed += sum(len(form.comp) for form in forms) > len(want)
    assert summed
    report = check_cartan_structure(A, conn)
    assert report.passed
    assert report.to_json_obj(A.coords) == chain_cartan_structure(A, conn).to_json_obj(A.coords)


def doubling_alternate_entries(wedge):
    """``wedge`` with its entries at even positions doubled."""

    def faulty(a, b):
        w = wedge(a, b)
        comp = {idx: v + v if k % 2 == 0 else v for k, (idx, v) in enumerate(w.comp.items())}
        return dataclasses.replace(w, comp=comp)

    return faulty


@pytest.mark.parametrize("case", ["courant-2", "courant-1-rational"])
def test_cartan_report_under_a_wedge_fault_is_the_chain_report(case, monkeypatch):
    if case == "courant-2":
        A, conn = torsion_free_member(2)
    else:
        A, conn = next(admissible_rational_cases())
    monkeypatch.setattr(calculus, "wedge", doubling_alternate_entries(calculus.wedge))
    report = check_cartan_structure(A, conn)
    want = chain_cartan_structure(A, conn)
    assert not want.passed
    assert json.dumps(report.to_json_obj(A.coords)) == json.dumps(want.to_json_obj(A.coords))
