"""The tensor builders that sum only stored terms print as the dense loops
they replaced, and hand no zero operand to an accumulator.

``GeometryContext._curvature``, ``non_metricity`` and ``calculus._bianchi``
open one keyed sum over a stream of the terms whose factors are stored;
the loops below open one sum for every dense index tuple.  Equal scalars
summed in another order can print differently, so each key's terms must
come in the loop's order: the builders are compared with the loops on
rational data, by key order, by the num and den of every entry and by
text."""

import itertools
import random
import sys

import pytest

import algebroids.calculus as calculus
from algebroids import (
    Connection,
    ETensor,
    Metric,
    Scalar,
    check_bianchi_algebraic,
    check_bianchi_differential,
    check_cartan_structure,
    check_magic_and_derivations,
    check_ricci,
    check_square_laws,
    non_metricity,
    scalar_to_text,
)
from algebroids.connection import GeometryContext, covariant_table
from algebroids.core import sparse_add
from algebroids.fixtures import random_anticommutable, random_constant_metric
from algebroids.scalars import Accumulator

from test_calculus import courant2_torsion_free
from test_connection import rational_projector
from test_linear_maps import rational, rational_connection, rational_pairing, twisted
from test_routed_sums import two_denominators

# -- the dense loops the keyed sums replaced ----------------------------------


def loop_curvature(A, conn, anhol):
    r = A.rank
    out = {}
    for a, b, c, d in itertools.product(range(r), repeat=4):
        acc = A.frame_derive(b, conn.at(a, c, d, A.dim))
        acc = acc - A.frame_derive(c, conn.at(a, b, d, A.dim))
        for e in range(r):
            g_cd = conn.coeff.get((e, c, d))
            if g_cd is not None and (t := conn.coeff.get((a, b, e))) is not None:
                acc = acc + g_cd * t
            g_bd = conn.coeff.get((e, b, d))
            if g_bd is not None and (t := conn.coeff.get((a, c, e))) is not None:
                acc = acc - g_bd * t
            an = anhol.get((e, b, c))
            if an is not None and (t := conn.coeff.get((a, e, d))) is not None:
                acc = acc - an * t
        if not acc.is_zero():
            out[(a, b, c, d)] = acc
    return out


def loop_non_metricity(A, conn, metric, theta=None):
    r = A.rank
    out = {}
    for a in range(r):
        for b in range(r):
            for c in range(b, r):
                acc = A.frame_derive(a, metric.at(b, c))
                if theta is not None:
                    acc = acc + theta[a] * metric.at(b, c)
                for d in range(r):
                    if (g1 := conn.coeff.get((d, a, b))) is not None:
                        acc = acc - g1 * metric.at(d, c)
                    if (g2 := conn.coeff.get((d, a, c))) is not None:
                        acc = acc - metric.at(b, d) * g2
                if not acc.is_zero():
                    out[(a, b, c)] = acc
                    if b != c:
                        out[(a, c, b)] = acc
    return out


def loop_bianchi(ctx, B, P):
    """Both algebraic Bianchi residuals, each cyclic term summed for every
    dense (u, v, w, [e',] a) by its own loop."""
    A, conn, frames = ctx.A, ctx.conn, ctx.frames
    r = A.rank
    zero = A.zero()
    curv = ctx.curvature()
    tor = ctx.torsion(B)
    nabla_t = covariant_table(A, conn, ETensor(1, 2, r, A.dim, tor))
    nabla_r = covariant_table(A, conn, ETensor(1, 3, r, A.dim, curv))
    inners, left = calculus._nested_brackets(ctx, B)
    right = {
        (b, c, d): ctx.bracket(frames[b], inners[(c, d)], B)
        for (b, c, d) in itertools.product(range(r), repeat=3)
    }
    complement, shifted = {}, {}
    if B is not P:
        pairs = list(itertools.product(range(r), repeat=2))
        for u, v in pairs:
            complement[(u, v)] = calculus._complement_locality(ctx, B, P, frames[u], frames[v])
        projected_inners, _ = calculus._nested_brackets(ctx, P)
        for (u, v), w in itertools.product(pairs, range(r)):
            shifted[(u, v, w)] = ctx.bracket(complement[(u, v)], frames[w], B).add(
                calculus._complement_locality(ctx, B, P, projected_inners[(u, v)], frames[w])
            )

    def first(u, v, w, a):
        rhs = nabla_t.get((u, a, v, w), zero)
        for e in range(r):
            if (t1 := tor.get((e, u, v))) is not None and (t2 := tor.get((a, e, w))) is not None:
                rhs = rhs + t1 * t2
        if complement:
            rhs = rhs - ctx.covariant(complement[(u, v)], frames[w]).comp[a]
        return rhs + right[(u, v, w)].comp[a]

    def second(u, v, w, e2, a):
        rhs = zero
        for f in range(r):
            if (t1 := tor.get((f, v, w))) is not None and (t2 := curv.get((a, u, f, e2))) is not None:
                rhs = rhs + t1 * t2
            if (g := conn.coeff.get((a, f, e2))) is not None:
                rhs = rhs + left[(u, v, w)].comp[f] * g
        if complement:
            for f, x in enumerate(complement[(v, w)].comp):
                if (t2 := curv.get((a, u, f, e2))) is not None:
                    rhs = rhs - x * t2
            rhs = rhs + ctx.covariant(shifted[(u, v, w)], frames[e2]).comp[a]
        return rhs

    residuals = {}
    for label, arity, lhs_term, rhs_term in (
        ("first", 4, lambda u, v, w, a: curv.get((a, u, v, w), zero), first),
        ("second", 5, lambda u, v, w, e2, a: nabla_r.get((u, a, v, w, e2), zero), second),
    ):
        found = {}
        for b, c, d in itertools.product(range(r), repeat=3):
            orbit = [(b, c, d), (c, d, b), (d, b, c)]
            if orbit[0] != min(orbit):
                continue
            for rest in itertools.product(range(r), repeat=arity - 3):
                lhs = rhs = zero
                for rot in orbit:
                    lhs = lhs + lhs_term(*rot, *rest)
                    rhs = rhs + rhs_term(*rot, *rest)
                if not (val := lhs - rhs).is_zero():
                    found.update((rot + rest, val) for rot in orbit)
        for key in sorted(found):
            residuals[(label, key[-1]) + key[:-1]] = found[key]
    return residuals


def assert_prints_as_the_loop(A, got, want):
    assert want
    assert list(got) == list(want)
    assert [(v.num, v.den) for v in got.values()] == [(v.num, v.den) for v in want.values()]
    assert [scalar_to_text(v, A.coords) for v in got.values()] == [
        scalar_to_text(v, A.coords) for v in want.values()
    ]


# -- rational data -------------------------------------------------------------


def rational_cases():
    """Dense connections and metrics over two denominators, so that equal
    denominators meet in one sum, on algebroids with a rational projector,
    so that the projected anholonomy is rational too."""
    for A in (rational_pairing(0), rational_projector(twisted(101)), rational_projector(twisted(104))):
        rng = random.Random(A.rank + len(A.gamma))
        conn = Connection.of(A.rank, {
            idx: two_denominators(rng, A.dim)
            for idx in itertools.product(range(A.rank), repeat=3) if rng.random() < 0.5
        })
        # g_ba is g_ab written over a longer denominator: equal, printed
        # differently, so a sum that reads g_ba for g_ab shows
        q = (Scalar.variable(A.dim, 0) + Scalar.constant(A.dim, 5)).num
        g = [[None] * A.rank for _ in range(A.rank)]
        for a, b in itertools.combinations_with_replacement(range(A.rank), 2):
            g[a][b] = two_denominators(rng, A.dim)
            g[b][a] = g[a][b] if a == b else Scalar(g[a][b].num * q, g[a][b].den * q)
        yield A, conn, Metric(g)


def rational_bianchi_cases():
    """(name, context, B, P): a rational connection on fixture 1, which is
    not admissible, and the Courant member with rational coefficients
    added, whose projected and modified algebroids differ (the general
    form)."""
    fx = random_anticommutable(1, dim=1, rank=3)
    A = fx.algebroid
    ctx = GeometryContext(A, rational_connection(random.Random(1), A))
    assert not ctx.admissibility().passed
    P = ctx.algebroid("projected")
    yield "fixture-1", ctx, P, P
    A, conn = courant2_torsion_free(3)
    rng = random.Random(3)
    extra = {(a, b, c): rational(rng, A.dim) for a, b, c in [(0, 1, 2), (2, 0, 0), (3, 3, 1)]}
    ctx = GeometryContext(A, Connection.of(A.rank, sparse_add(conn.coeff, extra)))
    M, P = ctx.algebroid("modified"), ctx.algebroid("projected")
    assert M is not P
    yield "courant-2-general", ctx, M, P


# -- the keyed sums against their loops ----------------------------------------


@pytest.mark.parametrize("case", list(rational_cases()))
def test_curvature_prints_as_its_loop(case):
    A, conn, _ = case
    ctx = GeometryContext(A, conn)
    want = loop_curvature(A, conn, ctx.algebroid("projected").gamma)
    assert_prints_as_the_loop(A, ctx.curvature(), want)


@pytest.mark.parametrize("case", list(rational_cases()))
@pytest.mark.parametrize("scaled", [False, True])
def test_non_metricity_prints_as_its_loop(case, scaled):
    A, conn, metric = case
    theta = [rational(random.Random(a), A.dim) for a in range(A.rank)] if scaled else None
    want = loop_non_metricity(A, conn, metric, theta)
    assert_prints_as_the_loop(A, non_metricity(A, conn, metric, theta), want)


@pytest.mark.parametrize("case", list(rational_bianchi_cases()), ids=lambda case: case[0])
def test_bianchi_residuals_print_as_their_loops(case):
    _, ctx, B, P = case
    want = loop_bianchi(ctx, B, P)
    assert {key[0] for key in want} == {"first", "second"}
    assert_prints_as_the_loop(ctx.A, calculus._bianchi(ctx, B, P), want)


# -- no zero operand -------------------------------------------------------------

# The builders that sum only stored terms; ``sparse_sum`` calls
# ``add_product`` on their behalf.
BUILDERS = {"_curvature", "non_metricity", "_bianchi", "_exterior_component", "mat_vec"}


def record_owners(monkeypatch) -> dict[str, set[str]]:
    """Record the function that summed each ``add_product`` call (the
    caller of ``sparse_sum`` for a keyed sum), under "zero" for the calls
    with a zero operand and under "all" for every call."""
    owners = {"zero": set(), "all": set()}
    original = Accumulator.add_product

    def recording(self, x, y, sign=1):
        frame = sys._getframe(1)
        while frame.f_code.co_name == "sparse_sum":
            frame = frame.f_back
        owners["all"].add(frame.f_code.co_name)
        if x.is_zero() or y.is_zero():
            owners["zero"].add(frame.f_code.co_name)
        return original(self, x, y, sign)

    monkeypatch.setattr(Accumulator, "add_product", recording)
    return owners


def suite_cases():
    fx = random_anticommutable(105, dim=2, rank=3, twist=True)
    yield "twisted-105", fx.algebroid, fx.connection, random_constant_metric(random.Random(105), 2, 3)
    A, conn = courant2_torsion_free(3)
    yield "courant-2", A, conn, Metric([[A.one() if a == b else A.zero() for b in range(4)] for a in range(4)])


@pytest.mark.parametrize("case", list(suite_cases()), ids=lambda case: case[0])
def test_the_builders_hand_no_zero_operand_to_an_accumulator(case, monkeypatch):
    _, A, conn, metric = case
    owners = record_owners(monkeypatch)
    for suite in (check_cartan_structure, check_bianchi_differential, check_square_laws):
        assert suite(A, conn).passed
    for form in ("projected", "general"):
        assert check_bianchi_algebraic(A, conn, form).passed
    for suite in (check_ricci, check_magic_and_derivations):
        assert suite(A, conn, 0, 2).passed
    non_metricity(A, conn, metric)
    non_metricity(A, conn, metric, [A.one()] * A.rank)
    assert BUILDERS <= owners["all"]  # each builder ran under the recording
    assert not owners["zero"] & BUILDERS, sorted(owners["zero"])
