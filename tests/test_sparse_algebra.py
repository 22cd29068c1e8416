"""The sparse-array algebra of frame tensors (sums, transposes, symmetric
parts, index raising) and the formulas read with it, against copies of the
hand-written loops they replaced: every value must agree in ``num`` and
``den``, not only by ``equals``."""

import itertools
import random
from fractions import Fraction

import pytest

from algebroids import (
    Connection,
    Metric,
    Scalar,
    bracket_from_connection,
    check_admissible,
    check_anholonomy_decomposition,
    make_example,
    non_metricity,
    torsion,
)
from algebroids.connection import GeometryContext, locality_contraction
from algebroids.core import sparse_add, sparse_sub, symmetric_part, transposed
from algebroids.errors import ShapeError
from algebroids.fixtures import random_anticommutable, random_constant_metric, random_scalar
from algebroids.levicivita import decompose_connection, levicivita_frame, _koszul_rhs

from conftest import scal


def _same(x: Scalar, y: Scalar) -> bool:
    return x.num == y.num and x.den == y.den


def _same_sparse(x, y) -> bool:
    return set(x) == set(y) and all(_same(v, y[k]) for k, v in x.items())


def _same_residuals(got, want) -> bool:
    return [k for k, _ in got] == [k for k, _ in want] and all(
        _same(u, v) for (_, u), (_, v) in zip(got, want)
    )


# -- the helpers ---------------------------------------------------------------


def test_sparse_helpers_on_a_small_array():
    n = ("x1",)
    x = {(0, 0, 1): scal("x1", n), (0, 1, 0): scal("2", n), (1, 1, 1): scal("1", n)}
    y = {(0, 0, 1): scal("-x1", n), (1, 0, 0): scal("3", n)}
    assert list(sparse_add(x, y)) == [(0, 1, 0), (1, 1, 1), (1, 0, 0)]
    assert sparse_sub(x, x) == {}
    assert sparse_sub(y, x) == {
        (0, 0, 1): scal("-2*x1", n), (1, 0, 0): scal("3", n),
        (0, 1, 0): scal("-2", n), (1, 1, 1): scal("-1", n),
    }
    assert transposed(x) == {
        (0, 1, 0): scal("x1", n), (0, 0, 1): scal("2", n), (1, 1, 1): scal("1", n)
    }
    sym = symmetric_part(x)
    assert list(sym) == [(0, 0, 1), (1, 1, 1)]
    assert sym == {(0, 0, 1): scal("x1 + 2", n), (1, 1, 1): scal("2", n)}
    assert symmetric_part({(0, 0, 1): scal("x1", n), (0, 1, 0): scal("-x1", n)}) == {}


def test_raised_is_the_written_out_contraction():
    n = ("x1", "x2")
    g = Metric([[scal("1 + x1^2", n), scal("x2", n)], [scal("x2", n), scal("1/x1", n)]])
    rng = random.Random(7)
    x = {idx: random_scalar(rng, 2, 2) for idx in itertools.product(range(2), repeat=3)}
    x = {k: v for k, v in x.items() if not v.is_zero()}
    got = g.raised(x)
    assert list(got) == sorted(got)
    for a, b, c in itertools.product(range(2), repeat=3):
        want = sum(
            (g.inv_at(a, d) * x.get((b, c, d), Scalar.zero(2)) for d in range(2)),
            Scalar.zero(2),
        )
        assert got.get((a, b, c), Scalar.zero(2)).equals(want)


# -- copies of the loops the helpers replaced ----------------------------------


def _reference_admissibility(A, lc):
    out = {}
    r = A.rank
    for c in range(r):
        for a in range(r):
            for b in range(a, r):
                v = (
                    A.gamma_at(c, a, b)
                    + A.gamma_at(c, b, a)
                    - lc.get((c, a, b), A.zero())
                    - lc.get((c, b, a), A.zero())
                )
                if not v.is_zero():
                    out[(c, a, b)] = v
    return out


def _reference_torsion(A, conn, anhol):
    out = {}
    for a, b, c in itertools.product(range(A.rank), repeat=3):
        v = conn.at(a, b, c, A.dim) - conn.at(a, c, b, A.dim) - anhol.get(
            (a, b, c), A.zero()
        )
        if not v.is_zero():
            out[(a, b, c)] = v
    return out


def _reference_bracket_gamma(A, conn, amap):
    out = {}
    for c, a, b in itertools.product(range(A.rank), repeat=3):
        v = conn.at(c, a, b, A.dim) - conn.at(c, b, a, A.dim) + amap.get(
            (c, a, b), A.zero()
        )
        if not v.is_zero():
            out[(c, a, b)] = v
    return out


def _reference_levicivita_frame(A, anhol, metric):
    r = A.rank
    half = A.const(Fraction(1, 2))
    coeff = {}
    for b in range(r):
        for c in range(r):
            brackets = [_koszul_rhs(A, anhol, metric, b, c, d) for d in range(r)]
            for a in range(r):
                total = A.zero()
                for d in range(r):
                    if not brackets[d].is_zero():
                        total = total + metric.inv_at(a, d) * brackets[d]
                total = half * total
                if not total.is_zero():
                    coeff[(a, b, c)] = total
    return coeff


def _reference_decomposition(A, conn, metric, lc, tor):
    r = A.rank
    q = non_metricity(A, conn, metric)
    half = A.const(1) / A.const(2)
    contortion, disformation, residuals = {}, {}, {}
    for a, b, c in itertools.product(range(r), repeat=3):
        acc_t = A.zero()
        acc_q = A.zero()
        for d in range(r):
            gi = metric.inv_at(a, d)
            if gi.is_zero():
                continue
            qt = (
                -q.get((b, d, c), A.zero())
                + q.get((d, c, b), A.zero())
                - q.get((c, b, d), A.zero())
            )
            tt = A.zero()
            for e in range(r):
                t1 = tor.get((e, b, d))
                if t1 is not None:
                    tt = tt - metric.at(e, c) * t1
                t2 = tor.get((e, b, c))
                if t2 is not None:
                    tt = tt + metric.at(e, d) * t2
                t3 = tor.get((e, c, d))
                if t3 is not None:
                    tt = tt - metric.at(e, b) * t3
            if not qt.is_zero():
                acc_q = acc_q + gi * qt
            if not tt.is_zero():
                acc_t = acc_t + gi * tt
        acc_t = half * acc_t
        acc_q = half * acc_q
        if not acc_t.is_zero():
            contortion[(a, b, c)] = acc_t
        if not acc_q.is_zero():
            disformation[(a, b, c)] = acc_q
    for a, b, c in itertools.product(range(r), repeat=3):
        v = (
            conn.at(a, b, c, A.dim)
            - lc.get((a, b, c), A.zero())
            - contortion.get((a, b, c), A.zero())
            - disformation.get((a, b, c), A.zero())
        )
        if not v.is_zero():
            residuals[(a, b, c)] = v
    return contortion, disformation, residuals


def _reference_anholonomy_decomposition(A, anhol, lc):
    out = {}
    r = A.rank
    for a in range(r):
        for b in range(r):
            for c in range(r):
                rec = (
                    A.gamma_at(a, b, c)
                    - anhol.get((a, b, c), A.zero())
                    - lc.get((a, b, c), A.zero())
                )
                if not rec.is_zero():
                    out[("reconstruction", a, b, c)] = rec
            for c in range(b, r):
                anti = anhol.get((a, b, c), A.zero()) + anhol.get((a, c, b), A.zero())
                if not anti.is_zero():
                    out[("antisym-part", a, b, c)] = anti
                sym = lc.get((a, b, c), A.zero()) - lc.get((a, c, b), A.zero())
                if not sym.is_zero():
                    out[("sym-precondition", a, b, c)] = sym
    return out


def _reference_pairing_gamma(n, gamma_antisym, metric, anchor_algebroid, theta=None):
    r = metric.rank
    half = Scalar.constant(n, Fraction(1, 2))
    gamma = {k: v for k, v in gamma_antisym.items() if not v.is_zero()}
    for a in range(r):
        for b in range(r):
            gab = metric.at(a, b)
            for c in range(r):
                sym = Scalar.zero(n)
                for d in range(r):
                    gi = metric.inv_at(c, d)
                    if gi.is_zero():
                        continue
                    dg = anchor_algebroid.frame_derive(d, gab)
                    if theta is not None:
                        dg = dg + theta[d] * gab
                    sym = sym + gi * dg
                sym = half * sym
                if not sym.is_zero():
                    s = gamma.get((c, a, b))
                    gamma[(c, a, b)] = sym if s is None else s + sym
    return {k: v for k, v in gamma.items() if not v.is_zero()}


# -- the cases -------------------------------------------------------------------


def _random_rational(rng, nvars):
    """A nonzero linear polynomial over a nonzero linear polynomial."""
    num, den = Scalar.zero(nvars), Scalar.zero(nvars)
    while num.is_zero():
        num = random_scalar(rng, nvars, 1)
    while den.is_zero():
        den = random_scalar(rng, nvars, 1) + Scalar.one(nvars)
    return num / den


def _random_rational_connection(rng, A, density=0.3):
    coeff = {
        idx: _random_rational(rng, A.dim)
        for idx in itertools.product(range(A.rank), repeat=3)
        if rng.random() < density
    }
    return Connection.of(A.rank, coeff)


def _random_rational_metric(rng, nvars, rank, off_diagonal=0.5):
    while True:
        g = [[None] * rank for _ in range(rank)]
        for a in range(rank):
            for b in range(a, rank):
                v = _random_rational(rng, nvars) if a == b or rng.random() < off_diagonal else None
                g[a][b] = g[b][a] = v if v is not None else Scalar.zero(nvars)
        try:
            return Metric(g)
        except ShapeError:  # degenerate draw
            continue


def _connection_cases():
    """(name, algebroid, connection, metric or None) with the metric given
    only where the connection is admissible."""
    for seed in range(17):
        rank, dim = 2 + seed % 3, 1 + (seed // 3) % 2
        fx = random_anticommutable(seed, dim=dim, rank=rank, degree=2)
        yield f"criterion-2-{seed}", fx.algebroid, fx.connection, random_constant_metric(
            random.Random(seed), dim, rank
        )
    for seed in range(101, 108):
        dim, rank = 1 + (seed // 3) % 2, 2 + seed % 2
        fx = random_anticommutable(seed, dim=dim, rank=rank, twist=True)
        yield f"twisted-{seed}", fx.algebroid, fx.connection, random_constant_metric(
            random.Random(seed), dim, rank
        )
    rng = random.Random(2021)
    for n in (1, 2):
        A = make_example("courant_standard", n=n).algebroid
        for k in range(4):
            yield f"courant-{n}-{k}", A, _random_rational_connection(rng, A), None
    for k in range(3):
        A = make_example("tangent_lie", n=2).algebroid
        yield (
            f"tangent-{k}", A, _random_rational_connection(rng, A),
            _random_rational_metric(rng, 2, 2),
        )


def _compatible_connection(A, g, theta):
    """Gamma^e_da = (1/2) g^{ef} (rho_d(g_fa) + theta_d g_fa): compatible
    with the (scaled) metric, hence admissible on a pairing algebroid."""
    half = Scalar.constant(A.dim, Fraction(1, 2))
    coeff = {}
    for e, d, a in itertools.product(range(A.rank), repeat=3):
        acc = Scalar.zero(A.dim)
        for f in range(A.rank):
            dg = A.frame_derive(d, g.at(f, a))
            if theta is not None:
                dg = dg + theta[d] * g.at(f, a)
            acc = acc + g.inv_at(e, f) * dg
        coeff[(e, d, a)] = half * acc
    return Connection.of(A.rank, coeff)


def _pairing_cases():
    rng = random.Random(12)
    for k in range(4):
        # a diagonal metric: off-diagonal rational entries make the
        # decomposition's unreduced fractions grow to thousands of terms
        g = _random_rational_metric(rng, 2, 2, off_diagonal=0)
        antisym = {}
        if k % 2:
            v = random_scalar(rng, 2, 2)
            antisym = {(0, 0, 1): v, (0, 1, 0): -v}
        theta = None if k < 2 else tuple(_random_rational(rng, 2) for _ in range(2))
        kind = "metric_algebroid" if theta is None else "conformal_courant"
        extra = {} if theta is None else {"theta": theta}
        yield f"{kind}-{k}", kind, g, antisym, theta, extra


@pytest.mark.parametrize("case", list(_connection_cases()), ids=lambda c: c[0])
def test_connection_formulas_match_the_loops_they_replaced(case):
    _, A, conn, metric = case
    ctx = GeometryContext(A, conn)
    anhol, lc = ctx.anholonomy("modified"), ctx.contraction("modified")
    assert _same_residuals(
        check_admissible(A, conn).residuals,
        list(_reference_admissibility(A, lc).items()),
    )
    for kind in ("modified", "projected") if A.proj is not None else ("modified",):
        want = _reference_torsion(A, conn, ctx.anholonomy(kind))
        got = torsion(A, conn, kind)
        assert _same_sparse(got, want) and list(got) == list(want)
    amap = locality_contraction(A, conn)
    gamma = bracket_from_connection(A, conn).gamma
    want = _reference_bracket_gamma(A, conn, amap)
    assert _same_sparse(gamma, want) and list(gamma) == list(want)
    rep = check_anholonomy_decomposition(A, conn)
    assert _same_sparse(dict(rep.residuals), _reference_anholonomy_decomposition(A, anhol, lc))
    if metric is None:
        return
    lc_conn = levicivita_frame(A, anhol, metric)
    assert _same_sparse(lc_conn.coeff, _reference_levicivita_frame(A, anhol, metric))
    got_lc, contortion, disformation, report = decompose_connection(A, conn, metric)
    want_t, want_q, want_res = _reference_decomposition(
        A, conn, metric, lc_conn.coeff, ctx.torsion("modified")
    )
    assert _same_sparse(contortion, want_t) and list(contortion) == list(want_t)
    assert _same_sparse(disformation, want_q) and list(disformation) == list(want_q)
    assert _same_residuals(report.residuals, list(want_res.items()))


@pytest.mark.parametrize("case", list(_pairing_cases()), ids=lambda c: c[0])
def test_pairing_formulas_match_the_loops_they_replaced(case):
    _, kind, g, antisym, theta, extra = case
    A = make_example(kind, n=2, gamma_antisym=antisym, metric=g, **extra).algebroid
    assert _same_sparse(A.gamma, _reference_pairing_gamma(2, antisym, g, A, theta))
    conn = _compatible_connection(A, g, theta)
    ctx = GeometryContext(A, conn)
    assert ctx.admissibility().passed
    anhol = ctx.anholonomy("modified")
    assert _same_sparse(
        levicivita_frame(A, anhol, g).coeff, _reference_levicivita_frame(A, anhol, g)
    )
    lc, contortion, disformation, report = decompose_connection(A, conn, g)
    want_t, want_q, want_res = _reference_decomposition(
        A, conn, g, lc.coeff, ctx.torsion("modified")
    )
    assert _same_sparse(contortion, want_t)
    assert _same_sparse(disformation, want_q)
    assert _same_residuals(report.residuals, list(want_res.items()))
