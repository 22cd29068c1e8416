"""Seeded random fixtures for the property and acceptance suites.

The anti-commutable generator produces algebroids with a projection anchor
onto the first k slots, a locality operator whose output lies in the
anchor kernel slots, and a connection whose output into anchored slots is
symmetric.  The bracket is then defined through the connection, which
makes the connection admissible by construction, keeps the anchor a
bracket morphism, and lets the slot projector onto the kernel slots serve
as a locality projector.  An optional polynomial frame twist produces
non-constant anchors while preserving all of these properties.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .connection import Connection, Metric, bracket_from_connection, change_frame
from .core import (
    AlgebroidData,
    FrameChange,
    Section,
    SparseArray,
    _chart,
    _projection_anchor,
    _slot_projector,
)
from .linalg import mat_mul
from .scalars import Poly, Scalar, _layout, _primitive


def random_scalar(
    rng: random.Random, nvars: int, degree: int, terms: int = 2
) -> Scalar:
    """The sum of 1 to ``terms`` monomials of degree at most ``degree``
    with coefficients in -3..3, summed in one integer dict and made
    primitive once: the canonical Poly of summing them one by one."""
    pack = _layout(nvars).pack
    t: dict[int, int] = {}
    for _ in range(rng.randint(1, terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            if nvars:  # a dimension-0 scalar is a constant
                exps[rng.randrange(nvars)] += 1
        c = rng.randint(-3, 3)
        if c:
            key = pack(exps)
            if v := t.get(key, 0) + c:
                t[key] = v
            else:
                del t[key]
    return Scalar(_primitive(nvars, 1, 1, t) if t else Poly.zero(nvars))


def random_section(rng: random.Random, A: AlgebroidData, degree: int = 2) -> Section:
    return Section(
        tuple(random_scalar(rng, A.dim, degree) for _ in range(A.rank))
    )


def random_constant_metric(rng: random.Random, nvars: int, rank: int) -> Metric:
    """Diagonally dominant symmetric integer matrix, always invertible."""
    entries = [[0] * rank for _ in range(rank)]
    for a in range(rank):
        for b in range(a + 1, rank):
            entries[a][b] = entries[b][a] = rng.randint(-1, 1)
    for a in range(rank):
        entries[a][a] = rng.choice([-1, 1]) * (
            1 + sum(abs(entries[a][b]) for b in range(rank) if b != a)
        )
    g = [
        [Scalar.constant(nvars, entries[a][b]) for b in range(rank)]
        for a in range(rank)
    ]
    return Metric(g)


@dataclass(frozen=True)
class AnticommutableFixture:
    algebroid: AlgebroidData
    connection: Connection
    anchored_slots: int


def random_anticommutable(
    seed: int,
    dim: int = 2,
    rank: int = 3,
    anchored: int | None = None,
    degree: int = 2,
    density: float = 0.35,
    twist: bool = False,
) -> AnticommutableFixture:
    """A pre-Leibniz algebroid with locality projector together with an
    admissible connection for it, all entries polynomial of bounded degree."""
    rng = random.Random(seed)
    if anchored is None:
        anchored = min(dim, rank)
    k = anchored

    loc: SparseArray = {}
    for a in range(k, rank):  # output restricted to kernel slots
        for d in range(rank):
            for e in range(rank):
                for c in range(rank):
                    if rng.random() < density:
                        s = random_scalar(rng, dim, degree)
                        if not s.is_zero():
                            loc[(a, d, e, c)] = s

    coeff: SparseArray = {}
    for a in range(rank):
        for b in range(rank):
            start = b if a < k else 0
            for c in range(start, rank):
                if rng.random() < density:
                    s = random_scalar(rng, dim, degree)
                    if s.is_zero():
                        continue
                    coeff[(a, b, c)] = s
                    if a < k and c != b:
                        coeff[(a, c, b)] = s  # symmetric into anchored slots
    conn = Connection(rank, coeff)

    base = AlgebroidData(
        dim=dim, rank=rank, coords=_chart(dim), anchor=_projection_anchor(dim, rank, k),
        gamma={}, loc=loc, proj=_slot_projector(dim, rank, k),
    )
    A = bracket_from_connection(base, conn)
    if twist:
        F = random_frame_change(rng, A, degree=1)
        A, coeff2, _ = change_frame(A, F, conn.coeff)
        conn = Connection(rank, coeff2 or {})
    return AnticommutableFixture(algebroid=A, connection=conn, anchored_slots=k)


def random_frame_change(
    rng: random.Random, A: AlgebroidData, degree: int = 1
) -> FrameChange:
    """Unit lower-triangular times unit upper-triangular polynomial matrix:
    invertible by construction, with polynomial inverse."""
    r = A.rank
    one, zero = A.one(), A.zero()
    lower = [[one if i == j else zero for j in range(r)] for i in range(r)]
    upper = [[one if i == j else zero for j in range(r)] for i in range(r)]
    for i in range(r):
        for j in range(r):
            if i > j and rng.random() < 0.5:
                lower[i][j] = random_scalar(rng, A.dim, degree)
            if i < j and rng.random() < 0.5:
                upper[i][j] = random_scalar(rng, A.dim, degree)
    return FrameChange.of(mat_mul(lower, upper))


def random_almost_dull_not_almost_lie(
    seed: int, dim: int = 2, rank: int = 2, degree: int = 2
) -> AlgebroidData:
    """Vanishing locality operator with a bracket whose symmetric part is
    nonzero: no torsion-free connection can exist."""
    rng = random.Random(seed)
    k = min(dim, rank)
    gamma: SparseArray = {}
    # antisymmetric background noise
    for c in range(rank):
        for a in range(rank):
            for b in range(a + 1, rank):
                if rng.random() < 0.4:
                    s = random_scalar(rng, dim, degree)
                    if not s.is_zero():
                        gamma[(c, a, b)] = s
                        gamma[(c, b, a)] = -s
    # force a nonzero symmetric component into a kernel slot when possible
    c = rank - 1 if rank - 1 >= k else rng.randrange(rank)
    a = rng.randrange(rank)
    b = rng.randrange(rank)
    s = Scalar.constant(dim, rng.choice([1, 2, -1]))
    zero = Scalar.zero(dim)
    gamma[(c, a, b)] = gamma.get((c, a, b), zero) + s
    if a != b:
        gamma[(c, b, a)] = gamma.get((c, b, a), zero) + s
    return AlgebroidData(
        dim=dim, rank=rank, coords=_chart(dim), anchor=_projection_anchor(dim, rank, k),
        gamma=gamma, loc={}, proj=_slot_projector(dim, rank, k),
    )
