"""The abstract's theorem on fixtures with a locality operator, in the one
direction the paper proves: a torsion-free connection is admissible.

Two properties, on ``random_anticommutable`` fixtures with L, twisted ones
included:

- every member of ``solve_torsion_free``, kernel directions included, is
  admissible, by the package's verdict and by a test-local computation that
  does not read ``locality_terms``: the symmetric part of gamma - C, C^c_ab
  being ``core._locality_correction`` of X_b with the table
  (d, e) -> Gamma^e_da;
- when the admissibility rows, sym(gamma - C(Gamma)) = 0 built from
  ``locality_terms``, are infeasible, the torsion-free system is infeasible
  too.  The fixtures' anholonomy is bumped at one entry, so that the rows
  are sometimes infeasible."""

import dataclasses
import functools
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids import Section, check_admissible, solve_torsion_free
from algebroids.connection import locality_terms
from algebroids.core import _locality_correction, sparse_add
from algebroids.fixtures import random_anticommutable
from algebroids.linalg import solve_affine

from test_levicivita import WITH_LOCALITY as FIXTURES


@functools.cache
def fixture(case):
    seed, dim, rank, twist = case
    return random_anticommutable(seed, dim=dim, rank=rank, twist=twist).algebroid


@functools.cache
def torsion_free_space(case):
    return solve_torsion_free(fixture(case))


def admissible_by_correction(A, conn) -> bool:
    """sym(gamma - C) = 0, with C^c_ab read off L(e^d, D_{X_d} X_a, X_b)."""
    r = A.rank
    frames = [Section.frame(A, b) for b in range(r)]
    C = {}
    for a in range(r):
        table = {(d, e): g for (e, d, aa), g in conn.coeff.items() if aa == a}
        for b in range(r):
            for c, v in enumerate(_locality_correction(A, table, frames[b]).comp):
                C[(c, a, b)] = v
    return all(
        (A.gamma_at(c, a, b) - C[(c, a, b)] + A.gamma_at(c, b, a) - C[(c, b, a)]).is_zero()
        for c, a, b in itertools.product(range(r), repeat=3)
        if a <= b
    )


def bumped(A, key, value):
    """A with value added to gamma at key."""
    return dataclasses.replace(A, gamma=sparse_add(A.gamma, {key: A.const(value)}))


def admissibility_rows(A):
    """C^c_ab + C^c_ba = gamma^c_ab + gamma^c_ba for each (c, a, b), a <= b,
    as affine rows in the unknowns Gamma^e_da, from ``locality_terms``."""
    r = A.rank
    terms = locality_terms(A)
    rows = []
    for c, a, b in itertools.product(range(r), repeat=3):
        if a > b:
            continue
        coeffs = {}
        for key in ((c, a, b), (c, b, a)):
            for (e, d, aa), lv in terms.get(key, ()):
                k = (e * r + d) * r + aa
                coeffs[k] = coeffs[k] + lv if k in coeffs else lv
        coeffs = {k: v for k, v in coeffs.items() if not v.is_zero()}
        rows.append((coeffs, A.gamma_at(c, a, b) + A.gamma_at(c, b, a)))
    return rows


@given(
    case=st.sampled_from(FIXTURES),
    weights=st.lists(st.integers(-3, 3), max_size=12),
)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_torsion_free_members_are_admissible(case, weights):
    A = fixture(case)
    space = torsion_free_space(case)
    assert space.status in ("unique", "affine")
    units = [[int(i == j) for j in range(space.dim)] for i in range(space.dim)]
    for w in [weights[: space.dim], *units]:
        member = space.member(w)
        assert check_admissible(A, member).passed
        assert admissible_by_correction(A, member)


@given(
    case=st.sampled_from(FIXTURES),
    at=st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    value=st.integers(-2, 2).filter(bool),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_infeasible_admissibility_rows_mean_no_torsion_free_connection(case, at, value):
    A = bumped(fixture(case), tuple(i % fixture(case).rank for i in at), value)
    rows = solve_affine(admissibility_rows(A), A.rank**3, A.dim)
    if rows.status == "infeasible":
        assert solve_torsion_free(A).status == "infeasible"


def test_the_admissibility_rows_are_sometimes_infeasible():
    """The second property is not vacuous on these fixtures."""
    statuses = set()
    for case in FIXTURES:
        A = fixture(case)
        for key in itertools.product(range(A.rank), repeat=3):
            rows = admissibility_rows(bumped(A, key, 1))
            statuses.add(solve_affine(rows, A.rank**3, A.dim).status)
    assert "infeasible" in statuses
