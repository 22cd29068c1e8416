"""Each linear map of the frame data has one implementation: matrix times
section (``linalg.mat_vec``), the metric pairing (``connection.pairing``)
and the locality contraction Gamma -> C(Gamma) (``connection.locality_terms``).

The loops these replaced are kept below as references.  Equal scalars
summed in another order can print differently, so each map must print the
same text as its loop, entry for entry and in the same order, on rational
data where a reordered sum would show."""

import ast
import dataclasses
import itertools
import random

import pytest

import algebroids.levicivita as levicivita_module
from algebroids import (
    Connection,
    FrameChange,
    Metric,
    Scalar,
    Section,
    ShapeError,
    bracket,
    bracket_from_connection,
    change_frame,
    check_equivalent_connections,
    covariant_derivative,
    difference_tensor,
    make_example,
    scalar_to_text,
    solve_torsion_free,
)
from algebroids.connection import _frame_contraction
from algebroids.core import (
    apply_locality,
    project_section,
    sparse_add,
    sparse_sub,
    symmetric_part,
    transposed,
)
from algebroids.fixtures import random_anticommutable, random_scalar, random_section
from algebroids.linalg import mat_mul, mat_vec

from conftest import SRC

# -- the loops the linear maps replaced ------------------------------------


def loop_anchor_of(A, u):
    return [
        sum((A.anchor[i][a] * u.comp[a] for a in range(A.rank)), A.zero())
        for i in range(A.dim)
    ]


def loop_project_section(A, u):
    out = []
    for a in range(A.rank):
        acc = A.zero()
        for b in range(A.rank):
            p = A.proj[a][b]
            if not p.is_zero() and not u.comp[b].is_zero():
                acc = acc + p * u.comp[b]
        out.append(acc)
    return out


def loop_read_back(A, F, u):
    out = []
    for row in F.inverse:
        acc = A.zero()
        for x, y in zip(row, u.comp):
            if not x.is_zero() and not y.is_zero():
                acc = acc + x * y
        out.append(acc)
    return out


def loop_mat_mul(a, b):
    nvars = a[0][0].nvars
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = Scalar.zero(nvars)
            for k, x in enumerate(row):
                if not x.is_zero() and not b[k][j].is_zero():
                    acc = acc + x * b[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def loop_frame_metric(A, F, metric):
    r = A.rank
    Amat = F.matrix
    metric2 = [[A.zero() for _ in range(r)] for _ in range(r)]
    for a in range(r):
        for b in range(r):
            acc = A.zero()
            for c in range(r):
                if Amat[c][a].is_zero():
                    continue
                for d in range(r):
                    t = Amat[c][a] * Amat[d][b]
                    if not t.is_zero():
                        acc = acc + t * metric[c][d]
            metric2[a][b] = acc
    return metric2


def loop_torsion_free_rows(A):
    r = A.rank
    one = A.one()

    def add(coeffs, a, b, c, value):
        if not value.is_zero():
            k = (a * r + b) * r + c
            s = coeffs.get(k)
            coeffs[k] = value if s is None else s + value

    rows = []
    for a, b, c in itertools.product(range(r), repeat=3):
        coeffs = {}
        add(coeffs, a, b, c, one)
        add(coeffs, a, c, b, -one)
        for (aa, d, e, cc), lv in A.loc.items():
            if aa == a and cc == c:
                add(coeffs, e, d, b, lv)
        rows.append((coeffs, A.gamma_at(a, b, c)))
    return rows


def loop_frame_contraction(A, conn):
    """The one pass over L, its terms grouped by the (d, e) of Gamma."""
    by_de = {}
    for (e, d, a), g in conn.coeff.items():
        if not g.is_zero():
            by_de.setdefault((d, e), []).append((a, g))
    acc = {}
    for (c, d, e, b), lv in A.loc.items():
        for a, g in by_de.get((d, e), ()):
            s = acc.get((c, a, b))
            acc[(c, a, b)] = g * lv if s is None else s + g * lv
    return {
        (c, a, b): acc[(c, a, b)]
        for a, b, c in sorted((a, b, c) for c, a, b in acc)
        if not acc[(c, a, b)].is_zero()
    }


# -- rational data -----------------------------------------------------------


def rational(rng, nvars):
    """A random polynomial over a random linear denominator."""
    x = Scalar.variable(nvars, rng.randrange(nvars))
    return random_scalar(rng, nvars, 1) / (x + Scalar.constant(nvars, rng.randint(1, 3)))


def rational_metric(rng, nvars, rank):
    """A symmetric rank x rank matrix, rational on and off the diagonal."""
    g = [[Scalar.zero(nvars) for _ in range(rank)] for _ in range(rank)]
    for a in range(rank):
        g[a][a] = rational(rng, nvars)
    g[0][1] = g[1][0] = Scalar.one(nvars) / (
        Scalar.variable(nvars, nvars - 1) + Scalar.constant(nvars, 4)
    )
    return g


def rational_pairing(seed):
    """The pairing algebroid of an off-diagonal rational metric of rank 3
    over two coordinates, with a rational (not a locality) projector."""
    rng = random.Random(seed)
    metric = Metric(rational_metric(rng, 2, 3))
    A = make_example("metric_algebroid", n=2, gamma_antisym={}, metric=metric).algebroid
    proj = tuple(tuple(rational(rng, 2) for _ in range(3)) for _ in range(3))
    return dataclasses.replace(A, proj=proj)


def rational_connection(rng, A):
    return Connection.of(A.rank, {
        idx: rational(rng, A.dim) for idx in itertools.product(range(A.rank), repeat=3)
        if rng.random() < 0.3
    })


def rational_frame_change(rng, A):
    """Unit lower triangular, with rational entries below the diagonal."""
    return FrameChange.of([
        [A.one() if i == j else rational(rng, A.dim) if i > j else A.zero()
         for j in range(A.rank)]
        for i in range(A.rank)
    ])


def twisted(seed):
    fx = random_anticommutable(seed, dim=2, rank=3, twist=True)
    return fx.algebroid


def texts(A, values):
    return [scalar_to_text(v, A.coords) for v in values]


def sparse_texts(A, x):
    return [(idx, scalar_to_text(v, A.coords)) for idx, v in x.items()]


def matrix_texts(A, m):
    return [texts(A, row) for row in m]


# -- matrix times section -----------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mat_vec_sites_print_as_their_loops(seed):
    rng = random.Random(seed)
    for A in (rational_pairing(seed), twisted(101 + seed)):
        rational_section = Section(tuple(rational(rng, A.dim) for _ in range(A.rank)))
        for u in (random_section(rng, A, 1), rational_section):
            assert texts(A, A.anchor_of(u)) == texts(A, loop_anchor_of(A, u))
            assert texts(A, project_section(A, u).comp) == texts(A, loop_project_section(A, u))
        a = [[rational(rng, A.dim) if rng.random() < 0.7 else A.zero() for _ in range(3)]
             for _ in range(2)]
        b = [[rational(rng, A.dim) if rng.random() < 0.7 else A.zero() for _ in range(4)]
             for _ in range(3)]
        assert matrix_texts(A, mat_mul(a, b)) == matrix_texts(A, loop_mat_mul(a, b))


def test_mat_vec_refuses_a_vector_of_another_length():
    A = make_example("courant_standard", n=1).algebroid
    one = A.one()
    for x in ([one], [one, one, one]):
        with pytest.raises(ShapeError):
            mat_vec([[one, one]], x, A.dim)
    for b in ([[one], [one], [one]], [[one, one], [one]]):
        with pytest.raises(ShapeError):
            mat_mul([[one, one]], b)
    short, long = Section((one,)), Section((one, one, one))
    for u in (short, long):
        with pytest.raises(ShapeError):
            A.anchor_of(u)
        with pytest.raises(ShapeError):
            project_section(A, u)


def frame_cases():
    """(A, F, conn, metric), with rational connections and metrics: twisted
    fixtures and a rational pairing algebroid under a polynomial frame, and
    the standard Courant algebroid under a rational frame."""
    polynomial = FrameChange.of([
        [Scalar.one(2), Scalar.zero(2), Scalar.zero(2)],
        [Scalar.variable(2, 0), Scalar.one(2), Scalar.zero(2)],
        [Scalar.constant(2, 2), Scalar.variable(2, 1), Scalar.one(2)],
    ])
    for seed, A in enumerate((twisted(101), twisted(104), rational_pairing(7))):
        rng = random.Random(seed)
        yield A, polynomial, rational_connection(rng, A).coeff, rational_metric(rng, 2, 3)
    A = make_example("courant_standard", n=1).algebroid
    rng = random.Random(5)
    F = rational_frame_change(rng, A)
    yield A, F, rational_connection(rng, A).coeff, rational_metric(rng, 1, 2)


@pytest.mark.parametrize("case", list(frame_cases()))
def test_change_frame_reads_back_and_pairs_as_its_loops(case):
    A, F, conn, metric = case
    A2, conn2, metric2 = change_frame(A, F, conn, metric)
    r = A.rank
    frames = [Section(tuple(col)) for col in zip(*F.matrix)]
    pairs = list(itertools.product(range(r), repeat=2))

    def sparse(entries):
        return dict(sorted(
            ((c,) + key, v)
            for key, u in entries
            for c, v in enumerate(loop_read_back(A, F, u))
            if not v.is_zero()
        ))

    anchor = list(zip(*(loop_anchor_of(A, x) for x in frames)))
    gamma = sparse(((a, b), bracket(A, frames[a], frames[b])) for a, b in pairs)
    loc = sparse(
        ((d, e, c), apply_locality(A, list(F.inverse[d]), frames[e], frames[c]))
        for d in range(r)
        for e, c in pairs
    )
    proj = list(zip(*(
        loop_read_back(A, F, Section(tuple(loop_project_section(A, x)))) for x in frames
    )))
    assert matrix_texts(A, A2.anchor) == matrix_texts(A, anchor)
    assert sparse_texts(A, A2.gamma) == sparse_texts(A, gamma)
    assert sparse_texts(A, A2.loc) == sparse_texts(A, loc)
    assert matrix_texts(A, A2.proj) == matrix_texts(A, proj)
    assert matrix_texts(A, metric2) == matrix_texts(A, loop_frame_metric(A, F, metric))
    if conn is not None:
        D = Connection(r, conn)
        want = sparse(
            ((b, c), covariant_derivative(A, D, frames[b], frames[c])) for b, c in pairs
        )
        assert sparse_texts(A, conn2) == sparse_texts(A, want)


# -- the locality contraction -------------------------------------------------


def torsion_free_cases():
    yield make_example("courant_standard", n=1).algebroid
    yield make_example("courant_standard", n=2).algebroid
    for seed in (1, 4, 16):
        yield random_anticommutable(seed, dim=2, rank=3).algebroid
    for seed in (101, 104, 105):
        yield twisted(seed)
    for seed in (0, 1, 2):
        yield rational_pairing(seed)


class Rows(Exception):
    pass


@pytest.mark.parametrize("A", list(torsion_free_cases()))
def test_torsion_free_rows_are_the_loops_rows(A, monkeypatch):
    def capture(rows, nunknowns, nvars):
        raise Rows(rows)

    monkeypatch.setattr(levicivita_module, "solve_affine", capture)
    with pytest.raises(Rows) as caught:
        solve_torsion_free(A)

    def row_texts(rows):
        return [(sparse_texts(A, coeffs), scalar_to_text(rhs, A.coords)) for coeffs, rhs in rows]

    assert row_texts(caught.value.args[0]) == row_texts(loop_torsion_free_rows(A))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_contraction_equivalence_and_bracket_print_as_the_one_pass_loop(seed):
    rng = random.Random(seed)
    for A in (rational_pairing(seed), twisted(101 + 2 * seed)):
        conn1, conn2 = rational_connection(rng, A), rational_connection(rng, A)
        want = loop_frame_contraction(A, conn1)
        assert want
        assert sparse_texts(A, _frame_contraction(A, conn1)) == sparse_texts(A, want)
        delta = Connection(A.rank, difference_tensor(conn1, conn2))
        report = check_equivalent_connections(A, conn1, conn2)
        want_residuals = symmetric_part(loop_frame_contraction(A, delta))
        assert [(idx, scalar_to_text(v, A.coords)) for idx, v in report.residuals] == \
            sparse_texts(A, want_residuals)
        skew = sparse_sub(conn1.coeff, transposed(conn1.coeff))
        want_gamma = dict(sorted(sparse_add(skew, want).items()))
        assert sparse_texts(A, bracket_from_connection(A, conn1).gamma) == \
            sparse_texts(A, want_gamma)


# -- the one locality loop per map ---------------------------------------------

# Where ``.loc.items()`` may be iterated: the bracket's locality term, the
# projector's condition 1 (kept: reading P L off another contraction
# reorders its sums), the contraction map, and the Koszul rows, whose
# locality terms are rewritten with their sign fix.
LOCALITY_LOOPS = {
    "core._locality_terms",
    "core.check_locality_projector",
    "connection.locality_terms",
    "levicivita.koszul_rows",
}


def locality_loop_sites(node, owner, sites):
    """Adds owner.function for each ``.loc.items()`` call under node, the
    function being the innermost one around the call."""
    for child in ast.iter_child_nodes(node):
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr == "items"
            and isinstance(child.func.value, ast.Attribute)
            and child.func.value.attr == "loc"
        ):
            sites.append(owner)
        inner = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{owner.split('.')[0]}.{child.name}"
        locality_loop_sites(child, inner, sites)
    return sites


def test_locality_is_iterated_only_by_the_listed_functions():
    sites = []
    for path in sorted((SRC / "algebroids").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        locality_loop_sites(tree, path.stem, sites)
    assert set(sites) == LOCALITY_LOOPS, sites
