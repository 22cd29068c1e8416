"""Acceptance criteria.

Every tolerance is literal zero: a criterion passes only when the relevant
residuals are identically zero scalars.  Each test prints one pass/fail
line (run pytest with -s to watch them stream).
"""

import contextlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from algebroids import (
    AlgebroidData,
    Connection,
    Metric,
    associator,
    change_frame,
    check_admissible,
    check_bianchi_algebraic,
    check_bianchi_differential,
    check_cartan_structure,
    check_magic_and_derivations,
    check_ricci,
    curvature,
    decompose_connection,
    difference_tensor,
    dump_document,
    e_exterior_derivative,
    koszul_residual,
    make_example,
    non_metricity,
    solve_koszul,
    solve_torsion_free,
    specialized_admissibility,
    torsion,
)
from algebroids.calculus import check_square_laws
from algebroids.core import EForm, Section
from algebroids.documents import AlgebroidDocument
from algebroids.fixtures import (
    random_almost_dull_not_almost_lie,
    random_anticommutable,
    random_constant_metric,
    random_frame_change,
    random_scalar,
    random_section,
)

from conftest import scal, subprocess_env


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {label}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {label}")


def test_criterion_1_classical_recovery(tangent2):
    with criterion(1, "classical Christoffel symbols and curvature"):
        names = tangent2.coords
        t0 = time.time()
        g = Metric(
            [[tangent2.one(), tangent2.zero()], [tangent2.zero(), scal("x1^2", names)]]
        )
        space = solve_koszul(tangent2, g)
        assert space.status == "unique"
        got = space.particular.coeff
        assert set(got) == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}
        assert got[(0, 1, 1)].equals(scal("-x1", names))
        assert got[(1, 0, 1)].equals(scal("1/x1", names))
        assert got[(1, 1, 0)].equals(scal("1/x1", names))
        assert curvature(tangent2, space.particular) == {}
        elapsed_polar = time.time() - t0

        t0 = time.time()
        g2 = Metric(
            [
                [scal("1/x2^2", names), tangent2.zero()],
                [tangent2.zero(), scal("1/x2^2", names)],
            ]
        )
        space2 = solve_koszul(tangent2, g2)
        assert space2.status == "unique"
        R = curvature(tangent2, space2.particular)
        assert R[(0, 0, 1, 1)].equals(scal("-1/x2^2", names))
        elapsed_halfplane = time.time() - t0
        assert elapsed_polar < 1.0 and elapsed_halfplane < 1.0


def _fixture_suite(fx, metric):
    A, conn = fx.algebroid, fx.connection
    zero = A.zero()
    T = torsion(A, conn, "modified")
    for (a, b, c), v in T.items():
        assert v.equals(-(T.get((a, c, b), zero)))
    That = torsion(A, conn, "projected")
    for (a, b, c), v in That.items():
        assert v.equals(-(That.get((a, c, b), zero)))
    R = curvature(A, conn)
    for (a, b, c, d), v in R.items():
        assert v.equals(-(R.get((a, c, b, d), zero)))
    assert check_bianchi_algebraic(A, conn, "projected", samples=2).passed
    assert check_bianchi_algebraic(A, conn, "general").passed
    assert check_bianchi_differential(A, conn).passed
    assert check_ricci(A, conn, samples=2).passed
    assert check_cartan_structure(A, conn).passed
    _, _, _, rep = decompose_connection(A, conn, metric)
    assert rep.passed
    assert check_magic_and_derivations(A, conn, samples=2).passed


def test_criterion_2_identity_suite_on_fixtures():
    with criterion(2, "identity suite on 50 generated anti-commutable fixtures"):
        t0 = time.time()
        for seed in range(50):
            rank = 2 + seed % 3
            dim = 1 + (seed // 3) % 2
            fx = random_anticommutable(seed, dim=dim, rank=rank, degree=2)
            assert check_admissible(fx.algebroid, fx.connection).passed
            g = random_constant_metric(random.Random(seed), dim, rank)
            _fixture_suite(fx, g)
        elapsed = time.time() - t0
        assert elapsed < 60.0, f"batch took {elapsed:.1f}s"


def test_criterion_3_pairing_biconditional():
    with criterion(3, "admissibility is metric compatibility on pairing entries"):
        true_side = 0
        false_side = 0
        for n in (1, 2):
            bundle = make_example("courant_standard", n=n)
            A = bundle.algebroid
            eta = bundle.metric
            r = A.rank
            rng = random.Random(100 + n)
            for k in range(25):
                if k % 2 == 0:
                    # engineered compatible: lowered coefficients
                    # antisymmetric in the last two slots
                    coeff = {}
                    for d in range(r):
                        for a in range(r):
                            for b in range(a + 1, r):
                                s = random_scalar(rng, A.dim, 2)
                                if s.is_zero():
                                    continue
                                for e in range(r):
                                    if eta.inv_at(e, b).is_zero():
                                        continue
                                    coeff[(e, d, a)] = (
                                        coeff.get((e, d, a), A.zero())
                                        + eta.inv_at(e, b) * s
                                    )
                                for e in range(r):
                                    if eta.inv_at(e, a).is_zero():
                                        continue
                                    coeff[(e, d, b)] = (
                                        coeff.get((e, d, b), A.zero())
                                        - eta.inv_at(e, a) * s
                                    )
                    conn = Connection.of(r, coeff)
                else:
                    coeff = {
                        (
                            rng.randrange(r),
                            rng.randrange(r),
                            rng.randrange(r),
                        ): random_scalar(rng, A.dim, 2)
                        for _ in range(4)
                    }
                    conn = Connection.of(r, coeff)
                admissible = check_admissible(A, conn).passed
                compatible = not non_metricity(A, conn, eta)
                assert admissible == compatible
                if admissible:
                    true_side += 1
                else:
                    false_side += 1
        assert true_side >= 10 and false_side >= 10


def test_criterion_4_higher_pairing_agreement():
    with criterion(4, "form-valued compatibility agreement at (n, p) = (3, 2)"):
        from algebroids.catalog import higher_compatibility_residual
        from algebroids.linalg import solve_affine

        bundle = make_example("higher_courant", n=3, p=2)
        A = bundle.algebroid
        r = A.rank
        # the compatibility condition is linear in the connection with a
        # constant pairing; assemble it by probing unit connections and
        # solve for its kernel to obtain genuinely compatible samples
        rows: dict[tuple, dict[int, object]] = {}
        for a in range(r):
            for b in range(r):
                for c in range(r):
                    unit = Connection.of(r, {(a, b, c): A.one()})
                    col = (a * r + b) * r + c
                    for at, v in higher_compatibility_residual(bundle, unit).items():
                        rows.setdefault(at, {})[col] = v
        system = [(coeffs, A.zero()) for coeffs in rows.values()]
        sol = solve_affine(system, r**3, A.dim)
        assert sol.kernel_basis
        rng = random.Random(200)
        for k in range(20):
            if k < 8:
                weights = [Fraction(rng.randint(-2, 2)) for _ in sol.kernel_basis]
                coeff = {}
                for wgt, vec in zip(weights, sol.kernel_basis):
                    if not wgt:
                        continue
                    for col, v in enumerate(vec):
                        if v.is_zero():
                            continue
                        idx = (col // (r * r), (col // r) % r, col % r)
                        coeff[idx] = coeff.get(idx, A.zero()) + v.scale(wgt)
                conn = Connection.of(r, coeff)
                expected = True
            else:
                # dense generic draw: every slot randomized, so the sample
                # avoids the thin coordinate subspaces where anti-
                # commutability can hold without the pairing condition
                coeff = {
                    (a, b, c): random_scalar(rng, A.dim, 2)
                    for a in range(r)
                    for b in range(r)
                    for c in range(r)
                }
                conn = Connection.of(r, coeff)
                expected = None
            report = specialized_admissibility(bundle, conn)
            assert report.passed, (k, report.assumptions)
            if expected is True:
                assert "generic=True specific=True" in report.assumptions[-1]


def test_criterion_5_no_torsion_free_theorem():
    with criterion(5, "torsion-free solvability certificates"):
        for seed in range(20):
            A = random_almost_dull_not_almost_lie(seed, dim=2, rank=2 + seed % 3)
            space = solve_torsion_free(A)
            assert space.status == "infeasible"
            assert space.witness is not None
        for seed in range(20):
            rank = [2, 3, 4][seed % 3]
            dim = 1 if rank == 4 else 1 + seed % 2
            fx = random_anticommutable(
                300 + seed, dim=dim, rank=rank, degree=2,
                density=0.12 if rank == 4 else 0.3,
            )
            A = fx.algebroid
            space = solve_torsion_free(A)
            assert space.status in ("unique", "affine")
            members = [space.particular]
            if space.dim:
                w = [Fraction(0)] * space.dim
                w[seed % space.dim] = Fraction(1, 2)
                members.append(space.member(w))
            for m in members:
                assert not torsion(A, m, "modified")
                assert check_admissible(A, m).passed


def test_criterion_6_koszul_biconditional(tangent2, courant1):
    with criterion(6, "Koszul solutions are exactly the compatible torsion-free ones"):
        names = tangent2.coords
        cases = []
        g_polar = Metric(
            [[tangent2.one(), tangent2.zero()], [tangent2.zero(), scal("x1^2", names)]]
        )
        cases.append((tangent2, g_polar))
        g_flat = Metric(
            [[tangent2.one(), tangent2.zero()], [tangent2.zero(), tangent2.one()]]
        )
        cases.append((tangent2, g_flat))
        cases.append((courant1.algebroid, courant1.metric))
        b2 = make_example("courant_standard", n=2)
        cases.append((b2.algebroid, b2.metric))
        rng = random.Random(42)
        for A, g in cases:
            space = solve_koszul(A, g)
            assert space.status in ("unique", "affine")
            members = [space.particular]
            for k in range(space.dim):
                w = [Fraction(0)] * space.dim
                w[k] = Fraction(1)
                members.append(space.member(w))
            for _ in range(3):
                members.append(
                    space.member(
                        [Fraction(rng.randint(-2, 2), 3) for _ in range(space.dim)]
                    )
                )
            for m in members:
                assert not torsion(A, m, "modified")
                assert not non_metricity(A, m, g)
                # backward direction: zero residual in the defining system
                assert koszul_residual(A, m, g) == {}


def test_criterion_7_square_laws(tangent2, courant1):
    with criterion(7, "projected square laws and associator pairing"):
        fixtures = [
            (tangent2, Connection.of(
                2,
                {
                    (0, 0, 1): scal("-1/x2", tangent2.coords),
                    (0, 1, 0): scal("-1/x2", tangent2.coords),
                    (1, 0, 0): scal("1/x2", tangent2.coords),
                    (1, 1, 1): scal("-1/x2", tangent2.coords),
                },
            )),
            (courant1.algebroid, Connection.zero(2)),
        ]
        for seed in (70, 71, 72):
            fx = random_anticommutable(seed, dim=2, rank=3)
            fixtures.append((fx.algebroid, fx.connection))
        for A, conn in fixtures:
            rng = random.Random(7)
            # square on functions vanishes
            for _ in range(3):
                f = random_scalar(rng, A.dim, 2)
                df = e_exterior_derivative(A, conn, f, "projected")
                assert e_exterior_derivative(A, conn, df, "projected").is_zero()
            # square on one-forms pairs with the independently computed
            # associator; the exact relation carries a minus sign relative
            # to the raw associator ordering
            omega = EForm(
                1, A.rank, A.dim,
                {(a,): random_scalar(rng, A.dim, 2) for a in range(A.rank)},
            )
            dd = e_exterior_derivative(
                A, conn, e_exterior_derivative(A, conn, omega, "projected"),
                "projected",
            )
            u, v, w = (random_section(rng, A) for _ in range(3))
            assoc = associator(A, "projected", u, v, w, conn)
            assert dd.apply([u, v, w]).equals(-omega.apply([assoc]))
            assert check_square_laws(A, conn, samples=2).passed
        # associator of the unmodified bracket vanishes on the classical entries
        rng = random.Random(8)
        for A in (tangent2, courant1.algebroid):
            u, v, w = (random_section(rng, A) for _ in range(3))
            assert associator(A, "original", u, v, w).is_zero()


def _tensor_transform_3(A, F, arr):
    zero = A.zero()
    out = {}
    r = A.rank
    Amat, Ainv = F.matrix, F.inverse
    for a in range(r):
        for b in range(r):
            for c in range(r):
                acc = zero
                for d in range(r):
                    if Ainv[a][d].is_zero():
                        continue
                    for e in range(r):
                        if Amat[e][b].is_zero():
                            continue
                        for f in range(r):
                            t = arr.get((d, e, f))
                            if t is None:
                                continue
                            factor = Ainv[a][d] * Amat[e][b] * Amat[f][c]
                            if not factor.is_zero():
                                acc = acc + factor * t
                if not acc.is_zero():
                    out[(a, b, c)] = acc
    return out


def _tensor_transform_lower3(A, F, arr):
    zero = A.zero()
    out = {}
    r = A.rank
    Amat = F.matrix
    for a in range(r):
        for b in range(r):
            for c in range(r):
                acc = zero
                for d in range(r):
                    if Amat[d][a].is_zero():
                        continue
                    for e in range(r):
                        if Amat[e][b].is_zero():
                            continue
                        for f in range(r):
                            t = arr.get((d, e, f))
                            if t is None:
                                continue
                            factor = Amat[d][a] * Amat[e][b] * Amat[f][c]
                            if not factor.is_zero():
                                acc = acc + factor * t
                if not acc.is_zero():
                    out[(a, b, c)] = acc
    return out


def _tensor_transform_curv(A, F, arr):
    zero = A.zero()
    out = {}
    r = A.rank
    Amat, Ainv = F.matrix, F.inverse
    for a in range(r):
        for b in range(r):
            for c in range(r):
                for d in range(r):
                    acc = zero
                    for p in range(r):
                        if Ainv[a][p].is_zero():
                            continue
                        for q in range(r):
                            if Amat[q][b].is_zero():
                                continue
                            for s in range(r):
                                if Amat[s][c].is_zero():
                                    continue
                                for t_i in range(r):
                                    t = arr.get((p, q, s, t_i))
                                    if t is None:
                                        continue
                                    factor = (
                                        Ainv[a][p] * Amat[q][b] * Amat[s][c] * Amat[t_i][d]
                                    )
                                    if not factor.is_zero():
                                        acc = acc + factor * t
                    if not acc.is_zero():
                        out[(a, b, c, d)] = acc
    return out


def _sparse_equal(A, got, want):
    zero = A.zero()
    for idx in set(got) | set(want):
        if not got.get(idx, zero).equals(want.get(idx, zero)):
            return False
    return True


def test_criterion_8_tensoriality():
    with criterion(8, "tensor transformation laws under random frame changes"):
        fx = random_anticommutable(80, dim=2, rank=3)
        A, conn = fx.algebroid, fx.connection
        g = random_constant_metric(random.Random(80), A.dim, A.rank)
        conn2 = Connection.of(
            A.rank, {(0, 1, 2): scal("x1", A.coords), (2, 0, 0): scal("x2", A.coords)}
        )
        T = torsion(A, conn, "modified")
        R = curvature(A, conn)
        Q = non_metricity(A, conn, g)
        D = difference_tensor(conn, conn2)
        anholonomy_violations = 0
        rng = random.Random(81)
        for trial in range(10):
            F = random_frame_change(rng, A, degree=1)
            Ap, connp_coeff, gp = change_frame(A, F, conn.coeff, g.g)
            connp = Connection(A.rank, connp_coeff)
            _, conn2p_coeff, _ = change_frame(A, F, conn2.coeff)
            assert _sparse_equal(
                A, torsion(Ap, connp, "modified"), _tensor_transform_3(A, F, T)
            )
            assert _sparse_equal(
                A, curvature(Ap, connp), _tensor_transform_curv(A, F, R)
            )
            assert _sparse_equal(
                A,
                non_metricity(Ap, connp, Metric(gp)),
                _tensor_transform_lower3(A, F, Q),
            )
            assert _sparse_equal(
                A,
                difference_tensor(connp, Connection(A.rank, conn2p_coeff)),
                _tensor_transform_3(A, F, D),
            )
            if not _sparse_equal(
                A, Ap.gamma, _tensor_transform_3(A, F, dict(A.gamma))
            ):
                anholonomy_violations += 1
        assert anholonomy_violations >= 1


def test_criterion_9_reproducibility(tmp_path, tangent2):
    with criterion(9, "byte-identical report streams"):
        names = tangent2.coords
        metric = Metric(
            [[scal("1/x2^2", names), tangent2.zero()], [tangent2.zero(), scal("1/x2^2", names)]]
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
        doc_path = tmp_path / "doc.json"
        dump_document(AlgebroidDocument(tangent2, metric, conn), str(doc_path))
        outputs = []
        for run in range(2):
            out_path = tmp_path / f"run{run}.jsonl"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "algebroids.cli", "check", str(doc_path),
                    "--seed", "11", "--samples", "4", "-o", str(out_path),
                ],
                capture_output=True,
                text=True,
                env=subprocess_env(),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0]
        for line in outputs[0].decode().splitlines():
            json.loads(line)
