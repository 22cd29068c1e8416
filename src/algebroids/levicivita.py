"""Exact affine-linear solving for Koszul and torsion-free connections over
the fraction field, the torsion/non-metricity decomposition of a
connection, and the Levi-Civita predicate checks.

Both solvers assemble their defining equations on frame triples as affine
systems in the r^3 connection coefficients and return the full solution
set; a connection is never chosen silently.  Infeasibility of the
torsion-free system is a certificate that no torsion-free connection
exists, which happens exactly when the bracket is not anti-commutable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .connection import (
    Connection,
    GeometryContext,
    Metric,
    covariant_derivative,
    non_metricity,
)
from .core import AlgebroidData, SparseArray, sparse_add, sparse_sub
from .errors import AdmissibilityError, ShapeError
from .linalg import LinearSolution, solve_affine
from .reports import CheckReport, report_from_residuals
from .scalars import Scalar, scalar_to_text


@dataclass
class SolutionSpace:
    """Affine solution set of a linear problem in connection space."""

    status: str  # "unique" | "affine" | "infeasible"
    rank: int
    particular: Connection | None = None
    kernel_basis: list[SparseArray] = field(default_factory=list)
    witness: Scalar | None = None

    @property
    def dim(self) -> int:
        return len(self.kernel_basis)

    def member(self, weights: list) -> Connection:
        """particular + sum_i weights_i * basis_i as a connection."""
        if self.particular is None:
            raise ShapeError("no members: system is infeasible")
        coeff = self.particular.coeff
        for w, basis in zip(weights, self.kernel_basis):
            if w:
                coeff = sparse_add(coeff, {idx: v.scale(w) for idx, v in basis.items()})
        return Connection.of(self.rank, coeff)

    def denominator_loci(self, names) -> list[str]:
        """Distinct non-unit denominators across the particular solution."""
        if self.particular is None:
            return []
        seen = []
        for v in self.particular.coeff.values():
            if not v.den.is_one():
                text = scalar_to_text(Scalar(v.den), names)
                if text not in seen:
                    seen.append(text)
        return sorted(seen)


def _unknown_index(r: int, a: int, b: int, c: int) -> int:
    return (a * r + b) * r + c


def _add_term(
    coeffs: dict[int, Scalar], r: int, a: int, b: int, c: int, value: Scalar
) -> None:
    """Add value to a row's coefficient of the unknown Gamma^a_bc, skipping zeros."""
    if value.is_zero():
        return
    k = _unknown_index(r, a, b, c)
    s = coeffs.get(k)
    coeffs[k] = value if s is None else s + value


def _solution_space(A: AlgebroidData, sol: LinearSolution) -> SolutionSpace:
    r = A.rank
    if sol.status == "infeasible":
        return SolutionSpace(status="infeasible", rank=r, witness=sol.witness)

    def to_sparse(vec: list[Scalar]) -> SparseArray:
        out: SparseArray = {}
        for a in range(r):
            for b in range(r):
                for c in range(r):
                    v = vec[_unknown_index(r, a, b, c)]
                    if not v.is_zero():
                        out[(a, b, c)] = v
        return out

    particular = Connection(r, to_sparse(sol.particular))
    basis = [to_sparse(vec) for vec in sol.kernel_basis]
    return SolutionSpace(
        status=sol.status, rank=r, particular=particular, kernel_basis=basis
    )


def _koszul_rhs(
    A: AlgebroidData, gamma: SparseArray, metric: Metric, b: int, c: int, d: int
) -> Scalar:
    """The Koszul right-hand side on the frame triple (b, c, d):
    rho_b(g_cd) + rho_c(g_bd) - rho_d(g_bc)
    - gamma^e_cd g_eb - gamma^e_bd g_ec + gamma^e_bc g_ed."""
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


def koszul_rows(
    A: AlgebroidData, metric: Metric
) -> list[tuple[dict[int, Scalar], Scalar]]:
    """One affine row per frame triple (b, c, d):

        2 Gamma^a_bc g_ad
          + Gamma^f_{d'c} L^{e d'}_{f d} g_eb     (from -g([X_c,X_d]^mod, X_b))
          + Gamma^f_{d'b} L^{e d'}_{f d} g_ec     (from -g([X_b,X_d]^mod, X_c))
          - Gamma^f_{d'b} L^{e d'}_{f c} g_ed     (from +g([X_b,X_c]^mod, X_d))
        = rho_b(g_cd) + rho_c(g_bd) - rho_d(g_bc)
          - gamma^e_cd g_eb - gamma^e_bd g_ec + gamma^e_bc g_ed
    """
    r = A.rank
    rows = []
    two = A.const(2)
    loc_items = list(A.loc.items())
    for b in range(r):
        for c in range(r):
            for d in range(r):
                coeffs: dict[int, Scalar] = {}
                for a in range(r):
                    _add_term(coeffs, r, a, b, c, two * metric.at(a, d))
                for (e, dp, f, cc), lv in loc_items:
                    if cc == d:
                        _add_term(coeffs, r, f, dp, c, lv * metric.at(e, b))
                        _add_term(coeffs, r, f, dp, b, lv * metric.at(e, c))
                    if cc == c:
                        _add_term(coeffs, r, f, dp, b, -(lv * metric.at(e, d)))
                rows.append((coeffs, _koszul_rhs(A, A.gamma, metric, b, c, d)))
    return rows


def solve_koszul(A: AlgebroidData, metric: Metric) -> SolutionSpace:
    """Solve the metric-and-bracket compatibility system for connections.

    Admissible solutions of this system are exactly the torsion-free
    metric-compatible connections; the solution space is typically a
    positive-dimensional affine family on pairing-type algebroids.
    """
    sol = solve_affine(koszul_rows(A, metric), A.rank**3, A.dim)
    return _solution_space(A, sol)


def koszul_residual(
    A: AlgebroidData, conn: Connection, metric: Metric
) -> SparseArray:
    """Residuals of the Koszul system at a given connection."""
    out: SparseArray = {}
    r = A.rank
    for row, (coeffs, rhs) in zip(
        ((b, c, d) for b in range(r) for c in range(r) for d in range(r)),
        koszul_rows(A, metric),
    ):
        acc = -rhs
        for k, v in coeffs.items():
            a, b, c = k // (r * r), (k // r) % r, k % r
            g = conn.coeff.get((a, b, c))
            if g is not None:
                acc = acc + v * g
        if not acc.is_zero():
            out[row] = acc
    return out


def solve_torsion_free(A: AlgebroidData) -> SolutionSpace:
    """Solve T^a_bc = 0 as an affine system in the connection coefficients.

    An infeasible status certifies that the algebroid admits no
    torsion-free linear connection.
    """
    r = A.rank
    rows = []
    one = A.one()
    for a in range(r):
        for b in range(r):
            for c in range(r):
                coeffs: dict[int, Scalar] = {}
                _add_term(coeffs, r, a, b, c, one)
                _add_term(coeffs, r, a, c, b, -one)
                # + Gamma^e_db L^{a d}_{e c}
                for (aa, d, e, cc), lv in A.loc.items():
                    if aa == a and cc == c:
                        _add_term(coeffs, r, e, d, b, lv)
                rhs = A.gamma_at(a, b, c)
                rows.append((coeffs, rhs))
    sol = solve_affine(rows, r**3, A.dim)
    return _solution_space(A, sol)


def levicivita_frame(
    A: AlgebroidData, anhol: SparseArray, metric: Metric
) -> Connection:
    """Closed-form Levi-Civita coefficients for an antisymmetric frame
    bracket given by ``anhol`` (the classical Koszul formula on a frame):

    Gamma^a_bc = (1/2) g^{ad} [ rho_b(g_cd) + rho_c(g_bd) - rho_d(g_bc)
                 - gamma^e_cd g_eb - gamma^e_bd g_ec + gamma^e_bc g_ed ]
    """
    koszul = _on_triples(A, lambda b, c, d: _koszul_rhs(A, anhol, metric, b, c, d))
    return Connection(A.rank, _half_raised(A, metric, koszul))


def _on_triples(A: AlgebroidData, term) -> SparseArray:
    """The nonzero term(b, c, d) on every frame triple, keyed (b, c, d)."""
    return {
        idx: v
        for idx in itertools.product(range(A.rank), repeat=3)
        if not (v := term(*idx)).is_zero()
    }


def _half_raised(A: AlgebroidData, metric: Metric, x: SparseArray) -> SparseArray:
    """(1/2) g^{ad} x_{bcd}, halved after the sum."""
    half = A.const(Fraction(1, 2))
    return {idx: half * v for idx, v in metric.raised(x).items()}


def decompose_connection(
    A: AlgebroidData, conn: Connection, metric: Metric
) -> tuple[Connection, SparseArray, SparseArray, CheckReport]:
    """Split an admissible connection into the Levi-Civita part of its
    modified bracket plus contortion (torsion part) and disformation
    (non-metricity part), verifying exact reconstruction.

    Returns (levi_civita_part, torsion_part, nonmetricity_part, report).
    """
    ctx = GeometryContext(A, conn)
    adm = ctx.admissibility()
    if not adm.passed:
        raise AdmissibilityError(
            "decomposition requires an admissible connection", adm.residuals
        )
    lc = levicivita_frame(A, ctx.anholonomy("modified"), metric)
    tor = ctx.torsion("modified")
    q = non_metricity(A, conn, metric)
    zero = A.zero()

    def torsion_term(b: int, c: int, d: int) -> Scalar:
        """-T_{c b d} + T_{d b c} - T_{b c d}, with T_{f b d} = g_ef T^e_bd,
        summed over e with the three terms of each e together."""
        acc = zero
        for e in range(A.rank):
            terms = ((-1, c, (e, b, d)), (1, d, (e, b, c)), (-1, b, (e, c, d)))
            for sign, f, key in terms:
                t = tor.get(key)
                if t is not None:
                    t = metric.at(e, f) * t
                    acc = acc + t if sign == 1 else acc - t
        return acc

    def nonmetricity_term(b: int, c: int, d: int) -> Scalar:
        """-Q_{b d c} + Q_{d c b} - Q_{c b d}."""
        return -q.get((b, d, c), zero) + q.get((d, c, b), zero) - q.get((c, b, d), zero)

    contortion = _half_raised(A, metric, _on_triples(A, torsion_term))
    disformation = _half_raised(A, metric, _on_triples(A, nonmetricity_term))
    residual = sparse_sub(conn.coeff, lc.coeff)
    for part in (contortion, disformation):
        residual = sparse_sub(residual, part)
    report = report_from_residuals(
        "decomposition-reconstruction", dict(sorted(residual.items()))
    )
    return lc, contortion, disformation, report


def check_levicivita_props(
    A: AlgebroidData,
    conn: Connection,
    metric: Metric,
    seed: int = 0,
    samples: int = 4,
    degree: int = 2,
) -> CheckReport:
    """Evaluate the four predicates (admissible, Koszul, torsion-free,
    metric-compatible), assert the biconditional

        admissible and Koszul  <=>  torsion-free and metric-compatible

    on this instance, and when the connection is Levi-Civita additionally
    verify the metric derivative identity

        (L^mod_v g)(u, w) = g(D_u v, w) + g(u, D_w v).
    """
    from .calculus import seeded_sections

    ctx = GeometryContext(A, conn)
    adm = ctx.admissibility().passed
    kres = koszul_residual(A, conn, metric)
    tor = ctx.torsion("modified")
    q = non_metricity(A, conn, metric)
    koszul_ok = not kres
    torsion_free = not tor
    metric_ok = not q
    residuals: dict[tuple, Scalar] = {}
    one = A.one()
    if (adm and koszul_ok) != (torsion_free and metric_ok):
        residuals[
            (
                "pc-biconditional",
                f"admissible={adm}",
                f"koszul={koszul_ok}",
                f"torsion_free={torsion_free}",
                f"metric_compatible={metric_ok}",
            )
        ] = one
    assumptions = [
        f"predicates: admissible={adm} koszul={koszul_ok} "
        f"torsion_free={torsion_free} metric_compatible={metric_ok}"
    ]
    if torsion_free and metric_ok:
        frames = ctx.frames
        sections = seeded_sections(A, seed, 3 * samples, degree)
        triples = [
            (frames[a], frames[b], frames[c])
            for a in range(A.rank)
            for b in range(A.rank)
            for c in range(A.rank)
        ] + [tuple(sections[3 * k : 3 * k + 3]) for k in range(samples)]
        for k, (u, v, w) in enumerate(triples):
            # (L^mod_v g)(u, w) = rho(v)(g(u,w)) - g([v,u]^mod, w) - g(u, [v,w]^mod)
            lhs = A.section_derive(v, metric.inner(u, w))
            lhs = lhs - metric.inner(ctx.bracket(v, u, "modified"), w)
            lhs = lhs - metric.inner(u, ctx.bracket(v, w, "modified"))
            rhs = metric.inner(covariant_derivative(A, conn, u, v), w)
            rhs = rhs + metric.inner(u, covariant_derivative(A, conn, w, v))
            val = lhs - rhs
            if not val.is_zero():
                residuals[("metric-derivative", k)] = val
        assumptions.append(
            f"metric-derivative identity checked on frame triples and "
            f"{samples} seeded section triples (seed={seed}, degree<={degree})"
        )
    return report_from_residuals("levicivita-predicates", residuals, assumptions)
