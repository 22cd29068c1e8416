"""Exact affine-linear solving for Koszul and torsion-free connections over
the fraction field, the torsion/non-metricity decomposition of a
connection, and the Levi-Civita predicate checks.

Both solvers assemble their defining equations on frame triples as affine
systems in the r^3 connection coefficients and return the full solution
set; a connection is never chosen silently.  Infeasibility of the
torsion-free system is a certificate that no torsion-free connection
exists.  The paper proves one direction only: an algebroid that is not
anti-commutable has no torsion-free connection.  The converse fails.  At
rank 2 and dimension 1 with zero anchor, gamma^0_10 = 2, gamma^1_00 = 1
and L^{01}_{01} = L^{10}_{00} = 2, the connection Gamma^0_00 = 1/2,
Gamma^0_10 = 1 is admissible, yet the torsion-free system is infeasible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .calculus import _require_admissible, seeded_sections
from .connection import (
    Connection,
    GeometryContext,
    Metric,
    _require_rank,
    locality_terms,
    non_metricity,
)
from .core import AlgebroidData, SparseArray, sparse_add, sparse_sub
from .errors import ShapeError
from .linalg import LinearSolution, solve_affine
from .reports import CheckReport, report_from_residuals
from .scalars import Accumulator, Scalar, scalar_to_text


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
        """particular + sum_i weights_i * basis_i as a connection; missing
        weights are zero, and more weights than ``dim`` raise ``ShapeError``."""
        if self.particular is None:
            raise ShapeError("no members: system is infeasible")
        if len(weights) > self.dim:
            raise ShapeError(f"{len(weights)} weights for {self.dim} kernel vectors")
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


def _triples(r: int) -> list[tuple[int, int, int]]:
    """The frame triples, the k-th at ``_unknown_index`` k."""
    return list(itertools.product(range(r), repeat=3))


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
        return {idx: v for idx, v in zip(_triples(r), vec) if not v.is_zero()}

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
    acc = Accumulator(A.dim, A.frame_derive(b, metric.at(c, d)))
    acc.add(A.frame_derive(c, metric.at(b, d)))
    acc.add(A.frame_derive(d, metric.at(b, c)), -1)
    for e in range(A.rank):
        for key, f, sign in (((e, c, d), b, -1), ((e, b, d), c, -1), ((e, b, c), d, 1)):
            g = gamma.get(key)
            if g is not None:
                acc.add_product(g, metric.at(e, f), sign)
    return acc.value()


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
    _require_rank(A, metric)
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
    triples = _triples(A.rank)
    for row, (coeffs, rhs) in zip(triples, koszul_rows(A, metric)):
        acc = Accumulator(A.dim, -rhs)
        for k, v in coeffs.items():
            g = conn.coeff.get(triples[k])
            if g is not None:
                acc.add_product(v, g)
        if not (value := acc.value()).is_zero():
            out[row] = value
    return out


def solve_torsion_free(A: AlgebroidData) -> SolutionSpace:
    """Solve T^a_bc = 0 as an affine system in the connection coefficients.

    An infeasible status certifies that the algebroid admits no
    torsion-free linear connection.
    """
    r = A.rank
    rows = []
    one = A.one()
    contraction = locality_terms(A)
    for a in range(r):
        for b in range(r):
            for c in range(r):
                coeffs: dict[int, Scalar] = {}
                _add_term(coeffs, r, a, b, c, one)
                _add_term(coeffs, r, a, c, b, -one)
                # + C^a_bc = Gamma^e_db L^{a d}_{e c}
                for idx, lv in contraction.get((a, b, c), ()):
                    _add_term(coeffs, r, *idx, lv)
                rows.append((coeffs, A.gamma_at(a, b, c)))
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
        for idx in _triples(A.rank)
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
    _require_rank(A, conn, metric)
    name = "decomposition-reconstruction"
    ctx = GeometryContext(A, conn)
    _require_admissible(ctx, name)
    modified = ctx.algebroid("modified")
    lc = levicivita_frame(A, modified.gamma, metric)
    tor = ctx.torsion(modified)
    q = non_metricity(A, conn, metric)
    zero = A.zero()

    def torsion_term(b: int, c: int, d: int) -> Scalar:
        """-T_{c b d} + T_{d b c} - T_{b c d}, with T_{f b d} = g_ef T^e_bd,
        summed over e with the three terms of each e together."""
        acc = Accumulator(A.dim)
        for e in range(A.rank):
            terms = ((-1, c, (e, b, d)), (1, d, (e, b, c)), (-1, b, (e, c, d)))
            for sign, f, key in terms:
                t = tor.get(key)
                if t is not None:
                    acc.add_product(metric.at(e, f), t, sign)
        return acc.value()

    def nonmetricity_term(b: int, c: int, d: int) -> Scalar:
        """-Q_{b d c} + Q_{d c b} - Q_{c b d}."""
        acc = Accumulator(A.dim)
        for sign, key in ((-1, (b, d, c)), (1, (d, c, b)), (-1, (c, b, d))):
            acc.add(q.get(key, zero), sign)
        return acc.value()

    contortion = _half_raised(A, metric, _on_triples(A, torsion_term))
    disformation = _half_raised(A, metric, _on_triples(A, nonmetricity_term))
    residual = sparse_sub(conn.coeff, lc.coeff)
    for part in (contortion, disformation):
        residual = sparse_sub(residual, part)
    report = report_from_residuals(name, dict(sorted(residual.items())))
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
    _require_rank(A, conn, metric)
    ctx = GeometryContext(A, conn)
    adm = ctx.admissibility().passed
    kres = koszul_residual(A, conn, metric)
    modified = ctx.algebroid("modified")
    tor = ctx.torsion(modified)
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
            lhs = Accumulator(A.dim, A.section_derive(v, metric.inner(u, w)))
            lhs.add(metric.inner(ctx.bracket(v, u, modified), w), -1)
            lhs.add(metric.inner(u, ctx.bracket(v, w, modified)), -1)
            rhs = Accumulator(A.dim, metric.inner(ctx.covariant(u, v), w))
            rhs.add(metric.inner(u, ctx.covariant(w, v)))
            val = lhs.value() - rhs.value()
            if not val.is_zero():
                residuals[("metric-derivative", k)] = val
        assumptions.append(
            f"metric-derivative identity checked on frame triples and "
            f"{samples} seeded section triples (seed={seed}, degree<={degree})"
        )
    return report_from_residuals("levicivita-predicates", residuals, assumptions)
