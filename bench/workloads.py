"""The benchmark's workloads: inputs, jobs and output checks.

A workload is a fixed list of jobs.  Each job calls the package through its
public API (``algebroids`` and, for ``cli_check``, ``algebroids.cli.main``)
and returns what the package returned.  Outside the timed call the runner
serializes the outputs to canonical text and hands them to the job's check,
which recomputes what it needs with ``oracle`` (Fraction arithmetic at
seeded points) or tests properties every correct answer must have.

The inputs are the fixture families of the acceptance criteria, fixed by
the ``*_SEEDS`` constants below, with the identity suites' section samples
drawn from seed 0 as in criterion 2.  The workload seed draws the
benchmark's evaluation points and the order of the jobs in each pass.  It
changes nothing the package computes: the cost of the magic suite alone
moves by over 10% between section seeds, which would drown the changes
the benchmark is there to see.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import algebroids as alg
import algebroids.cli
from algebroids.fixtures import (
    random_almost_dull_not_almost_lie,
    random_anticommutable,
    random_constant_metric,
)

import oracle

# Criterion-2 fixtures (rank 2 + seed % 3, dim 1 + (seed // 3) % 2), and
# frame-twisted fixtures of rank <= 3 (rank 2 + seed % 2): 102, 104 and 106
# of rank 2 and 105 of rank 3, at 0.2-0.6 s each.  The other twisted rank-3
# fixtures take 2-3 s (103, 107) or a minute (101); 103 and 107 would
# lengthen a pass by more than half, leaving two passes to a run, not three.
IDENTITY_SEEDS = tuple(range(9))
TWISTED_SEEDS = (102, 104, 105, 106)
IDENTITY_SAMPLES = 2
IDENTITY_SAMPLE_SEED = 0
# Connections pushed off admissibility, one per fixture with a locality
# operator among the first identity fixtures.
REJECTION_FIXTURES = 3

CERTIFICATE_SEEDS = tuple(range(20))  # criterion 5, almost-dull-not-almost-Lie
TORSION_FREE_SEEDS = tuple(range(300, 320))  # criterion 5, feasible
KOSZUL_SEEDS = (3, 6, 9, 12, 7, 10)  # criterion-2 fixtures of rank 2 and 3

# check --suite all: the criterion-9 half-plane document plus criterion-2
# fixtures of rank 2 and 3 carrying a constant metric and their connection.
CLI_SEEDS = (0, 3, 6, 9, 12, 15, 1, 10, 16)
CLI_ARGS = ("--suite", "all", "--seed", "11", "--samples", "4")
# Reported by every `--suite all` run but documented as never gating.
NON_GATING = "bianchi-algebraic-general"
CLI_IDENTITIES = (
    "classify", "locality-projector", "admissible", "cartan-structure",
    "bianchi-algebraic-projected", NON_GATING, "bianchi-differential",
    "ricci", "magic-and-derivations", "square-laws", "levicivita-solution",
    "levicivita-predicates", "decomposition-reconstruction",
)


@dataclass
class Job:
    """One timed call and the checks of its output.

    ``run`` is the timed call.  ``serialize`` turns its result into plain
    JSON data (scalars as canonical text); a later pass must reproduce the
    first pass's data exactly.  ``check`` returns a list of errors, empty
    when the output is right.  ``planted`` feeds the check wrong answers
    made from a right one and returns those it let through.  ``failed``
    marks an output that the package itself reports as a failure.  Jobs of
    one ``kind`` share their check."""

    name: str
    kind: str
    run: Callable[[], object]
    serialize: Callable[[object], dict]
    check: Callable[[object, dict, random.Random], list[str]]
    terms: Callable[[dict], int]
    planted: Callable[[object, dict, random.Random], list[str]]
    failed: Callable[[dict], bool] = lambda out: False


def sparse_obj(arr, names) -> list[dict]:
    return [
        {"idx": [k + 1 for k in idx], "val": alg.scalar_to_text(v, names)}
        for idx, v in sorted(arr.items())
    ]


def space_obj(space, names) -> dict:
    if space.status == "infeasible":
        return {"status": "infeasible", "witness": alg.scalar_to_text(space.witness, names)}
    return {
        "status": space.status,
        "particular": sparse_obj(space.particular.coeff, names),
        "kernel_basis": [sparse_obj(vec, names) for vec in space.kernel_basis],
    }


def items_terms(items) -> int:
    return sum(oracle.count_terms(item["val"]) for item in items)


def space_terms(out: dict) -> int:
    if out["status"] == "infeasible":
        return 0
    return items_terms(out["particular"]) + sum(
        items_terms(vec) for vec in out["kernel_basis"]
    )


def bumped(items, arity: int) -> list[dict]:
    """A wrong tensor: its first entry plus one, or a new entry 1."""
    if not items:
        return [{"idx": [1] * arity, "val": "1"}]
    first = dict(items[0], val=f"({items[0]['val']}) + 1")
    return [first, *items[1:]]


def wrong_spaces(out: dict) -> list[tuple[str, dict]]:
    if out["status"] == "infeasible":
        solved = {"status": "unique", "particular": [], "kernel_basis": []}
        return [("infeasible system reported solved", solved)]
    wrong = [("particular solution off by one", dict(out, particular=bumped(out["particular"], 3)))]
    if out["kernel_basis"]:
        wrong.append(("kernel vector dropped", dict(out, kernel_basis=out["kernel_basis"][:-1])))
    return wrong


def let_through(check, res, wrong: list[tuple[str, dict]], rng) -> list[str]:
    """Labels of the wrong outputs that ``check`` accepted."""
    return [label for label, out in wrong if not check(res, out, rng)]


def doc_obj(A, metric=None, conn=None) -> dict:
    return json.loads(alg.dump_document(alg.AlgebroidDocument(A, metric, conn)))


def build(name: str, workdir: str) -> list[Job]:
    """The workload's job list; ``workdir`` receives its documents."""
    if name == "identity_batch":
        return identity_jobs()
    if name == "solve":
        return solve_jobs()
    if name == "cli_check":
        return cli_jobs(workdir)
    raise ValueError(f"unknown workload {name!r}")


# -- identity_batch ---------------------------------------------------------


def identity_fixtures():
    for s in IDENTITY_SEEDS:
        rank, dim = 2 + s % 3, 1 + (s // 3) % 2
        yield f"fixture-{s}", random_anticommutable(s, dim=dim, rank=rank), s, dim, rank
    for s in TWISTED_SEEDS:
        rank, dim = 2 + s % 2, 1 + (s // 3) % 2
        fx = random_anticommutable(s, dim=dim, rank=rank, twist=True)
        yield f"twisted-{s}", fx, s, dim, rank


# Identities that refuse a connection that is not admissible.
GATED = (
    "check_cartan_structure",
    "check_bianchi_differential",
    "check_magic_and_derivations",
    "check_square_laws",
)


def identity_jobs() -> list[Job]:
    jobs = []
    with_locality = 0
    for name, fx, s, dim, rank in identity_fixtures():
        metric = random_constant_metric(random.Random(s), dim, rank)
        probe = bool(fx.algebroid.loc) and with_locality < REJECTION_FIXTURES
        with_locality += probe
        jobs.append(identity_job(name, fx, metric, probe))
    return jobs


def identity_job(name, fx, metric, probe_rejection: bool) -> Job:
    A, conn = fx.algebroid, fx.connection
    names = A.coords
    doc = doc_obj(A, metric, conn)
    seed, n = IDENTITY_SAMPLE_SEED, IDENTITY_SAMPLES

    def run():
        return {
            "admissible": alg.check_admissible(A, conn),
            "torsion": alg.torsion(A, conn, "modified"),
            "torsion_projected": alg.torsion(A, conn, "projected"),
            "curvature": alg.curvature(A, conn),
            "reports": [
                alg.check_cartan_structure(A, conn),
                alg.check_bianchi_algebraic(A, conn, "projected", seed, n),
                alg.check_bianchi_differential(A, conn),
                alg.check_ricci(A, conn, seed, n),
                alg.check_magic_and_derivations(A, conn, seed, n),
                alg.check_square_laws(A, conn, seed, n),
            ],
            "decomposition": alg.decompose_connection(A, conn, metric),
        }

    def serialize(res) -> dict:
        lc, contortion, disformation, rep = res["decomposition"]
        reports = [res["admissible"], *res["reports"], rep]
        return {
            "passed": {r.identity: r.passed for r in reports},
            "torsion": sparse_obj(res["torsion"], names),
            "torsion_projected": sparse_obj(res["torsion_projected"], names),
            "curvature": sparse_obj(res["curvature"], names),
            "levicivita": sparse_obj(lc.coeff, names),
            "contortion": sparse_obj(contortion, names),
            "disformation": sparse_obj(disformation, names),
        }

    def check(res, out, rng) -> list[str]:
        errors = [f"{k} failed" for k, ok in out["passed"].items() if not ok]
        if len(out["passed"]) != 8:
            errors.append(f"expected 8 verdicts, got {sorted(out['passed'])}")
        errors += oracle.at_some_point(rng, doc, lambda d: tensors_at(d, out))
        if probe_rejection:
            errors += rejection_check(A, conn, doc, rng)
        return errors

    def terms(out) -> int:
        keys = ("torsion", "torsion_projected", "curvature", "levicivita",
                "contortion", "disformation")
        return sum(items_terms(out[k]) for k in keys)

    def planted(res, out, rng) -> list[str]:
        first = next(iter(out["passed"]))
        wrong = [
            ("curvature off by one", dict(out, curvature=bumped(out["curvature"], 4))),
            ("torsion off by one", dict(out, torsion=bumped(out["torsion"], 3))),
            ("failed verdict", dict(out, passed=dict(out["passed"], **{first: False}))),
        ]
        missed = let_through(check, res, wrong, rng)
        if probe_rejection and not rejection_errors(A, conn):
            missed.append("admissible connection taken for a rejected one")
        return missed

    kind = "identity-rejection" if probe_rejection else "identity"
    return Job(name, kind, run, serialize, check, terms, planted)


def tensors_at(d: oracle.AtPoint, out: dict) -> list[str]:
    """Torsion, projected torsion and curvature recomputed from their
    definitions; the decomposition reassembles the connection and its
    Levi-Civita part is metric and torsion-free for the modified bracket."""
    conn = d.values(d.doc["connection"])
    value = lambda key: {k: v.v for k, v in d.values(out[key]).items()}  # noqa: E731
    errors = []
    if d.admissibility_residual(conn):
        errors.append("fixture connection is not admissible at the point")
    errors += oracle.differ(value("torsion"), d.torsion(conn, False), "torsion")
    errors += oracle.differ(
        value("torsion_projected"), d.torsion(conn, True), "projected torsion"
    )
    errors += oracle.differ(value("curvature"), d.curvature(conn), "curvature")
    lc = d.values(out["levicivita"])
    parts = [value("levicivita"), value("contortion"), value("disformation")]
    total = {}
    for part in parts:
        for k, v in part.items():
            total[k] = total.get(k, oracle.ZERO) + v
    errors += oracle.differ(total, {k: v.v for k, v in conn.items()}, "reconstruction")
    errors += oracle.differ(d.non_metricity(lc), {}, "Levi-Civita non-metricity")
    W = d.anholonomy(conn, projected=False)
    zero = d.zero
    lc_torsion = {
        (a, b, c): lc.get((a, b, c), zero).v - lc.get((a, c, b), zero).v
        - W.get((a, b, c), oracle.ZERO)
        for a in range(d.r) for b in range(d.r) for c in range(d.r)
    }
    errors += oracle.differ(lc_torsion, {}, "Levi-Civita torsion")
    return errors


def rejection_check(A, conn, doc, rng) -> list[str]:
    """Push the connection off admissibility by adding 1 to one coefficient
    that meets the locality operator; the package must then refuse every
    identity that requires admissibility."""
    for (c, dd, e, b) in sorted(A.loc):
        for a in range(A.rank):
            coeff = dict(conn.coeff)
            key = (e, dd, a)
            coeff[key] = coeff[key] + A.one() if key in coeff else A.one()
            bad = alg.Connection(A.rank, coeff)
            bad_doc = dict(doc, connection=sparse_obj(bad.coeff, A.coords))
            moved = oracle.at_some_point(
                rng, bad_doc,
                lambda d: [] if d.admissibility_residual(d.values(bad_doc["connection"]))
                else ["still admissible"],
            )
            if not moved:
                return rejection_errors(A, bad)
    return ["no perturbation leaves admissibility"]


def rejection_errors(A, bad) -> list[str]:
    errors = []
    if alg.check_admissible(A, bad).passed:
        errors.append("non-admissible connection accepted by check_admissible")
    for name in GATED:
        try:
            getattr(alg, name)(A, bad)
        except alg.AdmissibilityError:
            continue
        errors.append(f"{name} ran on a non-admissible connection")
    return errors


# -- solve ------------------------------------------------------------------


def solve_jobs() -> list[Job]:
    jobs = []
    for s in CERTIFICATE_SEEDS:
        A = random_almost_dull_not_almost_lie(s, dim=2, rank=2 + s % 3)
        jobs.append(torsion_free_job(f"certificate-{s}", A, certificate=True))
    for s in TORSION_FREE_SEEDS:
        rank = (2, 3, 4)[s % 3]
        dim = 1 if rank == 4 else 1 + s % 2
        fx = random_anticommutable(
            s, dim=dim, rank=rank, degree=2, density=0.12 if rank == 4 else 0.3
        )
        jobs.append(torsion_free_job(f"torsion-free-{s}", fx.algebroid, certificate=False))
    for s in KOSZUL_SEEDS:
        rank, dim = 2 + s % 3, 1 + (s // 3) % 2
        fx = random_anticommutable(s, dim=dim, rank=rank)
        metric = random_constant_metric(random.Random(s), dim, rank)
        jobs.append(koszul_job(f"koszul-{s}", fx.algebroid, metric, None))
    for label in ("polar", "halfplane"):
        A, metric = classical(label)
        jobs.append(koszul_job(f"koszul-{label}", A, metric, label))
    return jobs


def torsion_free_job(name, A, certificate: bool) -> Job:
    names = A.coords
    doc = doc_obj(A)

    def run():
        return alg.solve_torsion_free(A)

    def check(space, out, rng) -> list[str]:
        errors = oracle.at_some_point(
            rng, doc,
            lambda d: oracle.check_solution_space(d.torsion_free_system(), out, d),
        )
        if certificate:
            if out["status"] != "infeasible":
                errors.append(f"almost-dull-not-almost-Lie solved as {out['status']!r}")
            errors += oracle.at_some_point(rng, doc, symmetric_bracket)
            return errors
        if out["status"] == "infeasible":
            return errors + ["anti-commutable fixture reported infeasible"]
        members = [space.particular]
        if space.dim:
            weights = [Fraction(0)] * space.dim
            weights[rng.randrange(space.dim)] = Fraction(rng.randint(1, 5), rng.randint(2, 5))
            members.append(space.member(weights))
        for k, m in enumerate(members):
            if alg.torsion(A, m, "modified"):
                errors.append(f"member {k} has nonzero modified torsion")
            if not alg.check_admissible(A, m).passed:
                errors.append(f"member {k} is not admissible")
        errors += oracle.at_some_point(
            rng, doc,
            lambda d: ["particular solution not admissible at the point"]
            if d.admissibility_residual(d.values(out["particular"])) else [],
        )
        return errors

    def planted(space, out, rng) -> list[str]:
        return let_through(check, space, wrong_spaces(out), rng)

    kind = "certificate" if certificate else "torsion-free"
    return Job(name, kind, run, lambda s: space_obj(s, names), check, space_terms, planted)


def symmetric_bracket(d: oracle.AtPoint) -> list[str]:
    """With no locality operator, torsion-free forces gamma^c_ab
    antisymmetric in a, b: a symmetric part is why no solution exists."""
    if d.loc:
        return ["certificate fixture carries a locality operator"]
    zero = d.zero
    for (c, a, b), v in d.gamma.items():
        if v.v + d.gamma.get((c, b, a), zero).v:
            return []
    return ["bracket has no symmetric part, yet no solution was found"]


def classical(label: str):
    A = alg.make_example("tangent_lie", n=2).algebroid
    s = lambda text: alg.parse_scalar(text, A.coords)  # noqa: E731
    if label == "polar":
        g = [["1", "0"], ["0", "x1^2"]]
    else:
        g = [["1/x2^2", "0"], ["0", "1/x2^2"]]
    return A, alg.Metric([[s(t) for t in row] for row in g])


def textbook(label: str, point) -> tuple[dict, dict]:
    """Christoffel symbols Gamma^a_bc and curvature R^a_bcd of the polar
    plane (flat) and the hyperbolic half-plane (constant curvature -1,
    R^a_bcd = K (delta^a_b g_cd - delta^a_c g_bd))."""
    x1, x2 = point
    if label == "polar":
        return {(0, 1, 1): -x1, (1, 0, 1): 1 / x1, (1, 1, 0): 1 / x1}, {}
    gamma = {(0, 0, 1): -1 / x2, (0, 1, 0): -1 / x2, (1, 0, 0): 1 / x2, (1, 1, 1): -1 / x2}
    g = 1 / x2**2
    R = {}
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    v = -((a == b) * (c == d) - (a == c) * (b == d)) * g
                    if v:
                        R[(a, b, c, d)] = v
    return gamma, R


def koszul_job(name, A, metric, label) -> Job:
    names = A.coords
    doc = doc_obj(A, metric)

    def run():
        return alg.solve_koszul(A, metric)

    def check(space, out, rng) -> list[str]:
        errors = oracle.at_some_point(
            rng, doc, lambda d: oracle.check_solution_space(d.koszul_system(), out, d)
        )
        if label is not None:
            if out["status"] != "unique":
                return errors + [f"{label} Levi-Civita connection is {out['status']}"]
            curvature = sparse_obj(alg.curvature(A, space.particular), names)
            errors += oracle.at_some_point(
                rng, doc, lambda d: classical_errors(label, d, out["particular"], curvature)
            )
        return errors

    def planted(space, out, rng) -> list[str]:
        return let_through(check, space, wrong_spaces(out), rng)

    kind = "koszul" if label is None else f"koszul-{label}"
    return Job(name, kind, run, lambda s: space_obj(s, names), check, space_terms, planted)


def classical_errors(label, d: oracle.AtPoint, christoffel, curvature) -> list[str]:
    gamma, R = textbook(label, d.ev.point)
    got = lambda items: {k: v.v for k, v in d.values(items).items()}  # noqa: E731
    return oracle.differ(got(christoffel), gamma, f"{label} Christoffel symbols") + (
        oracle.differ(got(curvature), R, f"{label} curvature")
    )


# -- cli_check --------------------------------------------------------------


def cli_documents():
    A, metric = classical("halfplane")
    s = lambda text: alg.parse_scalar(text, A.coords)  # noqa: E731
    lc = {(0, 0, 1): "-1/x2", (0, 1, 0): "-1/x2", (1, 0, 0): "1/x2", (1, 1, 1): "-1/x2"}
    conn = alg.Connection.of(2, {k: s(t) for k, t in lc.items()})
    yield "halfplane", alg.AlgebroidDocument(A, metric, conn)
    for seed in CLI_SEEDS:
        rank, dim = 2 + seed % 3, 1 + (seed // 3) % 2
        fx = random_anticommutable(seed, dim=dim, rank=rank)
        metric = random_constant_metric(random.Random(seed), dim, rank)
        yield f"fixture-{seed}", alg.AlgebroidDocument(fx.algebroid, metric, fx.connection)


def cli_jobs(workdir: str) -> list[Job]:
    jobs = []
    for name, document in cli_documents():
        path = os.path.join(workdir, f"{name}.json")
        alg.dump_document(document, path)
        jobs.append(cli_job(name, path))
    return jobs


def cli_job(name: str, path: str) -> Job:
    report = path[: -len(".json")] + ".report.jsonl"
    argv = ["check", path, *CLI_ARGS, "-o", report]
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)

    def run():
        return algebroids.cli.main(argv)

    def serialize(code) -> dict:
        with open(report, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        return {"exit": code, "lines": lines}

    def check(code, out, rng) -> list[str]:
        return cli_errors(name, doc, out, rng)

    def terms(out) -> int:
        return sum(
            space_terms(line) for line in out["lines"]
            if line.get("identity") == "levicivita-solution"
        )

    def planted(code, out, rng) -> list[str]:
        lines = out["lines"]
        failing_ricci = [dict(x, **{"pass": False}) if x.get("identity") == "ricci" else x for x in lines]
        solution = [
            dict(x, particular=bumped(x["particular"], 3))
            if x.get("identity") == "levicivita-solution" and "particular" in x else x
            for x in lines
        ]
        wrong = [("gating check failing", {"exit": 1, "lines": failing_ricci})]
        if not any(x.get("pass") is False for x in lines):
            wrong.append(("exit code flipped", dict(out, exit=1 - out["exit"])))
        if solution != lines:
            wrong.append(("solution off by one", dict(out, lines=solution)))
        return let_through(check, code, wrong, rng)

    kind = "cli-halfplane" if name == "halfplane" else "cli"
    return Job(
        name, kind, run, serialize, check, terms, planted,
        failed=lambda out: out["exit"] != 0,
    )


def cli_errors(name, doc, out, rng) -> list[str]:
    """Every check is reported once; the only failing line allowed is the
    non-gating one, and the exit code follows the gating lines: 0 when none
    fails.  A failing non-gating line may also exit 1, which is the known
    gating fault of ``cli._run_suites``, counted as a failed job.  The
    Levi-Civita solution solves the Koszul system of the document; the
    half-plane gives its textbook symbols."""
    lines = out["lines"]
    errors = []
    seen = [line.get("identity") for line in lines]
    if sorted(seen) != sorted(CLI_IDENTITIES):
        errors.append(f"reported checks {seen}")
    failing = [line["identity"] for line in lines if line.get("pass") is False]
    gating = [f for f in failing if f != NON_GATING]
    if gating:
        errors.append(f"gating checks failed: {failing}")
    allowed = {1} if gating else {0, 1} if failing else {0}
    if out["exit"] not in allowed:
        errors.append(f"exit code {out['exit']} with failing checks {failing}")
    solution = next((line for line in lines if line.get("identity") == "levicivita-solution"), None)
    if solution is None:
        return errors + ["no levicivita-solution line"]
    errors += oracle.at_some_point(
        rng, doc, lambda d: oracle.check_solution_space(d.koszul_system(), solution, d)
    )
    if name == "halfplane":
        errors += oracle.at_some_point(
            rng, doc,
            lambda d: oracle.differ(
                {k: v.v for k, v in d.values(solution["particular"]).items()},
                textbook("halfplane", d.ev.point)[0],
                "half-plane Christoffel symbols",
            ),
        )
    return errors
