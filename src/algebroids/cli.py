"""Batch front end: argparse and dispatch for the identity suites, derived
tensors, catalog examples and frame changes.

    check INPUT [--suite S] [--solve {torsion-free,koszul}]
                [--seed N] [--samples N] [--degree N] [--format F]
    compute INPUT TARGET [--format F]
    example KIND [--n N] [--p P] [--matrix M] [--h H] [--params JSON]
    frame-change INPUT --matrix M

Each subcommand takes only these flags, ``--budget N`` and ``-o PATH``.
Documents and JSON flag values are read by ``documents``, not here.  The
identity suites that need a connection and a locality projector run from
``GATED`` in report order, and each compute target from ``COMPUTE``.

Exit codes: 0 all checks pass; 1 at least one identity fails; 2 input or
parse error; 3 a requested solve is infeasible; 4 term budget exceeded.
``--budget`` (at least 1) applies to one run and is restored when ``main``
returns.  Reports stream line-delimited JSON (or an aligned table) in a
deterministic order, so identical inputs and seeds give byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import get_args

from .calculus import (
    check_bianchi_algebraic,
    check_bianchi_differential,
    check_cartan_structure,
    check_magic_and_derivations,
    check_ricci,
    check_square_laws,
)
from .catalog import ExampleKind, make_example
from .connection import (
    Connection,
    Metric,
    change_frame,
    check_admissible,
    curvature,
    non_metricity,
    torsion,
)
from .core import FrameChange, check_locality_projector, classify
from .documents import (
    AlgebroidDocument,
    dump_document,
    example_to_obj,
    load_document,
    read_example_params,
    read_frame,
    sparse_to_obj,
)
from .errors import AdmissibilityError, AlgebroidError, BudgetError, DocumentError
from .levicivita import (
    SolutionSpace,
    check_levicivita_props,
    decompose_connection,
    solve_koszul,
    solve_torsion_free,
)
from .reports import CheckReport
from .scalars import DEFAULT_TERM_BUDGET, scalar_to_text, set_term_budget

EXIT_OK = 0
EXIT_IDENTITY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4

# (suite, check) in report order; each check needs a connection and a
# locality projector, and gets (A, conn, (seed, samples, degree))
GATED = (
    ("cartan", lambda A, c, s: check_cartan_structure(A, c)),
    ("bianchi", lambda A, c, s: check_bianchi_algebraic(A, c, "projected")),
    ("bianchi", lambda A, c, s: check_bianchi_algebraic(A, c, "general")),
    ("bianchi", lambda A, c, s: check_bianchi_differential(A, c)),
    ("ricci", lambda A, c, s: check_ricci(A, c, *s)),
    ("magic", lambda A, c, s: check_magic_and_derivations(A, c, *s)),
    ("magic", lambda A, c, s: check_square_laws(A, c, *s)),
)
SUITES = (
    "all", "classify", "admissible", *dict.fromkeys(g[0] for g in GATED), "levicivita"
)


class _Emitter:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.lines: list[str] = []
        self.any_failed = False

    def emit(self, obj: dict) -> None:
        if obj.get("pass") is False:
            self.any_failed = True
        if self.args.format == "json":
            self.lines.append(json.dumps(obj, sort_keys=False))
        else:
            kind = obj.get("identity") or obj.get("result") or "-"
            status = obj.get("pass")
            status_text = {True: "pass", False: "FAIL", None: "-"}[status]
            extra = ""
            if obj.get("residuals"):
                extra = f" witnesses={len(obj['residuals'])}"
            if obj.get("status"):
                extra += f" status={obj['status']}"
            self.lines.append(f"{kind:32s} {status_text}{extra}")

    def emit_report(self, report: CheckReport, names) -> None:
        obj = report.to_json_obj(names)
        a = self.args
        obj["assumptions"].append(
            f"config: seed={a.seed} samples={a.samples} degree={a.degree}"
        )
        self.emit(obj)

    def flush(self) -> int:
        _write("\n".join(self.lines) + ("\n" if self.lines else ""), self.args.output)
        return EXIT_IDENTITY_FAILED if self.any_failed else EXIT_OK


def _write(text: str, path: str | None) -> None:
    """Write text to path, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _gated(run) -> CheckReport:
    """The report of run(), or a failed one for the refused identity when
    the connection is not admissible."""
    try:
        return run()
    except AdmissibilityError as exc:
        return CheckReport(
            identity=exc.identity,
            passed=False,
            residuals=list(exc.residuals),
            assumptions=["connection not admissible; identity not evaluated"],
        )


def _run_suites(
    doc: AlgebroidDocument, args: argparse.Namespace, emitter: _Emitter
) -> int:
    A = doc.algebroid
    names = A.coords
    conn = doc.connection
    sampling = (args.seed, args.samples, args.degree)

    def want(name: str) -> bool:
        return args.suite in ("all", name)

    if want("classify"):
        flags = asdict(classify(A))
        emitter.emit({"identity": "classify", "pass": None, "flags": flags})
        if A.proj is not None:
            emitter.emit_report(check_locality_projector(A, seed=args.seed), names)
    if conn is not None and want("admissible"):
        emitter.emit_report(check_admissible(A, conn), names)
    if conn is not None and A.proj is not None:
        for suite, check in GATED:
            if want(suite):
                report = _gated(lambda: check(A, conn, sampling))
                emitter.emit_report(report, names)
    if want("levicivita") and doc.metric is not None:
        space = solve_koszul(A, doc.metric)
        emitter.emit(_space_obj("levicivita-solution", space, names))
        if conn is not None:
            props = check_levicivita_props(A, conn, doc.metric, *sampling)
            emitter.emit_report(props, names)
            report = _gated(lambda: decompose_connection(A, conn, doc.metric)[3])
            emitter.emit_report(report, names)
    return emitter.flush()


def _space_obj(label: str, space: SolutionSpace, names) -> dict:
    obj: dict = {"identity": label, "pass": None, "status": space.status}
    if space.status == "infeasible":
        obj["witness"] = scalar_to_text(space.witness, names)
        return obj
    obj["dim"] = space.dim
    obj["particular"] = sparse_to_obj(space.particular.coeff, names)
    obj["kernel_basis"] = [sparse_to_obj(vec, names) for vec in space.kernel_basis]
    obj["denominator_loci"] = space.denominator_loci(names)
    return obj


def cmd_check(args: argparse.Namespace) -> int:
    emitter = _Emitter(args)
    doc = load_document(args.input)
    if not args.solve:
        return _run_suites(doc, args, emitter)
    if args.solve == "torsion-free":
        space = solve_torsion_free(doc.algebroid)
    else:
        if doc.metric is None:
            raise DocumentError("koszul solve needs a metric block")
        space = solve_koszul(doc.algebroid, doc.metric)
    emitter.emit(_space_obj(f"solve-{args.solve}", space, doc.algebroid.coords))
    code = _run_suites(doc, args, emitter)
    return EXIT_INFEASIBLE if space.status == "infeasible" else code


def _decomposition(A, conn, metric) -> dict:
    lc, contortion, disformation, rep = decompose_connection(A, conn, metric)
    return {
        "result": "decomposition",
        "levicivita": sparse_to_obj(lc.coeff, A.coords),
        "torsion_part": sparse_to_obj(contortion, A.coords),
        "nonmetricity_part": sparse_to_obj(disformation, A.coords),
        "reconstruction_pass": rep.passed,
    }


def _tensor(target: str, tensor):
    """The compute function of a target whose result is tensor(A, conn, metric)."""
    return lambda A, c, g: {
        "result": target, "components": sparse_to_obj(tensor(A, c, g), A.coords)
    }


# compute target -> (the document blocks it needs, checked in this order,
# and the report object of (A, connection, metric))
COMPUTE = {
    "torsion": (("connection",), _tensor("torsion", lambda A, c, g: torsion(A, c, "modified"))),
    "projected-torsion": (("connection", "locality projector"),
                          _tensor("projected-torsion", lambda A, c, g: torsion(A, c, "projected"))),
    "curvature": (("connection", "locality projector"),
                  _tensor("curvature", lambda A, c, g: curvature(A, c))),
    "nonmetricity": (("connection", "metric"), _tensor("nonmetricity", non_metricity)),
    "levicivita": (("metric",),
                   lambda A, c, g: _space_obj("levicivita-solution", solve_koszul(A, g), A.coords)),
    "decomposition": (("connection", "metric"), _decomposition),
}


def cmd_compute(args: argparse.Namespace) -> int:
    emitter = _Emitter(args)
    doc = load_document(args.input)
    A = doc.algebroid
    needs, compute = COMPUTE[args.target]
    blocks = {"connection": doc.connection, "locality projector": A.proj, "metric": doc.metric}
    for need in needs:
        if blocks[need] is None:
            raise DocumentError(f"{args.target} needs a {need} block")
    obj = compute(A, doc.connection, doc.metric)
    emitter.emit(obj)
    code = emitter.flush()
    return EXIT_INFEASIBLE if obj.get("status") == "infeasible" else code


def cmd_example(args: argparse.Namespace) -> int:
    params = read_example_params(args.kind, args.n, args.p, args.matrix, args.h, args.params)
    obj = example_to_obj(make_example(args.kind, **params))
    _write(json.dumps(obj, indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_frame_change(args: argparse.Namespace) -> int:
    doc = load_document(args.input)
    A = doc.algebroid
    F = FrameChange.of(read_frame(args.matrix, A.coords, A.rank))
    conn = doc.connection.coeff if doc.connection else None
    metric = doc.metric.g if doc.metric else None
    A2, conn2, metric2 = change_frame(A, F, conn, metric)
    doc2 = AlgebroidDocument(
        algebroid=A2,
        metric=Metric(metric2) if metric2 is not None else None,
        connection=Connection(A2.rank, conn2) if conn2 is not None else None,
    )
    _write(dump_document(doc2) + "\n", args.output)
    return EXIT_OK


def _int_at_least(low: int):
    """The argparse type of an integer flag whose value is at least low."""
    noun = "non-negative" if low == 0 else "positive"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {noun} integer, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algebroids",
        description="Exact geometry checks on local pre-Leibniz algebroids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run identity suites on a document")
    p_check.add_argument("input")
    p_check.add_argument("--suite", choices=SUITES, default="all")
    p_check.add_argument(
        "--solve", choices=("torsion-free", "koszul"), default=None
    )
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--samples", type=_int_at_least(0), default=8)
    p_check.add_argument("--degree", type=_int_at_least(0), default=2)
    p_check.set_defaults(func=cmd_check)

    p_compute = sub.add_parser("compute", help="emit one derived tensor")
    p_compute.add_argument("input")
    p_compute.add_argument("target", choices=tuple(COMPUTE))
    p_compute.set_defaults(func=cmd_compute)

    p_example = sub.add_parser("example", help="emit a catalog entry as a document")
    p_example.add_argument("kind", choices=get_args(ExampleKind))
    p_example.add_argument("--n", type=int, default=2)
    p_example.add_argument("--p", type=int, default=2)
    p_example.add_argument("--matrix", default=None, help="frame matrix JSON")
    p_example.add_argument("--h", default=None, help="twist 3-form entries JSON")
    p_example.add_argument("--params", default=None, help="family parameters JSON")
    p_example.set_defaults(func=cmd_example)

    p_frame = sub.add_parser("frame-change", help="transform a document's frame")
    p_frame.add_argument("input")
    p_frame.add_argument("--matrix", required=True, help="r x r matrix JSON")
    p_frame.set_defaults(func=cmd_frame_change)

    for p in (p_check, p_compute):
        p.add_argument("--format", choices=("json", "table"), default="json")
    for p in (p_check, p_compute, p_example, p_frame):
        p.add_argument("--budget", type=_int_at_least(1), default=DEFAULT_TERM_BUDGET)
        p.add_argument("-o", "--output", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # --budget holds for this run only
    budget = set_term_budget(args.budget)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except AlgebroidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        set_term_budget(budget)


if __name__ == "__main__":
    sys.exit(main())
