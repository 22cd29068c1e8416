"""Batch front end: check identity suites, compute derived tensors, emit
catalog examples and frame changes.

Exit codes: 0 all checks pass; 1 at least one identity fails; 2 input or
parse error; 3 a requested solve is infeasible; 4 term budget exceeded.
``--budget`` applies to one run and is restored when ``main`` returns.
Reports stream line-delimited JSON (or an aligned table) in a
deterministic order, so identical inputs and seeds give byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .calculus import (
    check_bianchi_algebraic,
    check_bianchi_differential,
    check_cartan_structure,
    check_magic_and_derivations,
    check_ricci,
    check_square_laws,
)
from .catalog import make_example
from .connection import (
    Connection,
    Metric,
    check_admissible,
    curvature,
    non_metricity,
    torsion,
)
from .core import FrameChange, change_frame, check_locality_projector, classify
from .documents import (
    AlgebroidDocument,
    _parse_entries,
    _parse_matrix,
    document_to_obj,
    dump_document,
    load_document,
    parse_metric,
    sparse_to_obj,
)
from .errors import (
    AdmissibilityError,
    AlgebroidError,
    BudgetError,
    DocumentError,
)
from .levicivita import (
    SolutionSpace,
    check_levicivita_props,
    decompose_connection,
    solve_koszul,
    solve_torsion_free,
)
from .parsing import parse_scalar
from .reports import CheckReport
from .scalars import scalar_to_text, set_term_budget

EXIT_OK = 0
EXIT_IDENTITY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4

SUITES = (
    "all",
    "classify",
    "admissible",
    "cartan",
    "bianchi",
    "ricci",
    "magic",
    "levicivita",
)


@dataclass
class RunConfig:
    suite: str = "all"
    seed: int = 0
    samples: int = 8
    degree: int = 2
    fmt: str = "json"
    out: str | None = None

    def stamp(self) -> str:
        return f"config: seed={self.seed} samples={self.samples} degree={self.degree}"


class _Emitter:
    def __init__(self, config: RunConfig):
        self.config = config
        self.lines: list[str] = []
        self.any_failed = False

    def emit(self, obj: dict) -> None:
        if obj.get("pass") is False:
            self.any_failed = True
        if self.config.fmt == "json":
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

    def emit_report(self, report: CheckReport, names, config: RunConfig) -> None:
        obj = report.to_json_obj(names)
        obj["assumptions"].append(config.stamp())
        self.emit(obj)

    def flush(self) -> int:
        _write("\n".join(self.lines) + ("\n" if self.lines else ""), self.config)
        return EXIT_IDENTITY_FAILED if self.any_failed else EXIT_OK


def _write(text: str, config: RunConfig) -> None:
    """Write text to the -o path, or to stdout without one."""
    if config.out:
        with open(config.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _failed_report(name: str, exc: AdmissibilityError) -> CheckReport:
    return CheckReport(
        identity=name,
        passed=False,
        residuals=list(exc.residuals),
        assumptions=["connection not admissible; identity not evaluated"],
    )


def _run_suites(doc: AlgebroidDocument, config: RunConfig, emitter: _Emitter) -> int:
    A = doc.algebroid
    names = A.coords
    suite = config.suite

    def want(name: str) -> bool:
        return suite in ("all", name)

    if want("classify"):
        flags = classify(A)
        emitter.emit(
            {
                "identity": "classify",
                "pass": None,
                "flags": {
                    "almost_dull": flags.almost_dull,
                    "almost_lie": flags.almost_lie,
                    "pre_leibniz": flags.pre_leibniz,
                    "pre_dull": flags.pre_dull,
                    "pre_lie": flags.pre_lie,
                },
            }
        )
        if A.proj is not None:
            emitter.emit_report(
                check_locality_projector(A, seed=config.seed), names, config
            )
    conn = doc.connection
    if conn is not None and want("admissible"):
        emitter.emit_report(check_admissible(A, conn), names, config)
    identity_suites = []
    if conn is not None and A.proj is not None:
        if want("cartan"):
            identity_suites.append(
                ("cartan-structure", lambda: check_cartan_structure(A, conn))
            )
        if want("bianchi"):
            identity_suites.append(
                (
                    "bianchi-algebraic-projected",
                    lambda: check_bianchi_algebraic(
                        A, conn, "projected", config.seed, config.samples, config.degree
                    ),
                )
            )
            identity_suites.append(
                (
                    "bianchi-algebraic-general",
                    lambda: check_bianchi_algebraic(A, conn, "general"),
                )
            )
            identity_suites.append(
                ("bianchi-differential", lambda: check_bianchi_differential(A, conn))
            )
        if want("ricci"):
            identity_suites.append(
                (
                    "ricci",
                    lambda: check_ricci(
                        A, conn, config.seed, config.samples, config.degree
                    ),
                )
            )
        if want("magic"):
            identity_suites.append(
                (
                    "magic-and-derivations",
                    lambda: check_magic_and_derivations(
                        A, conn, config.seed, config.samples, config.degree
                    ),
                )
            )
            identity_suites.append(
                (
                    "square-laws",
                    lambda: check_square_laws(
                        A, conn, config.seed, config.samples, config.degree
                    ),
                )
            )
    for name, runner in identity_suites:
        try:
            emitter.emit_report(runner(), names, config)
        except AdmissibilityError as exc:
            emitter.emit_report(_failed_report(name, exc), names, config)
    if want("levicivita") and doc.metric is not None:
        space = solve_koszul(A, doc.metric)
        emitter.emit(_space_obj("levicivita-solution", space, names))
        if conn is not None:
            emitter.emit_report(
                check_levicivita_props(
                    A, conn, doc.metric, config.seed, config.samples, config.degree
                ),
                names,
                config,
            )
            try:
                _, _, _, rep = decompose_connection(A, conn, doc.metric)
                emitter.emit_report(rep, names, config)
            except AdmissibilityError as exc:
                emitter.emit_report(
                    _failed_report("decomposition-reconstruction", exc), names, config
                )
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
    config = _config_from(args)
    emitter = _Emitter(config)
    doc = load_document(args.input)
    if args.solve:
        if args.solve == "torsion-free":
            space = solve_torsion_free(doc.algebroid)
        else:
            if doc.metric is None:
                raise DocumentError("koszul solve needs a metric block")
            space = solve_koszul(doc.algebroid, doc.metric)
        emitter.emit(_space_obj(f"solve-{args.solve}", space, doc.algebroid.coords))
        code = _run_suites(doc, config, emitter)
        if space.status == "infeasible":
            return EXIT_INFEASIBLE
        return code
    return _run_suites(doc, config, emitter)


def cmd_compute(args: argparse.Namespace) -> int:
    config = _config_from(args)
    emitter = _Emitter(config)
    doc = load_document(args.input)
    A = doc.algebroid
    names = A.coords
    target = args.target
    conn = doc.connection
    if target in ("torsion", "projected-torsion", "curvature", "nonmetricity"):
        if conn is None:
            raise DocumentError(f"{target} needs a connection block")
    if target == "torsion":
        arr = torsion(A, conn, "modified")
        emitter.emit({"result": "torsion", "components": sparse_to_obj(arr, names)})
    elif target == "projected-torsion":
        if A.proj is None:
            raise DocumentError("locality projector required")
        arr = torsion(A, conn, "projected")
        emitter.emit(
            {"result": "projected-torsion", "components": sparse_to_obj(arr, names)}
        )
    elif target == "curvature":
        if A.proj is None:
            raise DocumentError("locality projector required")
        arr = curvature(A, conn)
        emitter.emit({"result": "curvature", "components": sparse_to_obj(arr, names)})
    elif target == "nonmetricity":
        if doc.metric is None:
            raise DocumentError("nonmetricity needs a metric block")
        arr = non_metricity(A, conn, doc.metric)
        emitter.emit(
            {"result": "nonmetricity", "components": sparse_to_obj(arr, names)}
        )
    elif target == "levicivita":
        if doc.metric is None:
            raise DocumentError("levicivita needs a metric block")
        space = solve_koszul(A, doc.metric)
        emitter.emit(_space_obj("levicivita-solution", space, names))
        emitter.flush()
        return EXIT_INFEASIBLE if space.status == "infeasible" else EXIT_OK
    elif target == "decomposition":
        if doc.metric is None or conn is None:
            raise DocumentError("decomposition needs metric and connection blocks")
        lc, contortion, disformation, rep = decompose_connection(A, conn, doc.metric)
        emitter.emit(
            {
                "result": "decomposition",
                "levicivita": sparse_to_obj(lc.coeff, names),
                "torsion_part": sparse_to_obj(contortion, names),
                "nonmetricity_part": sparse_to_obj(disformation, names),
                "reconstruction_pass": rep.passed,
            }
        )
    else:
        raise DocumentError(f"unknown compute target {target!r}")
    return emitter.flush()


def _json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON for {what}: {exc}") from exc


def _matrix_arg(text: str, names, size: int):
    raw = _json_arg(text, "--matrix")
    if raw is None:
        raise DocumentError("--matrix must be a JSON list of lists")
    return _parse_matrix(raw, names, size, size, "--matrix")


def cmd_example(args: argparse.Namespace) -> int:
    config = _config_from(args)
    kind = args.kind
    params: dict = {}
    names = tuple(f"x{i + 1}" for i in range(args.n)) if args.n else ()
    if kind in ("tangent_lie", "courant_standard"):
        params = {"n": args.n}
    elif kind == "higher_courant":
        params = {"n": args.n, "p": args.p}
    elif kind == "twisted_frame_lie":
        if not args.matrix:
            raise DocumentError("twisted_frame_lie needs --matrix")
        params = {"n": args.n, "frame": _matrix_arg(args.matrix, names, args.n)}
    elif kind == "courant_h_twisted":
        if not args.h:
            raise DocumentError("courant_h_twisted needs --h")
        h = _parse_entries(_json_arg(args.h, "h"), names, 3, args.n, "h")
        params = {"n": args.n, "h": h}
    elif kind in ("metric_algebroid", "conformal_courant"):
        if not args.params:
            raise DocumentError(f"{kind} needs --params JSON")
        raw = _json_arg(args.params, "--params")
        if not isinstance(raw, dict) or not isinstance(raw.get("rank"), int) or (
            not isinstance(raw.get("metric"), list)
        ):
            raise DocumentError("--params must hold an integer rank and a metric list")
        r = raw["rank"]
        metric = parse_metric(raw["metric"], names, r)
        gamma_antisym = _parse_entries(
            raw.get("gamma_antisym", []), names, 3, r, "gamma_antisym"
        )
        params = {"n": args.n, "gamma_antisym": gamma_antisym, "metric": metric}
        if kind == "conformal_courant":
            theta = raw.get("theta", [])
            if not isinstance(theta, list):
                raise DocumentError(f"theta must be a list, got {theta!r}")
            params["theta"] = tuple(parse_scalar(str(t), names) for t in theta)
    else:
        raise DocumentError(f"unknown example kind {kind!r}")
    bundle = make_example(kind, **params)
    doc = AlgebroidDocument(
        algebroid=bundle.algebroid, metric=bundle.metric, connection=None
    )
    obj = document_to_obj(doc)
    if bundle.higher_metric is not None:
        obj["higher_metric"] = {
            "p": bundle.higher_metric.p,
            "entries": [
                {
                    "idx": [a + 1, b + 1],
                    "I": [k + 1 for k in I],
                    "val": scalar_to_text(v, bundle.algebroid.coords),
                }
                for (a, b, I), v in sorted(bundle.higher_metric.comp.items())
            ],
        }
    if bundle.theta is not None:
        obj["theta"] = [
            scalar_to_text(t, bundle.algebroid.coords) for t in bundle.theta
        ]
    _write(json.dumps(obj, indent=2) + "\n", config)
    return EXIT_OK


def cmd_frame_change(args: argparse.Namespace) -> int:
    config = _config_from(args)
    doc = load_document(args.input)
    A = doc.algebroid
    F = FrameChange.of(_matrix_arg(args.matrix, A.coords, A.rank))
    conn = doc.connection.coeff if doc.connection else None
    metric = doc.metric.g if doc.metric else None
    A2, conn2, metric2 = change_frame(A, F, conn, metric)
    doc2 = AlgebroidDocument(
        algebroid=A2,
        metric=Metric(metric2) if metric2 is not None else None,
        connection=Connection(A2.rank, conn2) if conn2 is not None else None,
    )
    _write(dump_document(doc2) + "\n", config)
    return EXIT_OK


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        suite=getattr(args, "suite", "all"),
        seed=getattr(args, "seed", 0),
        samples=getattr(args, "samples", 8),
        degree=getattr(args, "degree", 2),
        fmt=getattr(args, "format", "json"),
        out=getattr(args, "output", None),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algebroids",
        description="Exact geometry checks on local pre-Leibniz algebroids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=8)
        p.add_argument("--degree", type=int, default=2)
        p.add_argument("--budget", type=int, default=100_000)
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("-o", "--output", default=None)

    p_check = sub.add_parser("check", help="run identity suites on a document")
    p_check.add_argument("input")
    p_check.add_argument("--suite", choices=SUITES, default="all")
    p_check.add_argument(
        "--solve", choices=("torsion-free", "koszul"), default=None
    )
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_compute = sub.add_parser("compute", help="emit one derived tensor")
    p_compute.add_argument("input")
    p_compute.add_argument(
        "target",
        choices=(
            "torsion",
            "projected-torsion",
            "curvature",
            "nonmetricity",
            "levicivita",
            "decomposition",
        ),
    )
    common(p_compute)
    p_compute.set_defaults(func=cmd_compute)

    p_example = sub.add_parser("example", help="emit a catalog entry as a document")
    p_example.add_argument(
        "kind",
        choices=(
            "tangent_lie",
            "twisted_frame_lie",
            "courant_standard",
            "courant_h_twisted",
            "metric_algebroid",
            "higher_courant",
            "conformal_courant",
        ),
    )
    p_example.add_argument("--n", type=int, default=2)
    p_example.add_argument("--p", type=int, default=2)
    p_example.add_argument("--matrix", default=None, help="frame matrix JSON")
    p_example.add_argument("--h", default=None, help="twist 3-form entries JSON")
    p_example.add_argument("--params", default=None, help="family parameters JSON")
    common(p_example)
    p_example.set_defaults(func=cmd_example)

    p_frame = sub.add_parser("frame-change", help="transform a document's frame")
    p_frame.add_argument("input")
    p_frame.add_argument("--matrix", required=True, help="r x r matrix JSON")
    common(p_frame)
    p_frame.set_defaults(func=cmd_frame_change)
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
    except (DocumentError, AlgebroidError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        set_term_budget(budget)


if __name__ == "__main__":
    sys.exit(main())
