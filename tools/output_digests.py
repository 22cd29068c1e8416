"""Digests of every output a tree of this repository prints for a fixed
set of inputs, so that two trees can be compared output by output.

    python3 tools/output_digests.py [TREE]

TREE defaults to the checkout holding this script.  The package is
imported from TREE's ``src`` and the inputs from TREE's ``bench``:

- one pass of each benchmark workload's jobs (``workloads.build``), each
  job's ``serialize`` of its result;
- ``algebroids.cli.main`` run in-process on the ``cli_check`` documents:
  ``check --suite all --seed 11 --samples 4``, ``check --suite bianchi
  --format table`` and ``compute`` of every target, each run's standard
  output, standard error and exit code;
- ``frame-change`` of each ``cli_check`` document by the leading block of
  one fixed unit lower-triangular polynomial matrix, the path on which
  ``FrameChange.of`` inverts a frame;
- ``check --suite all --seed 11 --samples 4`` on two standard Courant
  documents, where the projected and modified brackets differ (no
  workload document has such brackets);
- ``example`` of every catalog kind;
- ``ERRORS``: malformed documents and flag values, each run's exit code
  (2), standard output and error message;
- the failing paths of the ``cli_check`` documents: ``check --suite all``
  on each of ``broken_documents``, whose identities fail and print their
  residuals or, with a connection that is no longer admissible, are
  refused; ``SOLVES``, the two solves in both formats; and one run past
  the term budget (exit 4).

Prints one ``name sha256`` line per output.  Two trees give the same
outputs when ``diff`` finds no difference between their lines:

    diff <(python3 tools/output_digests.py A) <(python3 tools/output_digests.py B)

Runs in a temporary directory, with relative document paths, and writes
no bytecode into TREE.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

WORKLOADS = ("identity_batch", "solve", "cli_check")
CHECKS = (
    ("check-all", ("--suite", "all", "--seed", "11", "--samples", "4")),
    ("check-bianchi-table", ("--suite", "bianchi", "--format", "table")),
)
COMPUTE_TARGETS = (
    "torsion", "projected-torsion", "curvature", "nonmetricity", "levicivita",
    "decomposition",
)
SOLVES = tuple(
    (f"solve-{kind}-{fmt}", ("--solve", kind, "--format", fmt))
    for kind in ("torsion-free", "koszul")
    for fmt in ("json", "table")
)
# a check of the first cli_check document that passes the term budget
OVER_BUDGET = ("--suite", "all", "--budget", "4")
# a document of rank r is changed by the leading r x r block
FRAME = (("1", "0", "0"), ("x1", "1", "0"), ("2", "1 + x1^2", "1"))
_PARAMS = json.dumps({
    "rank": 2,
    "metric": [{"idx": [1, 1], "val": "1 + x1^2"}, {"idx": [2, 2], "val": "1"}],
    "gamma_antisym": [{"idx": [1, 1, 2], "val": "x2"}, {"idx": [1, 2, 1], "val": "-x2"}],
    "theta": ["x1", "0"],
})
EXAMPLES = (
    ("tangent_lie", ()),
    ("twisted_frame_lie", ("--matrix", json.dumps([["1", "0"], ["0", "x1"]]))),
    ("courant_standard", ()),
    ("courant_h_twisted", (
        "--n", "4", "--h",
        json.dumps([{"idx": [1, 2, 3], "val": "x1 + x2"}, {"idx": [2, 3, 4], "val": "x3^2"}]),
    )),
    ("metric_algebroid", ("--params", _PARAMS)),
    ("higher_courant", ("--n", "3", "--p", "2")),
    ("conformal_courant", ("--params", _PARAMS)),
)

# a valid rank-2 document on one coordinate with every block
BASE = {
    "dimension": 1, "rank": 2, "coordinates": ["x1"], "anchor": [["1", "0"]],
    "gamma": [{"idx": [2, 1, 1], "val": "x1"}], "L": [], "P": [["0", "0"], ["0", "1"]],
    "metric": [{"idx": [1, 1], "val": "1"}, {"idx": [2, 2], "val": "1 + x1^2"}],
    "connection": [{"idx": [1, 1, 2], "val": "x1"}],
}
DOC = "DOC"  # stands for the document's path in a command line
# (name, the text of the document or the BASE fields it replaces, with None
# for a field left out, and the command line)
ERRORS = (
    ("parse-position", {"anchor": [["x1 +", "0"]]}, ("check", DOC)),
    ("unknown-name", {"metric": [{"idx": [1, 1], "val": "y1"}]}, ("check", DOC)),
    ("trailing-input", {"anchor": [["x1 x1", "0"]]}, ("check", DOC)),
    ("bad-character", {"gamma": [{"idx": [1, 1, 2], "val": "x1 $ 2"}]}, ("check", DOC)),
    ("divide-by-zero", {"P": [["1/(x1 - x1)", "0"], ["0", "1"]]}, ("check", DOC)),
    ("missing-exponent", {"connection": [{"idx": [1, 1, 1], "val": "x1^"}]}, ("check", DOC)),
    ("index-twice", {"gamma": [{"idx": [2, 1, 1], "val": "x1"}] * 2}, ("check", DOC)),
    ("index-out-of-range", {"connection": [{"idx": [1, 3, 1], "val": "1"}]}, ("check", DOC)),
    ("index-arity", {"L": [{"idx": [1, 1, 1], "val": "1"}]}, ("check", DOC)),
    ("entry-without-val", {"metric": [{"idx": [1, 1]}]}, ("check", DOC)),
    ("block-not-a-list", {"L": 5}, ("check", DOC)),
    ("no-anchor", {"anchor": None}, ("check", DOC)),
    ("anchor-shape", {"anchor": [["1"]]}, ("check", DOC)),
    ("anchor-not-rows", {"anchor": ["1", "0"]}, ("check", DOC)),
    ("coordinate-count", {"dimension": 2}, ("check", DOC)),
    ("no-rank", {"rank": None}, ("check", DOC)),
    ("invalid-json", '{"dimension": 1,', ("check", DOC)),
    ("root-not-object", "[]", ("check", DOC)),
    ("missing-file", "", ("check", "missing.json")),
    ("koszul-without-metric", {"metric": None}, ("check", DOC, "--solve", "koszul")),
    ("curvature-without-projector", {"P": None}, ("compute", DOC, "curvature")),
    ("torsion-without-connection", {"connection": None}, ("compute", DOC, "torsion")),
    ("singular-matrix", {}, ("frame-change", DOC, "--matrix", '[["1", "x1"], ["1", "x1"]]')),
    ("matrix-json", {}, ("frame-change", DOC, "--matrix", '[["1", "0"], ["0"')),
    ("matrix-size", {}, ("frame-change", DOC, "--matrix", '[["1"]]')),
    ("degenerate-params", "", ("example", "metric_algebroid", "--params",
                               json.dumps({"rank": 2, "metric": [{"idx": [1, 1], "val": "x1"}]}))),
    ("params-json", "", ("example", "conformal_courant", "--params", "{rank: 2}")),
    ("theta-not-a-list", "", ("example", "conformal_courant", "--params",
                              json.dumps({"rank": 1, "metric": [{"idx": [1, 1], "val": "1"}],
                                          "theta": 5}))),
    ("no-frame", "", ("example", "twisted_frame_lie")),
    ("frame-not-rows", "", ("example", "twisted_frame_lie", "--matrix", '["1", "0"]')),
    ("no-twist", "", ("example", "courant_h_twisted", "--n", "3")),
    ("twist-not-closed", "", ("example", "courant_h_twisted", "--n", "4", "--h",
                              json.dumps([{"idx": [1, 2, 3], "val": "x4"}]))),
    ("budget-0", {}, ("compute", DOC, "torsion", "--budget", "0")),
    ("negative-samples", {}, ("check", DOC, "--samples", "-1")),
)


def digest(obj) -> str:
    """sha256 of the JSON text of obj, keys in their own order."""
    return hashlib.sha256(json.dumps(obj).encode("utf-8")).hexdigest()


def run_cli(argv: list[str]) -> str:
    """Digest of the standard output, standard error and exit code of one
    in-process ``algebroids.cli.main`` run."""
    from algebroids.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return digest([out.getvalue(), err.getvalue(), code])


def cli_digests(documents: dict[str, str]) -> dict[str, str]:
    """The check and compute runs on each document, keyed by name."""
    out = {}
    for name, path in documents.items():
        for label, args in CHECKS:
            out[f"cli/{name}/{label}"] = run_cli(["check", path, *args])
        for target in COMPUTE_TARGETS:
            out[f"cli/{name}/compute-{target}"] = run_cli(["compute", path, target])
    return out


def frame_digests(documents: dict[str, str], ranks: dict[str, int]) -> dict[str, str]:
    """The ``frame-change`` run on each document, keyed by name."""
    out = {}
    for name, path in documents.items():
        r = ranks[name]
        matrix = json.dumps([list(row[:r]) for row in FRAME[:r]])
        out[f"cli/{name}/frame-change"] = run_cli(
            ["frame-change", path, "--matrix", matrix]
        )
    return out


def courant_documents(algebroids):
    """The standard Courant algebroid of dimension n = 1, 2 with the member
    of weights k % 3 - 1 of its torsion-free space and no metric."""
    for n in (1, 2):
        A = algebroids.make_example("courant_standard", n=n).algebroid
        space = algebroids.solve_torsion_free(A)
        conn = space.member([k % 3 - 1 for k in range(space.dim)])
        yield f"courant-{n}", algebroids.AlgebroidDocument(A, None, conn)


def broken_documents(algebroids, document):
    """(label, document) for the document with P the zero matrix; with
    gamma^1_12 raised and gamma^1_21 lowered by 1, which keeps the connection
    admissible and, where rho(X_1) is not zero, breaks the anchor's bracket
    morphism; and, where L is
    not empty, with the connection coefficient Gamma^e_db of its first
    entry L^{c d}_{e b} raised by 1: that adds 2 L^{c d}_{e b} to the
    symmetric part of the locality contraction at (c, b, b), so the
    connection is no longer admissible."""
    A, conn = document.algebroid, document.connection
    zero = [[A.zero()] * A.rank for _ in range(A.rank)]
    yield "zero-P", replace(document, algebroid=replace(A, proj=zero))
    gamma = dict(A.gamma)
    for key, step in (((0, 0, 1), 1), ((0, 1, 0), -1)):
        gamma[key] = A.gamma_at(*key) + A.const(step)
    yield "skew-gamma", replace(document, algebroid=replace(A, gamma=gamma))
    if A.loc and conn is not None:
        _, d, e, b = next(iter(A.loc))
        coeff = dict(conn.coeff)
        coeff[(e, d, b)] = conn.at(e, d, b, A.dim) + A.one()
        yield "bumped", replace(document, connection=algebroids.Connection.of(A.rank, coeff))


def failing_digests(algebroids, documents: dict) -> dict[str, str]:
    """The runs on the failing paths of each document, keyed by name."""
    out = {}
    label, args = CHECKS[0]
    for name, document in documents.items():
        for broken, changed in broken_documents(algebroids, document):
            path = f"{name}-{broken}.json"
            algebroids.dump_document(changed, path)
            out[f"cli/{name}/{label}-{broken}"] = run_cli(["check", path, *args])
        for solve, flags in SOLVES:
            out[f"cli/{name}/{solve}"] = run_cli(["check", f"{name}.json", *flags])
    name = next(iter(documents))
    out[f"cli/{name}/over-budget"] = run_cli(["check", f"{name}.json", *OVER_BUDGET])
    return out


def error_digests() -> dict[str, str]:
    """The runs of ``ERRORS``, keyed by name."""
    out = {}
    for name, document, argv in ERRORS:
        if not isinstance(document, str):
            fields = {**BASE, **document}
            document = json.dumps({k: v for k, v in fields.items() if v is not None})
        path = f"error-{name}.json"
        Path(path).write_text(document, encoding="utf-8")
        out[f"error/{name}"] = run_cli([path if arg == DOC else arg for arg in argv])
    return out


def example_digests() -> dict[str, str]:
    return {f"example/{kind}": run_cli(["example", kind, *args]) for kind, args in EXAMPLES}


def workload_digests(workloads, workdir: str) -> dict[str, str]:
    """One pass of every workload's jobs, in job-list order."""
    out = {}
    for name in WORKLOADS:
        for job in workloads.build(name, workdir):
            key = f"{name}/{job.name}"
            if key in out:
                raise SystemExit(f"error: two jobs named {key}")
            out[key] = digest(job.serialize(job.run()))
    return out


def tree_digests(tree: Path) -> dict[str, str]:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import algebroids
    import workloads

    if Path(algebroids.__file__).resolve().parent != tree / "src" / "algebroids":
        raise SystemExit(f"error: algebroids imported from {algebroids.__file__}")
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        digests = workload_digests(workloads, ".")
        documents, ranks, objects = {}, {}, {}
        for name, document in workloads.cli_documents():
            documents[name] = f"{name}.json"
            ranks[name] = document.algebroid.rank
            objects[name] = document
            algebroids.dump_document(document, documents[name])
        digests.update(cli_digests(documents))
        digests.update(frame_digests(documents, ranks))
        label, args = CHECKS[0]
        for name, document in courant_documents(algebroids):
            algebroids.dump_document(document, f"{name}.json")
            digests[f"cli/{name}/{label}"] = run_cli(["check", f"{name}.json", *args])
        digests.update(example_digests())
        digests.update(error_digests())
        digests.update(failing_digests(algebroids, objects))
    return digests


def main(argv: list[str]) -> int:
    tree = Path(argv[1] if len(argv) > 1 else Path(__file__).parents[1]).resolve()
    for name, value in tree_digests(tree).items():
        print(name, value)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
