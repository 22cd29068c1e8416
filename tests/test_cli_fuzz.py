"""Property test of the command line: small valid documents with one field
perturbed, run under every subcommand, exit with a documented code, exit 1
only with a failing report line, never raise out of ``main``, and give the
same exit code, streams and report when run a second time in the same
process.  The perturbations lean toward values that still parse (another
valid fixture's block, a shifted exponent, a rational coefficient, a flag
in range), so that most runs get past validation to a report."""

import contextlib
import io
import json
import random
from typing import get_args

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from algebroids import make_example
from algebroids.catalog import ExampleKind
from algebroids.cli import COMPUTE, SUITES
from algebroids.cli import main as cli_main
from algebroids.documents import AlgebroidDocument, document_to_obj
from algebroids.fixtures import random_anticommutable, random_constant_metric

# short raw text for the parser, with a digit that str.isdigit accepts
# and int() refuses
RAW = st.text(alphabet="x12+-*/^()0² ", max_size=8)
# expressions over x1, x2 (x2 is undeclared in dimension 1), small enough
# to stay cheap, or raw text
EXPR = st.one_of(
    st.recursive(
        st.sampled_from(("x1", "x2", "0", "1", "-2", "1/2")),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda t: f"({t[0]}){t[1]}({t[2]})"
            ),
            inner.map(lambda e: f"({e})^2"),
        ),
        max_leaves=4,
    ),
    RAW,
)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    # a float or a digit string where an integer belongs
    st.floats(-2, 4),
    st.sampled_from(("1", "2", "121")),
    EXPR,
    st.just({}),
    st.lists(EXPR, max_size=3),
    st.lists(st.lists(EXPR, max_size=3), max_size=3),
)


LIKELY = st.sampled_from((True, True, True, False))


def expressions(names) -> st.SearchStrategy[str]:
    """Polynomials with rational coefficients in the declared coordinates:
    text that always parses."""
    return st.recursive(
        st.sampled_from((*names, "1", "-2", "1/2", "-3/4")),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(
                lambda t: f"({t[0]}){t[1]}({t[2]})"
            ),
            inner.map(lambda e: f"({e})^2"),
        ),
        max_leaves=3,
    )


def triangular(draw, names, size: int) -> list[list[str]]:
    """A unit upper-triangular matrix over the coordinates: always
    invertible."""
    return [
        ["1" if a == b else "0" if a > b else draw(expressions(names)) for b in range(size)]
        for a in range(size)
    ]


def fixture_obj(seed: int, dim: int, rank: int) -> dict:
    fx = random_anticommutable(seed, dim=dim, rank=rank, degree=1)
    metric = random_constant_metric(random.Random(seed), dim, rank)
    return document_to_obj(AlgebroidDocument(fx.algebroid, metric, fx.connection))


@st.composite
def documents(draw) -> dict:
    """A small valid document (rank <= 3, dimension <= 2) as JSON."""
    dim, rank = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 30))
    if draw(LIKELY):
        obj = fixture_obj(seed, dim, rank)
        for block in ("metric", "connection"):
            if not draw(LIKELY):
                del obj[block]
        return obj
    kind = "courant_standard" if rank == 2 else "tangent_lie"
    bundle = make_example(kind, n=max(dim, 1))
    return document_to_obj(AlgebroidDocument(bundle.algebroid, bundle.metric, None))


@st.composite
def argvs(draw, path: str, obj: dict) -> list[str]:
    """A valid command line for the document obj at path."""
    names, rank = obj["coordinates"], obj["rank"]
    command = draw(st.sampled_from(("check", "check", "compute", "example", "frame-change")))
    if command == "check":
        argv = ["check", path, "--suite", draw(st.sampled_from(SUITES))]
        solve = draw(st.sampled_from((None, "torsion-free", "koszul")))
        argv += ["--solve", solve] if solve else []
        for flag, lo, hi in (("--seed", 0, 5), ("--samples", 1, 2), ("--degree", 0, 2)):
            argv += [flag, str(draw(st.integers(lo, hi)))]
    elif command == "compute":
        blocks = {"connection": "connection" in obj, "metric": "metric" in obj,
                  "locality projector": "P" in obj}
        # mostly a target whose blocks the document has
        targets = [t for t, (needs, _) in COMPUTE.items() if all(blocks[b] for b in needs)]
        if not targets or not draw(LIKELY):
            targets = list(COMPUTE)
        argv = ["compute", path, draw(st.sampled_from(targets))]
    elif command == "example":
        n = draw(st.integers(1, 3))
        argv = ["example", draw(st.sampled_from(get_args(ExampleKind)))]
        argv += ["--n", str(n), "--p", str(draw(st.integers(1, 3)))]
        coords = [f"x{i + 1}" for i in range(n)]
        valid = {
            "--matrix": triangular(draw, coords, n),
            "--h": [],
            "--params": {"rank": 2, "metric": [{"idx": [1, 2], "val": "1"}, {"idx": [2, 1], "val": "1"}]},
        }
        for flag, value in valid.items():
            if draw(LIKELY):
                argv += [flag, json.dumps(value)]
            elif draw(st.booleans()):
                argv += [flag, json.dumps(draw(JUNK))]
    else:
        if draw(LIKELY):
            matrix = triangular(draw, names, rank)
        else:
            row = st.lists(EXPR, min_size=rank, max_size=rank)
            matrix = draw(st.lists(row, min_size=rank, max_size=rank))
        argv = ["frame-change", path, "--matrix", json.dumps(matrix)]
    if command in ("check", "compute"):
        argv += ["--format", draw(st.sampled_from(("json", "table")))]
    return argv + ["--budget", "100000"]


def cells(block) -> list:
    """(container, key) of every sparse ``val`` and matrix cell of a block."""
    found = []
    for item in block if isinstance(block, list) else []:
        if isinstance(item, dict):
            found.append((item, "val"))
        elif isinstance(item, list):
            found += [(item, k) for k in range(len(item))]
    return found


def indices(block) -> list:
    """(index list, position) of every entry of the sparse entries' ``idx``."""
    if not isinstance(block, list):
        return []
    return [
        (item["idx"], k)
        for item in block
        if isinstance(item, dict) and isinstance(item.get("idx"), list)
        for k in range(len(item["idx"]))
    ]


@st.composite
def perturbed(draw, obj: dict) -> dict:
    """obj with one field dropped, replaced or taken from another fixture,
    or one entry in it changed: made invalid, replaced by a polynomial,
    multiplied by a coordinate or a rational constant, one expression
    replaced by raw text, or one index entry by a float or a digit
    string."""
    names = obj["coordinates"]
    how = draw(st.sampled_from((
        "drop", "replace", "entry", "swap", "swap", "swap", "shift", "shift", "shift",
        "raw", "raw", "index",
    )))
    targets = {"raw": cells, "index": indices}.get(how)
    if targets is not None:
        found = [t for key in sorted(obj) for t in targets(obj[key])]
        if found:
            where, k = draw(st.sampled_from(found))
            if how == "raw":
                # a valid term, so that the parser reaches the "²" and the
                # raw text after it
                where[k] = f"{draw(expressions(names))} + ²{draw(RAW)}"
            else:
                where[k] = draw(st.one_of(st.floats(-2, 4), st.sampled_from(("1", "2", "121"))))
            return obj
        how = "replace"
    key = draw(st.sampled_from(sorted(obj)))
    value = obj[key]
    if how == "drop":
        del obj[key]
    elif how == "swap":
        other = fixture_obj(draw(st.integers(31, 60)), obj["dimension"], obj["rank"])
        obj[key] = other.get(key, value)
    elif how == "shift" and isinstance(value, list) and value:
        item = value[draw(st.integers(0, len(value) - 1))]
        factor = draw(st.sampled_from((*names, "2/3", "-1/2")))
        if isinstance(item, dict):  # sparse entry
            item["val"] = f"({item['val']})*({factor})"
        elif isinstance(item, list) and item:  # matrix row
            i = draw(st.integers(0, len(item) - 1))
            item[i] = draw(expressions(names)) if draw(st.booleans()) else f"({item[i]})*({factor})"
    elif how in ("replace", "shift") or not isinstance(value, list) or not value:
        obj[key] = draw(JUNK)
    else:
        i = draw(st.integers(0, len(value) - 1))
        item = value[i]
        if isinstance(item, dict):  # sparse entry
            if draw(st.booleans()):
                item["idx"] = draw(st.one_of(st.lists(st.integers(-1, 4), max_size=5), JUNK))
            else:
                item["val"] = draw(EXPR)
        elif isinstance(item, list) and item:  # matrix row
            item[draw(st.integers(0, len(item) - 1))] = draw(EXPR)
        else:
            value[i] = draw(JUNK)
    return obj


@st.composite
def perturbed_flag(draw, argv: list[str]) -> list[str]:
    """argv with the value of one integer flag replaced, mostly by another
    value in its range."""
    ints = ("--seed", "--samples", "--degree", "--budget", "--n", "--p")
    i = draw(st.sampled_from([i for i, a in enumerate(argv) if a in ints])) + 1
    if draw(LIKELY):
        low = 1000 if argv[i - 1] == "--budget" else 1
        value = str(draw(st.integers(low, 2 * low + 1)))
    else:
        value = draw(st.one_of(st.integers(-2, 3).map(str), JUNK.map(json.dumps)))
    return argv[:i] + [value] + argv[i + 1:]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


def run_main(argv: list[str], report) -> tuple:
    """Exit code, stdout, stderr and report file of one in-process run; the
    report file is removed first, so each run writes its own."""
    report.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse refuses the arguments
                code = exc.code
    text = report.read_text() if report.exists() else None
    return code, out.getvalue(), err.getvalue(), text


def test_cli_exits_with_a_documented_code(workdir):
    path, report = workdir / "doc.json", workdir / "report.out"
    reached = []

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def one_run(data):
        obj = data.draw(documents())
        argv = data.draw(argvs(str(path), obj))
        # one field of the document or one flag value is perturbed
        if data.draw(st.booleans()):
            obj = data.draw(perturbed(obj))
        else:
            argv = data.draw(perturbed_flag(argv))
        path.write_text(json.dumps(obj))
        argv += ["-o", str(report)]
        first = run_main(argv, report)
        # a second run in the same process sees no state left by the first
        assert run_main(argv, report) == first
        code, _, err, _ = first
        assert code in (0, 1, 2, 3, 4)
        assert "Traceback" not in err
        if code == 1:
            lines = report.read_text().splitlines()
            if "--format" in argv and argv[argv.index("--format") + 1] == "table":
                assert any(" FAIL" in line for line in lines)
            else:
                assert any(json.loads(line).get("pass") is False for line in lines)
        reached.append(code in (0, 1))

    one_run()
    # most runs get past validation to a report
    assert len(reached) == 100 and sum(reached) >= 50, sum(reached)
