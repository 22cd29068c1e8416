"""Command line front end: subcommands, exit codes, reproducibility."""

import json
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from algebroids import Connection, Metric, dump_document, get_term_budget, make_example
from algebroids.cli import _Emitter, build_parser
from algebroids.cli import main as cli_main
from algebroids.documents import AlgebroidDocument
from algebroids.fixtures import random_anticommutable, random_constant_metric

from conftest import scal, subprocess_env


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "algebroids.cli", *args],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )


@pytest.fixture
def halfplane_doc(tmp_path):
    A = make_example("tangent_lie", n=2).algebroid
    names = A.coords
    metric = Metric(
        [[scal("1/x2^2", names), A.zero()], [A.zero(), scal("1/x2^2", names)]]
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
    path = tmp_path / "halfplane.json"
    dump_document(AlgebroidDocument(A, metric, conn), str(path))
    return str(path)


@pytest.fixture
def infeasible_doc(tmp_path):
    A0 = make_example("tangent_lie", n=2).algebroid
    names = A0.coords
    from algebroids import AlgebroidData

    A = AlgebroidData(
        dim=2, rank=2, coords=A0.coords, anchor=A0.anchor,
        gamma={(0, 0, 1): A0.one(), (0, 1, 0): A0.one()},
        loc={}, proj=A0.proj,
    )
    path = tmp_path / "dull.json"
    dump_document(AlgebroidDocument(A), str(path))
    return str(path)


def test_check_full_suite_passes(halfplane_doc):
    out = run_cli("check", halfplane_doc, "--suite", "all")
    assert out.returncode == 0, out.stdout + out.stderr
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    names = {obj["identity"] for obj in lines}
    assert "classify" in names
    assert "cartan-structure" in names
    assert "levicivita-solution" in names
    assert all(obj.get("pass") is not False for obj in lines)


def test_check_solve_torsion_free_infeasible_exit_3(infeasible_doc):
    out = run_cli("check", infeasible_doc, "--solve", "torsion-free")
    assert out.returncode == 3
    first = json.loads(out.stdout.splitlines()[0])
    assert first["status"] == "infeasible"
    assert "witness" in first


def test_check_malformed_expression_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "dimension": 1,
                "rank": 1,
                "coordinates": ["x1"],
                "anchor": [["x1^"]],
            }
        )
    )
    out = run_cli("check", str(path))
    assert out.returncode == 2
    assert "error" in out.stderr


def test_check_identity_failure_exit_1(tmp_path, courant2):
    # a connection violating admissibility makes the gated identities fail
    doc = AlgebroidDocument(
        algebroid=courant2.algebroid,
        metric=courant2.metric,
        connection=Connection.of(4, {(0, 0, 0): courant2.algebroid.one()}),
    )
    path = tmp_path / "bad_conn.json"
    dump_document(doc, str(path))
    out = run_cli("check", str(path), "--suite", "cartan")
    assert out.returncode == 1
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    assert any(obj.get("pass") is False for obj in lines)


def test_compute_levicivita(halfplane_doc):
    out = run_cli("compute", halfplane_doc, "levicivita")
    assert out.returncode == 0
    obj = json.loads(out.stdout)
    assert obj["status"] == "unique"
    got = {tuple(e["idx"]): e["val"] for e in obj["particular"]}
    assert got[(1, 1, 2)] == "(-1)/(x2)"
    assert got[(1, 2, 1)] == "(-1)/(x2)"
    assert got[(2, 1, 1)] == "(1)/(x2)"
    assert got[(2, 2, 2)] == "(-1)/(x2)"
    assert obj["denominator_loci"] == ["x2"]


def test_compute_torsion_zero_connection(tmp_path, courant1):
    doc = AlgebroidDocument(
        algebroid=courant1.algebroid,
        metric=courant1.metric,
        connection=Connection.zero(2),
    )
    path = tmp_path / "courant.json"
    dump_document(doc, str(path))
    out = run_cli("compute", str(path), "torsion")
    assert out.returncode == 0
    obj = json.loads(out.stdout)
    assert obj["components"] == []


def test_compute_curvature_requires_projector(tmp_path):
    A0 = make_example("tangent_lie", n=1).algebroid
    from algebroids import AlgebroidData

    A = AlgebroidData(
        dim=1, rank=1, coords=A0.coords, anchor=A0.anchor,
        gamma={}, loc={}, proj=None,
    )
    doc = AlgebroidDocument(algebroid=A, connection=Connection.zero(1))
    path = str(tmp_path / "no_proj.json")
    dump_document(doc, path)
    out = run_cli("compute", path, "curvature")
    assert out.returncode == 2
    assert "projector" in out.stderr


def test_example_emits_valid_document(tmp_path):
    out = run_cli("example", "courant_standard", "--n", "1")
    assert out.returncode == 0
    obj = json.loads(out.stdout)
    assert obj["rank"] == 2
    assert len(obj["L"]) == 4
    # document loads back
    from algebroids.documents import document_from_obj

    doc = document_from_obj(obj)
    assert doc.metric is not None


def test_example_remaining_families(tmp_path):
    out = run_cli(
        "example", "twisted_frame_lie", "--n", "2",
        "--matrix", json.dumps([["1", "0"], ["0", "x1"]]),
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["gamma"]

    out = run_cli(
        "example", "courant_h_twisted", "--n", "3",
        "--h", json.dumps([{"idx": [1, 2, 3], "val": "5"}]),
    )
    assert out.returncode == 0
    obj = json.loads(out.stdout)
    assert obj["rank"] == 6 and obj["gamma"]

    params = json.dumps(
        {
            "rank": 2,
            "metric": [
                {"idx": [1, 1], "val": "1 + x1^2"},
                {"idx": [2, 2], "val": "1"},
            ],
            "theta": ["x1", "0"],
        }
    )
    out = run_cli("example", "metric_algebroid", "--n", "2", "--params", params)
    assert out.returncode == 0
    assert json.loads(out.stdout)["gamma"]
    out = run_cli("example", "conformal_courant", "--n", "2", "--params", params)
    assert out.returncode == 0
    assert json.loads(out.stdout)["theta"] == ["x1", "0"]


def test_example_higher_courant_carries_pairing():
    out = run_cli("example", "higher_courant", "--n", "3", "--p", "2")
    assert out.returncode == 0
    obj = json.loads(out.stdout)
    assert obj["rank"] == 6
    assert obj["higher_metric"]["p"] == 2
    assert obj["higher_metric"]["entries"]


def test_frame_change_round_trip(tmp_path, halfplane_doc):
    matrix = json.dumps([["1", "0"], ["0", "x1"]])
    out = run_cli("frame-change", halfplane_doc, "--matrix", matrix)
    assert out.returncode == 0
    obj = json.loads(out.stdout)
    assert obj["gamma"]  # twisted frame has structure functions
    inverse = json.dumps([["1", "0"], ["0", "1/x1"]])
    path2 = tmp_path / "twisted.json"
    path2.write_text(out.stdout)
    back = run_cli("frame-change", str(path2), "--matrix", inverse)
    assert back.returncode == 0
    obj2 = json.loads(back.stdout)
    assert obj2["gamma"] == []


def test_reproducible_byte_identical_reports(halfplane_doc, tmp_path):
    out1 = tmp_path / "r1.jsonl"
    out2 = tmp_path / "r2.jsonl"
    a = run_cli("check", halfplane_doc, "--seed", "7", "-o", str(out1))
    b = run_cli("check", halfplane_doc, "--seed", "7", "-o", str(out2))
    assert a.returncode == b.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes()


def test_table_format(halfplane_doc):
    out = run_cli("check", halfplane_doc, "--suite", "classify", "--format", "table")
    assert out.returncode == 0
    assert "classify" in out.stdout


def test_budget_exceeded_exit_4(tmp_path):
    # the metric inverse needs a 3-term scalar, crossing a budget of 2
    A = make_example("tangent_lie", n=2).algebroid
    names = A.coords
    metric = Metric([[scal("1 + x1^2", names), A.zero()], [A.zero(), A.one()]])
    path = tmp_path / "binomial.json"
    dump_document(AlgebroidDocument(A, metric, None), str(path))
    out = run_cli("compute", str(path), "levicivita", "--budget", "2")
    assert out.returncode == 4
    assert "budget" in out.stderr


@pytest.mark.parametrize(
    "argv",
    [("compute", "torsion"), ("frame-change", "--matrix", '[["1", "0"], ["0", "1"]]')],
    ids=["compute", "frame-change"],
)
def test_a_coefficient_too_long_to_print_exits_4(argv, tmp_path, capsys):
    # 3^9100 has 4,342 digits, past the int-string limit of 4,300
    obj = {
        "dimension": 1, "rank": 2, "coordinates": ["x1"], "anchor": [["1", "0"]],
        "connection": [{"idx": [1, 1, 2], "val": "3^9100"}],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    code = cli_main([argv[0], str(path), *argv[1:]])
    out = capsys.readouterr()
    assert code == 4 and not out.out
    assert out.err == "error: coefficient of 4342 digits exceeds the int-string limit of 4300 digits\n"


def test_budget_restored_after_in_process_run(tmp_path):
    A = make_example("tangent_lie", n=2).algebroid
    names = A.coords
    metric = Metric([[scal("1 + x1^2", names), A.zero()], [A.zero(), A.one()]])
    path = tmp_path / "binomial.json"
    dump_document(AlgebroidDocument(A, metric, None), str(path))
    before = get_term_budget()
    assert cli_main(["compute", str(path), "levicivita", "--budget", "2"]) == 4
    assert get_term_budget() == before


def test_general_bianchi_line_passes_and_gates(tmp_path):
    fx = random_anticommutable(1, dim=1, rank=3)
    metric = random_constant_metric(random.Random(1), 1, 3)
    path = tmp_path / "fixture1.json"
    dump_document(AlgebroidDocument(fx.algebroid, metric, fx.connection), str(path))
    out = run_cli("check", str(path), "--suite", "all", "--seed", "11", "--samples", "4")
    assert out.returncode == 0
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    assert not [obj for obj in lines if obj.get("pass") is False]
    (general,) = [o for o in lines if o.get("identity") == "bianchi-algebraic-general"]
    assert general["pass"] is True
    assert general["residuals"] == []


def test_failing_general_bianchi_line_sets_exit_1(capsys):
    for passed, code in ((True, 0), (False, 1)):
        emitter = _Emitter(build_parser().parse_args(["check", "doc.json"]))
        emitter.emit({"identity": "bianchi-algebraic-general", "pass": passed})
        assert emitter.flush() == code


# a --params object with a valid rank-1 metric, left open for one more field
RANK1 = '{"rank": 1, "metric": [{"idx": [1, 1], "val": "1"}]'


@pytest.mark.parametrize(
    "args",
    [
        ("example", "twisted_frame_lie", "--matrix", "[[1,0],[0"),
        ("example", "twisted_frame_lie", "--matrix", "[1, 0]"),
        ("example", "twisted_frame_lie", "--matrix", '{"a": 1}'),
        ("example", "twisted_frame_lie", "--matrix", "[[1, 0]]"),
        ("example", "metric_algebroid", "--params", '{"rank": 2'),
        ("example", "metric_algebroid", "--params", "[]"),
        ("example", "metric_algebroid", "--params", '{"rank": 2}'),
        ("example", "conformal_courant", "--params", '{"metric": []}'),
        ("example", "metric_algebroid", "--params", RANK1 + ', "gamma_antisym": 7}'),
        ("example", "conformal_courant", "--params", RANK1 + ', "theta": 5}'),
        ("example", "courant_h_twisted", "--n", "3", "--h", "5"),
        ("example", "twisted_frame_lie", "--matrix", "null"),
        ("frame-change", "HALFPLANE", "--matrix", "[[1,0],[0"),
        ("frame-change", "HALFPLANE", "--matrix", '"x1"'),
        ("frame-change", "HALFPLANE", "--matrix", '[["x1", "x1"], ["1", "1"]]'),
    ],
)
def test_malformed_json_argument_exit_2(args, halfplane_doc, capsys):
    args = [halfplane_doc if a == "HALFPLANE" else a for a in args]
    assert cli_main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "obj, code",
    [
        pytest.param(
            {
                "dimension": 0, "rank": 1, "coordinates": [], "anchor": [],
                "P": [["1"]], "metric": [{"idx": [1, 1], "val": "1"}],
                "connection": [{"idx": [1, 1, 1], "val": "1"}],
            },
            0,
            id="dimension-0",
        ),
        pytest.param(
            {"dimension": 1, "rank": 0, "coordinates": ["x1"], "anchor": [[]],
             "metric": []},
            2,
            id="rank-0-metric",
        ),
        pytest.param(
            {"dimension": 1, "rank": 1, "coordinates": ["x1"],
             "anchor": [["(" * 250 + "x1" + ")" * 250]]},
            2,
            id="deep-parentheses",
        ),
        pytest.param(
            {"dimension": 1, "rank": 1, "coordinates": ["x1"], "anchor": [["1"]],
             "connection": [{"idx": [1, 1, 1], "val": "x1"},
                            {"idx": [1, 1, 1], "val": "0"}]},
            2,
            id="repeated-index",
        ),
    ],
)
def test_edge_documents_exit_without_traceback(obj, code, tmp_path, capsys):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(obj))
    assert cli_main(["check", str(path), "--suite", "all"]) == code
    out = capsys.readouterr()
    assert "Traceback" not in out.err
    if code == 0:
        # the sampled suites draw constant sections on a point
        assert len(out.out.splitlines()) == 13


def assert_one_error_line(code, err):
    assert code == 2
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


# str.isdigit accepts the first two, int() refuses them; the third is
# longer than the int-string limit
UNREADABLE = ["²", "①", "1" * 5000]


@pytest.mark.parametrize("text", UNREADABLE, ids=["superscript", "circled", "long"])
@pytest.mark.parametrize("command", ["check", "example", "frame-change"])
def test_unreadable_literals_exit_2(command, text, halfplane_doc, tmp_path, capsys):
    if command == "check":
        path = tmp_path / "doc.json"
        obj = {"dimension": 1, "rank": 1, "coordinates": ["x1"], "anchor": [[f"x1 + {text}"]]}
        path.write_text(json.dumps(obj))
        argv = ["check", str(path)]
    elif command == "example":
        params = {"rank": 1, "metric": [{"idx": [1, 1], "val": text}]}
        argv = ["example", "metric_algebroid", "--params", json.dumps(params)]
    else:
        argv = ["frame-change", halfplane_doc, "--matrix", json.dumps([[text, "0"], ["0", "1"]])]
    assert_one_error_line(cli_main(argv), capsys.readouterr().err)


# a valid rank-2 document on one coordinate, and fields that used to be
# read as something else than they say
DOC = {"dimension": 1, "rank": 2, "coordinates": ["x1"], "anchor": [["1", "0"]]}


@pytest.mark.parametrize(
    "fields",
    [
        {"gamma": [{"idx": [1.7, 1, 1], "val": "x1"}]},
        {"gamma": [{"idx": [True, 1, 1], "val": "x1"}]},
        {"gamma": [{"idx": ["2", 1, 1], "val": "x1"}]},
        {"gamma": [{"idx": "121", "val": "x1"}]},
        {"metric": [{"idx": {"1": 0, "2": 0}, "val": "1"}, {"idx": {"2": 0, "1": 0}, "val": "1"}]},
        {"dimension": 1.9},
        {"rank": True, "anchor": [["1"]]},
        {"dimension": 2, "coordinates": "x1", "anchor": [["1", "0"], ["0", "1"]]},
        {"dimension": 2, "coordinates": ["x1", "x1"], "anchor": [["1", "0"], ["0", "1"]]},
        {"coordinates": ["x-1"]},
    ],
    ids=["float-index", "true-index", "string-entry", "string-index", "object-index",
         "float-dimension", "true-rank", "string-coordinates", "repeated-coordinate",
         "non-name-coordinate"],
)
def test_reinterpreted_document_fields_exit_2(fields, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**DOC, **fields}))
    assert_one_error_line(cli_main(["check", str(path)]), capsys.readouterr().err)


def test_params_rank_must_be_an_integer(capsys):
    params = {"rank": True, "metric": [{"idx": [1, 1], "val": "1"}]}
    code = cli_main(["example", "metric_algebroid", "--params", json.dumps(params)])
    assert_one_error_line(code, capsys.readouterr().err)


@pytest.mark.parametrize(
    "text",
    [b"[" * 100_000, b'{"dimension": ' + b"1" * 5000 + b"}", b"\xff\xfe{}"],
    ids=["deep", "long-integer", "not-utf-8"],
)
def test_unreadable_json_exits_2(text, halfplane_doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(text)
    assert_one_error_line(cli_main(["check", str(path)]), capsys.readouterr().err)
    if text.isascii():
        argv = ["frame-change", halfplane_doc, "--matrix", text.decode()]
        assert_one_error_line(cli_main(argv), capsys.readouterr().err)


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    commands = [
        shlex.split(line, comments=True)
        for line in section.splitlines()
        if line.startswith("algebroids ")
    ]
    assert len(commands) >= 4
    assert {argv[1] for argv in commands} == {"check", "compute", "example", "frame-change"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


@pytest.mark.parametrize(
    "argv",
    [
        [*head, flag, value]
        for head in (
            ["compute", "doc.json", "torsion"],
            ["example", "tangent_lie"],
            ["frame-change", "doc.json", "--matrix", "[[1]]"],
        )
        for flag, value in (("--seed", "1"), ("--samples", "2"), ("--degree", "1"))
    ]
    + [
        ["example", "tangent_lie", "--format", "table"],
        ["frame-change", "doc.json", "--matrix", "[[1]]", "--format", "table"],
        # a negative degree made the sampled suites raise from random.randint
        ["check", "doc.json", "--samples", "-1"],
        ["check", "doc.json", "--degree", "-1"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}",
)
def test_refused_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if argv[0] == "check":
        assert "expected a non-negative integer" in err
    else:
        assert "unrecognized arguments" in err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_budget_below_one_exits_2(value, capsys):
    # a budget of 0 read as a budget overrun (exit 4) on the first scalar
    with pytest.raises(SystemExit) as exc:
        cli_main(["compute", "doc.json", "torsion", "--budget", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"expected a positive integer, got '{value}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, code",
    [
        # the empty frame matrix inverts to the empty matrix
        (["example", "twisted_frame_lie", "--n", "0", "--matrix", "[]"], 0),
        (["example", "courant_standard", "--n", "0"], 2),
    ],
    ids=["twisted_frame_lie", "courant_standard"],
)
def test_zero_size_examples_exit_without_traceback(argv, code, capsys):
    assert cli_main(argv) == code
    assert "Traceback" not in capsys.readouterr().err
