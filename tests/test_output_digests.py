"""The output-digest script sees a change to the emitted text, and this
tree prints the digests checked in beside this file."""

import importlib.util
import random
import subprocess
import sys
from pathlib import Path

import algebroids
from algebroids import dump_document
from algebroids.documents import AlgebroidDocument
from algebroids.fixtures import random_anticommutable, random_constant_metric

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
# One ``name sha256`` line per output.  A change meant to alter outputs
# regenerates this file with ``python3 tools/output_digests.py``.
EXPECTED = Path(__file__).resolve().parent / "output_digests.txt"


def load_script(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_planted_text_change_changes_the_document_digests(monkeypatch, tmp_path):
    digests = load_script(monkeypatch)
    fx = random_anticommutable(0, dim=1, rank=2)
    path = tmp_path / "fixture-0.json"
    metric = random_constant_metric(random.Random(0), 1, 2)
    dump_document(AlgebroidDocument(fx.algebroid, metric, fx.connection), str(path))
    documents = {"fixture-0": str(path)}
    plain = digests.cli_digests(documents)
    assert len(plain) == len(digests.CHECKS) + len(digests.COMPUTE_TARGETS)
    assert digests.cli_digests(documents) == plain

    original = algebroids.scalar_to_text
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "algebroids" and getattr(module, "scalar_to_text", None) is original:
            monkeypatch.setattr(module, "scalar_to_text", lambda v, names: original(v, names) + " ")
    planted = digests.cli_digests(documents)
    assert planted.keys() == plain.keys()
    assert planted["cli/fixture-0/compute-levicivita"] != plain["cli/fixture-0/compute-levicivita"]
    assert planted["cli/fixture-0/check-all"] != plain["cli/fixture-0/check-all"]


def test_every_output_matches_its_checked_in_digest():
    run = subprocess.run(
        [sys.executable, "-B", str(SCRIPT)], capture_output=True, text=True, timeout=600
    )
    assert run.returncode == 0, run.stderr
    got = dict(line.split() for line in run.stdout.splitlines())
    want = dict(line.split() for line in EXPECTED.read_text().splitlines())
    differing = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    assert not differing, f"outputs differ from {EXPECTED.name}: {differing}"
    assert list(got) == list(want)
