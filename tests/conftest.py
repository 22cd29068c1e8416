import os
import sys
from pathlib import Path

import pytest

import algebroids
from algebroids import ETensor, Scalar, make_example, parse_scalar
from algebroids.connection import covariant_table

SRC = Path(algebroids.__file__).resolve().parents[1]


def subprocess_env() -> dict:
    """Environment for a child interpreter that imports the package from
    where the tests import it, installed or not."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture
def tangent2():
    return make_example("tangent_lie", n=2).algebroid


@pytest.fixture
def courant1():
    return make_example("courant_standard", n=1)


@pytest.fixture
def courant2():
    return make_example("courant_standard", n=2)


def scal(text: str, names) -> Scalar:
    return parse_scalar(text, names)


def record_calls(monkeypatch, owner, name: str) -> list:
    """Rebind ``owner.name``, and the same function under that name in
    every loaded ``algebroids`` module, to a wrapper that records the
    arguments of each call; returns the list of recorded calls.  ``owner``
    is a module or a class (a method's first argument is then the
    instance)."""
    original = getattr(owner, name)
    calls = []

    def recording(*args):
        calls.append(args)
        return original(*args)

    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "algebroids"]
    for target in [owner, *modules]:
        if target is owner or getattr(target, name, None) is original:
            monkeypatch.setattr(target, name, recording)
    return calls


def frame_covariants(A, conn, u):
    """The nonzero (D_{X_d} u)^e, keyed (d, e), from ``covariant_table``."""
    comp = {(e,): x for e, x in enumerate(u.comp) if not x.is_zero()}
    return covariant_table(A, conn, ETensor(1, 0, A.rank, A.dim, comp))
