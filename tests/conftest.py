import os
from pathlib import Path

import pytest

import algebroids
from algebroids import Scalar, make_example, parse_scalar

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
