"""Algebroid JSON document round-trips and validation."""

import json

import pytest

from algebroids import (
    Connection,
    DocumentError,
    Metric,
    dump_document,
    load_document,
    make_example,
)
from algebroids.documents import AlgebroidDocument, document_from_obj, document_to_obj

from conftest import scal


def polar_doc():
    A = make_example("tangent_lie", n=2).algebroid
    names = A.coords
    metric = Metric(
        [[A.one(), A.zero()], [A.zero(), scal("x1^2", names)]]
    )
    conn = Connection.of(2, {(0, 1, 1): scal("-x1", names)})
    return AlgebroidDocument(algebroid=A, metric=metric, connection=conn)


def test_round_trip_exact(tmp_path):
    doc = polar_doc()
    path = tmp_path / "doc.json"
    dump_document(doc, str(path))
    loaded = load_document(str(path))
    A, B = doc.algebroid, loaded.algebroid
    assert B.dim == A.dim and B.rank == A.rank and B.coords == A.coords
    for i in range(A.dim):
        for a in range(A.rank):
            assert B.anchor[i][a].equals(A.anchor[i][a])
    assert set(B.gamma) == set(A.gamma)
    for a in range(A.rank):
        for b in range(A.rank):
            assert loaded.metric.at(a, b).equals(doc.metric.at(a, b))
    assert set(loaded.connection.coeff) == set(doc.connection.coeff)
    # emission is canonical: a second dump is byte-identical
    assert dump_document(loaded) == dump_document(doc)


def test_courant_document_round_trip(tmp_path, courant2):
    doc = AlgebroidDocument(algebroid=courant2.algebroid, metric=courant2.metric)
    text = dump_document(doc)
    loaded = document_from_obj(json.loads(text))
    assert set(loaded.algebroid.loc) == set(courant2.algebroid.loc)
    for idx, v in courant2.algebroid.loc.items():
        assert loaded.algebroid.loc[idx].equals(v)
    assert loaded.algebroid.proj is not None


def test_indices_are_one_based():
    obj = {
        "dimension": 1,
        "rank": 1,
        "coordinates": ["x1"],
        "anchor": [["1"]],
        "gamma": [{"idx": [1, 1, 1], "val": "x1"}],
    }
    doc = document_from_obj(obj)
    assert (0, 0, 0) in doc.algebroid.gamma


def test_rejects_out_of_range_index():
    obj = {
        "dimension": 1,
        "rank": 1,
        "coordinates": ["x1"],
        "anchor": [["1"]],
        "gamma": [{"idx": [2, 1, 1], "val": "x1"}],
    }
    with pytest.raises(DocumentError):
        document_from_obj(obj)


@pytest.mark.parametrize("values", [("x1", "0"), ("0", "x1")])
def test_rejects_an_index_given_twice(values):
    # either order is refused: a later "0" must not leave "x1" standing
    obj = {
        "dimension": 1,
        "rank": 1,
        "coordinates": ["x1"],
        "anchor": [["1"]],
        "gamma": [{"idx": [1, 1, 1], "val": val} for val in values],
    }
    with pytest.raises(DocumentError, match="given twice"):
        document_from_obj(obj)


@pytest.mark.parametrize("block", ["gamma", "L", "anchor", "P", "metric", "connection"])
def test_rejects_a_block_that_is_not_a_list(block):
    obj = {
        "dimension": 1,
        "rank": 1,
        "coordinates": ["x1"],
        "anchor": [["1"]],
        block: 5,
    }
    with pytest.raises(DocumentError):
        document_from_obj(obj)


def test_rejects_missing_anchor():
    with pytest.raises(DocumentError):
        document_from_obj({"dimension": 1, "rank": 1, "coordinates": ["x1"]})


def test_rejects_bad_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(DocumentError):
        load_document(str(path))
