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
from algebroids.documents import (
    AlgebroidDocument,
    document_from_obj,
    document_to_obj,
    read_example_params,
    read_json,
)

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


def one_coordinate(**fields):
    """A valid rank-2 document on one coordinate with fields replaced."""
    return {"dimension": 1, "rank": 2, "coordinates": ["x1"], "anchor": [["1", "0"]], **fields}


@pytest.mark.parametrize("entry", [1.7, True, "2", 2.0])
def test_index_entries_are_json_integers(entry):
    with pytest.raises(DocumentError, match="integer"):
        document_from_obj(one_coordinate(gamma=[{"idx": [entry, 1, 1], "val": "x1"}]))


@pytest.mark.parametrize("idx", ["121", {"1": 0, "2": 0, "3": 0}, 5, None])
def test_an_index_is_a_list(idx):
    with pytest.raises(DocumentError):
        document_from_obj(one_coordinate(gamma=[{"idx": idx, "val": "x1"}]))


@pytest.mark.parametrize(
    "fields",
    [{"dimension": 1.9}, {"dimension": True}, {"dimension": "1"}, {"rank": 2.0},
     {"rank": False, "anchor": [[]]}, {"dimension": -1, "coordinates": []},
     {"dimension": 0, "coordinates": [], "anchor": [], "rank": -1}],
)
def test_sizes_are_non_negative_json_integers(fields):
    with pytest.raises(DocumentError, match="integer"):
        document_from_obj(one_coordinate(**fields))


@pytest.mark.parametrize(
    "coordinates", ["x1", ["x1", "x1"], ["x-1"], ["1"], [" x1"], [1], None],
)
def test_coordinates_are_distinct_names(coordinates):
    obj = one_coordinate(coordinates=coordinates)
    if isinstance(coordinates, list) and len(coordinates) == 2:
        obj.update(dimension=2, anchor=[["1", "0"], ["0", "1"]])
    with pytest.raises(DocumentError, match="coordinates"):
        document_from_obj(obj)


def test_names_beyond_ascii_still_read():
    obj = one_coordinate(coordinates=["θ_1"], anchor=[["θ_1^2", "٣"]])
    A = document_from_obj(obj).algebroid
    assert A.coords == ("θ_1",)
    assert A.anchor[0][1].equals(scal("3", A.coords))


@pytest.mark.parametrize(
    "text", ["[" * 100_000, '{"dimension": ' + "1" * 5000 + "}", "{ not json"],
)
def test_unreadable_json_text_is_a_document_error(text):
    with pytest.raises(DocumentError, match="invalid JSON for --params"):
        read_json(text, "for --params")


def test_rejects_a_file_that_is_not_utf_8(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"coordinates": ["\xe9"]}')
    with pytest.raises(DocumentError, match="cannot read"):
        load_document(str(path))


@pytest.mark.parametrize(
    "params, message",
    [
        ({"rank": True, "metric": []}, "integer"),
        ({"rank": 1.0, "metric": []}, "integer"),
        ({"rank": 1}, "metric"),
        ([1], "object"),
    ],
)
def test_family_parameters_are_read_strictly(params, message):
    with pytest.raises(DocumentError, match=message):
        read_example_params("metric_algebroid", 1, 2, None, None, json.dumps(params))
