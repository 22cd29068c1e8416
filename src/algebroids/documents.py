"""Algebroid JSON documents and flag values: reading and canonical emission.

Document layout (indices are 1-based in documents, 0-based in code):

    {
      "dimension": n,
      "rank": r,
      "coordinates": ["x1", ...],
      "anchor": [[expr, ...], ...],            # n rows, r columns
      "gamma": [{"idx": [c, a, b], "val": expr}, ...],
      "L":     [{"idx": [a, d, e, c], "val": expr}, ...],
      "P":     [[expr, ...], ...],             # optional, r x r
      "metric":     [{"idx": [a, b], "val": expr}, ...],      # optional
      "connection": [{"idx": [a, b, c], "val": expr}, ...],   # optional
    }

Every rule for reading outside values, from files and command-line flags
alike, is a ``read_*`` function here.  Sizes and index entries are JSON
integers (not booleans, floats or strings), coordinates are distinct name
tokens of the expression grammar, omitted sparse entries are zero, and a
sparse block names each index at most once; anything else raises
``DocumentError`` or ``ParseError``.  Emission sorts entries and uses the
canonical scalar text, so documents round-trip byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .connection import Connection, Metric
from .core import AlgebroidData, SparseArray, _chart, sparse_clean
from .errors import DocumentError
from .parsing import is_name, parse_scalar
from .scalars import Scalar, scalar_to_text


@dataclass
class AlgebroidDocument:
    algebroid: AlgebroidData
    metric: Metric | None = None
    connection: Connection | None = None


def read_json(text: str, where: str):
    """The value of JSON text; where ("in PATH", "for --matrix") names it."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON {where}: {exc}") from exc


def read_int(value, what: str, low: int = 0) -> int:
    """value, which must be a JSON integer (not a boolean) of at least low."""
    if type(value) is not int or value < low:
        raise DocumentError(f"{what} must be an integer of at least {low}, got {value!r}")
    return value


def read_index(raw, arity: int, size: int, what: str) -> tuple[int, ...]:
    """The 0-based index of a list of arity 1-based entries up to size."""
    if not isinstance(raw, list):
        raise DocumentError(f"{what} index must be a list, got {raw!r}")
    idx = tuple(read_int(k, f"{what} index entry", 1) - 1 for k in raw)
    if len(idx) != arity or not all(k < size for k in idx):
        raise DocumentError(f"{what} index out of range: {raw!r}")
    return idx


def read_expressions(raw, names, what: str) -> tuple[Scalar, ...]:
    if not isinstance(raw, list):
        raise DocumentError(f"{what} must be a list, got {raw!r}")
    return tuple(parse_scalar(str(entry), names) for entry in raw)


def read_matrix(raw, names, nrows: int, ncols: int, what: str):
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise DocumentError(f"{what} must be a list of lists")
    if len(raw) != nrows or any(len(row) != ncols for row in raw):
        raise DocumentError(f"{what} must be {nrows} x {ncols}")
    return tuple(read_expressions(row, names, what) for row in raw)


def read_frame(text: str, names, size: int):
    """The size x size matrix of the JSON text of a ``--matrix`` flag."""
    return read_matrix(read_json(text, "for --matrix"), names, size, size, "--matrix")


def read_sparse(raw, names, arity: int, size: int, what: str) -> SparseArray:
    """The nonzero entries of a sparse block; None is the empty block."""
    if raw is not None and not isinstance(raw, list):
        raise DocumentError(f"{what} block must be a list, got {raw!r}")
    out: SparseArray = {}
    for item in raw or []:
        if not isinstance(item, dict) or not {"idx", "val"} <= item.keys():
            raise DocumentError(f"malformed {what} entry {item!r}")
        idx = read_index(item["idx"], arity, size, what)
        if idx in out:
            raise DocumentError(f"{what} index given twice: {item['idx']!r}")
        out[idx] = parse_scalar(str(item["val"]), names)
    return sparse_clean(out)


def read_metric(raw, names, rank: int) -> Metric:
    """The rank x rank metric of a sparse "metric" block."""
    entries, zero = read_sparse(raw, names, 2, rank, "metric"), Scalar.zero(len(names))
    return Metric([[entries.get((a, b), zero) for b in range(rank)] for a in range(rank)])


def read_coordinates(raw, n: int) -> tuple[str, ...]:
    """The n distinct coordinate names of a document."""
    if not (isinstance(raw, list) and all(isinstance(c, str) and is_name(c) for c in raw)
            and len(set(raw)) == len(raw)):
        raise DocumentError(f"coordinates must be a list of distinct names, got {raw!r}")
    if len(raw) != n:
        raise DocumentError("coordinate list length disagrees with dimension")
    return tuple(raw)


def read_example_params(kind: str, n: int, p: int, matrix, h, params) -> dict:
    """The keyword parameters of the catalog family kind on the chart x1..xn,
    from the JSON texts of ``--matrix``, ``--h`` and ``--params`` (or None)."""
    if kind in ("tangent_lie", "courant_standard"):
        return {"n": n}
    if kind == "higher_courant":
        return {"n": n, "p": p}
    names = _chart(n)
    flags = {"twisted_frame_lie": ("--matrix", matrix), "courant_h_twisted": ("--h", h)}
    flag, text = flags.get(kind, ("--params", params))
    if not text:
        raise DocumentError(f"{kind} needs {flag}")
    if kind == "twisted_frame_lie":
        return {"n": n, "frame": read_frame(text, names, n)}
    raw = read_json(text, f"for {flag}")
    if kind == "courant_h_twisted":
        return {"n": n, "h": read_sparse(raw, names, 3, n, "h")}
    if not isinstance(raw, dict) or raw.get("metric") is None:
        raise DocumentError("--params must be an object with a rank and a metric")
    r = read_int(raw.get("rank"), "--params rank")
    out = {"n": n, "metric": read_metric(raw["metric"], names, r)}
    out["gamma_antisym"] = read_sparse(raw.get("gamma_antisym"), names, 3, r, "gamma_antisym")
    if kind == "conformal_courant":
        out["theta"] = read_expressions(raw.get("theta", []), names, "theta")
    return out


def document_from_obj(obj: dict) -> AlgebroidDocument:
    try:
        n = read_int(obj["dimension"], "dimension")
        r = read_int(obj["rank"], "rank")
        names = read_coordinates(obj["coordinates"], n)
    except KeyError as exc:
        raise DocumentError(f"missing or malformed header field: {exc}") from exc
    if obj.get("anchor") is None:
        raise DocumentError("anchor block is required")
    anchor = read_matrix(obj["anchor"], names, n, r, "anchor")
    gamma = read_sparse(obj.get("gamma"), names, 3, r, "gamma")
    loc = read_sparse(obj.get("L"), names, 4, r, "L")
    proj = None if obj.get("P") is None else read_matrix(obj["P"], names, r, r, "P")
    algebroid = AlgebroidData(dim=n, rank=r, coords=names, anchor=anchor,
                              gamma=gamma, loc=loc, proj=proj)
    metric = None if obj.get("metric") is None else read_metric(obj["metric"], names, r)
    conn = obj.get("connection")
    conn = None if conn is None else Connection(r, read_sparse(conn, names, 3, r, "connection"))
    return AlgebroidDocument(algebroid=algebroid, metric=metric, connection=conn)


def load_document(path: str) -> AlgebroidDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    obj = read_json(text, f"in {path}")
    if not isinstance(obj, dict):
        raise DocumentError("document root must be an object")
    return document_from_obj(obj)


def sparse_to_obj(entries: SparseArray, names) -> list[dict]:
    return [
        {"idx": [k + 1 for k in idx], "val": scalar_to_text(v, names)}
        for idx, v in sorted(entries.items())
    ]


def matrix_to_obj(matrix, names) -> list[list[str]]:
    return [[scalar_to_text(entry, names) for entry in row] for row in matrix]


def document_to_obj(doc: AlgebroidDocument) -> dict:
    A = doc.algebroid
    names = A.coords
    obj: dict = {
        "dimension": A.dim,
        "rank": A.rank,
        "coordinates": list(names),
        "anchor": matrix_to_obj(A.anchor, names),
        "gamma": sparse_to_obj(A.gamma, names),
        "L": sparse_to_obj(A.loc, names),
    }
    if A.proj is not None:
        obj["P"] = matrix_to_obj(A.proj, names)
    if doc.metric is not None:
        g = {(a, b): doc.metric.at(a, b) for a in range(A.rank) for b in range(A.rank)}
        obj["metric"] = sparse_to_obj(sparse_clean(g), names)
    if doc.connection is not None:
        obj["connection"] = sparse_to_obj(doc.connection.coeff, names)
    return obj


def example_to_obj(bundle) -> dict:
    """The document of a catalog ``ExampleBundle``, with its extra pairing data."""
    names = bundle.algebroid.coords
    obj = document_to_obj(AlgebroidDocument(bundle.algebroid, bundle.metric))
    if bundle.higher_metric is not None:
        obj["higher_metric"] = {
            "p": bundle.higher_metric.p,
            "entries": [
                {"idx": [a + 1, b + 1], "I": [k + 1 for k in I], "val": scalar_to_text(v, names)}
                for (a, b, I), v in sorted(bundle.higher_metric.comp.items())
            ],
        }
    if bundle.theta is not None:
        obj["theta"] = [scalar_to_text(t, names) for t in bundle.theta]
    return obj


def dump_document(doc: AlgebroidDocument, path: str | None = None) -> str:
    text = json.dumps(document_to_obj(doc), indent=2)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return text
