"""Algebroid JSON documents: loading and canonical emission.

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

Omitted sparse entries are zero, and a sparse block names each index at
most once.  Emission sorts entries and uses the canonical scalar text, so
documents round-trip byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .connection import Connection, Metric
from .core import AlgebroidData, SparseArray
from .errors import DocumentError
from .parsing import parse_scalar
from .scalars import Scalar, scalar_to_text


@dataclass
class AlgebroidDocument:
    algebroid: AlgebroidData
    metric: Metric | None = None
    connection: Connection | None = None


def _parse_entries(
    raw, names, arity: int, rank: int, what: str
) -> SparseArray:
    if raw is not None and not isinstance(raw, list):
        raise DocumentError(f"{what} block must be a list, got {raw!r}")
    out: SparseArray = {}
    seen: set[tuple[int, ...]] = set()
    for item in raw or []:
        try:
            idx = tuple(int(k) - 1 for k in item["idx"])
            val = item["val"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DocumentError(f"malformed {what} entry {item!r}") from exc
        if len(idx) != arity or not all(0 <= k < rank for k in idx):
            raise DocumentError(f"{what} index out of range: {item['idx']!r}")
        if idx in seen:
            raise DocumentError(f"{what} index given twice: {item['idx']!r}")
        seen.add(idx)
        s = parse_scalar(str(val), names)
        if not s.is_zero():
            out[idx] = s
    return out


def _parse_matrix(raw, names, nrows: int, ncols: int, what: str):
    if raw is None:
        return None
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise DocumentError(f"{what} must be a list of lists")
    if len(raw) != nrows or any(len(row) != ncols for row in raw):
        raise DocumentError(f"{what} must be {nrows} x {ncols}")
    return tuple(
        tuple(parse_scalar(str(entry), names) for entry in row) for row in raw
    )


def parse_metric(raw, names, rank: int) -> Metric:
    """The rank x rank metric of a sparse "metric" block."""
    zero = Scalar.zero(len(names))
    g = [[zero] * rank for _ in range(rank)]
    for (a, b), v in _parse_entries(raw, names, 2, rank, "metric").items():
        g[a][b] = v
    return Metric(g)


def document_from_obj(obj: dict) -> AlgebroidDocument:
    try:
        n = int(obj["dimension"])
        r = int(obj["rank"])
        names = tuple(str(c) for c in obj["coordinates"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"missing or malformed header field: {exc}") from exc
    if len(names) != n:
        raise DocumentError("coordinate list length disagrees with dimension")
    anchor = _parse_matrix(obj.get("anchor"), names, n, r, "anchor")
    if anchor is None:
        raise DocumentError("anchor block is required")
    gamma = _parse_entries(obj.get("gamma"), names, 3, r, "gamma")
    loc = _parse_entries(obj.get("L"), names, 4, r, "L")
    proj = _parse_matrix(obj.get("P"), names, r, r, "P")
    algebroid = AlgebroidData(
        dim=n, rank=r, coords=names, anchor=anchor,
        gamma=gamma, loc=loc, proj=proj,
    )
    metric = None
    if obj.get("metric") is not None:
        metric = parse_metric(obj["metric"], names, r)
    connection = None
    if obj.get("connection") is not None:
        coeff = _parse_entries(obj["connection"], names, 3, r, "connection")
        connection = Connection(r, coeff)
    return AlgebroidDocument(algebroid=algebroid, metric=metric, connection=connection)


def load_document(path: str) -> AlgebroidDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON in {path}: {exc}") from exc
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
        entries: SparseArray = {}
        for a in range(A.rank):
            for b in range(A.rank):
                v = doc.metric.at(a, b)
                if not v.is_zero():
                    entries[(a, b)] = v
        obj["metric"] = sparse_to_obj(entries, names)
    if doc.connection is not None:
        obj["connection"] = sparse_to_obj(doc.connection.coeff, names)
    return obj


def dump_document(doc: AlgebroidDocument, path: str | None = None) -> str:
    text = json.dumps(document_to_obj(doc), indent=2)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return text
