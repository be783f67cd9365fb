"""Deterministic serialization helpers.

JSON goes through the standard library encoder with sorted keys and a
two-space indent, so identical runs produce byte-identical files.  Its
floats are written shortest-round-trip (``repr``): ``json.loads`` gives
back every float with the same type and bits, ``-0.0`` and ``1.0``
included.  JSON has no non-finite numbers, so nan and +-inf are written
as null.  A CSV is written from columns, each cell typed by its
column's dtype: an integer column's cells as integers, any other's as
floats at 17 significant digits.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _jsonable(obj):
    """obj with str keys, numpy values as Python ones, complex numbers as
    {re, im} and non-finite floats as None."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, complex):
        return _jsonable({"re": obj.real, "im": obj.imag})
    return obj


def dumps_json(obj) -> str:
    """JSON text with sorted keys, a two-space indent, shortest-round-trip
    floats and null for non-finite ones; a value of another type raises
    TypeError."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2,
                      ensure_ascii=False, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_json(obj))


# Rows per chunk of a CSV: each chunk is formatted and written at once
_CSV_CHUNK = 1024


def write_csv(path, columns: dict) -> None:
    """Write equal-length 1-d columns as a CSV whose header is their keys.

    A cell is typed by its column's dtype: %d for an integer column,
    %.17g for any other, so floats have 17 significant digits and the
    non-finite ones read nan, inf and -inf.  Each chunk of _CSV_CHUNK rows
    is one %-format of the row template repeated over the chunk's cells,
    interleaved from the columns' tolist(), and one write, so neither a
    whole column as Python objects nor the file's text is held.
    """
    columns = {key: np.asarray(column) for key, column in columns.items()}
    lengths = {len(column) for column in columns.values()}
    if len(lengths) != 1:
        raise ValueError(f"columns of differing lengths {sorted(lengths)}")
    width = len(columns)
    row = ",".join("%d" if column.dtype.kind in "iu" else "%.17g"
                   for column in columns.values()) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for first in range(0, lengths.pop(), _CSV_CHUNK):
            parts = [column[first:first + _CSV_CHUNK].tolist()
                     for column in columns.values()]
            cells = [None] * (len(parts[0]) * width)
            for j, part in enumerate(parts):
                cells[j::width] = part
            fh.write(row * len(parts[0]) % tuple(cells))
