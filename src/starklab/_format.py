"""Deterministic serialization helpers.

JSON goes through the standard library encoder with sorted keys and a
two-space indent, so identical runs produce byte-identical files.  Its
floats are written shortest-round-trip (``repr``): ``json.loads`` gives
back every float with the same type and bits, ``-0.0`` and ``1.0``
included.  JSON has no non-finite numbers, so nan and +-inf are written
as null.  CSV floats are written at 17 significant digits.
"""

from __future__ import annotations

import itertools
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


# Rows per chunk of a CSV: each chunk is formatted and written with one join
_CSV_CHUNK = 1024


def column_rows(*columns):
    """The rows of equal-length 1-d arrays, zipped as Python scalars, each
    array converted one chunk of _CSV_CHUNK rows at a time (its tolist()),
    so that no whole-column list is held."""
    for first in range(0, len(columns[0]), _CSV_CHUNK):
        yield from zip(*(c[first:first + _CSV_CHUNK].tolist()
                         for c in columns))


def write_csv(path, header: list[str], rows) -> None:
    """Write rows of int and float cells; floats at 17 significant digits,
    non-finite ones as nan, inf and -inf.  Each row is one %-format of a
    template cached by the row's cell types: %d for an integer cell, %.17g
    (as format(float(cell), ".17g")) for any other.  rows is read and
    written in chunks of _CSV_CHUNK rows, each chunk's lines joined into
    one write, so neither the rows nor the file's text are held whole."""
    templates: dict = {}
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(itertools.islice(rows, _CSV_CHUNK)):
            lines = []
            for row in chunk:
                row = tuple(row)
                types = tuple(map(type, row))
                template = templates.get(types)
                if template is None:
                    template = templates[types] = ",".join(
                        "%d" if issubclass(t, (int, np.integer)) else "%.17g"
                        for t in types) + "\n"
                lines.append(template % row)
            fh.write("".join(lines))
