"""Deterministic serialization helpers.

Floats are emitted with 17 significant digits everywhere (enough to
round-trip IEEE doubles), so identical runs produce byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np


def _jsonable(obj):
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
        return float(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def dumps_json17(obj) -> str:
    """JSON text with sorted keys, a two-space indent and
    17-significant-digit floats.

    Non-finite floats become null (JSON has no representation for them).
    """
    out: list[str] = []
    _emit(_jsonable(obj), out, 0)
    out.append("\n")
    return "".join(out)


def _emit(obj, out: list[str], level: int) -> None:
    pad = "  " * (level + 1)
    closepad = "  " * level
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if math.isfinite(obj):
            out.append(format(obj, ".17g"))
        else:
            out.append("null")
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, k in enumerate(keys):
            out.append(pad)
            out.append(_escape(str(k)))
            out.append(": ")
            _emit(obj[k], out, level + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(closepad + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _emit(v, out, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(closepad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


_ESCAPES = {
    "\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t",
    "\b": "\\b", "\f": "\\f",
}


def _escape(s: str) -> str:
    parts = ['"']
    for ch in s:
        if ch in _ESCAPES:
            parts.append(_ESCAPES[ch])
        elif ord(ch) < 0x20:
            parts.append(f"\\u{ord(ch):04x}")
        else:
            parts.append(ch)
    parts.append('"')
    return "".join(parts)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_json17(obj))


def write_csv(path, header: list[str], rows) -> None:
    """Write rows of int and float cells; floats at 17 significant digits,
    non-finite ones as nan, inf and -inf."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join([
                str(int(cell)) if isinstance(cell, (int, np.integer))
                else format(float(cell), ".17g") for cell in row]) + "\n")
