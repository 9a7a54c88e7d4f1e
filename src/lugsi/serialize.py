"""Deterministic text serialization for models, reports, and CSV output.

All emitted files must be byte-identical across reruns with the same
inputs, so floats are always written as their shortest round-trip
spelling (``repr``, which reads back as the same double) and
dictionaries keep insertion order. Documents are written by one small
recursive writer whose layout is json's ``indent=2`` layout, byte for
byte: two-space indents, ``,`` ending each item but the last, ``": "``
after keys, strings escaped by json's own (ASCII) string encoder. The
standard encoder falls back to pure Python under ``indent``; this writer
turns a float64 array into text with one ``tolist()``, one finiteness
check and one ``float.__repr__`` per value. Documents are read back with
``json.loads``.
"""

import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from .errors import NumericError


def fmt_float(x: float) -> str:
    """Format a finite float as its shortest round-trip spelling."""
    x = float(x)
    if not math.isfinite(x):
        raise NumericError(f"cannot serialize non-finite value {x!r}")
    return repr(x)


_escape = json.encoder.encode_basestring_ascii  # json.dumps' string escaping


def _float_lists(rows: list, depth: int, newline: str, out: list) -> None:
    """Append `depth`-deep nested lists of finite floats (an array's tolist())."""
    if not rows:
        out.append("[]")
        return
    inner = newline + "  "
    if depth == 1:
        out.append("[" + inner + ("," + inner).join(map(float.__repr__, rows)) + newline + "]")
        return
    sep = "["
    for row in rows:
        out.append(sep + inner)
        _float_lists(row, depth - 1, inner, out)
        sep = ","
    out.append(newline + "]")


def _write(value: Any, newline: str, out: list) -> None:
    """Append the indent=2 JSON text of `value`, whose lines start with `newline`."""
    if isinstance(value, str):
        out.append(_escape(value))
    elif value is None:
        out.append("null")
    elif value is True or value is False:
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):  # np.float64 too, spelled as json spells it
        if not math.isfinite(value):
            raise NumericError(f"cannot serialize non-finite value {value!r}")
        out.append(float.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner, sep = newline + "  ", "{"
        for key, item in value.items():
            out.append(sep + inner + _escape(key) + ": ")
            _write(item, inner, out)
            sep = ","
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner, sep = newline + "  ", "["
        for item in value:
            out.append(sep + inner)
            _write(item, inner, out)
            sep = ","
        out.append(newline + "]")
    elif isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim:
        if not np.isfinite(value).all():
            raise NumericError("cannot serialize non-finite value in an array")
        _float_lists(value.tolist(), value.ndim, newline, out)
    elif isinstance(value, (np.ndarray, np.generic)):
        _write(value.tolist(), newline, out)
    else:
        raise TypeError(f"cannot serialize value of type {type(value)!r}")


def dump_document(doc: dict) -> str:
    """Render a nested dict as deterministic JSON text (trailing newline)."""
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def write_document(path, doc: dict) -> None:
    """Write :func:`dump_document` text as UTF-8 with ``\\n`` line ends."""
    Path(path).write_text(dump_document(doc), encoding="utf-8", newline="\n")


def load_document(text: str) -> dict:
    """Parse a document previously written by :func:`dump_document`."""
    return json.loads(text)


def csv_line(*fields: Any) -> str:
    """Join fields into one CSV line, floats in their shortest round-trip spelling."""
    parts = []
    for field in fields:
        if isinstance(field, (float, np.floating)):
            parts.append(fmt_float(field))
        else:
            parts.append(str(field))
    return ",".join(parts)
