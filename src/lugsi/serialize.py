"""Deterministic text serialization for models, reports, and CSV output.

All emitted files must be byte-identical across reruns with the same
inputs, so floats are always written as their shortest round-trip
spelling (``repr``, which reads back as the same double) and
dictionaries keep insertion order. Documents are written by the
standard ``json`` encoder and read back with ``json.loads``.
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


def _plain(value: Any) -> Any:
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"cannot serialize value of type {type(value)!r}")


def dump_document(doc: dict) -> str:
    """Render a nested dict as deterministic JSON text (trailing newline)."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False, default=_plain) + "\n"
    except ValueError as exc:  # the encoder's "Out of range float values ..."
        raise NumericError(f"cannot serialize non-finite value: {exc}") from None


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
