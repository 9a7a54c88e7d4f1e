#!/usr/bin/env python3
"""Compare two output sets written by tools/standard_outputs.sh, value by value.

    tools/compare_outputs.py OUT_A OUT_B

Each file is split into numbers and the text between them, and reported as:
  identical          the bytes are equal;
  respelled          the same text, and every number reads back as the same double
                     (0.98888888888888893 and 0.9888888888888889, or 64 and 64.0);
  header differs     only the provenance header differs, every other byte is equal:
                     a first line starting "# lugsi ", or a JSON document's
                     top-level "header" object;
  values differ      the same text; how many numbers differ and their max |Δ|
                     (a flipped label is a differing integer);
  structure differs  the text differs, or the file is missing from one set.
Exits 0 when every file is identical or respelled, 1 otherwise.
"""

import json
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"(?<![\w.])(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)(?![\w.])")
# a leading top-level "header" key, as `lugsi cv` writes its report (indent=2)
JSON_HEADER = re.compile(r'^\{\n  "header": ')


def without_header(text: str) -> str | None:
    """The text with its provenance header cut out, or None if it has none."""
    if text.startswith("# lugsi "):
        return text.partition("\n")[2]
    match = JSON_HEADER.match(text)
    if match is None:
        return None
    try:
        end = json.JSONDecoder().raw_decode(text, match.end())[1]
    except ValueError:
        return None
    return text[: match.end()] + text[end:]


def compare(a: Path, b: Path) -> str:
    if not (a.is_file() and b.is_file()):
        return "structure differs (missing from one set)"
    text_a, text_b = a.read_text(encoding="utf-8"), b.read_text(encoding="utf-8")
    if text_a == text_b:
        return "identical"
    parts_a, parts_b = NUMBER.split(text_a), NUMBER.split(text_b)
    same_text = len(parts_a) == len(parts_b) and parts_a[::2] == parts_b[::2]
    if same_text:
        pairs = [(float(x), float(y)) for x, y in zip(parts_a[1::2], parts_b[1::2])]
        deltas = [abs(x - y) for x, y in pairs if x.hex() != y.hex()]
        if not deltas:
            return "respelled"
    body_a = without_header(text_a)
    if body_a is not None and body_a == without_header(text_b):
        return "header differs"
    if not same_text:
        return "structure differs"
    return f"values differ ({len(deltas)} numbers, max |Δ| {max(deltas):.3g})"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_outputs.py OUT_A OUT_B", file=sys.stderr)
        return 2
    out_a, out_b = Path(argv[0]), Path(argv[1])
    names = sorted({p.name for out in (out_a, out_b) for p in out.iterdir()})
    verdicts = {name: compare(out_a / name, out_b / name) for name in names}
    for name, verdict in verdicts.items():
        print(f"{name}: {verdict}")
    return 0 if all(v in ("identical", "respelled") for v in verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
