"""tools/compare_outputs.py: the verdict per file and the exit status."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from lugsi.serialize import dump_document

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(header: dict, accuracy: float) -> str:
    return dump_document({"header": header, "kind": "cv-report", "configurations": [accuracy]})


@pytest.mark.parametrize(
    "text_a, text_b, verdict",
    [
        ("# lugsi cv format_version=1 data=a.csv\nc,acc\n4.0,0.5\n",
         "# lugsi cv format_version=1 data=a.csv format=csv threads=1\nc,acc\n4.0,0.5\n",
         "header differs"),
        (report({"data": "a.csv"}, 0.5),
         report({"data": "a.csv", "format": "csv", "has_header": False}, 0.5),
         "header differs"),
        ("# lugsi cv format_version=1 data=a.csv\nc,acc\n4.0,0.5\n",
         "# lugsi cv format_version=1 data=a.csv format=csv\nc,acc\n4.0,0.25\n",
         "structure differs"),
        (report({"data": "a.csv"}, 0.5), report({"data": "a.csv", "format": "csv"}, 0.25),
         "structure differs"),
        ("# lugsi cv format_version=1 seed=1\nc,acc\n4.0,0.5\n",
         "# lugsi cv format_version=1 seed=2\nc,acc\n4.0,0.5\n",
         "header differs"),
        ("# lugsi cv format_version=1 seed=1\nc,acc\n4.0,0.5\n",
         "# lugsi cv format_version=1 seed=1\nc,acc\n4,0.50\n",
         "respelled"),
    ],
    ids=["header_only_csv", "header_only_json", "changed_body_csv", "changed_body_json",
         "header_value_only", "respelled_body"],
)
def test_verdict_and_exit_status(tmp_path, tool, text_a, text_b, verdict):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out, text in ((out_a, text_a), (out_b, text_b)):
        out.mkdir()
        (out / "result.txt").write_text(text, encoding="utf-8")
    assert tool.compare(out_a / "result.txt", out_b / "result.txt") == verdict
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        code = tool.main([str(out_a), str(out_b)])
    assert printed.getvalue() == f"result.txt: {verdict}\n"
    # only identical and respelled files pass the gate
    assert code == (0 if verdict == "respelled" else 1)
