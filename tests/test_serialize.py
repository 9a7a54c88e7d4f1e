"""The document writer: exact floats, plain JSON values, and old %.17g files."""

import math
import re
import struct

import numpy as np
import pytest

from conftest import random_binary_dataset
from lugsi import (
    GridSpec,
    KernelSpec,
    MeasureSpec,
    decision_values,
    fit_kernel_lugsi,
    fit_linear_lugsi,
    granule_v_vectors,
    grid_search,
    kmeans_granulate,
    load_model,
    save_model,
)
from lugsi.errors import NumericError
from lugsi.evaluation import report_document
from lugsi.serialize import csv_line, dump_document, fmt_float, load_document, write_document
from lugsi.solver import fit_lssvm, fit_vsvm, model_document
from oracles import reference_dump_document

EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3]

# a JSON string (kept as is) or a JSON number (respelled)
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?')


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def respell_17g(text: str) -> str:
    """Spell every float of a document as `%.17g`, as files were written before repr."""

    def spell(match):
        token = match.group()
        if token.startswith('"') or not any(c in token for c in ".eE"):
            return token
        return f"{float(token):.17g}"

    return _TOKEN.sub(spell, text)


@pytest.mark.parametrize("x", EDGE_FLOATS, ids=repr)
def test_float_roundtrips_bit_for_bit(x):
    doc = load_document(dump_document({"value": x, "array": np.array([x, -x])}))
    assert bits(doc["value"]) == bits(x)
    assert [bits(v) for v in doc["array"]] == [bits(x), bits(-x)]
    assert bits(float(fmt_float(x))) == bits(x)
    assert bits(float(csv_line(np.float64(x)))) == bits(x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=repr)
def test_non_finite_float_is_numeric_error(x):
    for doc in ({"value": x}, {"array": np.array([0.5, x])}, {"nested": [{"v": np.float64(x)}]}):
        with pytest.raises(NumericError, match="cannot serialize non-finite value"):
            dump_document(doc)
    with pytest.raises(NumericError, match="cannot serialize non-finite value"):
        fmt_float(x)


def test_numpy_values_and_tuples_are_written_as_python_values():
    numpy_doc = {
        "int": np.int64(-3),
        "float": np.float64(0.1),
        "single": np.float32(0.5),
        "flag": np.bool_(True),
        "pair": (1, 2.5),
        "matrix": np.array([[1.0, 2.0], [3.0, 4.0]]),
        "empty": np.zeros(0),
    }
    plain_doc = {
        "int": -3,
        "float": 0.1,
        "single": 0.5,
        "flag": True,
        "pair": [1, 2.5],
        "matrix": [[1.0, 2.0], [3.0, 4.0]],
        "empty": [],
    }
    assert dump_document(numpy_doc) == dump_document(plain_doc)


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes"], ids=["object", "set", "bytes"])
def test_unsupported_value_is_type_error(value):
    with pytest.raises(TypeError, match="cannot serialize value of type"):
        dump_document({"value": value})


def test_write_document_writes_utf8_with_newline_ends(tmp_path):
    doc = {"name": "é", "values": [0.1, 2.0], "empty": {}}
    write_document(tmp_path / "doc.json", doc)
    data = (tmp_path / "doc.json").read_bytes()
    assert data == dump_document(doc).encode("utf-8")
    assert b"\r" not in data and data.endswith(b"}\n")


def fitted(kind):
    data = random_binary_dataset(np.random.default_rng(5), 12, 3)
    g = kmeans_granulate(data, 4, seed=0)
    if kind == "empirical":
        measure = MeasureSpec.empirical(data.features)
    else:
        measure = MeasureSpec.uniform()
    invs = granule_v_vectors(data, g, measure)
    if kind in ("linear", "empirical"):
        return fit_linear_lugsi(data, g, invs, 0.3)[0], data
    spec = {"rbf": KernelSpec("rbf", delta=0.5), "cro": KernelSpec("cro", cro_gamma=0.3)}[kind]
    return fit_kernel_lugsi(data, g, invs, spec, 0.2)[0], data


@pytest.mark.parametrize("kind", ["linear", "empirical", "rbf", "cro"])
def test_model_written_at_17_digits_loads_bitwise_equal(tmp_path, kind):
    model, data = fitted(kind)
    text = dump_document(model_document(model))
    old_text = respell_17g(text)
    assert old_text != text
    path = tmp_path / "old.json"
    path.write_text(old_text, encoding="utf-8")
    loaded = load_model(path)
    assert dump_document(model_document(loaded)) == text
    expected = decision_values(model, data.features)
    assert decision_values(loaded, data.features).tobytes() == expected.tobytes()
    save_model(loaded, tmp_path / "new.json")
    assert (tmp_path / "new.json").read_text(encoding="utf-8") == text


def fitted_documents():
    """The model document of every fit kind, and a cv report document."""
    docs = {kind: model_document(fitted(kind)[0]) for kind in ("linear", "empirical", "rbf", "cro")}
    data = random_binary_dataset(np.random.default_rng(6), 14, 3)
    rbf = KernelSpec("rbf", delta=0.5)
    docs["lssvm"] = model_document(fit_lssvm(data, 0.3)[0])
    docs["lssvm_rbf"] = model_document(fit_lssvm(data, 0.3, kernel=rbf)[0])
    docs["vsvm"] = model_document(fit_vsvm(data, np.eye(data.l), 0.3)[0])
    docs["vsvm_rbf"] = model_document(fit_vsvm(data, np.eye(data.l), 0.3, kernel=rbf)[0])
    grid = GridSpec(c_values=(1.0, 4.0), delta_values=(0.5,), m_values=(2, 3), folds=3, seed=2)
    docs["cv_report"] = report_document(grid_search(data, grid, "rbf"), timing="zero")
    return docs


VALUE_DOCS = {
    "edge_floats": {
        "scalars": EDGE_FLOATS,
        "negated": [-x for x in EDGE_FLOATS],
        "array": np.array(EDGE_FLOATS),
        "matrix": np.array([EDGE_FLOATS, [-x for x in EDGE_FLOATS]]),
        "numpy": [np.float64(x) for x in EDGE_FLOATS],
    },
    "numpy_scalars": {
        "float64": np.float64(0.1),
        "float32": np.float32(1 / 3),
        "int64": np.int64(-(2**62)),
        "bool": [np.bool_(True), np.bool_(False)],
        "zero_d": np.array(2.5),
    },
    "arrays": {
        "empty": np.zeros(0),
        "no_rows": np.zeros((0, 3)),
        "no_columns": np.zeros((2, 0)),
        "cube": np.arange(12.0).reshape(2, 3, 2) / 7,
        "ints": np.arange(-2, 3),
        "int_matrix": np.arange(6, dtype=np.int32).reshape(2, 3),
        "bools": np.array([[True, False], [False, True]]),
        "float32": np.array([0.1, 2.0], dtype=np.float32),
        "strided": (np.arange(10.0) / 3)[::3],
    },
    "containers": {
        "nested_tuples": (1, (2.5, ("a", ())), [(), {}], ({"k": (None,)},)),
        "empty_dict": {},
        "empty_list": [],
        "plain": [True, False, None, 0, -1, 2**70, 1e22, 1e-7, 123456789.125],
    },
    "strings": {
        "non_ascii": "é ü ß 中文 \U0001f600",
        "escaped": 'quote " backslash \\ tab \t newline \n nul \x00 bell \x07 del \x7f',
        "ключ é": "non-ASCII key",
        "": "empty key",
    },
}


@pytest.mark.parametrize("name", list(VALUE_DOCS))
def test_writer_equals_the_json_encoder_on_values(name):
    doc = VALUE_DOCS[name]
    assert dump_document(doc) == reference_dump_document(doc)


def test_writer_equals_the_json_encoder_on_every_document(tmp_path):
    for kind, doc in fitted_documents().items():
        assert dump_document(doc) == reference_dump_document(doc), kind
        write_document(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_bytes() == reference_dump_document(doc).encode(), kind


def test_saved_model_equals_the_json_encoder(tmp_path):
    for kind in ("linear", "rbf", "cro"):
        model = fitted(kind)[0]
        save_model(model, tmp_path / "model.json")
        expected = reference_dump_document(model_document(model)).encode()
        assert (tmp_path / "model.json").read_bytes() == expected, kind
