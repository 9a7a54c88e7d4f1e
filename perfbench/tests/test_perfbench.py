"""Self-test of the benchmark harness at tiny sizes.

Every workload runs, traced and untraced, and reports exactly the metrics
BENCHMARK.json names, with their units; a corrupted prediction trips the
correctness check; a shim target that no longer exists is reported, not
fatal.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import lugsi  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

# A two-point grid with three folds fits wine worse than the default grid,
# so its accuracy floor is lower; everything else is checked as in a full run.
TINY = {
    "cv_linear_wine": dict(
        c_values=(1.0, 16.0), m_values=(1, 3), folds=3, restarts=2, accuracy_floor=0.8
    ),
    "train_rbf_synth": dict(train_rows=300, test_rows=100, m=20, datasets=2),
    "train_linear_synth": dict(train_rows=300, test_rows=100, m=10, datasets=2),
}


def tiny(name):
    return replace(harness.WORKLOADS[name], **TINY[name])


def run_tiny(name, trace):
    return harness.run(tiny(name), seed=3, seconds=0, trace=trace, setup_samples=1)


def declared_units(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_workload_table_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(harness.WORKLOADS)
    assert declared_units("end_to_end") == harness.END_TO_END_UNITS
    assert declared_units("per_layer") == tracer.PER_LAYER_UNITS


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_appears_with_its_unit(name, trace):
    summary = run_tiny(name, trace).summary()
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] >= 1
    expected = declared_units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
    values = {k: v["value"] for k, v in summary["metrics"].items()}
    if trace:
        linear = name != "train_rbf_synth"
        assert (values["kernels.calls"] == 0) == linear
        assert values["granulation.calls"] >= 1
        assert values["solver.fit_calls"] >= 1
    else:
        assert all(v > 0 for v in values.values())


def test_traced_grid_counts_every_fold_fit():
    values = run_tiny("cv_linear_wine", trace=True).metrics
    configs = len(TINY["cv_linear_wine"]["c_values"]) * len(TINY["cv_linear_wine"]["m_values"])
    assert values["evaluation.configs"] == configs
    assert values["evaluation.fold_fits"] == configs * TINY["cv_linear_wine"]["folds"]


def test_one_flipped_label_fails_the_check(monkeypatch):
    predict_labels = lugsi.predict_labels

    def corrupted(model, points):
        labels = predict_labels(model, points).copy()
        labels[0] = 1 - labels[0]
        return labels

    monkeypatch.setattr(lugsi, "predict_labels", corrupted)
    result = run_tiny("train_linear_synth", trace=False)
    assert result.correct is False
    assert result.tally.failed == result.tally.attempted
    assert any("do not follow" in p for p in result.tally.problems)


def test_check_predictions_catches_a_flipped_label():
    workload = tiny("train_linear_synth")
    case = workload.make_cases(0)[0]
    path = harness.OUT_DIR / "test-check-model.json"
    harness.OUT_DIR.mkdir(exist_ok=True)
    try:
        model = workload.fit(case, path).model
        loaded = lugsi.load_model(path)
    finally:
        path.unlink(missing_ok=True)
    labels = lugsi.predict_labels(loaded, lugsi.apply_scaling(case.score, loaded.scaling).features)
    assert harness.check_predictions(model, loaded, case.score, labels) == []
    labels[5] = 1 - labels[5]
    assert harness.check_predictions(model, loaded, case.score, labels) == [
        "predicted labels do not follow from the decision values"
    ]


def test_missing_shim_target_is_reported_not_fatal():
    targets = tracer.TARGETS + (
        tracer.Target("lugsi", "no_such_function", "kernels", "gram_block"),
        tracer.Target("lugsi.no_such_module", "f", "kernels", "gram_block"),
    )
    recorder = tracer.Recorder()
    with tracer.shims_installed(recorder, targets) as missing:
        assert missing == ["lugsi.no_such_function", "lugsi.no_such_module.f"]
        assert lugsi.kmeans_granulate is not lugsi.granulation.kmeans_granulate
    assert lugsi.kmeans_granulate is lugsi.granulation.kmeans_granulate
    only_missing = [t.where for t in tracer.TARGETS if t.layer == "kernels"]
    assert tracer.absent_layers(only_missing) == ["kernels"]


def test_noisy_blobs_flip_exactly_the_requested_share():
    base = lugsi.generate_ndc(400, 4, 3, 11)
    noisy = harness.noisy_blobs(400, 4, 3, 0.05, 11)
    assert np.array_equal(noisy.features, base.features)
    assert int(np.sum(noisy.labels != base.labels)) == 20
    assert np.array_equal(noisy.labels, harness.noisy_blobs(400, 4, 3, 0.05, 11).labels)
