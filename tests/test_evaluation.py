"""Cross-validation, grid search, and benchmark harness contracts."""

import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import random_binary_dataset

from lugsi import (
    DataError,
    Dataset,
    GridSpec,
    accuracy,
    benchmark_scaling,
    cluster_sweep,
    cross_validate,
    default_m_values,
    generate_ndc,
    grid_search,
    kfold_split,
)
import lugsi.evaluation
from lugsi import load_csv, solver
from lugsi.evaluation import (
    ConfigResult,
    CVConfig,
    FoldResult,
    apply_scaling,
    distinct_rows,
    plot_csv_lines,
    report_document,
    select_best,
    train_fold_pipeline,
)
from lugsi.solver import model_document
from lugsi.serialize import dump_document
from lugsi.solver import predict_labels


def count_granulations(monkeypatch) -> list:
    """Route the evaluation module's k-means through a recorder of its m values."""
    calls = []
    granulate = lugsi.evaluation.kmeans_granulate

    def counting(data, m, *args, **kwargs):
        calls.append(m)
        return granulate(data, m, *args, **kwargs)

    monkeypatch.setattr(lugsi.evaluation, "kmeans_granulate", counting)
    return calls


def count_system_builds(monkeypatch) -> list:
    """Route the solver's P builds through a recorder of (rows, m, kernel)."""
    calls = []
    design_rows = solver._design_rows

    def counting(data, granulation, weights, kernel):
        calls.append((data.l, granulation.m, kernel))
        return design_rows(data, granulation, weights, kernel)

    monkeypatch.setattr(solver, "_design_rows", counting)
    return calls


def slowed(monkeypatch, name: str, pause: float) -> None:
    """Make the evaluation module's `name` sleep `pause` seconds before it runs."""
    fn = getattr(lugsi.evaluation, name)

    def slow(*args, **kwargs):
        time.sleep(pause)
        return fn(*args, **kwargs)

    monkeypatch.setattr(lugsi.evaluation, name, slow)


def bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def separable_line() -> Dataset:
    x = np.concatenate([np.linspace(0.0, 0.4, 10), np.linspace(0.6, 1.0, 10)])
    return Dataset(x[:, None], (x > 0.5).astype(int))


class TestAccuracy:
    def test_identical(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_complementary(self):
        assert accuracy([1, 0], [0, 1]) == 0.0

    def test_half(self):
        assert accuracy([1, 0, 1, 1], [1, 1, 1, 0]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            accuracy([1, 0], [1])

    def test_empty(self):
        with pytest.raises(DataError):
            accuracy([], [])


class TestCrossValidate:
    def test_separable_threshold_data(self):
        result = cross_validate(
            separable_line(), CVConfig("linear", gamma=1e-3, m=2), folds=5, seed=0
        )
        assert result.mean_accuracy == 1.0

    def test_constant_labels_hit_majority_fraction(self, rng):
        data = Dataset(rng.random((20, 2)), np.ones(20, dtype=int))
        result = cross_validate(data, CVConfig("linear", gamma=0.5, m=3), folds=4, seed=1)
        for fr in result.fold_results:
            assert fr.accuracy == 1.0

    def test_same_seed_identical(self, rng):
        data = random_binary_dataset(rng, 30, 3)
        config = CVConfig("rbf", gamma=0.5, m=4, delta=1.0)
        a = cross_validate(data, config, folds=5, seed=7)
        b = cross_validate(data, config, folds=5, seed=7)
        assert [fr.accuracy for fr in a.fold_results] == [fr.accuracy for fr in b.fold_results]
        for fa, fb in zip(a.fold_results, b.fold_results):
            assert fa.predictions.tobytes() == fb.predictions.tobytes()

    def test_m_clipped_to_train_fold_size(self, rng):
        data = random_binary_dataset(rng, 15, 2)
        result = cross_validate(data, CVConfig("linear", gamma=0.1, m=15), folds=5, seed=0)
        assert result.m_clipped
        for fr in result.fold_results:
            assert fr.m_effective == 12

    def test_m_clipped_to_distinct_training_rows(self, rng, monkeypatch):
        errors = []
        granulate = lugsi.evaluation.kmeans_granulate

        def recording(data, m, *args, **kwargs):
            granulation = granulate(data, m, *args, **kwargs)
            errors.append(granulation.clustering_error)
            return granulation

        monkeypatch.setattr(lugsi.evaluation, "kmeans_granulate", recording)
        # 20 random rows written twice: each 30-row training fold has 10 to 20 distinct rows
        half = random_binary_dataset(rng, 20, 3)
        data = Dataset(np.vstack([half.features] * 2), np.concatenate([half.labels] * 2))
        plan = kfold_split(data, 4, 2)
        result = cross_validate(data, CVConfig("linear", gamma=0.5, m=25), folds=4, seed=2)
        assert result.m_clipped
        assert errors == [0.0] * 4
        for fr in result.fold_results:
            train = data.features[plan.train_indices(fr.fold)]
            assert fr.m_effective == np.unique(train, axis=0).shape[0]

    def test_reported_accuracy_matches_persisted_predictions(self, rng):
        data = random_binary_dataset(rng, 40, 3)
        result = cross_validate(data, CVConfig("linear", gamma=0.2, m=5), folds=5, seed=3)
        for fr in result.fold_results:
            recomputed = float(np.mean(fr.predictions == data.labels[fr.test_indices]))
            assert fr.accuracy == recomputed

    def test_test_rows_cannot_leak_into_training(self, rng):
        base = random_binary_dataset(rng, 30, 3)
        plan = kfold_split(base, 5, seed=2)
        test_idx = plan.test_indices(0)
        features = base.features.copy()
        features[test_idx] += 100.0  # move fold-0 test rows far outside
        moved = Dataset(features, base.labels)
        config = CVConfig("linear", gamma=0.3, m=4)
        model_a, _, _ = train_fold_pipeline(base.subset(plan.train_indices(0)), config, seed=2)
        model_b, _, _ = train_fold_pipeline(moved.subset(plan.train_indices(0)), config, seed=2)
        params_a, params_b = model_a.scaling, model_b.scaling
        assert params_a.minimum.tobytes() == params_b.minimum.tobytes()
        assert params_a.maximum.tobytes() == params_b.maximum.tobytes()
        assert dump_document(model_document(model_a)) == dump_document(model_document(model_b))
        # and cross_validate reproduces exactly this per-fold pipeline
        result = cross_validate(base, config, folds=5, seed=2)
        scaled_test = apply_scaling(base.subset(test_idx), params_a)
        np.testing.assert_array_equal(
            result.fold_results[0].predictions, predict_labels(model_a, scaled_test.features)
        )


class TestGridSearch:
    def test_singleton_grid_equals_cross_validate(self, rng):
        data = random_binary_dataset(rng, 24, 2)
        grid = GridSpec(c_values=(2.0,), delta_values=(1.0,), m_values=(3,), folds=4, seed=5)
        report = grid_search(data, grid, "linear")
        direct = cross_validate(data, CVConfig("linear", gamma=0.5, m=3, c=2.0), folds=4, seed=5)
        assert len(report.results) == 1
        assert report.results[0].mean_accuracy == direct.mean_accuracy
        assert report.best_index == 0

    def test_lower_std_wins_on_equal_accuracy(self):
        def fake(mean, std, seconds):
            return ConfigResult(
                config=CVConfig("linear", gamma=1.0, m=1),
                fold_results=(),
                mean_accuracy=mean,
                std_accuracy=std,
                mean_train_seconds=seconds,
            )

        results = [fake(0.9, 0.05, 1.0), fake(0.9, 0.01, 2.0), fake(0.8, 0.0, 0.1)]
        assert select_best(results) == 1

    def test_time_breaks_remaining_ties_only_when_enabled(self):
        def fake(seconds):
            return ConfigResult(
                config=CVConfig("linear", gamma=1.0, m=1),
                fold_results=(),
                mean_accuracy=0.9,
                std_accuracy=0.02,
                mean_train_seconds=seconds,
            )

        results = [fake(5.0), fake(1.0)]
        assert select_best(results, time_tiebreak=True) == 1
        assert select_best(results, time_tiebreak=False) == 0

    def test_grid_order_and_row_count(self, rng):
        data = random_binary_dataset(rng, 20, 2)
        grid = GridSpec(c_values=(1.0, 2.0), delta_values=(0.5, 1.0), m_values=(1, 3), folds=3, seed=0)
        report = grid_search(data, grid, "rbf")
        assert len(report.results) == 8  # c x delta x m
        lines = plot_csv_lines(report)
        assert len(lines) == 1 + 8 * 3  # header + |grid| * folds
        report_linear = grid_search(data, grid, "linear")
        assert len(report_linear.results) == 4  # delta collapses for linear

    def test_reproducible_best_configuration(self, rng):
        data = random_binary_dataset(rng, 26, 3)
        grid = GridSpec(c_values=(0.5, 4.0), delta_values=(1.0,), m_values=(2, 5), folds=4, seed=9)
        first = grid_search(data, grid, "linear", time_tiebreak=False)
        second = grid_search(data, grid, "linear", time_tiebreak=False)
        assert first.best_index == second.best_index
        assert [r.mean_accuracy for r in first.results] == [r.mean_accuracy for r in second.results]

    def test_parallel_matches_sequential(self, rng):
        data = random_binary_dataset(rng, 20, 2)
        grid = GridSpec(c_values=(1.0, 2.0), delta_values=(1.0,), m_values=(2,), folds=3, seed=4)
        seq = grid_search(data, grid, "linear", time_tiebreak=False)
        par = grid_search(data, grid, "linear", threads=2, time_tiebreak=False)
        assert [r.mean_accuracy for r in seq.results] == [r.mean_accuracy for r in par.results]
        assert seq.best_index == par.best_index

    def test_grid_matches_per_fold_pipeline(self, rng):
        # 15 rows in 5 folds train on 12: m = 13 and m = 14 both clip to 12
        data = random_binary_dataset(rng, 15, 2)
        grid = GridSpec(
            c_values=(0.5, 8.0), delta_values=(0.5, 2.0), m_values=(2, 13, 14), folds=5, seed=3
        )
        plan = kfold_split(data, grid.folds, grid.seed)
        for kernel_kind in ("linear", "rbf"):
            report = grid_search(data, grid, kernel_kind, restarts=3)
            assert len(report.results) == (6 if kernel_kind == "linear" else 12)
            for result in report.results:
                assert [fr.fold for fr in result.fold_results] == list(range(grid.folds))
                for fr in result.fold_results:
                    train = data.subset(plan.train_indices(fr.fold))
                    test = data.subset(plan.test_indices(fr.fold))
                    model, _, _ = train_fold_pipeline(train, result.config, grid.seed, restarts=3)
                    expected = predict_labels(model, apply_scaling(test, model.scaling).features)
                    assert fr.predictions.tobytes() == expected.tobytes()
                    assert fr.accuracy == accuracy(expected, test.labels)
                    assert fr.m_effective == min(result.config.m, 12)
                    assert fr.test_indices.tobytes() == plan.test_indices(fr.fold).tobytes()

    def test_granulates_once_per_fold_and_cluster_count(self, rng, monkeypatch):
        calls = count_granulations(monkeypatch)
        data = random_binary_dataset(rng, 24, 2)
        grid = GridSpec(
            c_values=(0.5, 2.0, 8.0), delta_values=(), m_values=(2, 5), folds=3, seed=1
        )
        report = grid_search(data, grid, "linear", restarts=2)
        assert len(report.results) == 6
        assert sorted(calls) == [2, 2, 2, 5, 5, 5]

    def test_default_linear_wine_grid_builds_each_system_once(self, monkeypatch):
        builds = count_system_builds(monkeypatch)
        data = load_csv(Path(__file__).resolve().parent.parent / "data" / "wine.csv")
        report = grid_search(data, GridSpec.default(data.l, seed=1), "linear", time_tiebreak=False)
        assert len(report.results) == 17 * 5
        # 5 folds x 5 m values, each solved at 17 C values
        assert len(builds) == 25
        assert len(set((rows, m) for rows, m, _ in builds)) == 10

    def test_rbf_grid_builds_one_system_per_unit_and_delta(self, rng, monkeypatch):
        builds = count_system_builds(monkeypatch)
        granulations = count_granulations(monkeypatch)
        data = random_binary_dataset(rng, 24, 2)
        grid = GridSpec(
            c_values=(0.5, 2.0, 8.0), delta_values=(0.5, 1.0), m_values=(2, 5), folds=3, seed=1
        )
        report = grid_search(data, grid, "rbf", restarts=2)
        assert len(report.results) == 12
        assert len(granulations) == 6
        # delta-major inside each (fold, m) unit
        assert [(m, kernel.delta) for _, m, kernel in builds] == [
            (2, 0.5), (2, 1.0), (5, 0.5), (5, 1.0)
        ] * 3

    def test_train_seconds_include_granulation_and_system_build(self, rng, monkeypatch):
        pause = 0.05
        slowed(monkeypatch, "kmeans_granulate", pause)
        slowed(monkeypatch, "granulated_system", pause)
        data = random_binary_dataset(rng, 12, 2)
        grid = GridSpec(
            c_values=(1.0, 4.0), delta_values=(0.5, 2.0), m_values=(2,), folds=2, seed=0
        )
        report = grid_search(data, grid, "rbf", restarts=1)
        for result in report.results:
            for fr in result.fold_results:
                # the unit's k-means plus this delta's system build, each at least `pause`
                assert fr.train_seconds >= 2 * pause

    def test_parallel_units_match_sequential_bytes(self, rng):
        # 21 rows in 3 folds train on 14, so m = 20 is clipped
        data = random_binary_dataset(rng, 21, 2)
        grid = GridSpec(
            c_values=(0.5, 4.0, 32.0), delta_values=(0.5, 2.0), m_values=(1, 4, 20), folds=3, seed=6
        )

        def document(kernel_kind, threads):
            report = grid_search(
                data, grid, kernel_kind, restarts=2, threads=threads, time_tiebreak=False
            )
            return dump_document(report_document(report, timing="zero"))

        for kernel_kind in ("linear", "rbf"):
            assert document(kernel_kind, 2) == document(kernel_kind, 1)

    def test_rbf_grid_without_delta_is_rejected_before_fold_work(self, rng, monkeypatch):
        calls = count_granulations(monkeypatch)
        data = random_binary_dataset(rng, 20, 2)
        grid = GridSpec(c_values=(1.0,), delta_values=(), m_values=(2,), folds=4, seed=0)
        with pytest.raises(DataError, match="delta"):
            grid_search(data, grid, "rbf")
        with pytest.raises(DataError, match="unknown kernel"):
            grid_search(data, grid, "poly")
        assert calls == []
        assert len(grid_search(data, grid, "linear").results) == 1

    @pytest.mark.parametrize("threads", [0, -1])
    def test_thread_count_below_one_is_rejected(self, rng, monkeypatch, threads):
        calls = count_granulations(monkeypatch)
        data = random_binary_dataset(rng, 20, 2)
        grid = GridSpec(c_values=(1.0,), delta_values=(), m_values=(2,), folds=4, seed=0)
        with pytest.raises(DataError, match="threads"):
            grid_search(data, grid, "linear", threads=threads)
        assert calls == []

    # a subnormal C has an infinite gamma = 1/C, a subnormal delta a zero 2 delta^2
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 1e-310], ids=["nan", "inf", "subnormal"]
    )
    @pytest.mark.parametrize("field, message", [("c_values", "C values"), ("delta_values", "delta")])
    def test_non_finite_grid_value_is_rejected(self, field, message, value):
        values = {"c_values": (1.0,), "delta_values": (1.0,), field: (1.0, value)}
        with pytest.raises(DataError, match=message):
            GridSpec(**values, m_values=(2,), folds=3, seed=0)

    def test_overflowing_gamma_m_is_rejected(self):
        # gamma = 1/C = 1e308 is finite; the solve shifts by gamma * m
        GridSpec(c_values=(1e-308,), delta_values=(), m_values=(1,), folds=3, seed=0)
        with pytest.raises(DataError, match="gamma\\*m finite: C=1e-308, m=7"):
            GridSpec(c_values=(1.0, 1e-308), delta_values=(), m_values=(1, 7), folds=3, seed=0)
        with pytest.raises(DataError, match="gamma\\*m finite: C=1e-308, m=20"):
            replace(GridSpec.default(20), c_values=(1e-308,))

    def test_report_document_zero_timing(self, rng):
        data = random_binary_dataset(rng, 18, 2)
        grid = GridSpec(c_values=(1.0,), delta_values=(1.0,), m_values=(2,), folds=3, seed=0)
        report = grid_search(data, grid, "linear")
        doc = report_document(report, timing="zero")
        assert doc["configurations"][0]["mean_train_seconds"] == 0.0
        wall = report_document(report, timing="wall")
        assert wall["configurations"][0]["mean_train_seconds"] > 0.0


class TestDefaults:
    def test_small_dataset_m_grid(self):
        assert default_m_values(306) == (1, 3, 7, 153, 306)

    def test_large_dataset_m_grid(self):
        assert default_m_values(988) == (1, 3, 7, 61, 988)

    def test_tiny_dataset_deduplicates(self):
        assert default_m_values(7) == (1, 3, 7)


class TestDistinctRows:
    @pytest.mark.parametrize(
        "rows",
        [
            [[0.5, 1.0]],
            [[1.0, 2.0], [0.0, 1.0], [1.0, 2.0], [1.0, 3.0], [0.0, 1.0], [1.0, 2.0]],
            [[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, -0.0], [1.0, 0.0], [1.0, -0.0]],
        ],
        ids=["one-row", "duplicates", "signed-zeros"],
    )
    def test_count_is_that_of_unique(self, rows):
        features = np.array(rows)
        data = Dataset(features, np.arange(len(rows)) % 2)
        assert distinct_rows(data) == np.unique(features, axis=0).shape[0]

    def test_random_rows_on_a_grid(self, rng):
        for l in (2, 9, 40, 300):
            features = np.round(rng.random((l, 3)) * 2) / 2
            data = Dataset(features, np.arange(l) % 2)
            assert distinct_rows(data) == np.unique(features, axis=0).shape[0]

    def test_leaves_numpy_ma_unloaded(self):
        script = (
            "import sys, numpy as np, lugsi\n"
            "from lugsi.evaluation import distinct_rows\n"
            "distinct_rows(lugsi.Dataset(np.eye(3)[[0, 1, 1]], np.array([0, 1, 0])))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestBenchmarks:
    def test_scaling_rows(self, monkeypatch):
        monkeypatch.setattr(lugsi.evaluation, "SCALING_FIT_REPEATS", 2)
        monkeypatch.setattr(lugsi.evaluation, "SCALING_V_MATRIX_LIMIT", 600)
        rows = benchmark_scaling((300, 600), features=4, m=5, seed=0)
        assert [row.l for row in rows] == [300, 600]
        for row in rows:
            assert row.granulate_seconds > 0.0
            assert row.assembly_seconds > 0.0
            assert row.fit_seconds > 0.0
            assert row.v_matrix_seconds is not None and row.v_matrix_seconds > 0.0
            assert 0.0 <= row.holdout_accuracy <= 1.0

    def test_fits_the_model_train_fits(self, monkeypatch):
        models = []
        fit = lugsi.evaluation.fit_linear_lugsi

        def capturing(*args, **kwargs):
            model, diagnostics = fit(*args, **kwargs)
            models.append(model)
            return model, diagnostics

        monkeypatch.setattr(lugsi.evaluation, "fit_linear_lugsi", capturing)
        sizes, features, m, seed, gamma, restarts = (300, 600), 4, 5, 3, 0.5, 2
        rows = benchmark_scaling(sizes, features, m, seed, gamma, restarts)
        repeats = lugsi.evaluation.SCALING_FIT_REPEATS
        assert len(models) == repeats * len(sizes)
        bench_models = models[repeats - 1::repeats]
        for l, row, bench_model in zip(sizes, rows, bench_models):
            raw = generate_ndc(l, features, lugsi.evaluation.SCALING_DATA_CLUSTERS, seed)
            l_train = l - l // 5
            train, test = raw.subset(np.arange(l_train)), raw.subset(np.arange(l_train, l))
            model, _, _ = train_fold_pipeline(train, CVConfig("linear", gamma, m), seed, restarts)
            assert dump_document(model_document(bench_model)) == dump_document(model_document(model))
            predicted = predict_labels(model, apply_scaling(test, model.scaling).features)
            assert row.holdout_accuracy == accuracy(predicted, test.labels)

    def test_v_matrix_skipped_above_limit(self, monkeypatch):
        monkeypatch.setattr(lugsi.evaluation, "SCALING_FIT_REPEATS", 1)
        monkeypatch.setattr(lugsi.evaluation, "SCALING_V_MATRIX_LIMIT", 400)
        rows = benchmark_scaling((300, 600), features=3, m=4, seed=1)
        assert rows[0].v_matrix_seconds is not None
        assert rows[1].v_matrix_seconds is None

    def test_sizes_must_ascend(self):
        with pytest.raises(DataError, match="ascending"):
            benchmark_scaling((600, 300), features=3, m=4, seed=0)

    def test_size_below_m_is_rejected_before_any_data(self, monkeypatch):
        def no_data(*args, **kwargs):
            raise AssertionError("data generated before the sizes were checked")

        monkeypatch.setattr(lugsi.evaluation, "generate_ndc", no_data)
        # 10 and 20 rows leave 8 and 16 training rows; m is not clipped to them
        with pytest.raises(DataError, match=r"size 10 leaves 8 training rows, fewer than m=50"):
            benchmark_scaling((10, 20), features=3, m=50, seed=0)

    def test_cluster_sweep_rows(self, rng):
        data = random_binary_dataset(rng, 40, 3)
        rows = cluster_sweep(
            data, (1, 5, 10), CVConfig("linear", gamma=0.5, m=1), folds=4, seed=0
        )
        assert [row.m for row in rows] == [1, 5, 10]
        for row in rows:
            assert row.mean_train_seconds > 0.0
            assert 0.0 <= row.mean_accuracy <= 1.0

    @pytest.mark.parametrize(
        "kind, delta, cro_gamma", [("linear", None, 0.0), ("rbf", 0.5, 0.0), ("cro", None, 0.3)]
    )
    def test_grid_at_one_c_is_the_cluster_sweep(self, rng, kind, delta, cro_gamma):
        """An m grid at one C gives the sweep's and cross_validate's numbers, bit for bit."""
        data = random_binary_dataset(rng, 24, 3)
        c, ms, folds, seed = 4.0, (1, 5, 30), 4, 3  # m = 30 is above the 18 training rows
        deltas = () if delta is None else (delta,)
        report = grid_search(
            data, GridSpec((c,), deltas, ms, folds, seed), kind, cro_gamma=cro_gamma, restarts=3
        )
        config = CVConfig(kind, gamma=1.0 / c, m=1, delta=delta, cro_gamma=cro_gamma)
        sweep = cluster_sweep(data, ms, config, folds, seed, restarts=3)
        assert [row.m for row in sweep] == [result.config.m for result in report.results] == list(ms)
        assert report.results[-1].m_clipped
        for result, row in zip(report.results, sweep):
            single = cross_validate(data, replace(config, m=row.m), folds, seed, restarts=3)
            assert bits(row.mean_accuracy) == bits(result.mean_accuracy)
            assert bits(single.mean_accuracy) == bits(result.mean_accuracy)
            assert bits(single.std_accuracy) == bits(result.std_accuracy)
            assert len(single.fold_results) == len(result.fold_results) == folds
            for ours, theirs in zip(result.fold_results, single.fold_results):
                assert ours.predictions.tobytes() == theirs.predictions.tobytes()
