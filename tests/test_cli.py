"""End-to-end command-line behavior, exit codes, and file determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lugsi import (
    CVConfig,
    Dataset,
    KernelSpec,
    apply_scaling,
    decision_values,
    gram_block,
    load_csv,
    load_model,
    predict_labels,
    save_model,
)
from lugsi import cli, errors, evaluation
from lugsi.cli import main
from lugsi.evaluation import train_fold_pipeline


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args):
    """`lugsi` run in process: its exit code, stdout and stderr as a CompletedProcess."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_process(*args):
    """A fresh interpreter run with `src` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _rewrite(change):
    """A model-file edit: parse the JSON text, change it, write it back."""
    return lambda text: json.dumps(change(json.loads(text)))


@pytest.fixture
def train_csv(tmp_path):
    rng = np.random.default_rng(99)
    X = rng.random((30, 3))
    y = (X @ np.array([1.0, -0.5, 0.25]) > 0.4).astype(int)
    lines = [",".join(f"{v:.6f}" for v in row) + f",{label}" for row, label in zip(X, y)]
    path = tmp_path / "train.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def model_json(tmp_path, train_csv):
    """A linear model fitted on `train_csv`, saved as a model file."""
    model, _, _ = train_fold_pipeline(
        load_csv(train_csv), CVConfig("linear", gamma=0.1, m=3), seed=2, restarts=2
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    return path


class TestTrain:
    def test_writes_model_and_diagnostics(self, tmp_path, train_csv):
        out = tmp_path / "model.json"
        result = run_cli(
            "train", "--data", str(train_csv), "--model-out", str(out),
            "--clusters", "3", "--seed", "1", "--gamma", "0.5",
        )
        assert result.returncode == 0, result.stderr
        assert out.exists()
        assert "objective" in result.stdout
        assert "gradient_norm" in result.stdout
        assert "wall_seconds" in result.stdout

    def test_rerun_is_byte_identical(self, tmp_path, train_csv):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        flags = ["--clusters", "4", "--seed", "7", "--kernel", "rbf", "--delta", "0.5"]
        assert run_cli("train", "--data", str(train_csv), "--model-out", str(out_a), *flags).returncode == 0
        assert run_cli("train", "--data", str(train_csv), "--model-out", str(out_b), *flags).returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_zero_clusters_is_usage_error(self, tmp_path, train_csv):
        result = run_cli(
            "train", "--data", str(train_csv), "--model-out", str(tmp_path / "m.json"),
            "--clusters", "0",
        )
        assert result.returncode == 2
        assert "m must be >= 1" in result.stderr

    def test_more_clusters_than_rows_is_data_error(self, tmp_path, train_csv):
        # a cv fold clips m to its row count; train refuses it and writes nothing
        model = tmp_path / "m.json"
        result = run_cli(
            "train", "--data", str(train_csv), "--model-out", str(model), "--clusters", "31"
        )
        assert result.returncode == 3
        assert result.stderr == "data error: m=31 exceeds the number of samples 30\n"
        assert not model.exists()

    def test_more_clusters_than_distinct_rows_is_data_error(self, tmp_path, train_csv, monkeypatch):
        # every row written twice: 60 rows, 30 distinct; cv would clip m = 31 to 30
        twice = tmp_path / "twice.csv"
        twice.write_text(train_csv.read_text(encoding="utf-8") * 2, encoding="utf-8")

        def no_kmeans(*args, **kwargs):
            raise AssertionError("k-means ran before m was checked")

        monkeypatch.setattr(evaluation, "kmeans_granulate", no_kmeans)
        model = tmp_path / "m.json"
        result = run_cli(
            "train", "--data", str(twice), "--model-out", str(model), "--clusters", "31"
        )
        assert result.returncode == 3
        assert result.stderr == "data error: m=31 exceeds the 30 distinct scaled rows\n"
        assert not model.exists()

    def test_gamma_cost_conflict(self, tmp_path, train_csv):
        result = run_cli(
            "train", "--data", str(train_csv), "--model-out", str(tmp_path / "m.json"),
            "--gamma", "0.5", "--cost", "2.0",
        )
        assert result.returncode == 2
        assert "mutually exclusive" in result.stderr

    def test_missing_file_is_data_error(self, tmp_path):
        result = run_cli(
            "train", "--data", str(tmp_path / "absent.csv"),
            "--model-out", str(tmp_path / "m.json"),
        )
        assert result.returncode == 3

    @pytest.mark.parametrize("fmt", ["csv", "sparse"])
    @pytest.mark.parametrize("kind", ["directory", "non_utf8"])
    def test_unreadable_data_is_data_error(self, tmp_path, kind, fmt):
        data = tmp_path / "data"
        if kind == "directory":
            data.mkdir()
        else:
            data.write_bytes(b"0.5,\xff\xfe,1\n" if fmt == "csv" else b"1 1:0.5 2:\xff\n")
        result = run_cli(
            "train", "--data", str(data), "--format", fmt,
            "--model-out", str(tmp_path / "m.json"),
        )
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith("data error: "), result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("train", "--gamma", "nan"),
            ("train", "--gamma", "inf"),
            ("train", "--cost", "nan"),
            ("train", "--cost", "inf"),
            ("sizes", "--gamma", "-1"),
            ("sizes", "--gamma", "nan"),
        ],
    )
    def test_non_finite_or_negative_regularizer_is_usage_error(
        self, tmp_path, train_csv, command, flag, value
    ):
        if command == "train":
            args = ["train", "--data", str(train_csv), "--model-out", str(tmp_path / "m.json")]
        else:
            args = ["bench", "sizes", "--sizes", "200", "--features", "3", "--clusters", "4",
                    "--out", str(tmp_path / "s.csv")]
        result = run_cli(*args, f"{flag}={value}")
        assert result.returncode == 2, result.stderr
        assert f"{flag} must be positive" in result.stderr
        assert not any(tmp_path.glob("[ms].*"))

    def test_fit_above_the_array_budget_is_data_error(
        self, tmp_path, train_csv, monkeypatch, capsys
    ):
        # in process, so the smaller budget holds; m = 2 but the one Gram block is 30 x 30
        monkeypatch.setattr(errors, "MAX_ARRAY_ENTRIES", 10 * 30)
        model = tmp_path / "m.json"
        code = main([
            "train", "--data", str(train_csv), "--kernel", "rbf", "--clusters", "2",
            "--model-out", str(model),
        ])
        assert code == 3
        assert (
            "data error: refusing to build the 30x30 kernel P or Gram block: "
            "900 entries are above the cap of 300"
        ) in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("kernel", ["rbf", "cro"])
    @pytest.mark.parametrize("command", ["cv", "train"])
    def test_kernel_fit_above_the_budget_fails_before_kmeans(
        self, tmp_path, train_csv, monkeypatch, capsys, command, kernel
    ):
        # the 24-row training folds of a 5-fold cv, and train's 30 rows, each
        # make one Gram block above a budget of 300 entries
        monkeypatch.setattr(errors, "MAX_ARRAY_ENTRIES", 300)
        calls = []
        granulate = evaluation.kmeans_granulate

        def counting(*args, **kwargs):
            calls.append(args)
            return granulate(*args, **kwargs)

        monkeypatch.setattr(evaluation, "kmeans_granulate", counting)
        if command == "cv":
            rows, args = 24, ["cv", "--c-grid", "1", "--m-grid", "2",
                              "--report-out", str(tmp_path / "r.json"),
                              "--csv-out", str(tmp_path / "r.csv")]
        else:
            rows, args = 30, ["train", "--clusters", "2", "--model-out", str(tmp_path / "m.json")]
        code = main([*args, "--data", str(train_csv), "--kernel", kernel])
        assert code == 3
        assert (
            f"data error: refusing to build the {rows}x{rows} kernel P or Gram block: "
            f"{rows * rows} entries are above the cap of 300"
        ) in capsys.readouterr().err
        assert calls == []
        assert not any(tmp_path.glob("[mr].*"))

    def test_subnormal_rbf_width_fits(self, tmp_path, train_csv):
        # 2 delta^2 = 2e-320 is subnormal: every nonzero squared distance
        # overflows the quotient to -inf, and exp gives the 0.0 it should
        spec = KernelSpec("rbf", delta=1e-160)
        points = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.25], [0.5, 0.0]])
        equal = (points[:, None, :] == points[None, :, :]).all(axis=2)
        np.testing.assert_array_equal(gram_block(spec, points, points), equal.astype(float))
        code = main([
            "train", "--data", str(train_csv), "--kernel", "rbf", "--delta", "1e-160",
            "--clusters", "3", "--model-out", str(tmp_path / "m.json"),
        ])
        assert code == 0

    def test_cost_maps_to_inverse_gamma(self, tmp_path, train_csv):
        out_cost = tmp_path / "cost.json"
        out_gamma = tmp_path / "gamma.json"
        run_cli("train", "--data", str(train_csv), "--model-out", str(out_cost), "--cost", "4")
        run_cli("train", "--data", str(train_csv), "--model-out", str(out_gamma), "--gamma", "0.25")
        assert out_cost.read_bytes() == out_gamma.read_bytes()


class TestPredict:
    def test_roundtrip_matches_in_process_pipeline(self, tmp_path, train_csv):
        # `train` must refit exactly what the cv fold pipeline fits with the
        # same flags, and `predict` must reproduce its decision values from
        # the saved model; 17-digit floats round-trip, so compare bitwise.
        cases = [
            ("linear", ["--kernel", "linear"], CVConfig("linear", gamma=0.1, m=3), "uniform"),
            ("rbf", ["--kernel", "rbf", "--delta", "0.5"],
             CVConfig("rbf", gamma=0.1, m=3, delta=0.5), "uniform"),
            ("empirical", ["--measure", "empirical"],
             CVConfig("linear", gamma=0.1, m=3), "empirical"),
            ("cro", ["--kernel", "cro", "--cro-gamma", "0.3"],
             CVConfig("cro", gamma=0.1, m=3, cro_gamma=0.3), "uniform"),
        ]
        data = load_csv(train_csv)
        values = {}
        for name, flags, config, measure in cases:
            model_path = tmp_path / f"{name}.json"
            trained = run_cli(
                "train", "--data", str(train_csv), "--model-out", str(model_path),
                "--clusters", "3", "--seed", "2", "--gamma", "0.1", *flags,
            )
            assert trained.returncode == 0, trained.stderr
            out = tmp_path / f"{name}.csv"
            result = run_cli("predict", "--model", str(model_path), "--data", str(train_csv), "--out", str(out))
            assert result.returncode == 0, result.stderr

            model, _, _ = train_fold_pipeline(data, config, seed=2, restarts=10, measure=measure)
            features = apply_scaling(data, model.scaling).features
            expected_values = decision_values(model, features)
            expected_labels = predict_labels(model, features)

            rows = [line for line in out.read_text().splitlines() if line and not line.startswith("#")]
            assert rows[0] == "index,decision_value,label"
            got_values = np.array([float(line.split(",")[1]) for line in rows[1:]])
            got_labels = np.array([int(line.split(",")[2]) for line in rows[1:]])
            np.testing.assert_array_equal(got_values, expected_values, err_msg=name)
            assert got_values.tobytes() == expected_values.tobytes(), name
            np.testing.assert_array_equal(got_labels, expected_labels, err_msg=name)
            values[name] = got_values.tobytes()
        # --measure reaches the invariants: same flags otherwise, another model
        assert values["empirical"] != values["linear"]

    def test_all_ones_model_predicts_ones(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.random((12, 2))
        lines = [",".join(f"{v:.6f}" for v in row) + ",1" for row in X]
        data_path = tmp_path / "ones.csv"
        data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        model_path = tmp_path / "model.json"
        run_cli("train", "--data", str(data_path), "--model-out", str(model_path), "--clusters", "2")
        out = tmp_path / "pred.csv"
        run_cli("predict", "--model", str(model_path), "--data", str(data_path), "--out", str(out))
        rows = [line for line in out.read_text().splitlines() if "," in line][1:]
        assert all(line.split(",")[2] == "1" for line in rows)

    @pytest.mark.parametrize(
        "edit, code",
        [
            (None, 3),
            (lambda text: text[: len(text) // 2], 3),
            (_rewrite(lambda doc: {k: v for k, v in doc.items() if k != "w_c"}), 3),
            (_rewrite(lambda doc: [doc]), 3),
            (_rewrite(lambda doc: {**doc, "w": "abc"}), 3),
            (_rewrite(lambda doc: {**doc, "m": [3]}), 3),
            (_rewrite(lambda doc: {**doc, "w": doc["w"] + [0.0]}), 3),
            (_rewrite(lambda doc: {**doc, "b": doc["b"] + 1.0}), 4),
        ],
        ids=[
            "missing_file", "truncated_json", "missing_field", "top_level_list",
            "mistyped_vector", "mistyped_integer", "uneven_vectors", "w_off_half_solutions",
        ],
    )
    def test_malformed_model_file(self, tmp_path, train_csv, edit, code):
        model_path = tmp_path / "model.json"
        if edit is not None:
            model, _, _ = train_fold_pipeline(
                load_csv(train_csv), CVConfig("linear", gamma=0.1, m=3), seed=2, restarts=2
            )
            save_model(model, model_path)
            model_path.write_text(edit(model_path.read_text()), encoding="utf-8")
        result = run_cli(
            "predict", "--model", str(model_path), "--data", str(train_csv),
            "--out", str(tmp_path / "p.csv"),
        )
        assert result.returncode == code, result.stderr
        prefix = "data error: " if code == 3 else "numeric error: "
        assert result.stderr.startswith(prefix), result.stderr
        assert "Traceback" not in result.stderr

    def test_dimension_mismatch_is_data_error(self, tmp_path, train_csv):
        model_path = tmp_path / "model.json"
        run_cli("train", "--data", str(train_csv), "--model-out", str(model_path))
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("0.5,1\n0.25,0\n", encoding="utf-8")
        result = run_cli("predict", "--model", str(model_path), "--data", str(narrow), "--out", str(tmp_path / "p.csv"))
        assert result.returncode == 3
        assert "dimension mismatch" in result.stderr


class TestCv:
    def test_singleton_grid_outputs(self, tmp_path, train_csv):
        report = tmp_path / "report.json"
        csv_out = tmp_path / "plot.csv"
        result = run_cli(
            "cv", "--data", str(train_csv), "--kernel", "linear",
            "--c-grid", "1.0", "--m-grid", "2", "--folds", "3", "--seed", "0",
            "--report-out", str(report), "--csv-out", str(csv_out),
        )
        assert result.returncode == 0, result.stderr
        assert "best_mean_accuracy" in result.stdout
        body = [line for line in csv_out.read_text().splitlines() if not line.startswith("#")]
        assert body[0] == "c,delta,m,fold,acc,train_seconds"
        assert len(body) == 1 + 3  # header + folds for the single config

    def test_zero_timing_reruns_identical(self, tmp_path, train_csv):
        args = [
            "cv", "--data", str(train_csv), "--kernel", "rbf",
            "--c-grid", "1.0,4.0", "--delta-grid", "1.0", "--m-grid", "2,4",
            "--folds", "3", "--seed", "3", "--timing", "zero",
        ]
        a_rep, a_csv = tmp_path / "a.json", tmp_path / "a.csv"
        b_rep, b_csv = tmp_path / "b.json", tmp_path / "b.csv"
        assert run_cli(*args, "--report-out", str(a_rep), "--csv-out", str(a_csv)).returncode == 0
        assert run_cli(*args, "--report-out", str(b_rep), "--csv-out", str(b_csv)).returncode == 0
        assert a_rep.read_bytes() == b_rep.read_bytes()
        assert a_csv.read_bytes() == b_csv.read_bytes()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--c-grid", "1.0,x", "--c-grid expects comma-separated numbers"),
            ("--m-grid", "2,2.5", "--m-grid expects comma-separated integers"),
            ("--delta-grid", " , ", "--delta-grid must not be empty"),
        ],
    )
    def test_malformed_grid_is_usage_error(self, tmp_path, train_csv, flag, value, message):
        result = run_cli(
            "cv", "--data", str(train_csv), flag, value,
            "--report-out", str(tmp_path / "r.json"), "--csv-out", str(tmp_path / "r.csv"),
        )
        assert result.returncode == 2
        assert message in result.stderr

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_thread_count_below_one_is_usage_error(self, tmp_path, train_csv, threads):
        result = run_cli(
            "cv", "--data", str(train_csv), "--c-grid", "1.0", "--m-grid", "2",
            "--threads", threads,
            "--report-out", str(tmp_path / "r.json"), "--csv-out", str(tmp_path / "r.csv"),
        )
        assert result.returncode == 2
        assert "--threads must be >= 1" in result.stderr
        assert not (tmp_path / "r.json").exists()


class TestBench:
    def test_sizes_sweep_and_zero_timing_determinism(self, tmp_path):
        args = [
            "bench", "sizes", "--sizes", "200,400", "--features", "3",
            "--clusters", "4", "--seed", "1", "--timing", "zero",
        ]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(out_a)).returncode == 0
        assert run_cli(*args, "--out", str(out_b)).returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        body = [line for line in out_a.read_text().splitlines() if not line.startswith("#")]
        assert body[0].startswith("l,granulate_seconds")
        assert len(body) == 3

    def test_size_with_fewer_training_rows_than_m_is_data_error(self, tmp_path):
        # sizes 10 and 20 leave 8 and 16 training rows, below the default m = 50
        out = tmp_path / "s.csv"
        result = run_cli("bench", "sizes", "--sizes", "10,20", "--out", str(out))
        assert result.returncode == 3, result.stderr
        assert "size 10" in result.stderr and "m=50" in result.stderr
        assert not out.exists()


class TestGranulate:
    def test_assignment_csv_with_summary(self, tmp_path, train_csv):
        out = tmp_path / "granules.csv"
        result = run_cli(
            "granulate", "--data", str(train_csv), "--clusters", "4", "--seed", "0",
            "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        lines = out.read_text().splitlines()
        assert lines[1] == "sample_index,granule_index"
        assert lines[-1].startswith("# clustering_error=")
        data_rows = [line for line in lines if line and not line.startswith("#")][1:]
        assert len(data_rows) == 30
        granule_ids = {int(line.split(",")[1]) for line in data_rows}
        assert granule_ids == set(range(4))

    def test_emit_v_adds_column(self, tmp_path, train_csv):
        out = tmp_path / "granules.csv"
        run_cli(
            "granulate", "--data", str(train_csv), "--clusters", "2", "--seed", "0",
            "--emit-v", "--out", str(out),
        )
        lines = out.read_text().splitlines()
        assert lines[1] == "sample_index,granule_index,v_value"
        first = lines[2].split(",")
        assert len(first) == 3
        assert 0.0 <= float(first[2]) <= 1.0

    def test_rerun_identical(self, tmp_path, train_csv):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ["--clusters", "3", "--seed", "5"]
        run_cli("granulate", "--data", str(train_csv), *flags, "--out", str(out_a))
        run_cli("granulate", "--data", str(train_csv), *flags, "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()


class TestFlagsBeforeReads:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["cv", "--c-grid", "1,x", "--report-out", "{tmp}/r.json", "--csv-out", "{tmp}/r.csv"],
             "lugsi cv: error: --c-grid expects comma-separated numbers"),
            (["train", "--gamma", "0.5", "--cost", "2", "--model-out", "{tmp}/m.json"],
             "lugsi train: error: --gamma and --cost are mutually exclusive"),
        ],
        ids=["cv_c_grid", "train_gamma_and_cost"],
    )
    def test_usage_error_comes_before_missing_data(self, tmp_path, args, message):
        args = [arg.format(tmp=tmp_path) for arg in args]
        result = run_cli(*args, "--data", str(tmp_path / "absent.csv"))
        assert result.returncode == 2, result.stderr
        assert message in result.stderr

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [(command, "--seed", "-1", "--seed must be >= 0")
         for command in ("train", "cv", "granulate", "bench_sizes")]
        + [(command, "--restarts", "0", "--restarts must be >= 1")
           for command in ("train", "cv", "granulate", "bench_sizes")]
        + [(command, "--label-column", "-1", "--label-column must be >= 0")
           for command in ("train", "cv", "granulate")]
        + [(command, "--dimension-hint", "0", "--dimension-hint must be >= 1")
           for command in ("train", "cv", "granulate")]
        + [
            ("cv", "--folds", "1", "--folds must be >= 2"),
            ("cv", "--m-grid", "0", "m must be >= 1"),
            ("bench_sizes", "--clusters", "0", "m must be >= 1"),
            ("bench_sizes", "--features", "0", "--features must be >= 1"),
            ("bench_sizes", "--sizes", "0", "--sizes must be >= 10"),
            ("bench_sizes", "--sizes", "5", "--sizes must be >= 10"),
            ("bench_sizes", "--sizes", "400,200",
             "lugsi bench sizes: error: --sizes must be strictly ascending"),
        ],
    )
    def test_integer_below_its_minimum_is_usage_error(
        self, tmp_path, monkeypatch, command, flag, value, message
    ):
        def no_data(*args, **kwargs):
            raise AssertionError("data read or generated before the flags were checked")

        monkeypatch.setattr(cli, "_load_data", no_data)
        monkeypatch.setattr(cli, "benchmark_scaling", no_data)
        data = ["--data", str(tmp_path / "absent.csv")]
        args = {
            "train": ["train", "--model-out", str(tmp_path / "o.json"), *data],
            "cv": ["cv", "--report-out", str(tmp_path / "o.json"),
                   "--csv-out", str(tmp_path / "o.csv"), *data],
            "granulate": ["granulate", "--clusters", "2", "--out", str(tmp_path / "o.csv"), *data],
            "bench_sizes": ["bench", "sizes", "--sizes", "200", "--out", str(tmp_path / "o.csv")],
        }[command]
        result = run_cli(*args, flag, value)
        assert result.returncode == 2, result.stderr
        assert message in result.stderr
        assert "Traceback" not in result.stderr
        assert not any(tmp_path.glob("o.*"))

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_cost_with_infinite_inverse_is_usage_error(self, tmp_path, train_csv, command):
        # 1/cost overflows to inf for a subnormal cost, whatever the m grid
        flag = "--cost"
        if command == "train":
            args = ["train", "--model-out", str(tmp_path / "m.json")]
        else:
            flag = "--c-grid"
            args = ["cv", "--report-out", str(tmp_path / "c.json"),
                    "--csv-out", str(tmp_path / "c.csv")]
        for data in (train_csv, tmp_path / "absent.csv"):
            result = run_cli(*args, "--data", str(data), flag, "1e-310")
            assert result.returncode == 2, result.stderr
            assert flag in result.stderr
        assert not any(tmp_path.glob("[mc].*"))

    @pytest.mark.parametrize("command", ["train", "bench_sizes", "cv"])
    def test_overflowing_gamma_m_is_usage_error(self, tmp_path, train_csv, command):
        # gamma = 1e308 is finite, but the solve shifts by gamma * m
        data_flags = [["--data", str(train_csv)], ["--data", str(tmp_path / "absent.csv")]]
        regularizer = ["--gamma", "1e308"]
        if command == "train":
            args = ["train", "--clusters", "7", "--model-out", str(tmp_path / "m.json")]
        elif command == "cv":
            args = ["cv", "--m-grid", "1,7", "--report-out", str(tmp_path / "c.json"),
                    "--csv-out", str(tmp_path / "c.csv")]
            regularizer = ["--c-grid", "1e-308"]
        else:
            args = ["bench", "sizes", "--sizes", "200", "--clusters", "4",
                    "--out", str(tmp_path / "s.csv")]
            data_flags = [[]]
        for flags in data_flags:
            result = run_cli(*args, *flags, *regularizer)
            assert result.returncode == 2, result.stderr
            assert "gamma*m overflows" in result.stderr
        assert not any(tmp_path.glob("[mcs].*"))

    @pytest.mark.parametrize(
        "args, message",
        [
            (["train", "--kernel", "rbf", "--delta", "inf"], "2*delta^2"),
            (["train", "--kernel", "rbf", "--delta", "1e-200"], "2*delta^2"),
            (["train", "--kernel", "cro", "--cro-gamma", "inf"], "finite gamma constant"),
            (["cv", "--kernel", "rbf", "--delta-grid", "1,1e-200"], "2*delta^2"),
            (["cv", "--delta-grid", "1e-200"], "2*delta^2"),
            (["cv", "--kernel", "cro", "--cro-gamma", "inf"], "finite gamma constant"),
        ],
        ids=["train_delta_inf", "train_delta_underflow", "train_cro_gamma_inf",
             "cv_delta_grid_underflow", "cv_linear_delta_grid_underflow", "cv_cro_gamma_inf"],
    )
    def test_bad_kernel_flag_is_usage_error(self, tmp_path, train_csv, args, message):
        outputs = {
            "train": ["--model-out", str(tmp_path / "m.json")],
            "cv": ["--report-out", str(tmp_path / "c.json"), "--csv-out", str(tmp_path / "c.csv")],
        }[args[0]]
        for data in (train_csv, tmp_path / "absent.csv"):
            result = run_cli(*args, *outputs, "--data", str(data))
            assert result.returncode == 2, result.stderr
            assert message in result.stderr
        assert not any(tmp_path.glob("[mc].*"))

    @pytest.mark.parametrize(
        "args, message",
        [
            (["train", "--delta", "0.5"], "--delta applies to --kernel rbf only"),
            (["train", "--kernel", "cro", "--delta", "0.5"], "--delta applies to --kernel rbf only"),
            (["train", "--kernel", "rbf", "--cro-gamma", "0.3"],
             "--cro-gamma applies to --kernel cro only"),
            (["train", "--cro-gamma", "0"], "--cro-gamma applies to --kernel cro only"),
            (["cv", "--delta-grid", "0.5,2"], "--delta-grid applies to --kernel rbf only"),
            (["cv", "--kernel", "cro", "--delta-grid", "1"],
             "--delta-grid applies to --kernel rbf only"),
            (["cv", "--kernel", "rbf", "--cro-gamma", "0.3"],
             "--cro-gamma applies to --kernel cro only"),
            (["cv", "--kernel", "rbf", "--delta", "0.5"], "cv takes its rbf widths from --delta-grid"),
        ],
        ids=["train_linear_delta", "train_cro_delta", "train_rbf_cro_gamma",
             "train_linear_cro_gamma_default", "cv_linear_delta_grid", "cv_cro_delta_grid",
             "cv_rbf_cro_gamma", "cv_delta"],
    )
    def test_flag_the_kernel_does_not_use_is_usage_error(
        self, tmp_path, train_csv, args, message
    ):
        outputs = {
            "train": ["--model-out", str(tmp_path / "m.json")],
            "cv": ["--c-grid", "1", "--m-grid", "2", "--report-out", str(tmp_path / "c.json"),
                   "--csv-out", str(tmp_path / "c.csv")],
        }[args[0]]
        for data in (train_csv, tmp_path / "absent.csv"):
            result = run_cli(*args, *outputs, "--data", str(data))
            assert result.returncode == 2, result.stderr
            assert message in result.stderr
        assert not any(tmp_path.glob("[mc].*"))

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--format", "sparse", "--label-column", "5"],
             "--label-column applies to --format csv only"),
            (["--format", "sparse", "--has-header"], "--has-header applies to --format csv only"),
            (["--dimension-hint", "3"], "--dimension-hint applies to --format sparse only"),
        ],
        ids=["sparse_label_column", "sparse_has_header", "csv_dimension_hint"],
    )
    @pytest.mark.parametrize("command", ["train", "cv", "granulate", "predict"])
    def test_flag_of_the_other_format_is_usage_error(
        self, tmp_path, monkeypatch, train_csv, command, flags, message
    ):
        def no_input(*args, **kwargs):
            raise AssertionError("input read before the flags were checked")

        monkeypatch.setattr(cli, "_load_data", no_input)
        monkeypatch.setattr(cli, "load_model", no_input)
        args = {
            "train": ["train", "--model-out", str(tmp_path / "o.json")],
            "cv": ["cv", "--report-out", str(tmp_path / "o.json"),
                   "--csv-out", str(tmp_path / "o.csv")],
            "granulate": ["granulate", "--clusters", "2", "--out", str(tmp_path / "o.csv")],
            "predict": ["predict", "--model", str(tmp_path / "m.json"),
                        "--out", str(tmp_path / "o.csv")],
        }[command]
        result = run_cli(*args, "--data", str(train_csv), *flags)
        assert result.returncode == 2, result.stderr
        assert f"lugsi {command}: error: {message}" in result.stderr
        assert not any(tmp_path.glob("o.*"))

    @pytest.mark.parametrize("where", ["directory", "under_a_file"])
    @pytest.mark.parametrize("command", ["train", "granulate"])
    def test_output_path_that_cannot_be_a_file_is_usage_error(
        self, tmp_path, train_csv, command, where
    ):
        target = tmp_path / "target"
        if where == "directory":
            target.mkdir()
        else:
            target.write_text("", encoding="utf-8")
            target = target / "out.csv"
        flag = "--model-out" if command == "train" else "--out"
        result = run_cli(
            command, "--data", str(train_csv), "--clusters", "2", flag, str(target)
        )
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr


def test_csv_layouts(tmp_path, train_csv):
    """First line, column line and trailer of every CSV the CLI writes."""
    data = str(train_csv)
    model = tmp_path / "model.json"
    assert run_cli("train", "--data", data, "--model-out", str(model), "--clusters", "2").returncode == 0
    out = {name: tmp_path / f"{name}.csv" for name in ("predict", "cv", "sizes", "gran", "granv")}
    runs = [
        ["predict", "--model", str(model), "--data", data, "--out", str(out["predict"])],
        ["cv", "--data", data, "--c-grid", "1", "--m-grid", "2", "--folds", "3", "--timing", "zero",
         "--report-out", str(tmp_path / "r.json"), "--csv-out", str(out["cv"])],
        ["bench", "sizes", "--sizes", "200", "--features", "3", "--clusters", "4", "--seed", "1",
         "--timing", "zero", "--out", str(out["sizes"])],
        ["granulate", "--data", data, "--clusters", "2", "--out", str(out["gran"])],
        ["granulate", "--data", data, "--clusters", "2", "--emit-v", "--out", str(out["granv"])],
    ]
    for args in runs:
        result = run_cli(*args)
        assert result.returncode == 0, result.stderr
    expected = {
        "predict": (f"# lugsi predict format_version=1 data={data} format=csv has_header=False "
                    f"model={model}",
                    "index,decision_value,label"),
        "cv": (f"# lugsi cv format_version=1 data={data} format=csv has_header=False kernel=linear "
               "c_grid=1 m_grid=2 folds=3 seed=0 restarts=10 threads=1 timing=zero",
               "c,delta,m,fold,acc,train_seconds"),
        "sizes": ("# lugsi bench-sizes format_version=1 sizes=200 features=3 clusters=4 gamma=1.0 "
                  "seed=1 restarts=2 timing=zero",
                  "l,granulate_seconds,assembly_seconds,fit_seconds,v_matrix_seconds,accuracy"),
        "gran": (f"# lugsi granulate format_version=1 data={data} format=csv has_header=False "
                 "clusters=2 seed=0 restarts=10 emit_v=False",
                 "sample_index,granule_index"),
        "granv": (f"# lugsi granulate format_version=1 data={data} format=csv has_header=False "
                  "clusters=2 seed=0 restarts=10 emit_v=True",
                  "sample_index,granule_index,v_value"),
    }
    for name, (first, columns) in expected.items():
        lines = out[name].read_text(encoding="utf-8").split("\n")
        assert lines[:2] == [first, columns], name
        assert lines[-1] == "", name
        trailer = [line for line in lines[2:] if line.startswith("#")]
        if name.startswith("gran"):
            assert trailer == [lines[-2]], name
            assert lines[-2].startswith("# clustering_error="), name
            assert float(lines[-2].removeprefix("# clustering_error=")) >= 0.0
        else:
            assert trailer == [], name


@pytest.mark.parametrize(
    "args, flags",
    [
        (["bench", "sizes", "--sizes", "200", "--features", "3", "--clusters", "4"],
         ["--gamma", "0.5"]),
        (["bench", "sizes", "--sizes", "200", "--features", "3", "--clusters", "4"],
         ["--restarts", "3"]),
        (["granulate", "--clusters", "2"], ["--restarts", "3"]),
        (["cv", "--c-grid", "1", "--m-grid", "2", "--folds", "3"], ["--restarts", "3"]),
        (["cv", "--kernel", "cro", "--c-grid", "1", "--m-grid", "2", "--folds", "3"],
         ["--cro-gamma", "0.5"]),
        (["cv", "--c-grid", "1", "--m-grid", "2", "--folds", "3"], ["--label-column", "3"]),
        (["granulate", "--clusters", "2"], ["--has-header"]),
        (["predict"], ["--has-header"]),
    ],
    ids=["bench_sizes_gamma", "bench_sizes_restarts", "granulate_restarts", "cv_restarts",
         "cv_cro_gamma", "cv_label_column", "granulate_has_header", "predict_has_header"],
)
def test_provenance_names_flags_that_shape_the_result(tmp_path, train_csv, model_json, args, flags):
    """Two runs that differ only in `flags` write different provenance headers:
    the first CSV line, and for cv also the report's `header`."""
    headers = []
    for run, extra in enumerate(([], flags)):
        csv_out, report = tmp_path / f"{run}.csv", tmp_path / f"{run}.json"
        outputs = {
            "bench": ["--out", str(csv_out)],
            "granulate": ["--data", str(train_csv), "--out", str(csv_out)],
            "cv": ["--data", str(train_csv), "--report-out", str(report), "--csv-out", str(csv_out)],
            "predict": ["--data", str(train_csv), "--model", str(model_json), "--out", str(csv_out)],
        }[args[0]]
        result = run_cli(*args, *extra, *outputs)
        assert result.returncode == 0, result.stderr
        header = [csv_out.read_text(encoding="utf-8").split("\n")[0]]
        if args[0] == "cv":
            header.append(json.loads(report.read_text(encoding="utf-8"))["header"])
        headers.append(header)
    assert all(first != second for first, second in zip(*headers))


def test_module_entry_point_runs_the_cli(tmp_path, train_csv):
    out = tmp_path / "granules.csv"
    result = run_process(
        "-m", "lugsi.cli", "granulate", "--data", str(train_csv), "--clusters", "2",
        "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    assert out.read_text().splitlines()[1] == "sample_index,granule_index"
    result = run_process("-m", "lugsi.cli", "train", "--seed", "-1")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr


def test_importing_the_package_does_not_load_the_cli():
    result = run_process("-c", "import sys, lugsi; print('lugsi.cli' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_importing_the_package_loads_no_scipy():
    # numpy is the one linear-algebra library, so one BLAS thread pool is loaded
    result = run_process(
        "-c", "import sys, lugsi; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
