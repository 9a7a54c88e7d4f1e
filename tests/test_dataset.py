"""Loader, scaling, fold-split, and generator contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lugsi import (
    DataError,
    Dataset,
    apply_scaling,
    generate_ndc,
    invert_scaling,
    kfold_split,
    load_csv,
    load_sparse,
    minmax_scale,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_three_by_three_table(self, tmp_path):
        path = write(tmp_path, "t.csv", "1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n")
        data = load_csv(path)
        assert data.l == 3 and data.n == 2
        np.testing.assert_array_equal(data.labels, [0, 1, 0])
        np.testing.assert_array_equal(data.features[1], [3.0, 4.0])

    def test_non_binary_label_reports_row(self, tmp_path):
        path = write(tmp_path, "t.csv", "1,2,0\n3,4,2\n")
        with pytest.raises(DataError, match="non-binary label at row 2"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "t.csv", "")
        with pytest.raises(DataError, match="empty file"):
            load_csv(path)

    def test_ragged_row_reports_row(self, tmp_path):
        path = write(tmp_path, "t.csv", "1,2,0\n3,4\n")
        with pytest.raises(DataError, match="malformed row 2"):
            load_csv(path)

    def test_bad_value_reports_row(self, tmp_path):
        path = write(tmp_path, "t.csv", "1,2,0\n3,oops,1\n")
        with pytest.raises(DataError, match="malformed row 2"):
            load_csv(path)

    def test_header_and_label_column(self, tmp_path):
        path = write(tmp_path, "t.csv", "y,a,b\n1,0.5,0.25\n0,0.1,0.2\n")
        data = load_csv(path, has_header=True, label_column=0)
        assert data.feature_names == ("a", "b")
        np.testing.assert_array_equal(data.labels, [1, 0])
        np.testing.assert_allclose(data.features[:, 0], [0.5, 0.1])

    def test_header_offsets_error_row_number(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,b,y\n1,2,5\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path, has_header=True)

    def test_plus_minus_one_convention(self, tmp_path):
        path = write(tmp_path, "t.csv", "1,2,-1\n3,4,1\n")
        data = load_csv(path)
        np.testing.assert_array_equal(data.labels, [0, 1])

    def test_mixed_minus_one_and_zero_rejected(self, tmp_path):
        path = write(tmp_path, "t.csv", "1,2,-1\n3,4,0\n")
        with pytest.raises(DataError, match="ambiguous label convention"):
            load_csv(path)

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"1,2,0\r\n3,4,1\r\n")
        data = load_csv(path)
        assert data.l == 2


class TestLoadSparse:
    def test_basic_line(self, tmp_path):
        path = write(tmp_path, "t.txt", "1 1:0.5 3:1.0\n-1 2:0.3\n")
        data = load_sparse(path, dimension_hint=3)
        np.testing.assert_allclose(data.features[0], [0.5, 0.0, 1.0])
        np.testing.assert_allclose(data.features[1], [0.0, 0.3, 0.0])
        np.testing.assert_array_equal(data.labels, [1, 0])

    def test_non_ascending_indices(self, tmp_path):
        path = write(tmp_path, "t.txt", "1 2:0.5 1:1.0\n")
        with pytest.raises(DataError, match="non-ascending index 1 at line 1"):
            load_sparse(path)

    @pytest.mark.parametrize("index", [0, -2])
    def test_index_below_one(self, tmp_path, index):
        path = write(tmp_path, "t.txt", f"1 1:0.5\n1 {index}:0.5\n")
        with pytest.raises(DataError, match=f"index {index} below 1 at line 2"):
            load_sparse(path)

    def test_index_exceeds_hint(self, tmp_path):
        path = write(tmp_path, "t.txt", "1 4:0.5\n")
        with pytest.raises(DataError, match="exceeds dimension hint 3"):
            load_sparse(path, dimension_hint=3)

    def test_width_inferred_from_max_index(self, tmp_path):
        path = write(tmp_path, "t.txt", "0 2:1.0\n1 5:2.0\n")
        data = load_sparse(path)
        assert data.n == 5

    def test_deterministic_reload(self, tmp_path):
        text = "1 1:0.25 2:0.5\n-1 2:0.125\n1 1:1.0\n"
        a = load_sparse(write(tmp_path, "a.txt", text))
        b = load_sparse(write(tmp_path, "b.txt", text))
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()


class TestDatasetInvariants:
    def test_rejects_non_binary_labels(self):
        with pytest.raises(DataError):
            Dataset(np.ones((2, 2)), np.array([0, 2]))

    def test_rejects_missing_values(self):
        with pytest.raises(DataError, match="missing or non-finite"):
            Dataset(np.array([[1.0, np.nan]]), np.array([1]))

    def test_rejects_empty(self):
        with pytest.raises(DataError, match="empty dataset"):
            Dataset(np.empty((0, 3)), np.empty(0))

    def test_features_immutable(self):
        data = Dataset(np.ones((2, 2)), np.array([0, 1]))
        with pytest.raises(ValueError):
            data.features[0, 0] = 5.0


class TestScaling:
    def test_affine_map(self):
        data = Dataset(np.array([[2.0], [4.0], [6.0]]), np.array([0, 1, 0]))
        scaled, params = minmax_scale(data)
        np.testing.assert_allclose(scaled.features[:, 0], [0.0, 0.5, 1.0])
        assert params.minimum[0] == 2.0 and params.maximum[0] == 6.0

    def test_constant_column_maps_to_zero(self):
        data = Dataset(np.array([[5.0], [5.0]]), np.array([0, 1]))
        scaled, _ = minmax_scale(data)
        np.testing.assert_array_equal(scaled.features, [[0.0], [0.0]])

    def test_clamps_outside_training_range(self):
        train = Dataset(np.array([[0.0], [10.0]]), np.array([0, 1]))
        _, params = minmax_scale(train)
        test = Dataset(np.array([[-5.0], [15.0]]), np.array([0, 1]))
        scaled = apply_scaling(test, params)
        np.testing.assert_array_equal(scaled.features[:, 0], [0.0, 1.0])

    def test_dimension_mismatch(self):
        train = Dataset(np.ones((2, 2)), np.array([0, 1]))
        _, params = minmax_scale(train)
        other = Dataset(np.ones((2, 3)), np.array([0, 1]))
        with pytest.raises(DataError, match="dimension mismatch"):
            apply_scaling(other, params)

    def test_train_roundtrip_is_exact(self, rng):
        data = Dataset(rng.normal(0, 7, (40, 6)), rng.integers(0, 2, 40))
        scaled, params = minmax_scale(data)
        again = apply_scaling(data, params)
        assert scaled.features.tobytes() == again.features.tobytes()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invert_recovers_inputs(self, seed):
        gen = np.random.default_rng(seed)
        raw = gen.normal(0, 5, (12, 4))
        raw[:, 3] = 2.5  # constant column
        data = Dataset(raw, gen.integers(0, 2, 12))
        scaled, params = minmax_scale(data)
        back = invert_scaling(scaled.features, params)
        np.testing.assert_allclose(back, raw, rtol=1e-12, atol=1e-12)

    def test_scaled_values_in_unit_interval(self, rng):
        data = Dataset(rng.normal(size=(30, 5)), rng.integers(0, 2, 30))
        scaled, _ = minmax_scale(data)
        assert scaled.features.min() >= 0.0 and scaled.features.max() <= 1.0


class TestKfold:
    def test_even_sizes(self, rng):
        data = Dataset(rng.random((10, 2)), rng.integers(0, 2, 10))
        plan = kfold_split(data, 5, seed=3)
        sizes = np.bincount(plan.fold_assignments, minlength=5)
        np.testing.assert_array_equal(sizes, [2, 2, 2, 2, 2])

    def test_uneven_sizes_differ_by_at_most_one(self, rng):
        data = Dataset(rng.random((7, 2)), rng.integers(0, 2, 7))
        plan = kfold_split(data, 5, seed=3)
        sizes = sorted(np.bincount(plan.fold_assignments, minlength=5))
        assert sizes == [1, 1, 1, 2, 2]

    def test_same_seed_identical(self, rng):
        data = Dataset(rng.random((23, 3)), rng.integers(0, 2, 23))
        a = kfold_split(data, 4, seed=9)
        b = kfold_split(data, 4, seed=9)
        np.testing.assert_array_equal(a.fold_assignments, b.fold_assignments)

    def test_folds_partition_indices(self, rng):
        data = Dataset(rng.random((29, 3)), rng.integers(0, 2, 29))
        plan = kfold_split(data, 5, seed=1)
        seen = np.concatenate([plan.test_indices(f) for f in range(5)])
        assert sorted(seen.tolist()) == list(range(29))
        for f in range(5):
            test = set(plan.test_indices(f).tolist())
            train = set(plan.train_indices(f).tolist())
            assert not test & train

    def test_too_many_folds(self, rng):
        data = Dataset(rng.random((4, 2)), rng.integers(0, 2, 4))
        with pytest.raises(DataError):
            kfold_split(data, 5, seed=0)


class TestGenerateNdc:
    def test_shape_matches_request(self):
        data = generate_ndc(1000, 32, 10, seed=0)
        assert data.l == 1000 and data.n == 32

    def test_both_labels_present_across_seeds(self):
        for seed in range(100):
            data = generate_ndc(60, 4, 3, seed=seed)
            assert set(np.unique(data.labels)) == {0, 1}, seed

    def test_bitwise_reproducible(self):
        a = generate_ndc(128, 6, 4, seed=42)
        b = generate_ndc(128, 6, 4, seed=42)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_preconditions(self):
        with pytest.raises(DataError):
            generate_ndc(10, 3, 1, seed=0)
        with pytest.raises(DataError):
            generate_ndc(2, 3, 3, seed=0)
