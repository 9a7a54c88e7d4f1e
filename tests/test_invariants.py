"""v-values, granule invariants, and the full pairwise matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_binary_dataset, singleton_granulation, traced_peak
from oracles import domination_fraction, mc_pair_integral, reference_granule_weights

from lugsi import (
    DataError,
    Dataset,
    Granulation,
    MeasureSpec,
    granule_v_vectors,
    kmeans_granulate,
    minmax_scale,
    normalized_granule_invariants,
    unit_granule_invariants,
    v_matrix,
    v_value,
)
from lugsi import errors


class TestVValue:
    def test_origin_is_one(self):
        assert v_value(np.zeros(4), MeasureSpec.uniform()) == 1.0

    def test_product_formula(self):
        assert v_value([0.5, 0.5], MeasureSpec.uniform()) == pytest.approx(0.25)

    def test_empirical_domination_count(self):
        refs = np.array([[0.2, 0.4], [0.5, 0.5], [0.1, 0.9]])
        measure = MeasureSpec.empirical(refs)
        point = [0.2, 0.4]
        assert v_value(point, measure) == pytest.approx(2.0 / 3.0)
        assert v_value(point, measure) == pytest.approx(domination_fraction(point, refs))

    def test_outside_cube_rejected_for_uniform(self):
        with pytest.raises(DataError, match="unit cube"):
            v_value([1.5, 0.2], MeasureSpec.uniform())

    def test_empirical_requires_references(self):
        with pytest.raises(DataError):
            MeasureSpec("empirical")

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=6), st.integers(0, 5), st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_uniform_monotone_in_every_coordinate(self, coords, index, bump):
        point = np.array(coords)
        j = index % point.size
        raised = point.copy()
        raised[j] = min(1.0, raised[j] + bump)
        measure = MeasureSpec.uniform()
        assert v_value(raised, measure) <= v_value(point, measure) + 1e-12

    def test_matches_closed_form(self, rng):
        point = rng.random(5)
        assert v_value(point, MeasureSpec.uniform()) == pytest.approx(
            np.prod(1.0 - point), rel=1e-12
        )


class TestGranuleVVectors:
    def test_single_granule_is_full_vector(self, rng):
        data = random_binary_dataset(rng, 15, 3)
        g = kmeans_granulate(data, 1, seed=0)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        assert len(invs) == 1
        expected = np.prod(1.0 - data.features, axis=1)
        np.testing.assert_allclose(invs[0].v, expected[g.granule_members[0]], rtol=1e-12)

    def test_all_points_at_origin(self):
        data = Dataset(np.zeros((6, 2)), np.array([1, 0, 1, 1, 0, 1]))
        g = kmeans_granulate(data, 1, seed=0)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        np.testing.assert_array_equal(invs[0].v, np.ones(6))
        assert invs[0].target == pytest.approx(4.0)

    def test_targets_match_bruteforce_loop(self, rng):
        data = random_binary_dataset(rng, 10, 2)
        g = kmeans_granulate(data, 3, seed=1)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        for k, members in enumerate(g.granule_members):
            total = 0.0
            for i in members:
                total += np.prod(1.0 - data.features[i]) * data.labels[i]
            assert invs[k].target == pytest.approx(total, rel=1e-12)

    def test_entries_lie_in_unit_interval(self, rng):
        data = random_binary_dataset(rng, 30, 4)
        g = kmeans_granulate(data, 5, seed=2)
        for measure in (MeasureSpec.uniform(), MeasureSpec.empirical(data.features)):
            for inv in granule_v_vectors(data, g, measure):
                assert inv.v.min() >= 0.0 and inv.v.max() <= 1.0

    def test_unit_invariants(self, rng):
        data = random_binary_dataset(rng, 20, 3)
        g = kmeans_granulate(data, 4, seed=3)
        invs = unit_granule_invariants(data, g)
        for k, members in enumerate(g.granule_members):
            np.testing.assert_array_equal(invs[k].v, np.ones(members.size))
            assert invs[k].target == pytest.approx(float(data.labels[members].sum()))


class TestNormalizedGranuleInvariants:
    def test_nonzero_vectors_are_raw_over_maximum(self, rng):
        data = random_binary_dataset(rng, 30, 4)
        g = kmeans_granulate(data, 5, seed=2)
        labels = data.labels.astype(np.float64)
        for measure in (MeasureSpec.uniform(), MeasureSpec.empirical(data.features)):
            raw = granule_v_vectors(data, g, measure)
            normalized = normalized_granule_invariants(data, g, measure)
            for k, members in enumerate(g.granule_members):
                assert raw[k].v.max() > 0.0
                np.testing.assert_array_equal(normalized[k].v, raw[k].v / raw[k].v.max())
                assert normalized[k].v.max() == 1.0
                assert normalized[k].target == pytest.approx(
                    float(normalized[k].v @ labels[members]), rel=1e-12
                )

    def test_singleton_granule_gets_unit_weight(self, rng):
        data = random_binary_dataset(rng, 8, 3)
        invs = normalized_granule_invariants(
            data, singleton_granulation(data), MeasureSpec.uniform()
        )
        for i, inv in enumerate(invs):
            np.testing.assert_array_equal(inv.v, [1.0])
            assert inv.target == float(data.labels[i])
        # minmax scaling puts every feature's maximum at 1, where the uniform
        # v-value is exactly 0, so those rows' singletons keep weight 0
        scaled, _ = minmax_scale(random_binary_dataset(rng, 12, 3))
        at_max = np.any(scaled.features == 1.0, axis=1)
        assert 1 <= int(at_max.sum()) < scaled.l
        invs = normalized_granule_invariants(
            scaled, singleton_granulation(scaled), MeasureSpec.uniform()
        )
        for i, inv in enumerate(invs):
            np.testing.assert_array_equal(inv.v, [0.0] if at_max[i] else [1.0])

    def test_all_zero_granule_stays_zero(self):
        # rows on the x_0 = 1 face have uniform v-value exactly 0
        features = np.array([[1.0, 0.2], [1.0, 0.7], [0.1, 0.3], [0.4, 0.5]])
        data = Dataset(features, np.array([1, 1, 0, 1]))
        g = Granulation(
            assignments=np.array([0, 0, 1, 1]),
            centroids=np.array([[1.0, 0.45], [0.25, 0.4]]),
            clustering_error=0.0,
            iterations_run=1,
            seed=0,
        )
        invs = normalized_granule_invariants(data, g, MeasureSpec.uniform())
        np.testing.assert_array_equal(invs[0].v, [0.0, 0.0])
        assert invs[0].target == 0.0
        assert invs[1].v.max() == 1.0


    def test_underflowed_granule_is_rescaled_in_log_space(self):
        # unscaled rows in [0, 0.5)^1200, none at a feature maximum: granule 0
        # sits near the origin; granule 1's v-values all underflow (about
        # e^-773); granule 2 mixes such rows with some of normal size
        gen = np.random.default_rng(41)
        n = 1200
        features = np.vstack([
            1e-4 * gen.random((6, n)),
            0.45 + 0.05 * gen.random((8, n)),
            0.45 + 0.05 * gen.random((5, n)),
            0.2 + 0.05 * gen.random((3, n)),
        ])
        features = np.minimum(features, np.nextafter(0.5, 0.0))
        labels = gen.integers(0, 2, features.shape[0])
        data = Dataset(features, labels)
        assignments = np.repeat([0, 1, 2], [6, 8, 8])
        g = Granulation(
            assignments=assignments,
            centroids=np.array([features[assignments == k].mean(axis=0) for k in range(3)]),
            clustering_error=0.0,
            iterations_run=1,
            seed=0,
        )
        raw = granule_v_vectors(data, g, MeasureSpec.uniform())
        invs = normalized_granule_invariants(data, g, MeasureSpec.uniform())
        tiny = np.finfo(np.float64).tiny
        assert raw[1].v.max() < tiny < raw[0].v.min() and raw[2].v.max() > tiny
        for k in (0, 2):
            np.testing.assert_array_equal(invs[k].v, raw[k].v / raw[k].v.max())
        log_v = np.log(1.0 - features[g.granule_members[1]]).sum(axis=1)
        np.testing.assert_allclose(invs[1].v, np.exp(log_v - log_v.max()), rtol=1e-9)
        assert invs[1].v.max() == 1.0 and invs[1].v.min() < 0.5
        for members, inv in zip(g.granule_members, invs):
            assert inv.target == float(inv.v @ labels[members].astype(np.float64))


def _granulation(assignments, features):
    m = int(assignments.max()) + 1
    return Granulation(assignments, np.zeros((m, features.shape[1])), 0.0, 1, 0)


def _oracle_case(case):
    """(data, granulation) for one builder-oracle case: a random one, or the
    all-zero-granule and underflow fixtures of TestNormalizedGranuleInvariants."""
    gen = np.random.default_rng(case if isinstance(case, int) else 41)
    if case == "all_zero_granule":
        features = np.array([[1.0, 0.2], [1.0, 0.7], [0.1, 0.3], [0.4, 0.5]])
        data = Dataset(features, np.array([1, 1, 0, 1]))
        return data, _granulation(np.array([0, 0, 1, 1]), features)
    if case == "underflow":
        n = 1200
        features = np.vstack([
            1e-4 * gen.random((6, n)),
            0.45 + 0.05 * gen.random((8, n)),
            0.45 + 0.05 * gen.random((5, n)),
            0.2 + 0.05 * gen.random((3, n)),
        ])
        features = np.minimum(features, np.nextafter(0.5, 0.0))
        data = Dataset(features, gen.integers(0, 2, features.shape[0]))
        return data, _granulation(np.repeat([0, 1, 2], [6, 8, 8]), features)
    l, n = int(gen.integers(2, 150)), int(gen.integers(1, 7))
    m = l if case % 5 == 0 else int(gen.integers(1, l + 1))
    data = random_binary_dataset(gen, l, n)
    if case % 2:  # rows at a feature maximum have uniform v-value 0
        data, _ = minmax_scale(data)
    # every granule nonempty, sizes uneven, members spread over the rows
    assignments = gen.permutation(np.concatenate([np.arange(m), gen.integers(0, m, l - m)]))
    return data, _granulation(assignments, data.features)


@pytest.mark.parametrize("case", [*range(40), "all_zero_granule", "underflow"])
def test_builders_equal_the_per_granule_oracle_bitwise(case):
    data, g = _oracle_case(case)
    X, y = data.features, data.labels
    for references in (None, X):
        measure = MeasureSpec.uniform() if references is None else MeasureSpec.empirical(X)
        for kind, weights in (
            ("raw", granule_v_vectors(data, g, measure)),
            ("normalized", normalized_granule_invariants(data, g, measure)),
            ("unit", unit_granule_invariants(data, g)),
        ):
            expected = reference_granule_weights(X, y, g.granule_members, kind, references)
            for name, want in zip(("v", "ends", "s", "t"), expected):
                got = getattr(weights, name)
                assert got.tobytes() == np.asarray(want, dtype=got.dtype).tobytes(), (kind, name)


class TestVMatrix:
    def test_one_dimensional_pair(self):
        data = Dataset(np.array([[0.2], [0.5]]), np.array([0, 1]))
        V = v_matrix(data, MeasureSpec.uniform())
        assert V[0, 1] == pytest.approx(0.5)
        assert V[1, 0] == pytest.approx(0.5)

    def test_diagonal_at_origin(self):
        data = Dataset(np.zeros((3, 4)), np.array([0, 1, 0]))
        V = v_matrix(data, MeasureSpec.uniform())
        np.testing.assert_allclose(np.diag(V), np.ones(3))

    def test_against_monte_carlo_oracle(self, rng):
        data = random_binary_dataset(rng, 5, 3)
        V = v_matrix(data, MeasureSpec.uniform())
        for i in range(5):
            for j in range(i, 5):
                estimate, se = mc_pair_integral(
                    data.features[i], data.features[j], samples=1_000_000, seed=17 + i * 5 + j
                )
                assert abs(V[i, j] - estimate) <= 3.0 * se + 1e-9, (i, j)

    def test_symmetric_and_psd(self, rng):
        data = random_binary_dataset(rng, 20, 3)
        for measure in (MeasureSpec.uniform(), MeasureSpec.empirical(data.features)):
            V = v_matrix(data, measure)
            np.testing.assert_array_equal(V, V.T)
            eigenvalues = np.linalg.eigvalsh(V)
            assert eigenvalues.min() >= -1e-10

    def test_empirical_counts(self):
        data = Dataset(np.array([[0.1, 0.1], [0.9, 0.9]]), np.array([0, 1]))
        refs = np.array([[0.5, 0.5], [1.0, 1.0]])
        V = v_matrix(data, MeasureSpec.empirical(refs))
        # both refs dominate point 0; only (1,1) dominates point 1
        assert V[0, 0] == pytest.approx(1.0)
        assert V[0, 1] == pytest.approx(0.5)
        assert V[1, 1] == pytest.approx(0.5)

    def test_row_cap(self, rng, monkeypatch):
        data = random_binary_dataset(rng, 40, 2)
        monkeypatch.setattr(errors, "MAX_ARRAY_ENTRIES", 40 * 40)
        assert v_matrix(data, MeasureSpec.uniform()).shape == (40, 40)
        monkeypatch.setattr(errors, "MAX_ARRAY_ENTRIES", 40 * 40 - 1)
        with pytest.raises(DataError, match="40x40 V-matrix: 1600 entries .* cap"):
            v_matrix(data, MeasureSpec.uniform())


class TestEmpiricalMeasureBlocks:
    """Domination counts accumulate over blocks of reference rows."""

    def test_counts_across_blocks_match_dense(self, rng):
        data = Dataset(np.round(rng.random((40, 3)), 1), rng.integers(0, 2, 40))
        refs = np.round(rng.random((300, 3)), 1)
        measure = MeasureSpec.empirical(refs)
        dominates = np.all(refs[:, None, :] >= data.features[None, :, :], axis=2)
        values = [v_value(x, measure) for x in data.features]
        assert values == [domination_fraction(x, refs) for x in data.features]
        dense = dominates.astype(np.float64)
        expected = dense.T @ dense / refs.shape[0]
        assert v_matrix(data, measure).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "build, l, n, bound_mb",
        [
            (lambda d, m: granule_v_vectors(d, kmeans_granulate(d, 1, 0, restarts=1), m),
             1500, 16, 12.0),
            (v_matrix, 400, 300, 24.0),
        ],
        ids=["v_values", "v_matrix"],
    )
    def test_no_reference_by_row_by_feature_temporary(self, rng, build, l, n, bound_mb):
        # an (r, l, n) boolean takes l * l * n bytes here: 36 MB and 48 MB
        data = random_binary_dataset(rng, l, n)
        measure = MeasureSpec.empirical(data.features)
        peak = traced_peak(build, data, measure)
        assert peak < bound_mb * 1e6


class TestRankOneIdentity:
    def test_compressed_equals_materialized(self, rng):
        data = random_binary_dataset(rng, 18, 4)
        g = kmeans_granulate(data, 3, seed=4)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        for k, members in enumerate(g.granule_members):
            Xk = data.features[members]
            v = invs[k].v
            lhs = Xk.T @ np.outer(v, v) @ Xk
            u = Xk.T @ v
            rhs = np.outer(u, u)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)
