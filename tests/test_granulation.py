"""K-means granulation contracts and properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_binary_dataset, traced_peak
from oracles import best_two_partition_error, reference_kmeans

from lugsi import DataError, Dataset, assign_to_granules, generate_ndc, kmeans_granulate
from lugsi import kernels
from lugsi.granulation import Granulation
from lugsi.kernels import DISTANCE_BLOCK_ENTRIES, squared_distances
from lugsi.rng import make_rng


def make_dataset(seed, l=40, n=3):
    return random_binary_dataset(np.random.default_rng(seed), l, n)


class TestKmeansGranulate:
    def test_m_equals_l_gives_singletons(self):
        data = make_dataset(0, l=12)
        g = kmeans_granulate(data, 12, seed=5)
        assert g.clustering_error == pytest.approx(0.0, abs=1e-24)
        assert all(members.size == 1 for members in g.granule_members)

    def test_m_equals_one_gives_mean_and_variance(self):
        data = make_dataset(1, l=25, n=4)
        g = kmeans_granulate(data, 1, seed=5)
        np.testing.assert_allclose(g.centroids[0], data.features.mean(axis=0), rtol=1e-12)
        expected = np.sum((data.features - data.features.mean(axis=0)) ** 2)
        assert g.clustering_error == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_unit_square_corners_reach_global_optimum(self, seed):
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        data = Dataset(corners, np.array([0, 1, 0, 1]))
        g = kmeans_granulate(data, 2, seed=seed)
        best = best_two_partition_error(corners)
        assert best == pytest.approx(1.0)
        assert g.clustering_error == pytest.approx(best, abs=1e-12)
        # the optimal granules pair adjacent corners (distance 1 apart)
        for members in g.granule_members:
            a, b = corners[members]
            assert np.sum((a - b) ** 2) == pytest.approx(1.0)

    def test_error_matches_recomputation(self):
        data = make_dataset(2, l=60, n=5)
        g = kmeans_granulate(data, 6, seed=1)
        recomputed = float(np.sum((data.features - g.centroids[g.assignments]) ** 2))
        assert g.clustering_error == pytest.approx(recomputed, rel=1e-10)

    @given(st.integers(0, 10_000), st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_partition_property(self, seed, m):
        gen = np.random.default_rng(seed)
        l = int(gen.integers(max(m, 2), 40))
        data = random_binary_dataset(gen, l, 3)
        g = kmeans_granulate(data, min(m, l), seed=seed)
        counted = np.concatenate(g.granule_members)
        assert sorted(counted.tolist()) == list(range(l))
        assert all(members.size >= 1 for members in g.granule_members)

    def test_deterministic_under_seed(self):
        data = make_dataset(3, l=80, n=4)
        a = kmeans_granulate(data, 7, seed=11)
        b = kmeans_granulate(data, 7, seed=11)
        assert a.assignments.tobytes() == b.assignments.tobytes()
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.clustering_error == b.clustering_error

    def test_error_trace_non_increasing(self):
        data = make_dataset(4, l=120, n=3)
        trace: list = []
        kmeans_granulate(data, 5, seed=2, restarts=1, error_trace=trace)
        assert len(trace) >= 2
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_m_bounds(self):
        data = make_dataset(5, l=10)
        with pytest.raises(DataError, match="m must be >= 1"):
            kmeans_granulate(data, 0, seed=0)
        with pytest.raises(DataError, match="exceeds"):
            kmeans_granulate(data, 11, seed=0)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_fixed_point_centroids_are_cluster_means(self, seed, m):
        data = generate_ndc(240, 3, 5, seed=seed)
        g = kmeans_granulate(data, m, seed=seed, restarts=2)
        np.testing.assert_array_equal(assign_to_granules(data.features, g), g.assignments)
        for k, members in enumerate(g.granule_members):
            expected = data.features[members].mean(axis=0)
            assert g.centroids[k].tobytes() == expected.tobytes()

    def test_duplicate_points_still_partition(self):
        features = np.array([[0.5, 0.5]] * 4 + [[0.1, 0.9]] * 2)
        data = Dataset(features, np.array([0, 1, 0, 1, 0, 1]))
        g = kmeans_granulate(data, 3, seed=0)
        counts = [members.size for members in g.granule_members]
        assert min(counts) >= 1 and sum(counts) == 6


def sweep_cases(count, seed=2024):
    """Seeded k-means inputs: l in [2, 400], n in [1, 20], scales 1e-3 to 1e3,
    m from 1 to l, 1 to 5 restarts; uniform rows, rows rounded onto a grid
    (ties), two copies of one half, and all rows identical."""
    gen = np.random.default_rng(seed)
    for i in range(count):
        kind = ("uniform", "rounded", "halves", "identical")[i % 4]
        l = int(np.exp(gen.uniform(np.log(2), np.log(400))))
        n = 1 if i % 7 == 0 else int(gen.integers(1, 21))
        X = gen.random((l, n))
        if kind == "rounded":
            X = np.round(X * 3) / 3
        elif kind == "halves":
            X = np.vstack([X[: (l + 1) // 2]] * 2)[gen.permutation(l)]
        elif kind == "identical":
            X = np.tile(X[:1], (l, 1))
        m = l if i % 5 == 0 else int(np.exp(gen.uniform(0, np.log(l + 1))))
        m = max(1, min(m, l))
        distinct = len(np.unique(X, axis=0))
        if m > distinct and l > 40:
            # more granules than distinct rows keeps Lloyd repairing for
            # MAX_ITERS passes; keep those cases small
            m = distinct
        scale = 10.0 ** gen.uniform(-3, 3)
        yield X * scale, m, int(gen.integers(0, 2**31)), int(gen.integers(1, 6))
    # one large case on 10 blobs, where each pick recomputes about 300 of
    # the 3000 rows (on 32-d Gaussian noise the bound prunes almost none)
    yield generate_ndc(3000, 32, 10, seed=seed).features, 200, seed, 1


class TestExactFastKmeans:
    def test_bitwise_equal_to_the_reference_kmeans(self):
        cases = 0
        for X, m, seed, restarts in sweep_cases(320):
            data = Dataset(X, np.arange(len(X)) % 2)
            g = kmeans_granulate(data, m, seed, restarts=restarts)
            assignments, centroids, members, error, iterations = reference_kmeans(
                data.features, m, seed, restarts
            )
            case = (X.shape, m, seed, restarts)
            assert g.assignments.tobytes() == assignments.tobytes(), case
            assert g.centroids.tobytes() == centroids.tobytes(), case
            assert len(g.granule_members) == len(members), case
            for got, want in zip(g.granule_members, members):
                assert got.tobytes() == want.tobytes(), case
            assert g.clustering_error == error, case
            assert g.iterations_run == iterations, case
            cases += 1
        assert cases >= 300

    @pytest.mark.parametrize("seed", [16, 18, 24])
    def test_seeding_at_subnormal_scale_matches_the_reference(self, seed):
        # squared distances near 1e-322 carry absolute, not relative, rounding;
        # a purely relative pruning slack changes picks on these seeds
        gen = np.random.default_rng(seed)
        X = np.round(gen.random((40, 2)) * 50) / 50 * 1e-161
        data = Dataset(X, np.arange(40) % 2)
        for m in (10, 25, 35):
            g = kmeans_granulate(data, m, seed, restarts=1)
            assignments, centroids, _, _, _ = reference_kmeans(data.features, m, seed, 1)
            assert g.assignments.tobytes() == assignments.tobytes()
            assert g.centroids.tobytes() == centroids.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_overflowing_distances_are_a_data_error(self, seed):
        rows = np.array([[1e200, 0.0], [-1e200, 1.0], [0.0, 2.0], [5.0, 1.0]])
        data = Dataset(rows, np.array([0, 1, 0, 1]))
        with np.errstate(over="ignore"), pytest.raises(DataError, match="overflow"):
            kmeans_granulate(data, 3, seed)

    def test_restarts_stop_at_zero_error(self):
        data = make_dataset(9, l=30, n=3)
        one_trace: list = []
        ten_trace: list = []
        one = kmeans_granulate(data, 30, seed=4, restarts=1, error_trace=one_trace)
        ten = kmeans_granulate(data, 30, seed=4, restarts=10, error_trace=ten_trace)
        assert one.clustering_error == 0.0
        assert ten_trace == one_trace
        assert ten.assignments.tobytes() == one.assignments.tobytes()
        assert ten.centroids.tobytes() == one.centroids.tobytes()
        assert ten.iterations_run == one.iterations_run

    def test_distance_buffers_are_reused(self):
        l, m = 4000, 250
        data = generate_ndc(l, 8, 10, seed=3)
        one_array = l * m * 8
        peak = traced_peak(kmeans_granulate, data, m, 3, 1)
        # each assignment pass holds two l x m arrays; a third would pass 2.5
        assert peak < 2.5 * one_array

    def test_assignment_holds_one_product_array(self):
        l, m = 4000, 250
        data = generate_ndc(l, 8, 10, seed=3)
        one_array = l * m * 8
        peak = traced_peak(kmeans_granulate, data, m, 3, 1)
        # the products fill one l x m array; the distances live in row blocks
        assert peak < 1.5 * one_array


def multi_block_cases():
    """(rows, m, block entries): l spans several assignment blocks and ends
    in a 1-row tail, with rows rounded onto a grid so distances tie at the
    block edges."""
    gen = np.random.default_rng(7)
    cases = [(40, 6, DISTANCE_BLOCK_ENTRIES), (300, 6, DISTANCE_BLOCK_ENTRIES), (9, 2, 5 * 9)]
    for m, n, entries in cases:
        step = entries // m
        X = np.round(gen.random((3 * step + 1, n)) * 3) / 3
        yield X, m, entries


@pytest.mark.parametrize(
    "X, m, entries", list(multi_block_cases()), ids=["m40", "m300", "m9-small-blocks"]
)
class TestMultiBlockAssignment:
    def test_kmeans_is_bitwise_the_reference(self, monkeypatch, X, m, entries):
        monkeypatch.setattr(kernels, "DISTANCE_BLOCK_ENTRIES", entries)
        data = Dataset(X, np.arange(len(X)) % 2)
        g = kmeans_granulate(data, m, seed=5, restarts=2)
        assignments, centroids, _, error, iterations = reference_kmeans(X, m, 5, 2)
        assert g.assignments.tobytes() == assignments.tobytes()
        assert g.centroids.tobytes() == centroids.tobytes()
        assert g.clustering_error == error
        assert g.iterations_run == iterations

    def test_assign_to_granules_is_the_argmin_of_the_distances(self, monkeypatch, X, m, entries):
        monkeypatch.setattr(kernels, "DISTANCE_BLOCK_ENTRIES", entries)
        g = kmeans_granulate(Dataset(X, np.arange(len(X)) % 2), m, seed=5, restarts=1)
        points = np.vstack([X, np.round(np.random.default_rng(8).random(X.shape) * 6) / 6])
        got = assign_to_granules(points, g)
        want = np.argmin(squared_distances(points, g.centroids), axis=1)
        assert got.tobytes() == want.tobytes()


class TestAssignToGranules:
    def test_training_points_keep_their_assignment(self):
        data = make_dataset(6, l=50, n=4)
        g = kmeans_granulate(data, 4, seed=3)
        np.testing.assert_array_equal(assign_to_granules(data.features, g), g.assignments)

    def test_tie_goes_to_lowest_index(self):
        data = Dataset(np.array([[0.0], [2.0], [4.0]]), np.array([0, 1, 0]))
        g = kmeans_granulate(data, 3, seed=0)
        order = np.argsort(g.centroids[:, 0])
        # centroids sit exactly on 0, 2, 4; the midpoint 1.0 ties the first two
        tied = np.array([[1.0]])
        got = assign_to_granules(tied, g)[0]
        assert got == min(order[0], order[1])

    def test_empty_point_list(self):
        data = make_dataset(7, l=10)
        g = kmeans_granulate(data, 2, seed=0)
        assert assign_to_granules(np.empty((0, data.n)), g).size == 0

    def test_dimension_mismatch(self):
        data = make_dataset(8, l=10, n=3)
        g = kmeans_granulate(data, 2, seed=0)
        with pytest.raises(DataError, match="dimension mismatch"):
            assign_to_granules(np.ones((2, 5)), g)


class TestGranulationValidation:
    def build(self, assignments, m=2):
        return Granulation(
            assignments=np.array(assignments, dtype=np.int64),
            centroids=np.zeros((m, 2)),
            clustering_error=0.0,
            iterations_run=1,
            seed=0,
        )

    def test_consistent_partition_is_accepted(self):
        g = self.build([1, 0, 1])
        assert g.m == 2
        np.testing.assert_array_equal(g.granule_members[1], [0, 2])

    @pytest.mark.parametrize("assignments", [[0, -1, 1], [0, 2, 1]])
    def test_assignment_out_of_range(self, assignments):
        with pytest.raises(DataError, match=r"assignments must lie in \[0, 2\)"):
            self.build(assignments)

    def test_no_granules(self):
        with pytest.raises(DataError, match="at least one centroid"):
            self.build([], m=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_layout_is_derived_from_the_assignments(self, seed):
        gen = np.random.default_rng(seed)
        X = gen.random((int(gen.integers(2, 40)), 3))
        doubled = np.vstack([X, X])[gen.permutation(2 * len(X))]
        # m = 1, m = l, and duplicate rows
        cases = [(X, 1), (X, len(X)), (doubled, int(gen.integers(1, len(X) + 1)))]
        for features, m in cases:
            data = Dataset(features, np.arange(len(features)) % 2)
            g = kmeans_granulate(data, m, seed=seed, restarts=2)
            for k, members in enumerate(g.granule_members):
                assert np.all(np.diff(members) > 0)
                np.testing.assert_array_equal(members, np.flatnonzero(g.assignments == k))
                assert not members.flags.writeable
            np.testing.assert_array_equal(g.order, np.argsort(g.assignments, kind="stable"))
            np.testing.assert_array_equal(g.ends, np.cumsum(np.bincount(g.assignments)))


def test_negative_seed_is_a_data_error():
    with pytest.raises(DataError, match="seed must be >= 0"):
        make_rng(-1)
    with pytest.raises(DataError, match="seed must be >= 0"):
        kmeans_granulate(make_dataset(9, l=10), 2, seed=-1)
