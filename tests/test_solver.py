"""Closed-form solver contracts, degenerate modes, and oracle cross-checks."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from conftest import random_binary_dataset, singleton_granulation, traced_peak
from oracles import (
    dense_kernel_fit,
    dense_linear_fit,
    explicit_objective_kernel,
    explicit_objective_linear,
    fd_gradient_norm,
    reference_design_rows,
)

from lugsi import (
    DataError,
    Dataset,
    Granulation,
    GranuleInvariant,
    GranuleWeights,
    KernelSpec,
    MeasureSpec,
    NumericError,
    ScalingParams,
    decision_value,
    decision_values,
    fit_kernel_lugsi,
    fit_linear_lugsi,
    fit_lssvm,
    fit_vsvm,
    granule_v_vectors,
    gram_block,
    kmeans_granulate,
    load_model,
    normalized_granule_invariants,
    predict_label,
    predict_labels,
    save_model,
    solve_spd,
    unit_granule_invariants,
    v_value,
)
from lugsi import errors, solver
from lugsi.solver import ROW_BLOCK, model_document
from lugsi.serialize import dump_document


def fitted_linear(seed, l=14, n=3, m=3, gamma=0.3):
    data = random_binary_dataset(np.random.default_rng(seed), l, n)
    g = kmeans_granulate(data, m, seed=seed)
    invs = granule_v_vectors(data, g, MeasureSpec.uniform())
    model, diag = fit_linear_lugsi(data, g, invs, gamma)
    return data, g, invs, model, diag


def every_fit_mode(data, g, invs):
    """The six fits as functions of gamma: granulated linear and rbf, LSSVM
    linear and rbf, and VSVM linear and rbf with V = I."""
    spec, V = KernelSpec(kind="rbf"), np.eye(data.l)
    return [
        lambda gamma: fit_linear_lugsi(data, g, invs, gamma),
        lambda gamma: fit_kernel_lugsi(data, g, invs, spec, gamma),
        lambda gamma: fit_lssvm(data, gamma),
        lambda gamma: fit_lssvm(data, gamma, kernel=spec),
        lambda gamma: fit_vsvm(data, V, gamma),
        lambda gamma: fit_vsvm(data, V, gamma, kernel=spec),
    ]


class TestSolveSpd:
    def test_identity(self, rng):
        rhs = rng.standard_normal(5)
        np.testing.assert_allclose(solve_spd(np.eye(5), rhs), rhs)

    def test_scaled_identity(self):
        np.testing.assert_allclose(
            solve_spd(2.0 * np.eye(2), np.array([4.0, 6.0])), [2.0, 3.0]
        )

    def test_random_spd_residual(self, rng):
        B = rng.standard_normal((10, 10))
        M = B @ B.T + 0.5 * np.eye(10)
        rhs = rng.standard_normal((10, 2))
        z = solve_spd(M, rhs)
        residual = np.linalg.norm(M @ z - rhs)
        assert residual <= 1e-8 * np.linalg.norm(rhs)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError, match="non-finite"):
            solve_spd(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2))

    def test_indefinite_reports_minor(self):
        M = np.diag([1.0, -1.0])
        with pytest.raises(NumericError, match="minor"):
            solve_spd(M, np.ones(2))

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 129, 500])
    def test_sizes_across_the_substitution_blocks(self, rng, m):
        # the triangular solves substitute over blocks of 64 rows
        B = rng.standard_normal((m, m))
        M = B @ B.T + m * np.eye(m)
        rhs = rng.standard_normal((m, 2))
        z = solve_spd(M, rhs)
        assert np.linalg.norm(M @ z - rhs) <= 1e-12 * np.linalg.norm(rhs)
        reference = np.linalg.solve(M, rhs)
        assert np.linalg.norm(z - reference) <= 1e-10 * np.linalg.norm(reference)
        z1 = solve_spd(M, rhs[:, 0])
        assert np.linalg.norm(M @ z1 - rhs[:, 0]) <= 1e-12 * np.linalg.norm(rhs[:, 0])

    def test_indefinite_past_the_first_block_reports_minor(self):
        M = np.eye(100)
        M[80, 80] = -1.0
        with pytest.raises(NumericError, match="leading minor"):
            solve_spd(M, np.ones(100))


class TestFitLinear:
    def test_all_labels_one(self, rng):
        data = Dataset(rng.random((10, 3)), np.ones(10, dtype=int))
        g = kmeans_granulate(data, 3, seed=0)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        model, diag = fit_linear_lugsi(data, g, invs, gamma=0.5)
        np.testing.assert_array_equal(model.w, np.zeros(3))
        assert model.b == 1.0
        assert diag.objective_value == pytest.approx(0.0, abs=1e-20)

    def test_all_labels_zero(self, rng):
        data = Dataset(rng.random((10, 3)), np.zeros(10, dtype=int))
        g = kmeans_granulate(data, 2, seed=0)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        model, _ = fit_linear_lugsi(data, g, invs, gamma=0.5)
        np.testing.assert_array_equal(model.w, np.zeros(3))
        assert model.b == 0.0

    def test_spec_instance_matches_dense_oracle(self):
        gen = np.random.default_rng(123)
        data = random_binary_dataset(gen, 6, 2)
        g = kmeans_granulate(data, 2, seed=0)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        model, _ = fit_linear_lugsi(data, g, invs, gamma=0.1)
        w, b = dense_linear_fit(
            data.features, data.labels, g.granule_members, [inv.v for inv in invs], 0.1
        )
        np.testing.assert_allclose(model.w, w, rtol=1e-10, atol=1e-12)
        assert model.b == pytest.approx(b, rel=1e-10, abs=1e-12)

    def test_half_solutions_compose(self, rng):
        _, _, _, model, _ = fitted_linear(5)
        np.testing.assert_allclose(model.w, model.w_b - model.b * model.w_c, rtol=1e-12)

    def test_objective_matches_explicit_materialization(self):
        data, g, invs, model, diag = fitted_linear(7)
        explicit = explicit_objective_linear(
            data.features, data.labels, g.granule_members,
            [inv.v for inv in invs], model.gamma, model.w, model.b,
        )
        assert diag.objective_value == pytest.approx(explicit, rel=1e-12)

    def test_stationarity_via_independent_fd(self):
        data, g, invs, model, diag = fitted_linear(9)

        def objective(theta):
            return explicit_objective_linear(
                data.features, data.labels, g.granule_members,
                [inv.v for inv in invs], model.gamma, theta[:-1], theta[-1],
            )

        norm = fd_gradient_norm(objective, np.append(model.w, model.b))
        assert norm <= 1e-5 * (1.0 + abs(diag.objective_value))
        assert diag.gradient_norm <= 1e-5 * (1.0 + abs(diag.objective_value))

    def test_fit_is_global_minimum_probe(self):
        data, g, invs, model, diag = fitted_linear(11)
        gen = np.random.default_rng(0)
        theta = np.append(model.w, model.b)
        for _ in range(100):
            direction = gen.standard_normal(theta.size)
            direction *= gen.uniform(0.0, 1.0) / max(np.linalg.norm(direction), 1e-12)
            perturbed = theta + direction
            value = explicit_objective_linear(
                data.features, data.labels, g.granule_members,
                [inv.v for inv in invs], model.gamma, perturbed[:-1], perturbed[-1],
            )
            assert value >= diag.objective_value - 1e-10

    def test_bias_fallback_on_degenerate_system(self):
        # every row has a coordinate at 1, so every uniform v-value is 0
        features = np.array([[1.0, 0.2], [1.0, 0.8], [0.3, 1.0], [0.9, 1.0]])
        data = Dataset(features, np.array([0, 1, 0, 1]))
        g = kmeans_granulate(data, 2, seed=0)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        model, diag = fit_linear_lugsi(data, g, invs, gamma=0.1)
        assert diag.bias_fallback
        assert model.b == 0.0

    def test_gamma_must_be_positive(self):
        data, g, invs, _, _ = fitted_linear(13)
        for fit in every_fit_mode(data, g, invs):
            for gamma in (0.0, -1.0, math.nan):
                with pytest.raises(DataError, match="gamma must be positive"):
                    fit(gamma)

    def test_overflowing_gamma_m_is_a_data_error(self):
        # the solve shifts by gamma * m: m = 3 for the granulated fits, m = l
        # for LSSVM, so gamma = 1e308 overflows; VSVM has m = 1, so only an
        # infinite gamma does
        data, g, invs, _, _ = fitted_linear(13)
        fits = every_fit_mode(data, g, invs)
        for fit, gamma in zip(fits, [1e308] * 4 + [math.inf] * 2):
            with pytest.raises(DataError, match=r"gamma\*m overflows"):
                fit(gamma)

    def test_misaligned_invariants_rejected(self):
        data, g, _, _, _ = fitted_linear(15)
        fewer = kmeans_granulate(data, g.m - 1, seed=15)
        with pytest.raises(DataError):
            fit_linear_lugsi(data, g, granule_v_vectors(data, fewer, MeasureSpec.uniform()), 0.1)

    @pytest.mark.parametrize("case", ["other_dataset", "one_invariant_too_few", "wrong_length"])
    def test_invariants_must_fit_the_granulation(self, case):
        data, g, invs, _, _ = fitted_linear(19)
        message = "need one GranuleInvariant per granule"
        if case == "other_dataset":
            data = random_binary_dataset(np.random.default_rng(20), data.l + 1, data.n)
            message = "granulation does not match the dataset"
        elif case == "one_invariant_too_few":
            # the weights of another granulation of the same rows
            other = kmeans_granulate(data, g.m - 1, seed=19)
            invs = granule_v_vectors(data, other, MeasureSpec.uniform())
        else:
            moved = g.assignments.copy()
            moved[g.order[-1]] = 0  # the same m, one granule longer and one shorter
            other = Granulation(moved, g.centroids, 0.0, 1, 0)
            assert other.m == g.m and not np.array_equal(other.ends, g.ends)
            invs = granule_v_vectors(data, other, MeasureSpec.uniform())
        with pytest.raises(DataError, match=message):
            fit_linear_lugsi(data, g, invs, gamma=0.1)

    def test_deterministic_serialized_bytes(self):
        first = fitted_linear(17)[3]
        second = fitted_linear(17)[3]
        assert dump_document(model_document(first)) == dump_document(model_document(second))


class TestFitKernel:
    def test_all_labels_one(self, rng):
        data = Dataset(rng.random((8, 2)), np.ones(8, dtype=int))
        g = kmeans_granulate(data, 2, seed=0)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        model, _ = fit_kernel_lugsi(data, g, invs, KernelSpec("rbf", delta=1.0), gamma=0.5)
        np.testing.assert_array_equal(model.A, np.zeros(8))
        assert model.c == 1.0

    def test_spec_instance_matches_dense_oracle(self):
        gen = np.random.default_rng(321)
        data = random_binary_dataset(gen, 8, 2)
        g = kmeans_granulate(data, 2, seed=0)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        spec = KernelSpec("rbf", delta=1.0)
        model, _ = fit_kernel_lugsi(data, g, invs, spec, gamma=0.5)
        K = gram_block(spec, data.features, data.features)
        A, c = dense_kernel_fit(
            K, data.labels, g.granule_members, [inv.v for inv in invs], 0.5
        )
        np.testing.assert_allclose(model.A, A, rtol=1e-10, atol=1e-12)
        assert model.c == pytest.approx(c, rel=1e-10, abs=1e-12)

    def test_stationarity_via_independent_fd(self):
        gen = np.random.default_rng(55)
        data = random_binary_dataset(gen, 12, 3)
        g = kmeans_granulate(data, 3, seed=1)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        spec = KernelSpec("rbf", delta=0.8)
        model, diag = fit_kernel_lugsi(data, g, invs, spec, gamma=0.4)
        K = gram_block(spec, data.features, data.features)

        def objective(theta):
            return explicit_objective_kernel(
                K, data.labels, g.granule_members,
                [inv.v for inv in invs], model.gamma, theta[:-1], theta[-1],
            )

        norm = fd_gradient_norm(objective, np.append(model.A, model.c))
        assert norm <= 1e-5 * (1.0 + abs(diag.objective_value))
        assert diag.gradient_norm <= 1e-5 * (1.0 + abs(diag.objective_value))

    def test_linear_kernel_labels_match_linear_solver(self):
        # the two parameterizations regularize different norms, so their
        # decision functions only coincide in the small-gamma limit with
        # enough granules to pin the affine fit; there the training-set
        # labels must agree
        for seed in range(20):
            gen = np.random.default_rng(1000 + seed)
            l, n = 24, 3
            X = gen.random((l, n))
            direction = gen.standard_normal(n)
            direction /= np.linalg.norm(direction)
            score = X @ direction
            score -= np.median(score)
            keep = np.abs(score) > 0.1
            if keep.sum() < 10 or len(set((score[keep] > 0).tolist())) < 2:
                continue
            data = Dataset(X[keep], (score[keep] > 0).astype(int))
            g = kmeans_granulate(data, data.l, seed=seed)
            invs = granule_v_vectors(data, g, MeasureSpec.uniform())
            linear_model, _ = fit_linear_lugsi(data, g, invs, gamma=1e-8)
            kernel_model, _ = fit_kernel_lugsi(
                data, g, invs, KernelSpec("linear"), gamma=1e-8
            )
            values_linear = decision_values(linear_model, data.features)
            values_kernel = decision_values(kernel_model, data.features)
            np.testing.assert_allclose(values_linear, values_kernel, atol=1e-3)
            np.testing.assert_array_equal(
                predict_labels(linear_model, data.features),
                predict_labels(kernel_model, data.features),
            )

    def test_row_cap(self, rng, monkeypatch):
        data = random_binary_dataset(rng, 30, 2)
        g = kmeans_granulate(data, 2, seed=0)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        # the one Gram block holds all 30 x 30 entries
        monkeypatch.setattr(errors, "MAX_ARRAY_ENTRIES", 30 * 30 - 1)
        with pytest.raises(DataError, match="cap"):
            fit_kernel_lugsi(data, g, invs, KernelSpec("rbf", delta=1.0), 0.1)


class TestLssvm:
    def test_equals_singleton_unit_granulation(self):
        for seed in range(20):
            gen = np.random.default_rng(2000 + seed)
            data = random_binary_dataset(gen, int(gen.integers(5, 25)), int(gen.integers(1, 5)))
            gamma = float(gen.uniform(0.01, 2.0))
            g = singleton_granulation(data)
            invs = unit_granule_invariants(data, g)
            reference, _ = fit_linear_lugsi(data, g, invs, gamma)
            model, _ = fit_lssvm(data, gamma)
            np.testing.assert_allclose(model.w, reference.w, rtol=1e-10, atol=1e-12)
            assert model.b == pytest.approx(reference.b, rel=1e-10, abs=1e-12)

    def test_all_labels_one(self, rng):
        data = Dataset(rng.random((9, 2)), np.ones(9, dtype=int))
        model, _ = fit_lssvm(data, gamma=0.3)
        np.testing.assert_array_equal(model.w, np.zeros(2))
        assert model.b == 1.0

    def test_large_gamma_limit(self):
        data = Dataset(np.array([[0.1], [0.9]]), np.array([0, 1]))
        gamma = 1e6
        model, _ = fit_lssvm(data, gamma)
        # oracle: closed form of the ridge normal equations at this gamma
        X, y = data.features, data.labels.astype(float)
        l = data.l
        M = X.T @ X + gamma * l * np.eye(1)
        w_b = np.linalg.solve(M, X.T @ y)
        w_c = np.linalg.solve(M, X.T @ np.ones(l))
        b = (y.sum() - (X @ w_b).sum()) / (l - (X @ w_c).sum())
        np.testing.assert_allclose(model.w, w_b - b * w_c, rtol=1e-10)
        assert model.b == pytest.approx(b, rel=1e-10)
        assert abs(model.w[0]) < 1e-3
        assert model.b == pytest.approx(y.mean(), abs=1e-3)

    def test_kernel_mode_equals_granulated_fit(self):
        gen = np.random.default_rng(77)
        data = random_binary_dataset(gen, 12, 2)
        spec = KernelSpec("rbf", delta=0.7)
        gamma = 0.2
        g = singleton_granulation(data)
        invs = unit_granule_invariants(data, g)
        reference, _ = fit_kernel_lugsi(data, g, invs, spec, gamma)
        model, _ = fit_lssvm(data, gamma, kernel=spec)
        np.testing.assert_allclose(model.A, reference.A, rtol=1e-10, atol=1e-12)
        assert model.c == pytest.approx(reference.c, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("kernel", [None, KernelSpec("rbf", delta=0.8)], ids=["linear", "rbf"])
    def test_matches_dense_oracle_on_singletons(self, kernel):
        # the oracle's explicit (d + 1) system with one unit-v granule per row
        for seed in range(20):
            gen = np.random.default_rng(2500 + seed)
            data = random_binary_dataset(gen, int(gen.integers(5, 30)), int(gen.integers(1, 5)))
            gamma = float(gen.uniform(0.01, 2.0))
            members, units = [np.array([i]) for i in range(data.l)], [np.ones(1)] * data.l
            model, _ = fit_lssvm(data, gamma, kernel=kernel)
            if kernel is None:
                coef, bias = model.w, model.b
                want, want_bias = dense_linear_fit(data.features, data.labels, members, units, gamma)
            else:
                coef, bias = model.A, model.c
                K = gram_block(kernel, data.features, data.features)
                want, want_bias = dense_kernel_fit(K, data.labels, members, units, gamma)
            np.testing.assert_allclose(coef, want, rtol=1e-10, atol=1e-12)
            assert bias == pytest.approx(want_bias, rel=1e-10, abs=1e-12)


class TestVsvm:
    def test_identity_matrix_matches_lssvm_convention(self):
        # the granulated regularizer accumulates over granules, so the
        # identity-weighted equivalence holds at gamma_vsvm = l * gamma
        for seed in range(10):
            gen = np.random.default_rng(3000 + seed)
            data = random_binary_dataset(gen, int(gen.integers(5, 20)), 3)
            gamma = float(gen.uniform(0.05, 1.0))
            lssvm_model, _ = fit_lssvm(data, gamma)
            vsvm_model, _ = fit_vsvm(data, np.eye(data.l), gamma * data.l)
            np.testing.assert_allclose(vsvm_model.w, lssvm_model.w, rtol=1e-10, atol=1e-12)
            assert vsvm_model.b == pytest.approx(lssvm_model.b, rel=1e-10, abs=1e-12)

    def test_rank_one_v_matches_single_granule(self):
        for seed in range(20):
            gen = np.random.default_rng(4000 + seed)
            data = random_binary_dataset(gen, int(gen.integers(5, 25)), int(gen.integers(1, 5)))
            gamma = float(gen.uniform(0.01, 2.0))
            g = kmeans_granulate(data, 1, seed=0)
            invs = granule_v_vectors(data, g, MeasureSpec.uniform())
            reference, _ = fit_linear_lugsi(data, g, invs, gamma)
            v_full = np.array([v_value(x, MeasureSpec.uniform()) for x in data.features])
            model, _ = fit_vsvm(data, np.outer(v_full, v_full), gamma)
            np.testing.assert_allclose(model.w, reference.w, rtol=1e-10, atol=1e-12)
            assert model.b == pytest.approx(reference.b, rel=1e-10, abs=1e-12)

    def test_sum_of_granule_invariants_matches_granulated_fits(self):
        # V = sum_k e_k e_k^T with e_k granule k's v vector scattered to its
        # rows; VSVM has m = 1, so its gamma is the granulated gamma * m
        m_below_n = 0
        for seed in range(20):
            gen = np.random.default_rng(4500 + seed)
            data = random_binary_dataset(gen, int(gen.integers(8, 25)), int(gen.integers(1, 6)))
            gamma = float(gen.uniform(0.01, 2.0))
            spec = KernelSpec("rbf", delta=float(gen.uniform(0.3, 2.0)))
            g = kmeans_granulate(data, int(gen.integers(2, 6)), seed=seed)
            m_below_n += g.m < data.n
            invs = normalized_granule_invariants(data, g, MeasureSpec.uniform())
            V = np.zeros((data.l, data.l))
            for members, inv in zip(g.granule_members, invs):
                e = np.zeros(data.l)
                e[members] = inv.v
                V += np.outer(e, e)
            linear, _ = fit_linear_lugsi(data, g, invs, gamma)
            model, _ = fit_vsvm(data, V, gamma * g.m)
            np.testing.assert_allclose(model.w, linear.w, rtol=1e-10, atol=1e-12)
            assert model.b == pytest.approx(linear.b, rel=1e-10, abs=1e-12)
            kernel, _ = fit_kernel_lugsi(data, g, invs, spec, gamma)
            model, _ = fit_vsvm(data, V, gamma * g.m, kernel=spec)
            np.testing.assert_allclose(model.A, kernel.A, rtol=1e-10, atol=1e-12)
            assert model.c == pytest.approx(kernel.c, rel=1e-10, abs=1e-12)
        assert 0 < m_below_n < 20

    def test_all_labels_one(self, rng):
        data = Dataset(rng.random((7, 2)), np.ones(7, dtype=int))
        model, _ = fit_vsvm(data, np.eye(7), gamma=0.4)
        np.testing.assert_array_equal(model.w, np.zeros(2))
        assert model.b == 1.0

    def test_non_psd_rejected(self, rng):
        data = random_binary_dataset(rng, 6, 2)
        V = np.eye(6)
        V[0, 0] = -1.0
        with pytest.raises(DataError, match="positive semidefinite"):
            fit_vsvm(data, V, gamma=0.1)

    def test_asymmetric_rejected(self, rng):
        data = random_binary_dataset(rng, 5, 2)
        V = np.eye(5)
        V[0, 1] = 0.5
        with pytest.raises(DataError, match="symmetric"):
            fit_vsvm(data, V, gamma=0.1)

    def test_kernel_mode_stationary(self, rng):
        data = random_binary_dataset(rng, 10, 2)
        spec = KernelSpec("rbf", delta=1.0)
        V = np.diag(np.linspace(0.5, 1.5, 10))
        model, diag = fit_vsvm(data, V, gamma=0.3, kernel=spec)
        assert diag.gradient_norm <= 1e-5 * (1.0 + abs(diag.objective_value))


class TestDiagnostics:
    def test_objective_and_exact_gradient_in_every_mode(self):
        # LSSVM is the oracle objective with singleton granules and unit v,
        # VSVM with V = v v^T is the one-granule (m = 1) objective; the
        # granulated kernel fits (m < l) and the linear fits with m < n
        # take the dual (m x m) solve
        linear_dual = 0
        for seed in range(40):
            gen = np.random.default_rng(5000 + seed)
            data = random_binary_dataset(gen, int(gen.integers(6, 20)), int(gen.integers(1, 5)))
            X, y = data.features, data.labels
            gamma = float(gen.uniform(0.01, 2.0))
            spec = KernelSpec("rbf", delta=float(gen.uniform(0.3, 2.0)))
            K = gram_block(spec, X, X)
            g = kmeans_granulate(data, int(gen.integers(1, 5)), seed=seed)
            linear_dual += g.m < data.n
            invs = granule_v_vectors(data, g, MeasureSpec.uniform())
            vs = [inv.v for inv in invs]
            singletons = singleton_granulation(data).granule_members
            units = [np.ones(1)] * data.l
            v_full = np.array([v_value(x, MeasureSpec.uniform()) for x in X])
            V = np.outer(v_full, v_full)
            whole = [np.arange(data.l)]
            linear, kernel = explicit_objective_linear, explicit_objective_kernel
            cases = [
                (fit_linear_lugsi(data, g, invs, gamma), linear, X, g.granule_members, vs),
                (fit_kernel_lugsi(data, g, invs, spec, gamma), kernel, K, g.granule_members, vs),
                (fit_lssvm(data, gamma), linear, X, singletons, units),
                (fit_lssvm(data, gamma, kernel=spec), kernel, K, singletons, units),
                (fit_vsvm(data, V, gamma), linear, X, whole, [v_full]),
                (fit_vsvm(data, V, gamma, kernel=spec), kernel, K, whole, [v_full]),
            ]
            for (model, diag), objective, design, members, v_vectors in cases:
                params, bias = (model.w, model.b) if hasattr(model, "w") else (model.A, model.c)
                explicit = objective(design, y, members, v_vectors, gamma, params, bias)
                assert diag.objective_value == pytest.approx(explicit, rel=1e-12)
                assert diag.gradient_norm <= 1e-10 * (1.0 + diag.objective_value)
        assert 0 < linear_dual < 40


@pytest.mark.parametrize("m", [63, 64, 65, 129, 500])
def test_batched_block_inverse_solves_like_the_per_block_inverse(monkeypatch, m):
    gen = np.random.default_rng(m)
    A = gen.standard_normal((m, m))
    M = A @ A.T + m * np.eye(m)
    rhs = gen.standard_normal((m, 2))
    batched, _ = solver._factor_solve(M, rhs)
    inv = np.linalg.inv

    def per_block(a):
        return np.array([inv(block) for block in a]) if a.ndim == 3 else inv(a)

    monkeypatch.setattr(np.linalg, "inv", per_block)
    one_by_one, _ = solver._factor_solve(M, rhs)
    assert batched.tobytes() == one_by_one.tobytes()


class TestStackedSolve:
    """`fit_path` solves a system at several gammas in one stacked pass, and
    each gamma's fit is bitwise the fit at that gamma alone."""

    GAMMAS = (4.0, 1 / 64, 0.5, 4.0, 256.0, 2.0)  # unsorted, with a repeat

    @staticmethod
    def system(kind, side, d):
        """A system whose factored side is d x d: m = d granules of random
        rows; the primal side has d features (linear) or m = l = d rows."""
        gen = np.random.default_rng(d + 7 * len(side) + len(kind))
        kernel = None if kind == "linear" else KernelSpec(kind, delta=0.7, cro_gamma=0.3)
        if kernel is None:
            l, n = 2 * d + 5, d + 7 if side == "dual" else d
        else:
            l, n = d + 20 if side == "dual" else d, 4
        data = random_binary_dataset(gen, l, n)
        assignments = np.concatenate([np.arange(d), gen.integers(0, d, l - d)])
        gen.shuffle(assignments)
        g = Granulation(assignments, gen.random((d, n)), 0.0, 1, 5)
        weights = normalized_granule_invariants(data, g, MeasureSpec.uniform())
        return solver.granulated_system(data, g, weights, kernel)

    @staticmethod
    def alone(system, gamma, scaling):
        if system.kernel is None:
            return fit_linear_lugsi(system.data, system.granulation, system, gamma, scaling)
        return fit_kernel_lugsi(
            system.data, system.granulation, system, system.kernel, gamma, scaling
        )

    @pytest.mark.parametrize("d", [63, 64, 65, 129])
    @pytest.mark.parametrize("side", ["primal", "dual"])
    @pytest.mark.parametrize("kind", ["linear", "rbf", "cro"])
    def test_each_gamma_is_its_fit_alone(self, monkeypatch, kind, side, d):
        system = self.system(kind, side, d)
        factored = system.P.shape[1] if side == "primal" else system.P.shape[0]
        assert factored == d and (system.P.shape[0] < system.P.shape[1]) == (side == "dual")
        scaling = ScalingParams(np.zeros(system.data.n), np.ones(system.data.n))
        want = [self.alone(system, gamma, scaling) for gamma in self.GAMMAS]
        # the stack bound splits 129 x 129 systems into stacks of 3; no bound
        # and a stack of one system each give the same bytes
        for entries in (solver.STACK_ENTRIES, 1 << 62, 0):
            monkeypatch.setattr(solver, "STACK_ENTRIES", entries)
            got = solver.fit_path(system, self.GAMMAS, scaling)
            assert len(got) == len(want)
            for (model, diag), (want_model, want_diag), gamma in zip(got, want, self.GAMMAS):
                assert model.gamma == gamma
                assert dump_document(model_document(model)) == dump_document(
                    model_document(want_model)
                )
                assert diag == want_diag

    def test_stacks_hold_at_most_stack_entries(self, monkeypatch):
        stacks = []
        factor_solve = solver._factor_solve

        def recording(M, rhs):
            stacks.append(M.shape)
            return factor_solve(M, rhs)

        monkeypatch.setattr(solver, "_factor_solve", recording)
        system = self.system("rbf", "dual", 129)  # 2^16 // 129^2 = 3 per stack
        solver.fit_path(system, self.GAMMAS, None)
        assert stacks == [(3, 129, 129), (3, 129, 129)]
        stacks.clear()
        solver.fit_path(self.system("linear", "primal", 63), self.GAMMAS, None)
        assert stacks == [(6, 63, 63)]
        stacks.clear()
        solver.fit_path(self.system("linear", "primal", 63), self.GAMMAS[:1], None)
        assert stacks == [(63, 63)]

    @staticmethod
    def failure(M, rhs) -> str:
        with pytest.raises(NumericError) as caught:
            solver._factor_solve(M, rhs)
        return str(caught.value)

    @pytest.mark.parametrize("fault", ["nan", "inf", "indefinite"])
    @pytest.mark.parametrize("member", [0, 2])
    def test_a_failing_member_fails_the_stack_as_alone(self, fault, member):
        gen = np.random.default_rng(41)
        n = 100
        B = gen.standard_normal((3, n, n))
        M = B @ np.swapaxes(B, 1, 2) + n * np.eye(n)
        rhs = gen.standard_normal((n, 2))
        # past the first 64-row block
        M[member, 80, 80] = {"nan": np.nan, "inf": np.inf, "indefinite": -1e6}[fault]
        alone = self.failure(M[member], rhs)
        assert alone == self.failure(M, rhs)
        assert ("non-finite" if fault != "indefinite" else "leading minor") in alone
        healthy = [k for k in range(3) if k != member]
        z, hints = solver._factor_solve(M[healthy], rhs)
        assert len(hints) == 2
        for row, k in enumerate(healthy):
            assert z[row].tobytes() == solver._factor_solve(M[k], rhs)[0].tobytes()


class TestGranulatedSystem:
    """A built system solves like the weights it came from, at any gamma."""

    @pytest.fixture
    def fold(self):
        data = random_binary_dataset(np.random.default_rng(31), 40, 3)
        g = kmeans_granulate(data, 6, seed=2)
        return data, g, normalized_granule_invariants(data, g, MeasureSpec.uniform())

    @pytest.mark.parametrize("kernel", [None, KernelSpec("rbf", delta=0.5)], ids=["linear", "rbf"])
    def test_system_fits_equal_weight_fits_bitwise(self, fold, kernel):
        data, g, weights = fold
        system = solver.granulated_system(data, g, weights, kernel)
        assert not system.P.flags.writeable
        for gamma in (0.01, 1.0, 64.0):
            if kernel is None:
                fits = [fit_linear_lugsi(data, g, w, gamma) for w in (weights, system)]
            else:
                fits = [fit_kernel_lugsi(data, g, w, kernel, gamma) for w in (weights, system)]
            (want, want_diag), (got, got_diag) = fits
            assert dump_document(model_document(got)) == dump_document(model_document(want))
            assert got_diag == want_diag

    def test_system_of_another_kernel_is_refused(self, fold):
        data, g, weights = fold
        system = solver.granulated_system(data, g, weights, KernelSpec("rbf", delta=0.5))
        with pytest.raises(DataError, match="other rows, granules or kernel"):
            fit_kernel_lugsi(data, g, system, KernelSpec("rbf", delta=2.0), 1.0)
        with pytest.raises(DataError, match="other rows, granules or kernel"):
            fit_linear_lugsi(data, g, system, 1.0)


class TestDesignRows:
    """`_design_rows` adds singletons in one step and is bitwise the granule walk."""

    @pytest.mark.parametrize("case", range(48))
    def test_equals_the_granule_walk_bitwise(self, monkeypatch, case):
        # m = l, l // 2, any and 1 in turn; linear, rbf, then rbf with Gram
        # blocks of 3-6 rows, which multi-row granules straddle
        gen = np.random.default_rng(950 + case)
        l, n = int(gen.integers(2, 90)), int(gen.integers(1, 6))
        m = [l, max(1, l // 2), int(gen.integers(1, l + 1)), 1][case % 4]
        mode = case // 4 % 3
        kernel = None if mode == 0 else KernelSpec("rbf", delta=float(gen.uniform(0.3, 2.0)))
        if mode == 2:
            monkeypatch.setattr(solver, "ROW_BLOCK", int(gen.integers(3, 7)))
        data = random_binary_dataset(gen, l, n)
        assignments = np.concatenate([np.arange(m), gen.integers(0, m, l - m)])
        gen.shuffle(assignments)
        g = Granulation(assignments, gen.random((m, n)), 0.0, 0, 0)
        v = gen.random(l)
        v[gen.random(l) < 0.2] = 0.0
        blocks = [slice(0, l)] if kernel is None else solver._row_blocks(l)
        want = reference_design_rows(data.features, g.order, g.ends, v, kernel, blocks)
        assert solver._design_rows(data, g, v, kernel).tobytes() == want.tobytes()


class TestSolveSides:
    """m < d factors the m x m system P P^T + gamma*m*I, else the d x d P^T P + gamma*m*I."""

    @pytest.fixture
    def factored_dims(self, monkeypatch):
        dims = []
        factor_solve = solver._factor_solve

        def recording(M, rhs):
            dims.append(M.shape[0])
            return factor_solve(M, rhs)

        monkeypatch.setattr(solver, "_factor_solve", recording)
        return dims

    @pytest.mark.parametrize("l, n, m", [(20, 6, 3), (30, 2, 6)], ids=["dual", "primal"])
    def test_linear_matches_dense_oracle(self, factored_dims, l, n, m):
        gen = np.random.default_rng(600 + m)
        data = random_binary_dataset(gen, l, n)
        g = kmeans_granulate(data, m, seed=0)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        model, _ = fit_linear_lugsi(data, g, invs, gamma=0.2)
        w, b = dense_linear_fit(
            data.features, data.labels, g.granule_members, [inv.v for inv in invs], 0.2
        )
        assert factored_dims == [min(g.m, n)]
        np.testing.assert_allclose(model.w, w, rtol=1e-10, atol=1e-12)
        assert model.b == pytest.approx(b, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("row_block", [5, ROW_BLOCK])
    @pytest.mark.parametrize("l, m", [(24, 4), (16, 16)], ids=["dual", "primal"])
    def test_kernel_matches_dense_oracle(self, factored_dims, monkeypatch, l, m, row_block):
        # a block of 5 rows splits granules across Gram blocks
        monkeypatch.setattr(solver, "ROW_BLOCK", row_block)
        gen = np.random.default_rng(700 + m)
        data = random_binary_dataset(gen, l, 3)
        g = kmeans_granulate(data, m, seed=0)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        spec = KernelSpec("rbf", delta=0.6)
        model, _ = fit_kernel_lugsi(data, g, invs, spec, gamma=0.3)
        K = gram_block(spec, data.features, data.features)
        A, c = dense_kernel_fit(
            K, data.labels, g.granule_members, [inv.v for inv in invs], 0.3
        )
        assert factored_dims == [min(g.m, l)]
        np.testing.assert_allclose(model.A, A, rtol=1e-10, atol=1e-12)
        assert model.c == pytest.approx(c, rel=1e-10, abs=1e-12)


class TestGranuleWeights:
    """The builders' joined arrays and the per-granule items agree."""

    def test_joined_arrays_and_items_agree(self):
        data = random_binary_dataset(np.random.default_rng(31), ROW_BLOCK + 300, 3)
        g = kmeans_granulate(data, 7, seed=31)
        weights = normalized_granule_invariants(data, g, MeasureSpec.uniform())
        assert isinstance(weights, GranuleWeights)
        assert len(weights) == g.m
        np.testing.assert_array_equal(weights.ends, g.ends)
        for k, inv in enumerate(weights):
            assert isinstance(inv, GranuleInvariant)
            assert weights.s[k].tobytes() == inv.v.sum().tobytes()
            assert weights.t[k] == inv.target
        assert weights.v.tobytes() == np.concatenate([inv.v for inv in weights]).tobytes()

    def test_hand_built_weights_are_checked(self):
        v, ends, s, t = np.array([0.5, 0.25, 1.0]), np.array([1, 3]), [0.5, 1.25], [0.0, 1.0]
        for bad in (-0.25, 1.5):
            with pytest.raises(DataError, match=r"v entries must lie in \[0,1\]"):
                GranuleWeights(np.array([0.5, bad, 1.0]), ends, s, t)
        for args in ((v, [1, 4], s, t), (v, [0, 3], s, t), (v, ends, s[:1], t)):
            with pytest.raises(DataError, match="need one nonempty v vector"):
                GranuleWeights(*args)
        assert [inv.target for inv in GranuleWeights(v, ends, s, t)] == t


class TestKernelBlocks:
    """Kernel fits and scoring build Gram blocks of at most ROW_BLOCK rows."""

    @pytest.mark.parametrize(
        "spec",
        [KernelSpec("rbf", delta=0.5), KernelSpec("cro", cro_gamma=0.3), KernelSpec("linear")],
        ids=["rbf", "cro", "linear"],
    )
    def test_blocked_scoring_equals_unblocked_bitwise(self, spec):
        gen = np.random.default_rng(81)
        data = random_binary_dataset(gen, 40, 3)
        g = kmeans_granulate(data, 4, seed=0)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        model, _ = fit_kernel_lugsi(data, g, invs, spec, 0.2)
        points = gen.random((2 * ROW_BLOCK + 1, 3))
        expected = gram_block(spec, points, model.training_points) @ model.A + model.c
        assert decision_values(model, points).tobytes() == expected.tobytes()

    def test_blocked_scoring_is_the_one_piece_product_under_one_blas_thread(self):
        # with several BLAS threads the one-piece product splits its rows
        # between threads, and a row that lands in a thread's unrolled
        # tail may move in the last bits; with one thread no row does
        script = textwrap.dedent("""
            import numpy as np
            from lugsi import *
            gen = np.random.default_rng(84)
            for l, kinds in ((40, ("rbf", "cro", "linear")), (1000, ("rbf", "linear"))):
                data = Dataset(gen.random((l, 3)), np.arange(l) % 2)
                g = kmeans_granulate(data, 4, seed=0, restarts=1)
                invs = granule_v_vectors(data, g, MeasureSpec.uniform())
                for kind in kinds:
                    spec = KernelSpec(kind, delta=0.5, cro_gamma=0.3)
                    model, _ = fit_kernel_lugsi(data, g, invs, spec, 0.2)
                    for rows in (1025, 1100, 2049, 3079):
                        points = gen.random((rows, 3))
                        one_piece = gram_block(spec, points, model.training_points) @ model.A
                        expected = one_piece + model.c
                        got = decision_values(model, points)
                        assert got.tobytes() == expected.tobytes(), (l, kind, rows)
        """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def test_square_fits_build_the_gram_in_row_blocks(self, monkeypatch):
        data = random_binary_dataset(np.random.default_rng(87), 40, 3)
        spec = KernelSpec("rbf", delta=0.5)
        monkeypatch.setattr(solver, "ROW_BLOCK", 8)
        build, rows = solver.gram_block, []

        def recording(kernel, a, b):
            rows[-1].append(a.shape[0])
            return build(kernel, a, b)

        monkeypatch.setattr(solver, "gram_block", recording)
        for fit in (lambda: fit_lssvm(data, 0.3, kernel=spec),
                    lambda: fit_vsvm(data, np.eye(data.l), 0.3, kernel=spec)):
            rows.append([])
            fit()
        assert all(calls and max(calls) <= 8 + 8 // 2 - 1 for calls in rows), rows

    def test_fit_builds_no_training_gram(self):
        # one 3000 x 3000 float array alone takes 72 MB
        data = random_binary_dataset(np.random.default_rng(82), 3000, 4)
        g = kmeans_granulate(data, 20, seed=0, restarts=1)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        peak = traced_peak(fit_kernel_lugsi, data, g, invs, KernelSpec("rbf", delta=0.5), 0.5)
        assert peak < 60e6

    def test_scoring_builds_no_batch_gram(self):
        # one 5000 x 2000 float array alone takes 80 MB
        gen = np.random.default_rng(83)
        data = random_binary_dataset(gen, 2000, 4)
        g = kmeans_granulate(data, 20, seed=0, restarts=1)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        model, _ = fit_kernel_lugsi(data, g, invs, KernelSpec("rbf", delta=0.5), 0.5)
        peak = traced_peak(decision_values, model, gen.random((5000, 4)))
        assert peak < 48e6


class TestArrayBudget:
    """errors.MAX_ARRAY_ENTRIES bounds the largest array of each build."""

    def test_granulated_kernel_fit_is_bounded_by_m_times_l(self, monkeypatch):
        data = random_binary_dataset(np.random.default_rng(85), 30, 3)
        spec = KernelSpec("rbf", delta=0.5)
        monkeypatch.setattr(solver, "ROW_BLOCK", 5)
        g = kmeans_granulate(data, 2, seed=0)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        unguarded, _ = fit_kernel_lugsi(data, g, invs, spec, 0.2)
        # P is 2 x 30 and each Gram block 5 x 30, within 10 * l < l * l
        monkeypatch.setattr(errors, "MAX_ARRAY_ENTRIES", 10 * data.l)
        guarded, _ = fit_kernel_lugsi(data, g, invs, spec, 0.2)
        assert dump_document(model_document(guarded)) == dump_document(model_document(unguarded))
        singletons = singleton_granulation(data)
        invs = granule_v_vectors(data, singletons, MeasureSpec.uniform())
        with pytest.raises(DataError, match="30x30 kernel P or Gram block: 900 entries .* cap"):
            fit_kernel_lugsi(data, singletons, invs, spec, 0.2)

    @pytest.mark.parametrize("mode", ["lssvm_kernel", "vsvm_linear", "vsvm_kernel"])
    def test_square_fits_are_bounded_by_l_squared(self, monkeypatch, mode):
        data = random_binary_dataset(np.random.default_rng(86), 12, 2)
        spec = KernelSpec("rbf", delta=0.5)
        fit = {
            "lssvm_kernel": lambda: fit_lssvm(data, 0.3, kernel=spec),
            "vsvm_linear": lambda: fit_vsvm(data, np.eye(data.l), 0.3),
            "vsvm_kernel": lambda: fit_vsvm(data, np.eye(data.l), 0.3, kernel=spec),
        }[mode]
        monkeypatch.setattr(errors, "MAX_ARRAY_ENTRIES", 12 * 12)
        fit()
        monkeypatch.setattr(errors, "MAX_ARRAY_ENTRIES", 12 * 12 - 1)
        with pytest.raises(DataError, match="12x12 .*: 144 entries .* cap"):
            fit()


class TestPrediction:
    def test_constant_linear_model(self):
        _, _, _, model, _ = fitted_linear(19)
        constant = type(model)(
            w=np.zeros(model.w.shape[0]), b=1.0,
            w_b=np.zeros(model.w.shape[0]), w_c=np.zeros(model.w.shape[0]),
            gamma=1.0, m=1, seed=0, scaling=model.scaling,
        )
        assert decision_value(constant, np.full(model.w.shape[0], 0.3)) == 1.0

    def test_kernel_constant_offset(self, rng):
        data = random_binary_dataset(rng, 6, 2)
        g = kmeans_granulate(data, 2, seed=0)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        model, _ = fit_kernel_lugsi(data, g, invs, KernelSpec("rbf", delta=1.0), 0.5)
        constant = type(model)(
            A=np.zeros(6), c=0.3, A_b=np.zeros(6), A_c=np.zeros(6),
            training_points=model.training_points, kernel=model.kernel,
            gamma=1.0, m=1, seed=0, scaling=model.scaling,
        )
        assert decision_value(constant, data.features[0]) == pytest.approx(0.3)

    def test_threshold_rule(self):
        _, _, _, model, _ = fitted_linear(21, n=1)
        # synthesize models whose decision value is exactly the target
        for value, label in ((0.5, 1), (0.49, 0), (0.51, 1)):
            stub = type(model)(
                w=np.zeros(1), b=value, w_b=np.zeros(1), w_c=np.zeros(1),
                gamma=1.0, m=1, seed=0, scaling=model.scaling,
            )
            assert predict_label(stub, np.array([0.2])) == label

    def test_batch_matches_single(self):
        data, _, _, model, _ = fitted_linear(23)
        batch = decision_values(model, data.features)
        for i in range(data.l):
            assert batch[i] == pytest.approx(decision_value(model, data.features[i]), rel=1e-15)

    def test_dimension_mismatch(self):
        _, _, _, model, _ = fitted_linear(25, n=3)
        with pytest.raises(DataError, match="dimension mismatch"):
            decision_value(model, np.ones(4))


class TestSerialization:
    def test_linear_roundtrip_bitwise(self, tmp_path):
        _, _, _, model, _ = fitted_linear(27)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.w.tobytes() == model.w.tobytes()
        assert loaded.b == model.b
        assert loaded.w_b.tobytes() == model.w_b.tobytes()
        assert loaded.w_c.tobytes() == model.w_c.tobytes()
        assert loaded.scaling.minimum.tobytes() == model.scaling.minimum.tobytes()
        save_model(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "spec",
        [KernelSpec("rbf", delta=0.5), KernelSpec("cro", cro_gamma=0.3)],
        ids=["rbf", "cro"],
    )
    def test_kernel_roundtrip_bitwise(self, tmp_path, rng, spec):
        data = random_binary_dataset(rng, 9, 3)
        g = kmeans_granulate(data, 3, seed=0)
        invs = granule_v_vectors(data, g, MeasureSpec.uniform())
        model, _ = fit_kernel_lugsi(data, g, invs, spec, 0.2)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.A.tobytes() == model.A.tobytes()
        assert loaded.c == model.c
        assert loaded.training_points.tobytes() == model.training_points.tobytes()
        assert loaded.kernel == model.kernel
        values_original = decision_values(model, data.features)
        values_loaded = decision_values(loaded, data.features)
        assert values_original.tobytes() == values_loaded.tobytes()
        save_model(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
