"""Kernel evaluation and Gram-block contracts."""

import math

import numpy as np
import pytest

from conftest import traced_peak

from lugsi import DataError, KernelSpec, gram_block, kernel_eval
from lugsi.kernels import CRO_CHUNK_ENTRIES, CRO_QUADRATURE_NODES, _cosine_similarity


class TestKernelEval:
    def test_rbf_same_point(self):
        spec = KernelSpec("rbf", delta=0.3)
        x = np.array([0.4, 0.7])
        assert kernel_eval(spec, x, x) == 1.0

    def test_rbf_at_characteristic_distance(self):
        delta = 0.9
        spec = KernelSpec("rbf", delta=delta)
        x = np.zeros(3)
        x2 = np.array([math.sqrt(2.0) * delta, 0.0, 0.0])
        assert kernel_eval(spec, x, x2) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_linear_dot_product(self):
        spec = KernelSpec("linear")
        assert kernel_eval(spec, [1.0, 2.0], [3.0, 4.0]) == pytest.approx(11.0)

    def test_cro_orthogonal_gamma_zero(self):
        spec = KernelSpec("cro", cro_gamma=0.0)
        value = kernel_eval(spec, [1.0, 0.0], [0.0, 1.0])
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_cro_parallel_gamma_zero(self):
        # substituting rho = sin t makes the integrand constant 1/(2 pi),
        # so the integral over [0, pi/2] is exactly 1/4; plus 1/4 offset
        spec = KernelSpec("cro", cro_gamma=0.0)
        value = kernel_eval(spec, [3.0, 0.0], [1.5, 0.0])
        assert value == pytest.approx(0.5, abs=1e-12)
        # off-axis parallel vectors round the cosine below 1; asin has an
        # infinite slope there, so only sqrt(eps)-level accuracy is possible
        rounded = kernel_eval(spec, [2.0, 2.0], [1.0, 1.0])
        assert rounded == pytest.approx(0.5, abs=1e-7)

    def test_cro_zero_vector_rejected(self):
        spec = KernelSpec("cro")
        with pytest.raises(DataError, match="all-zero"):
            kernel_eval(spec, [0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            kernel_eval(KernelSpec("linear"), [1.0], [1.0, 2.0])

    def test_symmetry_all_kinds(self, rng):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        for spec in (KernelSpec("linear"), KernelSpec("rbf", delta=0.5), KernelSpec("cro", cro_gamma=0.7)):
            assert kernel_eval(spec, a, b) == pytest.approx(kernel_eval(spec, b, a), rel=1e-14)

    def test_rbf_range(self, rng):
        spec = KernelSpec("rbf", delta=1.3)
        for _ in range(50):
            v = kernel_eval(spec, rng.standard_normal(3), rng.standard_normal(3))
            assert 0.0 < v <= 1.0

    def test_cro_nonnegative_for_nonnegative_gamma(self, rng):
        for _ in range(100):
            gamma = float(rng.uniform(0.0, 3.0))
            spec = KernelSpec("cro", cro_gamma=gamma)
            a = rng.standard_normal(5)
            b = rng.standard_normal(5)
            value = kernel_eval(spec, a, b)
            assert math.isfinite(value) and value >= -1e-12

    def test_cro_quadrature_converged(self, rng):
        worst = 0.0
        for _ in range(100):
            gamma = float(rng.uniform(0.0, 2.0))
            spec = KernelSpec("cro", cro_gamma=gamma)
            a = rng.standard_normal(6)
            b = rng.standard_normal(6)
            v64 = kernel_eval(spec, a, b, nodes=64)
            v128 = kernel_eval(spec, a, b, nodes=128)
            worst = max(worst, abs(v64 - v128))
        assert worst < 1e-8

    def test_invalid_specs(self):
        with pytest.raises(DataError):
            KernelSpec("rbf", delta=0.0)
        with pytest.raises(DataError):
            KernelSpec("sigmoid")
        with pytest.raises(DataError):
            KernelSpec("cro", cro_gamma=math.inf)


class TestGramBlock:
    def test_single_point_rbf(self):
        spec = KernelSpec("rbf", delta=1.0)
        point = np.array([[0.3, 0.4]])
        np.testing.assert_allclose(gram_block(spec, point, point), [[1.0]])

    def test_linear_identity_rows(self):
        spec = KernelSpec("linear")
        rows = np.eye(2)
        np.testing.assert_allclose(gram_block(spec, rows, rows), rows @ rows.T)

    def test_matches_entrywise_oracle(self, rng):
        rows = rng.random((3, 4))
        cols = rng.random((10, 4))
        for spec in (KernelSpec("linear"), KernelSpec("rbf", delta=0.6), KernelSpec("cro", cro_gamma=1.1)):
            block = gram_block(spec, rows, cols)
            assert block.shape == (3, 10)
            for i in range(3):
                for j in range(10):
                    assert block[i, j] == pytest.approx(
                        kernel_eval(spec, rows[i], cols[j]), rel=1e-12, abs=1e-12
                    )

    def test_same_input_exactly_symmetric(self, rng):
        points = rng.random((12, 3))
        for spec in (KernelSpec("rbf", delta=0.8), KernelSpec("cro", cro_gamma=0.4)):
            gram = gram_block(spec, points, points)
            np.testing.assert_array_equal(gram, gram.T)

    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match="dimension mismatch"):
            gram_block(KernelSpec("linear"), np.ones((2, 3)), np.ones((2, 4)))


class TestCroChunks:
    """The CRO quadrature runs over chunks of entries."""

    @staticmethod
    def whole_matrix_cro(u, gamma):
        # the unchunked expression: one (rows, cols, nodes) temporary
        u = np.clip(u, -1.0, 1.0)
        xi, w = np.polynomial.legendre.leggauss(CRO_QUADRATURE_NODES)
        half = np.arcsin(u)[..., None] / 2.0
        t = half * (xi + 1.0)
        values = np.exp(-gamma * gamma / (1.0 + np.sin(t))) / (2.0 * math.pi)
        integral = (values * w).sum(axis=-1) * half[..., 0]
        return (0.5 * (1.0 + math.erf(gamma / math.sqrt(2.0)))) ** 2 + integral

    @pytest.mark.parametrize("cro_gamma", [0.0, 0.3, -0.7])
    def test_chunked_equals_whole_matrix_bitwise(self, rng, cro_gamma):
        rows, cols = rng.standard_normal((150, 4)), rng.standard_normal((50, 4))
        assert rows.shape[0] * cols.shape[0] > CRO_CHUNK_ENTRIES // CRO_QUADRATURE_NODES
        spec = KernelSpec("cro", cro_gamma=cro_gamma)
        expected = self.whole_matrix_cro(_cosine_similarity(rows, cols), cro_gamma)
        assert gram_block(spec, rows, cols).tobytes() == expected.tobytes()
        same = self.whole_matrix_cro(_cosine_similarity(rows, rows), cro_gamma)
        assert gram_block(spec, rows, rows).tobytes() == ((same + same.T) / 2.0).tobytes()

    def test_no_entry_by_node_temporary(self, rng):
        # a (300, 300, 64) float temporary alone takes 46 MB
        points = rng.random((300, 5))
        peak = traced_peak(gram_block, KernelSpec("cro", cro_gamma=0.3), points, points)
        assert peak < 16e6
