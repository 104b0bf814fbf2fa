import math

import numpy as np
import pytest

from kexpfam.errors import DataError
from kexpfam.kernels import (
    ConstantKernel,
    DerivRequest,
    GaussianKernelSpec,
    _mixed_factor,
    eval_kernel,
    kernel_matrix,
    kernel_partial,
    median_heuristic,
)

from conftest import fd_kernel_partial


def random_spec(rng, dim):
    return GaussianKernelSpec(rng.uniform(0.5, 2.5, size=dim))


class TestGaussianKernelSpec:
    def test_rejects_nonpositive_bandwidth(self):
        for bad in ([0.0], [-1.0], [1.0, -0.5]):
            with pytest.raises(DataError):
                GaussianKernelSpec(bad)

    def test_rejects_nonfinite(self):
        for bad in ([np.nan], [np.inf], [1.0, np.nan]):
            with pytest.raises(DataError):
                GaussianKernelSpec(bad)

    def test_rejects_below_floor(self):
        with pytest.raises(DataError):
            GaussianKernelSpec([1e-9])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            GaussianKernelSpec([])

    def test_bandwidths_frozen(self):
        spec = GaussianKernelSpec([1.0, 2.0])
        with pytest.raises(ValueError):
            spec.bandwidths[0] = 3.0


class TestConstantKernel:
    def test_value_everywhere(self):
        k = ConstantKernel(2.5)
        K = kernel_matrix(k, np.zeros((3, 0)), np.zeros((4, 0)))
        np.testing.assert_array_equal(K, np.full((3, 4), 2.5))

    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            ConstantKernel(0.0)


class TestEvalKernel:
    def test_identity_case(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 5))
            spec = random_spec(rng, d)
            y = rng.normal(size=d)
            assert eval_kernel(spec, y, y) == 1.0

    def test_symmetry(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 4))
            spec = random_spec(rng, d)
            y, y2 = rng.normal(size=d), rng.normal(size=d)
            assert eval_kernel(spec, y, y2) == eval_kernel(spec, y2, y)

    def test_scalar_closed_form(self):
        # independent evaluation of exp(-0.5)
        spec = GaussianKernelSpec([1.0, 1.0])
        value = eval_kernel(spec, [0.0, 0.0], [1.0, 0.0])
        assert value == pytest.approx(0.60653065971263342, rel=1e-12)
        assert value == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_range(self, rng):
        spec = random_spec(rng, 3)
        for _ in range(50):
            v = eval_kernel(spec, rng.normal(size=3), rng.normal(size=3))
            assert 0.0 < v <= 1.0

    def test_dimension_mismatch(self):
        spec = GaussianKernelSpec([1.0, 1.0])
        with pytest.raises(DataError):
            eval_kernel(spec, [0.0], [0.0, 0.0])

    def test_nonfinite_input(self):
        spec = GaussianKernelSpec([1.0])
        with pytest.raises(DataError):
            eval_kernel(spec, [np.nan], [0.0])


class TestDerivRequest:
    def test_rejects_bad_order(self):
        with pytest.raises(DataError):
            DerivRequest(0, 3, 0, 0)
        with pytest.raises(DataError):
            DerivRequest(0, 0, 0, -1)

    def test_dim_out_of_range_at_call(self):
        spec = GaussianKernelSpec([1.0])
        with pytest.raises(DataError):
            kernel_partial(spec, [0.0], [0.0], DerivRequest(1, 1, 0, 0))


class TestKernelPartial:
    def test_zero_order_equals_eval(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 4))
            spec = random_spec(rng, d)
            y, y2 = rng.normal(size=d), rng.normal(size=d)
            req = DerivRequest(int(rng.integers(d)), 0, int(rng.integers(d)), 0)
            assert kernel_partial(spec, y, y2, req) == eval_kernel(spec, y, y2)

    def test_odd_derivative_vanishes_at_coincidence(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 4))
            spec = random_spec(rng, d)
            y = rng.normal(size=d)
            req = DerivRequest(int(rng.integers(d)), 1, 0, 0)
            assert kernel_partial(spec, y, y, req) == 0.0

    def test_first_order_matches_small_step_central_difference(self, rng):
        # the documented 1e-5 step is accurate for single first derivatives
        h = 1e-5
        for _ in range(50):
            d = int(rng.integers(1, 4))
            spec = random_spec(rng, d)
            y, y2 = rng.normal(size=d), rng.normal(size=d)
            i = int(rng.integers(d))
            e = np.zeros(d)
            e[i] = h
            fd = (eval_kernel(spec, y + e, y2) - eval_kernel(spec, y - e, y2)) / (2 * h)
            val = kernel_partial(spec, y, y2, DerivRequest(i, 1, 0, 0))
            assert val == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_all_orders_match_fd_oracle(self, rng):
        for _ in range(150):
            d = int(rng.integers(1, 4))
            spec = random_spec(rng, d)
            y, y2 = rng.normal(size=d), rng.normal(size=d)
            i, j = int(rng.integers(d)), int(rng.integers(d))
            p, q = int(rng.integers(3)), int(rng.integers(3))
            val = kernel_partial(spec, y, y2, DerivRequest(i, p, j, q))
            oracle = fd_kernel_partial(spec, y, y2, i, p, j, q)
            assert val == pytest.approx(oracle, rel=1e-5, abs=1e-8)

    def test_swap_symmetry_with_mirrored_request(self, rng):
        for _ in range(120):
            d = int(rng.integers(1, 4))
            spec = random_spec(rng, d)
            y, y2 = rng.normal(size=d), rng.normal(size=d)
            req = DerivRequest(int(rng.integers(d)), int(rng.integers(3)),
                               int(rng.integers(d)), int(rng.integers(3)))
            a = kernel_partial(spec, y, y2, req)
            mirrored = DerivRequest(req.dim_second, req.order_second,
                                    req.dim_first, req.order_first)
            b = kernel_partial(spec, y2, y, mirrored)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)

    def test_difference_antisymmetry(self, rng):
        # d/dy_i k == -d/dy2_i k for a translation-invariant kernel
        for _ in range(50):
            d = int(rng.integers(1, 4))
            spec = random_spec(rng, d)
            y, y2 = rng.normal(size=d), rng.normal(size=d)
            i = int(rng.integers(d))
            a = kernel_partial(spec, y, y2, DerivRequest(i, 1, 0, 0))
            b = kernel_partial(spec, y, y2, DerivRequest(0, 0, i, 1))
            assert a == -b

    def test_product_structure_across_dims(self, rng):
        # for i != j the mixed partial factorizes:
        # k * partial(i,p; j,q) == partial(i,p) * partial(j,q)
        for _ in range(50):
            spec = random_spec(rng, 3)
            y, y2 = rng.normal(size=3), rng.normal(size=3)
            i, j = 0, 2
            p, q = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            k = eval_kernel(spec, y, y2)
            lhs = k * kernel_partial(spec, y, y2, DerivRequest(i, p, j, q))
            rhs = (kernel_partial(spec, y, y2, DerivRequest(i, p, 0, 0))
                   * kernel_partial(spec, y, y2, DerivRequest(0, 0, j, q)))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)
            oracle = fd_kernel_partial(spec, y, y2, i, p, j, q)
            assert kernel_partial(spec, y, y2, DerivRequest(i, p, j, q)) == \
                pytest.approx(oracle, rel=1e-5, abs=1e-8)


class TestVectorizedPaths:
    def test_kernel_matrix_matches_scalar(self, rng):
        spec = random_spec(rng, 2)
        A, B = rng.normal(size=(5, 2)), rng.normal(size=(7, 2))
        K = kernel_matrix(spec, A, B)
        for a in range(5):
            for b in range(7):
                assert K[a, b] == pytest.approx(eval_kernel(spec, A[a], B[b]),
                                                rel=1e-14)

    def test_kernel_matrix_transpose_exact(self, rng):
        spec = random_spec(rng, 3)
        A = rng.normal(size=(20, 3))
        K = kernel_matrix(spec, A, A)
        np.testing.assert_array_equal(K, K.T)

    def test_partial_matrix_matches_scalar(self, rng):
        """The prefactor of a request times the kernel matrix, as the
        assembly and the paired sums build their mixed partials."""
        spec = random_spec(rng, 2)
        A, B = rng.normal(size=(4, 2)), rng.normal(size=(6, 2))
        s2 = spec.variances
        V = [(A[:, m, None] - B[None, :, m]) / s2[m] for m in range(2)]
        for i, p, j, q in [(0, 1, 1, 1), (1, 2, 1, 2), (0, 2, 1, 1), (1, 0, 0, 2)]:
            M = (_mixed_factor(V[i], s2[i], p, V[j], s2[j], q, i == j)
                 * kernel_matrix(spec, A, B))
            for a in range(4):
                for b in range(6):
                    expect = kernel_partial(spec, A[a], B[b],
                                            DerivRequest(i, p, j, q))
                    assert M[a, b] == pytest.approx(expect, rel=1e-13, abs=1e-15)


class TestMedianHeuristic:
    def test_single_pair(self):
        np.testing.assert_allclose(median_heuristic(np.array([[0.0], [1.0]])), [1.0])

    def test_identical_rows_fallback(self):
        np.testing.assert_allclose(median_heuristic(np.zeros((5, 2))), [1.0, 1.0])

    def test_three_points(self):
        # pairwise diffs {1, 3, 2} -> median 2
        np.testing.assert_allclose(
            median_heuristic(np.array([[0.0], [1.0], [3.0]])), [2.0]
        )

    def test_needs_two_rows(self):
        with pytest.raises(DataError):
            median_heuristic(np.array([[1.0]]))

    def test_brute_force_oracle(self, rng):
        data = rng.normal(size=(30, 3))
        expect = np.empty(3)
        for m in range(3):
            diffs = [abs(data[a, m] - data[b, m])
                     for a in range(30) for b in range(a + 1, 30)]
            expect[m] = np.median(diffs)
        np.testing.assert_allclose(median_heuristic(data), expect, rtol=1e-12)

    def test_zero_median_uses_smallest_positive(self):
        col0 = np.zeros(10)
        col1 = np.arange(10.0)
        out = median_heuristic(np.column_stack([col0, col1]))
        assert out[0] == out[1] > 0

    @staticmethod
    def pairwise_reference(data):
        """Per-column median of |data[a] - data[b]| over the pairs a < b,
        gathered through triu_indices, before the zero-median fallback."""
        iu = np.triu_indices(data.shape[0], k=1)
        return np.array([np.median(np.abs(data[iu[0], m] - data[iu[1], m]))
                         for m in range(data.shape[1])])

    def test_sorted_columns_match_the_pairwise_median_bit_for_bit(self, rng):
        # rounding to one decimal makes many tied values and zero differences;
        # 301 rows give an odd pair count, 300 rows an even one
        for n in (300, 301):
            data = np.column_stack([np.round(rng.normal(size=n), 1),
                                    rng.normal(size=n) * 1e-3 + 5.0,
                                    rng.integers(0, 3, size=n).astype(float)])
            expect = self.pairwise_reference(data)
            assert np.all(expect > 0)
            np.testing.assert_array_equal(median_heuristic(data), expect)

    def test_zero_median_fallback_matches_the_pairwise_median(self, rng):
        # column 0 is mostly one value, so its median difference is zero
        data = np.column_stack([np.where(rng.uniform(size=200) < 0.9, 2.0, 3.0),
                                np.round(rng.normal(size=200), 1)])
        expect = self.pairwise_reference(data)
        assert expect[0] == 0 < expect[1]
        np.testing.assert_array_equal(median_heuristic(data), [expect[1]] * 2)

    @staticmethod
    def all_pairs_reference(data):
        """The routine that built every difference s[i+1:] - s[i] of a
        sorted column (m(m-1)/2 of them) and took np.median, with the
        zero-median fallback."""
        out = np.empty(data.shape[1])
        for m in range(data.shape[1]):
            s = np.sort(data[:, m])
            out[m] = np.median(np.concatenate([s[i + 1:] - s[i]
                                               for i in range(len(s) - 1)]))
        positive = out[out > 0]
        out[out == 0] = positive.min() if positive.size else 1.0
        return out

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 1000])
    def test_selection_matches_the_median_of_all_pairs_bit_for_bit(self, rng, m):
        """The two middle differences are selected without the pair array:
        on ties, zero columns, a zero median, mixed signed zeros, values
        whose differences round, and heavy tails, at odd and even pair
        counts, every bandwidth keeps the bits of the median of all pairs."""
        columns = [
            rng.normal(size=m),
            np.round(rng.normal(size=m), 1),  # ties and zero differences
            rng.integers(0, 3, size=m).astype(float),  # runs of equal values
            np.zeros(m),
            np.where(rng.uniform(size=m) < 0.9, 2.0, 3.0),  # zero median
            np.where(rng.uniform(size=m) < 0.5, -0.0, 0.0),
            rng.normal(size=m) * 1e-3 + 5.0,  # differences that round
            rng.standard_cauchy(size=m),
            np.exp(rng.normal(size=m) * 20.0),
        ]
        for column in columns:
            data = np.column_stack([column, rng.normal(size=m)])
            got, expect = median_heuristic(data), self.all_pairs_reference(data)
            assert got.tobytes() == expect.tobytes()

    def test_non_finite_data_is_data_error(self):
        with pytest.raises(DataError, match="finite"):
            median_heuristic(np.array([[0.0], [np.inf], [1.0]]))
        with pytest.raises(DataError, match="finite"):
            median_heuristic(np.array([[-1e308], [1e308]]))

    def test_subsample_deterministic(self, rng):
        data = rng.normal(size=(1500, 2))
        np.testing.assert_array_equal(median_heuristic(data), median_heuristic(data))
