import contextlib
import dataclasses
import itertools
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import kexpfam._openblas as openblas
import kexpfam.score_fit as score_fit_mod
from kexpfam.errors import DataError, NumericalError
from kexpfam.kernels import (
    ConstantKernel,
    DerivRequest,
    GaussianKernelSpec,
    eval_kernel,
    kernel_matrix,
    kernel_partial,
    median_heuristic,
)
from kexpfam.score_fit import (
    BaseDensity,
    FactorModel,
    GramSystem,
    _pair_sums,
    _ridge_solve,
    _T_terms,
    _xi_coeffs,
    build_gram,
    build_gram_system,
    build_h,
    cross_T_blocks,
    empirical_score,
    eval_T,
    fit_factor,
    unnorm_logpdf_rows,
)

from conftest import fd_gradient, fd_second


def random_instance(rng, n, d, p, lam=0.1):
    X = rng.normal(size=(n, p))
    Y = rng.normal(size=(n, d))
    kx = GaussianKernelSpec(rng.uniform(0.8, 1.5, size=p)) if p else ConstantKernel()
    ky = GaussianKernelSpec(rng.uniform(0.8, 1.5, size=d))
    return X, Y, kx, ky, lam


def fit_random(rng, n=8, d=2, p=2, lam=0.1):
    X, Y, kx, ky, lam = random_instance(rng, n, d, p, lam)
    return fit_factor(X, Y, kx, ky, lam)


# --- independent brute-force oracles (scalar kernel calls only) -------------


def kx_value(kernel_x, xa, xb):
    if isinstance(kernel_x, ConstantKernel):
        return kernel_x.value
    return eval_kernel(kernel_x, xa, xb)


def point(v):
    """One point as a (1, k) row; None is the empty conditioning point."""
    return np.asarray([] if v is None else v, dtype=np.float64).reshape(1, -1)


def xi_terms(x_train, y_train, kernel_x, kernel_y, base, x, y):
    """The averaged feature function and its first and second y-partials at
    (x, y), (value, grad (d,), second (d,)), from the paired sums with the
    coefficients that h's assembly uses."""
    [sums] = _pair_sums(x_train, y_train, kernel_x, kernel_y,
                        [_xi_coeffs(y_train, base)], point(x), point(y),
                        want_grad=True, want_second=True)
    return tuple(out[0] for out in sums)


def T_terms(model, x, y):
    """T and its first and second y-partials at (x, y): (value, grad (d,),
    second (d,))."""
    sums = _T_terms(model, point(x), point(y), want_grad=True, want_second=True)
    return tuple(out[0] for out in sums)


def brute_xi_hat(x_train, y_train, kernel_x, kernel_y, base, x, y):
    n, d = y_train.shape
    total = 0.0
    for b in range(n):
        kxv = kx_value(kernel_x, x_train[b], x)
        for l in range(d):
            c = -y_train[b, l] / base.std**2
            total += kxv * (
                kernel_partial(kernel_y, y_train[b], y, DerivRequest(l, 2, 0, 0))
                + c * kernel_partial(kernel_y, y_train[b], y, DerivRequest(l, 1, 0, 0))
            )
    return total / n


def brute_h(x_train, y_train, kernel_x, kernel_y, base):
    """Entry (b, i): the y_i-partial of the averaged feature at (X_b, Y_b)."""
    n, d = y_train.shape
    h = np.zeros((n, d))
    for b in range(n):
        for i in range(d):
            for a in range(n):
                kxv = kx_value(kernel_x, x_train[a], x_train[b])
                for l in range(d):
                    c = -y_train[a, l] / base.std**2
                    h[b, i] += kxv * (
                        kernel_partial(kernel_y, y_train[a], y_train[b],
                                       DerivRequest(l, 2, i, 1))
                        + c * kernel_partial(kernel_y, y_train[a], y_train[b],
                                             DerivRequest(l, 1, i, 1))
                    )
    return h.reshape(-1) / n


def brute_eval_T(model, x, y):
    n, d = model.n, model.d
    beta2 = model.beta2d
    total = 0.0
    for b in range(n):
        kxv = kx_value(model.kernel_x, model.x_train[b], x)
        for i in range(d):
            total += beta2[b, i] * kxv * kernel_partial(
                model.kernel_y, model.y_train[b], y, DerivRequest(i, 1, 0, 0)
            )
    xi = brute_xi_hat(model.x_train, model.y_train, model.kernel_x,
                      model.kernel_y, model.base, x, y)
    return total + model.xi_coeff * xi


# --- the allocating formulas that the buffered routines reproduce ---------
# Each builds whole (n, R) arrays, one numpy expression at a time; the
# library computes the same operations in reused (n, _CROSS_BLOCK) scratch
# and must match them bit for bit.


def ref_kernel(spec, A, B):
    if isinstance(spec, ConstantKernel):
        return np.full((A.shape[0], B.shape[0]), spec.value)
    acc = np.zeros((A.shape[0], B.shape[0]))
    for m in range(spec.dim):
        diff = A[:, m, None] - B[None, :, m]
        acc += diff * diff / (2.0 * spec.variances[m])
    return np.exp(-acc)


def ref_poly(u, s2, order):
    if order == 0:
        return np.ones_like(u)
    v = u / s2
    if order == 1:
        return -v
    if order == 2:
        return v * v - 1.0 / s2
    if order == 3:
        return -v * v * v + 3.0 * v / s2
    v2 = v * v
    return v2 * v2 - 6.0 * v2 / s2 + 3.0 / (s2 * s2)


def ref_mixed(u_i, s2_i, p, u_j, s2_j, q, same_dim):
    sign = -1.0 if q % 2 else 1.0
    if same_dim:
        return sign * ref_poly(u_i, s2_i, p + q)
    return sign * ref_poly(u_i, s2_i, p) * ref_poly(u_j, s2_j, q)


def ref_weight(U, s2, a, e, j, q):
    out = None
    for l in range(a.shape[1]):
        same = l == j
        term = a[:, l, None] * ref_mixed(U[l], s2[l], 1, U[j], s2[j], q, same)
        term += e * ref_mixed(U[l], s2[l], 2, U[j], s2[j], q, same)
        out = term if out is None else out + term
    return out


def ref_diffs(y_train, Y_eval):
    return [y_train[:, m, None] - Y_eval[None, :, m] for m in range(y_train.shape[1])]


def row_order_sum(A):
    """Each column of A summed over its rows one after another, as
    ``_sum_rows`` sums a block of any width (np.sum sums a single column
    pairwise)."""
    return np.cumsum(A, axis=0)[-1]


def ref_T_terms(model, X_eval, Y_eval, kx_pair=None):
    """(value, grad, second) of T at paired rows, all rows at once."""
    a, e = score_fit_mod._model_coeffs(model)
    s2 = model.kernel_y.variances
    kx = (ref_kernel(model.kernel_x, model.x_train, X_eval)
          if kx_pair is None else kx_pair)
    kxky = kx * ref_kernel(model.kernel_y, model.y_train, Y_eval)
    U = ref_diffs(model.y_train, Y_eval)
    value = row_order_sum(kxky * ref_weight(U, s2, a, e, 0, 0))
    grad, second = (np.stack([row_order_sum(kxky * ref_weight(U, s2, a, e, j, q))
                              for j in range(model.d)], axis=1) for q in (1, 2))
    return value, grad, second


def ref_gram_system(X, Y, kernel_x, kernel_y, base):
    """(G, h) of build_gram_system, all training columns at once."""
    n, d = Y.shape
    s2 = kernel_y.variances
    a, e = score_fit_mod._xi_coeffs(Y, base)
    kx, ky, U = ref_kernel(kernel_x, X, X), ref_kernel(kernel_y, Y, Y), ref_diffs(Y, Y)
    G = np.empty((n * d, n * d))
    for i in range(d):
        for j in range(d):
            G[i::d, j::d] = kx * (ref_mixed(U[i], s2[i], 1, U[j], s2[j], 1, i == j) * ky)
    kx *= ky
    h = np.stack([np.sum(kx * ref_weight(U, s2, a, e, j, 1), axis=0) for j in range(d)],
                 axis=1)
    return 0.5 * (G + G.T), h.reshape(-1)



def form_coefficients(model):
    """(c0, c1, e) of T's weight as a quadratic in y: w_b(y) = c0_b +
    sum_l c1_bl y_l + e q(y), with q(y) = sum_l (y_l / s2_l)^2."""
    a, e = score_fit_mod._model_coeffs(model)
    s2 = model.kernel_y.variances
    V = model.y_train / s2
    return np.sum(-a * V + e * (V * V - 1.0 / s2), axis=1), a / s2 - 2.0 * e * V / s2, e


def gemm_ky(model, Y):
    """k_Y between the training y and the draws Y as ``cross_T_blocks``
    builds it: for each block of 128 draws, exp of the (n × (d + 2)) @
    ((d + 2) × width) product [u, Y_train / s2, 1] @ [1; Yᵀ; v(Y)], with u
    = -sum_l Y_train_l² / (2 s2_l) and v(y) = -sum_l y_l² / (2 s2_l)."""
    s2, Y_train = model.kernel_y.variances, model.y_train
    V = Y_train / s2
    left = np.hstack([-0.5 * np.sum(Y_train * V, axis=1, keepdims=True), V,
                      np.ones((len(Y_train), 1))])
    right = np.vstack([np.ones(len(Y)), Y.T, -0.5 * np.sum(Y * (Y / s2), axis=1)])
    return np.hstack([np.exp(left @ right[:, lo:hi])
                      for lo, hi in score_fit_mod._blocks(len(Y), 128)])


def cross_T_reference(model, X_rows, Y_set, sl):
    """The block that ``cross_T_blocks`` yields for the draws Y_set[sl], bit
    for bit: k_Y from ``gemm_ky`` and the weight's terms over whole arrays,
    then, for each block of 128 draws of the chunk, the route's M (the
    stacked GEMM P0 + sum_l y_l P1l + q P2 at rank m <= _STACK_RANK, Lt @ W
    above it, W at the cap) and the GEMMs of the left operand in 64-row
    tiles, the last padded with zero rows."""
    c0, c1, e = form_coefficients(model)
    d, Y = model.d, Y_set[sl]
    v = Y / model.kernel_y.variances
    q = v[:, 0] * v[:, 0]
    for l in range(1, d):
        q = q + v[:, l] * v[:, l]
    ky = gemm_ky(model, Y)
    factor = score_fit_mod._kx_factor(model)
    if factor is None:
        left, Lt = kernel_matrix(model.kernel_x, X_rows, model.x_train), None
    else:
        left, Lt = score_fit_mod._kx_rows(model, *factor, X_rows).T, factor[1]
    stacked = Lt is not None and len(Lt) <= score_fit_mod._STACK_RANK
    if stacked:
        m = len(Lt)
        stack = np.concatenate([Lt * c0, *(Lt * c1[:, l] for l in range(d)), e * Lt])
    else:
        poly = c1[:, 0, None] * Y[None, :, 0]
        for l in range(1, d):
            poly = poly + c1[:, l, None] * Y[None, :, l]
        W = ky * (poly + c0[:, None] + e * q)
    h = score_fit_mod._GEMM_ROWS
    padded = np.zeros((-(-len(left) // h) * h, left.shape[1]))
    padded[:len(left)] = left
    out = []
    for lo, hi in score_fit_mod._blocks(Y.shape[0], 128):
        if stacked:
            P = stack @ ky[:, lo:hi]
            M = P[:m]
            for l in range(d):
                M = M + P[(l + 1) * m:(l + 2) * m] * Y[lo:hi, l]
            M = M + P[(d + 1) * m:] * q[lo:hi]
        else:
            M = W[:, lo:hi] if Lt is None else Lt @ W[:, lo:hi]
        out.append(np.vstack([padded[t:t + h] @ M for t in range(0, len(padded), h)]))
    return np.hstack(out)[:len(left)]

class TestBuildGram:
    def test_single_point_unit_bandwidth(self):
        G = build_gram(np.array([[0.3]]), np.array([[0.7]]),
                       GaussianKernelSpec([1.0]), GaussianKernelSpec([1.0]))
        np.testing.assert_allclose(G, [[1.0]], atol=1e-15)

    def test_row_duplication_replicates_blocks(self, rng):
        n, d, p = 3, 2, 1
        X, Y, kx, ky, _ = random_instance(rng, n, d, p)
        G1 = build_gram(X, Y, kx, ky)
        G2 = build_gram(np.vstack([X, X]), np.vstack([Y, Y]), kx, ky)
        # flat index (b, i) of the duplicated instance maps to (b mod n, i)
        idx = np.array([(b % n) * d + i for b in range(2 * n) for i in range(d)])
        np.testing.assert_allclose(G2, G1[np.ix_(idx, idx)], atol=1e-14)

    def test_brute_force_entries(self, rng):
        n, d, p = 4, 2, 2
        X, Y, kx, ky, _ = random_instance(rng, n, d, p)
        G = build_gram(X, Y, kx, ky)
        for a in range(n):
            for i in range(d):
                for b in range(n):
                    for j in range(d):
                        expect = kx_value(kx, X[a], X[b]) * kernel_partial(
                            ky, Y[a], Y[b], DerivRequest(i, 1, j, 1)
                        )
                        assert abs(G[a * d + i, b * d + j] - expect) < 1e-12

    def test_symmetry_exact(self, rng, monkeypatch):
        """G is used as assembled, without symmetrizing, so each entry must
        equal its mirror bit for bit: on a small instance, and at n = 257
        (three column blocks, the last of 1 column) on the
        pool of 1 and 2 workers for every d and p."""
        X, Y, kx, ky, _ = random_instance(rng, 6, 2, 2)
        G = build_gram(X, Y, kx, ky)
        np.testing.assert_array_equal(G, G.T)
        monkeypatch.setattr(score_fit_mod, "_POOL_ROWS", 1)
        for d, p, workers in itertools.product((1, 2, 3), (0, 2), (1, 2)):
            monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: workers)
            X, Y, kx, ky, _ = random_instance(rng, 257, d, p)
            G = build_gram(X, Y, kx, ky)
            assert np.array_equal(G, G.T), (d, p, workers)

    def test_psd_probes(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 10, 2, 1)
        G = build_gram(X, Y, kx, ky)
        nd = G.shape[0]
        floor = -1e-8 * np.trace(G) / nd
        for _ in range(50):
            v = rng.normal(size=nd)
            assert v @ G @ v >= floor * (v @ v)

    def test_dimension_mismatch(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 4, 2, 1)
        with pytest.raises(DataError):
            build_gram(X[:3], Y, kx, ky)


class TestXiHat:
    def test_closed_form_single_point(self):
        value, _, _ = xi_terms(np.array([[0.5]]), np.array([[0.0]]),
                               GaussianKernelSpec([1.0]), GaussianKernelSpec([1.0]),
                               BaseDensity(2.0), [0.5], [0.0])
        assert value == pytest.approx(-1.0, abs=1e-14)

    def test_linear_in_conditioning_kernel(self, rng):
        n, d = 5, 2
        Y = rng.normal(size=(n, d))
        X = np.empty((n, 0))
        ky = GaussianKernelSpec([1.0, 1.3])
        base = BaseDensity()
        y0 = rng.normal(size=d)
        v1, _, _ = xi_terms(X, Y, ConstantKernel(1.0), ky, base, None, y0)
        v2, _, _ = xi_terms(X, Y, ConstantKernel(2.0), ky, base, None, y0)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-14)

    def test_matches_brute_force(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 6, 2, 2)
        base = BaseDensity()
        x0, y0 = rng.normal(size=2), rng.normal(size=2)
        assert xi_terms(X, Y, kx, ky, base, x0, y0)[0] == pytest.approx(
            brute_xi_hat(X, Y, kx, ky, base, x0, y0), rel=1e-12
        )

    def test_y_partial_matches_finite_difference(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 6, 2, 2)
        base = BaseDensity()
        x0, y0 = rng.normal(size=2), rng.normal(size=2)
        plain = lambda y: xi_terms(X, Y, kx, ky, base, x0, y)[0]
        grad_fd = fd_gradient(plain, y0)
        sec_fd = fd_second(plain, y0)
        _, grad, second = xi_terms(X, Y, kx, ky, base, x0, y0)
        for j in range(2):
            assert grad[j] == pytest.approx(grad_fd[j], rel=1e-5, abs=1e-8)
            assert second[j] == pytest.approx(sec_fd[j], rel=1e-4, abs=1e-6)

    def test_non_finite_point_is_data_error(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 3, 2, 1)
        # with zero beta, T is the averaged feature function times -1/lambda
        model = FactorModel(x_train=X, y_train=Y, kernel_x=kx, kernel_y=ky,
                            lam=1.0, beta=np.zeros(6))
        for x, y in (([np.nan], [0.0, 0.0]), ([0.0], [0.0, np.inf])):
            with pytest.raises(DataError, match="must be finite"):
                eval_T(model, x, y)


class TestBuildH:
    def test_entries_are_xi_partials_at_training_pairs(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 5, 2, 1)
        base = BaseDensity()
        h = build_h(X, Y, kx, ky, base)
        for b in range(5):
            for i in range(2):
                expect = xi_terms(X, Y, kx, ky, base, X[b], Y[b])[1][i]
                assert h[b * 2 + i] == pytest.approx(expect, rel=1e-12, abs=1e-14)

    def test_matches_brute_force(self, rng):
        for d, p in ((1, 1), (2, 2), (2, 0)):
            X, Y, kx, ky, _ = random_instance(rng, 6, d, p)
            base = BaseDensity()
            np.testing.assert_allclose(build_h(X, Y, kx, ky, base),
                                       brute_h(X, Y, kx, ky, base),
                                       rtol=1e-12, atol=1e-14)

    def test_single_centered_point_gives_zero(self):
        h = build_h(np.array([[0.5]]), np.array([[0.0]]),
                    GaussianKernelSpec([1.0]), GaussianKernelSpec([1.0]),
                    BaseDensity(2.0))
        np.testing.assert_allclose(h, [0.0], atol=1e-15)

    def test_matches_finite_differences_of_xi(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 4, 2, 2)
        base = BaseDensity()
        h = build_h(X, Y, kx, ky, base)
        for b in range(4):
            fd = fd_gradient(lambda y: brute_xi_hat(X, Y, kx, ky, base, X[b], y),
                             Y[b])
            for i in range(2):
                assert h[b * 2 + i] == pytest.approx(fd[i], rel=1e-5, abs=1e-8)


class TestBuildGramSystem:
    def test_does_not_depend_on_chunk_size(self, rng, monkeypatch):
        n, d, p = 7, 2, 2
        X, Y, kx, ky, _ = random_instance(rng, n, d, p)
        base = BaseDensity()
        whole = build_gram_system(X, Y, kx, ky, base)
        calls = []

        def counted(*args):
            calls.append(1)
            return kernel_matrix(*args)

        monkeypatch.setattr(score_fit_mod, "kernel_matrix", counted)
        # blocks of 1 column each, then (2, 2, 2, 1) and (3, 3, 1)
        for chunk, blocks in ((1, 7), (2, 4), (3, 3)):
            monkeypatch.setattr(score_fit_mod, "_CROSS_BLOCK", chunk)
            calls.clear()
            system = build_gram_system(X, Y, kx, ky, base)
            # one k_X and one k_Y per block, shared by G and h
            assert len(calls) == 2 * blocks
            np.testing.assert_array_equal(system.G, whole.G)
            np.testing.assert_array_equal(system.h, whole.h)
        for a in range(n):
            for i in range(d):
                for b in range(n):
                    for j in range(d):
                        expect = kx_value(kx, X[a], X[b]) * kernel_partial(
                            ky, Y[a], Y[b], DerivRequest(i, 1, j, 1))
                        assert abs(whole.G[a * d + i, b * d + j] - expect) < 1e-12
        np.testing.assert_allclose(whole.h, brute_h(X, Y, kx, ky, base),
                                   rtol=1e-12, atol=1e-14)

    def test_d2_G_is_symmetric_in_bits_and_survives_a_solve(self, rng):
        """Rows tied in y's first coordinate give zero mixed partials,
        which the blocks write as -0 on one side of the diagonal and +0 on
        the other; the assembly makes every zero +0, so G's int64 view
        equals its transpose and a solve restores every bit."""
        X, Y, kx, ky, lam = random_instance(rng, 20, 2, 2)
        Y[:, 0] = np.round(Y[:, 0])
        system = build_gram_system(X, Y, kx, ky, BaseDensity())
        assert np.any(system.G == 0)
        bits = system.G.view(np.int64)
        assert np.array_equal(bits, bits.T)
        before = bits.copy()
        fit_factor(X, Y, kx, ky, lam, system=system)
        assert np.array_equal(system.G.view(np.int64), before)

    def test_fit_peak_is_G_plus_the_assembly_scratch(self, rng, monkeypatch):
        """The traced peak of a fit, for every worker count a host may give
        the assembly, whatever CPUs run the test, is G and the workers'
        scratch that the pre-flight counts (``_scratch_bytes``): the solve
        factors G in its own memory and adds only vectors.  The 1 MiB covers
        h, the pool's threads and small objects; the former work array was a
        second Gram (2.004-2.017 Grams measured)."""
        for n, workers in itertools.product((1536, 2000), (1, 2, 4)):
            assert n >= score_fit_mod._POOL_ROWS  # the assembly runs on the pool
            monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: workers)
            X, Y, kx, ky, lam = random_instance(rng, n, 1, 1, lam=1e-3)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                fit_factor(X, Y, kx, ky, lam)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            gram = n * n * 8
            scratch = score_fit_mod._scratch_bytes(n, n, 5)
            assert peak <= gram + scratch + 2**20, (n, workers, peak / gram)

    def test_scratch_does_not_grow_with_n(self, rng, monkeypatch):
        """The assembly's scratch is the same at n = 2000 and n = 200 000,
        by arithmetic alone (200 000 rows would need a 298 GiB G), and a
        fit's traced peak at n = 2000 on 2 workers stays under 1.1 Grams
        (1.076 measured; 1.33 with full-height scratch)."""
        monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: 2)
        arrays = score_fit_mod._block_arrays(1)
        assert len({score_fit_mod._scratch_bytes(n, n, arrays)
                    for n in (2000, 200_000)}) == 1
        n = 2000
        X, Y, kx, ky, lam = random_instance(rng, n, 1, 1, lam=1e-3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fit_factor(X, Y, kx, ky, lam)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * n * n * 8

    def test_d1_assembly_holds_no_idle_scratch(self, rng, monkeypatch):
        """At n = 1024 on 2 workers the assembly's peak is G and, per
        worker, five (tile, 128) arrays at d = 1 and numpy's buffers, which
        ``_scratch_bytes`` counts with 42 KB of slack per worker; a sixth,
        idle array would add 0.2 MiB per worker."""
        n = 1024
        assert n >= score_fit_mod._POOL_ROWS
        monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: 2)
        tile = score_fit_mod._block_plan(n, n, 5)[1]
        assert 5 * tile * 128 * 8 <= score_fit_mod._WORKER_SCRATCH < 6 * tile * 128 * 8
        X, Y, kx, ky, _ = random_instance(rng, n, 1, 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            build_gram_system(X, Y, kx, ky, BaseDensity())
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        gram = n * n * 8
        assert peak <= gram + score_fit_mod._scratch_bytes(n, n, 5)


class TestRidgeSolve:
    @pytest.fixture
    def solve_calls(self, monkeypatch):
        """Record each dpotrs; ``corrupt(k, x)`` may replace the k-th result
        (0 is the first solve, 1.. are refinement steps)."""
        real = openblas.dpotrs
        calls = []

        def install(corrupt):
            def recorded(A, b):
                calls.append(b)
                return corrupt(len(calls) - 1, real(A, b))
            monkeypatch.setattr(openblas, "dpotrs", recorded)
            return calls
        return install

    @pytest.fixture
    def failing_factor(self, monkeypatch):
        """Make the first ``fails`` dpotrf calls run the real factorization,
        which overwrites the triangle it factors, and then report a leading
        minor that is not positive definite (info > 0).  Returns a copy of
        each call's argument as received."""
        real = openblas.dpotrf
        received = []

        def install(fails):
            def flaky(A):
                received.append(A.copy())
                info = real(A)
                if len(received) <= fails:
                    assert not np.array_equal(A, received[-1])  # destroyed
                    return 1
                return info
            monkeypatch.setattr(openblas, "dpotrf", flaky)
            return received
        return install

    @staticmethod
    def two_array_solve(G, h, lam, n):
        """The former solve, the independent route: G + n*lam*I copied into
        a Fortran-order work array and factored there through scipy's
        wrappers.  Asserts that its first residual meets the bound, so that
        no refinement step runs."""
        rhs, ridge = h / lam, n * lam
        A = np.empty_like(G, order="F")
        np.copyto(A, G.T)
        A[np.diag_indices_from(A)] += ridge
        factor = scipy.linalg.cho_factor(A, lower=True, overwrite_a=True,
                                         check_finite=False)
        beta = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
        resid = G @ beta + ridge * beta - rhs
        assert np.linalg.norm(resid) <= 1e-8 * max(1.0, np.linalg.norm(rhs))
        return beta

    @pytest.mark.parametrize("n, d, lam", [(5, 1, 1.0), (130, 1, 1e-2), (300, 1, 1e-4),
                                           (257, 1, 0.3), (70, 2, 1e-3)])
    def test_beta_matches_the_two_array_solve_bit_for_bit(self, rng, n, d, lam):
        X, Y, kx, ky, _ = random_instance(rng, n, d, 2)
        system = build_gram_system(X, Y, kx, ky, BaseDensity())
        expect = self.two_array_solve(system.G, system.h, lam, n)
        assert _ridge_solve(system.G, system.h, lam, n).tobytes() == expect.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case", ["solve", "refinement", "jitter", "no factor",
                                      "non-finite residual", "residual left",
                                      "h overflows", "ridge overflows"])
    def test_G_comes_back_bit_for_bit(self, rng, solve_calls, failing_factor, case):
        """G (n*d = 300) spans three strips of 128 rows, so the restore
        copies blocks above the diagonal and the upper part of partial and
        whole diagonal blocks; after a solve, a refinement step, a jitter
        retry and each NumericalError, G holds the bytes it held before."""
        X, Y, kx, ky, lam = random_instance(rng, 150, 2, 1)
        system = build_gram_system(X, Y, kx, ky, BaseDensity())
        before = system.G.tobytes()
        lam = {"h overflows": 1e-320, "ridge overflows": 1e308}.get(case, lam)
        corrupt = {"refinement": lambda k, x: x * (1 + 1e-3) if k == 0 else x,
                   "non-finite residual": lambda k, x: np.full_like(x, np.inf),
                   "residual left": lambda k, x: x * (1 + 1e-3) if k == 0 else 0 * x}
        calls = solve_calls(corrupt.get(case, lambda k, x: x))
        received = failing_factor({"jitter": 1, "no factor": 4}.get(case, 0))
        fails = case not in ("solve", "refinement", "jitter")
        with pytest.raises(NumericalError) if fails else contextlib.nullcontext():
            _ridge_solve(system.G, system.h, lam, 150)
        assert system.G.tobytes() == before
        assert len(received) == {"jitter": 2, "no factor": 4, "h overflows": 0,
                                 "ridge overflows": 0}.get(case, 1)
        assert len(calls) == {"refinement": 2, "residual left": 4, "no factor": 0,
                              "h overflows": 0, "ridge overflows": 0}.get(case, 1)

    @staticmethod
    def shifted(G, *shifts):
        """G with each shift added to its diagonal, one addition at a time."""
        A = G.copy()
        for s in shifts:
            A[np.diag_indices_from(A)] += s
        return A

    def test_jitter_attempt_refills_the_factored_triangle(self, rng, failing_factor):
        X, Y, kx, ky, lam = random_instance(rng, 8, 1, 1)
        system = build_gram_system(X, Y, kx, ky, BaseDensity())
        G, n = system.G, len(Y)
        before = G.copy()
        received = failing_factor(1)
        beta = _ridge_solve(G, system.h, lam, n)
        assert len(received) == 2
        jitter = 1e-10 * max(np.trace(G) / G.shape[0], 1.0)
        np.testing.assert_array_equal(received[0], self.shifted(G, n * lam))
        np.testing.assert_array_equal(received[1], self.shifted(G, n * lam, jitter))
        assert G.tobytes() == before.tobytes()
        rhs = system.h / lam
        resid = G @ beta + n * lam * beta - rhs
        assert np.linalg.norm(resid) <= 1e-8 * max(1.0, np.linalg.norm(rhs))

    def test_four_failed_factorizations_raise(self, rng, failing_factor):
        X, Y, kx, ky, lam = random_instance(rng, 8, 1, 1)
        system = build_gram_system(X, Y, kx, ky, BaseDensity())
        G, n = system.G, len(Y)
        before = G.copy()
        received = failing_factor(4)
        with pytest.raises(NumericalError, match="jitter escalation"):
            _ridge_solve(G, system.h, lam, n)
        assert len(received) == 4
        jitter = 1e-10 * max(np.trace(G) / G.shape[0], 1.0)
        for k in range(1, 4):
            np.testing.assert_array_equal(received[k], self.shifted(G, n * lam, jitter))
            jitter *= 10.0
        assert G.tobytes() == before.tobytes()

    def test_refinement_repairs_an_inexact_solve(self, rng, solve_calls):
        X, Y, kx, ky, lam = random_instance(rng, 6, 1, 1)
        system = build_gram_system(X, Y, kx, ky, BaseDensity())
        exact = _ridge_solve(system.G, system.h, lam, len(Y))
        calls = solve_calls(lambda k, x: x * (1 + 1e-3) if k == 0 else x)
        beta = _ridge_solve(system.G, system.h, lam, len(Y))
        assert len(calls) == 2  # the solve and one refinement step
        np.testing.assert_allclose(beta, exact, rtol=1e-9)

    @pytest.mark.parametrize("lam", [1e-320, 5e-324])
    def test_overflowing_rhs_raises(self, rng, solve_calls, lam):
        """h / lambda overflows to inf: a NumericalError before any solve,
        not scipy's ValueError from cho_solve's finiteness check."""
        X, Y, kx, ky, _ = random_instance(rng, 6, 1, 1)
        system = build_gram_system(X, Y, kx, ky, BaseDensity())
        calls = solve_calls(lambda k, x: x)
        with pytest.raises(NumericalError, match="overflows"):
            _ridge_solve(system.G, system.h, lam, len(Y))
        assert calls == []

    @pytest.mark.parametrize("lam", [1e308, np.float64(1e308)], ids=["float", "float64"])
    def test_overflowing_ridge_raises_before_factoring(self, rng, monkeypatch, lam):
        """n * lambda overflows to inf while h / lambda stays finite: a
        NumericalError before any factorization and without a warning, not
        a factorization of an infinite diagonal."""
        X, Y, kx, ky, _ = random_instance(rng, 6, 1, 1)
        system = build_gram_system(X, Y, kx, ky, BaseDensity())
        factored = []
        monkeypatch.setattr(openblas, "dpotrf", lambda *args: factored.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="n \\* lambda overflows"):
                _ridge_solve(system.G, system.h, lam, len(Y))
        assert factored == []

    def test_scipy_checks_nothing_again(self, rng, monkeypatch):
        """G and h are checked when the GramSystem is built, and h / lambda,
        the ridge and each residual by _ridge_solve, so the solve calls
        LAPACK and BLAS directly, without scipy's finiteness scan and its
        boolean array: one dpotrf, one dpotrs and one dsymv, each on G's
        own memory, with no copy of it."""
        X, Y, kx, ky, lam = random_instance(rng, 6, 1, 1)
        system = build_gram_system(X, Y, kx, ky, BaseDensity())
        seen = []

        def recording(name):
            real = getattr(openblas, name)

            def call(A, *args):
                seen.append((name, A.flags.f_contiguous
                             and np.shares_memory(A, system.G)))
                return real(A, *args)
            monkeypatch.setattr(openblas, name, call)

        for name in ("cho_factor", "cho_solve"):
            monkeypatch.setattr(scipy.linalg, name, None)
        for name in ("dpotrf", "dpotrs", "dsymv"):
            recording(name)
        _ridge_solve(system.G, system.h, lam, len(Y))
        assert seen == [("dpotrf", True), ("dpotrs", True), ("dsymv", True)]

    def test_indefinite_G_escalates_the_jitter_and_raises(self, rng, monkeypatch):
        """A G that is not positive semi-definite (a Gram negated): each of
        the four factorizations reports a leading minor that is not positive
        definite, and then a NumericalError, with G restored."""
        X, Y, kx, ky, _ = random_instance(rng, 40, 1, 1)
        G = -build_gram_system(X, Y, kx, ky, BaseDensity()).G
        before = G.tobytes()
        real, infos = openblas.dpotrf, []
        monkeypatch.setattr(openblas, "dpotrf", lambda A: infos.append(real(A)) or infos[-1])
        with pytest.raises(NumericalError, match="jitter escalation"):
            _ridge_solve(G, np.ones(40), 1e-6, 40)
        assert len(infos) == 4 and all(info > 0 for info in infos)
        assert G.tobytes() == before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf @ G is nan
    def test_non_finite_residual_raises(self, rng, solve_calls):
        X, Y, kx, ky, lam = random_instance(rng, 6, 1, 1)
        system = build_gram_system(X, Y, kx, ky, BaseDensity())
        calls = solve_calls(lambda k, x: np.full_like(x, np.inf))
        with pytest.raises(NumericalError, match="residual is not finite"):
            _ridge_solve(system.G, system.h, lam, len(Y))
        assert len(calls) == 1  # no refinement step on a non-finite residual

    def test_residual_left_after_three_steps_raises(self, rng, solve_calls):
        X, Y, kx, ky, lam = random_instance(rng, 6, 1, 1)
        system = build_gram_system(X, Y, kx, ky, BaseDensity())
        calls = solve_calls(lambda k, x: x * (1 + 1e-3) if k == 0 else 0 * x)
        with pytest.raises(NumericalError, match="exceeds bound"):
            _ridge_solve(system.G, system.h, lam, len(Y))
        assert len(calls) == 4  # the solve and three refinement steps


class TestRidgeSolveThroughScipyLinalg(TestRidgeSolve):
    """Every solve test again on the routes that serve a scipy without its
    wheel's OpenBLAS: scipy.linalg's wrappers, chosen by a library file
    pattern that matches nothing."""

    @pytest.fixture(autouse=True)
    def fallback(self, monkeypatch):
        routines = openblas._bind("no-such-library-*")
        for name, routine in zip(("dpotrf", "dpotrs", "dsymv"), routines):
            monkeypatch.setattr(openblas, name, routine)

    def test_the_routes_are_scipy_linalg_wrappers(self, monkeypatch):
        called = []
        for module, name in ((scipy.linalg.lapack, "dpotrf"),
                             (scipy.linalg.lapack, "dpotrs"),
                             (scipy.linalg.blas, "dsymv")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real, name=name, **kw:
                                called.append(name) or real(*args, **kw))
        A = np.asfortranarray(np.diag([4.0, 9.0]))
        assert openblas.dpotrf(A) == 0
        np.testing.assert_array_equal(openblas.dpotrs(A, np.array([4.0, 3.0])), [1.0, 1.0 / 3.0])
        np.testing.assert_array_equal(openblas.dsymv(A, np.ones(2)), [2.0, 3.0])
        assert called == ["dpotrf", "dpotrs", "dsymv"]


@pytest.mark.skipif(not openblas._lib_paths(*openblas.LIBS[1][:2]),
                    reason="scipy ships no libscipy_openblas: no ctypes routines")
def test_wheel_routines_refuse_what_they_would_misread():
    """The ctypes routines pass raw pointers, so a matrix that is not a
    square F-ordered float64 array, or a vector of another length, is a
    ValueError, never a silent copy or a read out of bounds."""
    A = np.asfortranarray(np.diag([4.0, 9.0]))
    for bad in (np.ascontiguousarray(A[:, :1].repeat(2, 1)), A.astype(np.float32),
                np.asfortranarray(np.ones((2, 3)))):
        with pytest.raises(ValueError, match="square Fortran-ordered float64"):
            openblas.dpotrf(bad)
    for routine in (openblas.dpotrs, openblas.dsymv):
        with pytest.raises(ValueError, match="length 2"):
            routine(A, np.ones(3))


class TestFitFactor:
    def test_zero_rhs_gives_zero_beta(self):
        # a single point centered at the base mode makes h vanish
        model = fit_factor(np.array([[0.5]]), np.array([[0.0]]),
                           GaussianKernelSpec([1.0]), GaussianKernelSpec([1.0]),
                           lam=0.5, base=BaseDensity(2.0))
        np.testing.assert_allclose(model.beta, [0.0], atol=1e-15)

    def test_residual_bound_random_instances(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 20))
            d = int(rng.integers(1, 3))
            p = int(rng.integers(0, 3))
            lam = float(10 ** rng.uniform(-3, 0))
            X, Y, kx, ky, _ = random_instance(rng, n, d, p)
            model = fit_factor(X, Y, kx, ky, lam)
            G = build_gram(X, Y, kx, ky)
            h = build_h(X, Y, kx, ky, model.base)
            resid = (G + n * lam * np.eye(n * d)) @ model.beta - h / lam
            assert np.linalg.norm(resid) <= 1e-8 * max(1.0, np.linalg.norm(h / lam))

    def test_beta_norm_shrinks_with_lambda(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 12, 1, 1)
        norms = []
        for lam in (1e-2, 1e-1, 1.0, 10.0):
            norms.append(np.linalg.norm(fit_factor(X, Y, kx, ky, lam).beta))
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-12

    def test_model_copies_the_rows_it_is_given(self, rng):
        """A model built from the caller's writable arrays keeps copies, so
        the caller's later writes change neither its rows nor its T, and a
        read-only view of writable rows is copied."""
        X, Y, kx, ky, lam = random_instance(rng, 6, 1, 1)
        model = fit_factor(X, Y, kx, ky, lam)
        x0, y0 = rng.normal(size=1), rng.normal(size=1)
        rows, value = (model.x_train.copy(), model.y_train.copy()), eval_T(model, x0, y0)
        X[:], Y[:] = 0.0, 0.0
        assert not np.shares_memory(model.y_train, Y)
        np.testing.assert_array_equal(model.x_train, rows[0])
        np.testing.assert_array_equal(model.y_train, rows[1])
        assert eval_T(model, x0, y0) == value
        view = Y[::-1]
        view.flags.writeable = False
        assert not np.shares_memory(fit_factor(X, view, kx, ky, lam).y_train, Y)

    def test_model_keeps_its_rows_when_their_owner_writes_them(self, rng):
        """Read-only rows that own their memory are copied too: their owner
        may make them writable again, and its writes then change neither
        the model's rows, nor their read-only flag, nor its T."""
        X, Y, kx, ky, lam = random_instance(rng, 6, 1, 1)
        X.flags.writeable = Y.flags.writeable = False
        model = fit_factor(X, Y, kx, ky, lam)
        x0, y0 = rng.normal(size=1), rng.normal(size=1)
        rows, value = model.y_train.copy(), eval_T(model, x0, y0)
        Y.flags.writeable = True
        Y[:] += 1.0
        assert not np.shares_memory(model.y_train, Y)
        assert not model.y_train.flags.writeable
        np.testing.assert_array_equal(model.y_train, rows)
        assert eval_T(model, x0, y0) == value

    def test_given_system_fits_the_same_bits(self, rng):
        X, Y, kx, ky, lam = random_instance(rng, 9, 2, 1)
        base = BaseDensity(1.5)
        system = build_gram_system(X, Y, kx, ky, base)
        # one system serves several lambdas
        for each in (lam, 10 * lam):
            given = fit_factor(X, Y, kx, ky, each, base, system=system)
            np.testing.assert_array_equal(
                given.beta, fit_factor(X, Y, kx, ky, each, base).beta)

    def test_given_system_takes_n_from_its_rows(self, rng):
        """A fit with a given system takes its ridge n * lambda from the n
        rows of its own y_train (not n * d), and a system carries no n of
        its own that could disagree with them."""
        X, Y, kx, ky, lam = random_instance(rng, 9, 2, 1)
        system = build_gram_system(X, Y, kx, ky, BaseDensity())
        with pytest.raises(TypeError):
            GramSystem(G=system.G, h=system.h, n=5)
        beta = fit_factor(X, Y, kx, ky, lam, system=system).beta
        rhs = system.h / lam
        bound = 1e-8 * max(1.0, np.linalg.norm(rhs))
        for n, holds in ((len(Y), True), (Y.size, False), (5, False)):
            resid = system.G @ beta + n * lam * beta - rhs
            assert (np.linalg.norm(resid) <= bound) == holds

    def test_non_finite_system_is_numerical_error(self, rng):
        """A GramSystem checks G and h when it is built, so a system that a
        caller hands to fit_factor gets the same typed error as an
        assembled one."""
        X, Y, kx, ky, _ = random_instance(rng, 6, 1, 1)
        system = build_gram_system(X, Y, kx, ky, BaseDensity())
        for bad in (np.nan, np.inf, -np.inf):
            G, h = system.G.copy(), system.h.copy()
            G[2, 3] = bad
            with pytest.raises(NumericalError, match="Gram matrix"):
                GramSystem(G=G, h=system.h)
            h[4] = bad
            with pytest.raises(NumericalError, match="h vector"):
                GramSystem(G=system.G, h=h)

    @pytest.mark.parametrize("entry", [(1, 3), (3, 1), (200, 5), (5, 200), (299, 290)])
    def test_gram_one_ulp_from_symmetric_is_data_error(self, rng, entry):
        """G spans three strips of 128 rows; one entry one ulp away from its
        mirror, in a diagonal block or across strips, is a data error, where
        the solve's restore would have overwritten it silently."""
        X, Y, kx, ky, lam = random_instance(rng, 150, 2, 1)
        system = build_gram_system(X, Y, kx, ky, BaseDensity())
        G = system.G.copy()
        G[entry] = np.nextafter(G[entry], np.inf)
        with pytest.raises(DataError, match="not exactly symmetric"):
            GramSystem(G=G, h=system.h)
        with pytest.raises(DataError, match="square"):
            GramSystem(G=G[:, :-1], h=system.h)
        # a symmetric G handed in read-only is copied, and solves alike
        G = system.G.copy()
        G.flags.writeable = False
        given = GramSystem(G=G, h=system.h)
        assert not np.shares_memory(given.G, G)
        assert (fit_factor(X, Y, kx, ky, lam, system=given).beta.tobytes()
                == fit_factor(X, Y, kx, ky, lam, system=system).beta.tobytes())

    def test_given_system_of_another_size_is_data_error(self, rng):
        X, Y, kx, ky, lam = random_instance(rng, 9, 2, 1)
        system = build_gram_system(X[:8], Y[:8], kx, ky, BaseDensity())
        with pytest.raises(DataError, match="n\\*d = 18"):
            fit_factor(X, Y, kx, ky, lam, system=system)

    def test_invalid_lambda(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 4, 1, 1)
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(DataError):
                fit_factor(X, Y, kx, ky, bad)

    def test_too_large_for_memory_is_data_error(self, rng, monkeypatch):
        X, Y, kx, ky, lam = random_instance(rng, 6, 2, 1)
        assert score_fit_mod._physical_memory_bytes() > 0
        fit_factor(X, Y, kx, ky, lam)
        monkeypatch.setattr(score_fit_mod, "_physical_memory_bytes", lambda: 1024)
        with pytest.raises(DataError, match="GiB"):
            fit_factor(X, Y, kx, ky, lam)
        with pytest.raises(DataError, match="n\\*d = 12"):
            build_gram(X, Y, kx, ky)

    def test_fit_needs_G_plus_the_assembly_scratch(self, rng, monkeypatch):
        """A fit holds G, h and the averaged feature's coefficients (two
        vectors of n*d) and then the assembly's scratch: five (tile, 128)
        arrays at d = 1 and numpy's buffers.  So memory for 1.5 Grams plus
        that holds it, where the former count of 2.2 Grams refused it; one
        byte less than G, the vectors and the scratch is refused before
        assembly."""
        n = 1024
        monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: 1)
        gram = n * n * 8
        scratch = score_fit_mod._scratch_bytes(n, n, 5)
        tile = score_fit_mod._WORKER_SCRATCH // (5 * 128 * 8)
        assert scratch == 5 * tile * 128 * 8 + score_fit_mod._WORKER_BUFFERS
        need = gram + 16 * n + scratch
        assert 1.5 * gram + scratch < 2.2 * gram
        X, Y, kx, ky, lam = random_instance(rng, n, 1, 1)
        monkeypatch.setattr(score_fit_mod, "_physical_memory_bytes",
                            lambda: int(1.5 * gram) + scratch)
        fit_factor(X, Y, kx, ky, lam)
        monkeypatch.setattr(score_fit_mod, "_physical_memory_bytes", lambda: need)
        fit_factor(X, Y, kx, ky, lam)
        monkeypatch.setattr(score_fit_mod, "_physical_memory_bytes",
                            lambda: need - 1)
        monkeypatch.setattr(score_fit_mod, "kernel_matrix", None)  # no assembly
        with pytest.raises(DataError, match="n\\*d = 1024"):
            fit_factor(X, Y, kx, ky, lam)

    def test_beta_length_validation(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 4, 2, 1)
        with pytest.raises(DataError):
            FactorModel(x_train=X, y_train=Y, kernel_x=kx, kernel_y=ky,
                        lam=0.1, beta=np.zeros(5))


class TestEvalT:
    def test_zero_beta_reduces_to_xi_term(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 5, 2, 2)
        lam = 0.3
        model = FactorModel(x_train=X, y_train=Y, kernel_x=kx, kernel_y=ky,
                            lam=lam, beta=np.zeros(10))
        x0, y0 = rng.normal(size=2), rng.normal(size=2)
        expect = -xi_terms(X, Y, kx, ky, model.base, x0, y0)[0] / lam
        assert eval_T(model, x0, y0) == pytest.approx(expect, rel=1e-12)

    def test_constant_kernel_is_x_invariant(self, rng):
        n, d = 6, 1
        Y = rng.normal(size=(n, d))
        X = rng.normal(size=(n, 2))  # stored but never used by the kernel
        model = FactorModel(x_train=X, y_train=Y, kernel_x=ConstantKernel(1.7),
                            kernel_y=GaussianKernelSpec([1.0]), lam=0.2,
                            beta=rng.normal(size=n * d))
        for _ in range(100):
            x1, x2 = rng.normal(size=2), rng.normal(size=2)
            y0 = rng.normal(size=d)
            assert abs(eval_T(model, x1, y0) - eval_T(model, x2, y0)) <= 1e-10

    def test_matches_brute_force_expansion(self, rng):
        for _ in range(5):
            model = fit_random(rng, n=7, d=2, p=2, lam=0.15)
            x0, y0 = rng.normal(size=2), rng.normal(size=2)
            assert abs(eval_T(model, x0, y0) - brute_eval_T(model, x0, y0)) < 1e-10

    def test_fitted_constant_kernel_model_is_x_invariant(self, rng):
        n, d = 10, 1
        Y = rng.normal(size=(n, d))
        model = fit_factor(np.empty((n, 0)), Y, ConstantKernel(),
                           GaussianKernelSpec([1.0]), lam=0.1)
        for _ in range(20):
            y0 = rng.normal(size=d)
            # the conditioning point is empty; the fitted map must not vary
            a = eval_T(model, None, y0)
            b = eval_T(model, np.empty(0), y0)
            assert abs(a - b) <= 1e-10


class TestDerivativesOfT:
    def test_gradient_and_second_match_finite_differences(self, rng):
        model = fit_random(rng, n=8, d=2, p=1, lam=0.1)
        x0, y0 = rng.normal(size=1), rng.normal(size=2)
        f = lambda y: eval_T(model, x0, y)
        _, grad, second = T_terms(model, x0, y0)
        np.testing.assert_allclose(grad, fd_gradient(f, y0), rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(second, fd_second(f, y0), rtol=1e-4, atol=1e-6)
        _, grad_alone, _ = _T_terms(model, point(x0), point(y0),
                                    want_value=False, want_grad=True)
        np.testing.assert_allclose(grad_alone[0], grad, rtol=1e-14)

    def test_zero_beta_model_derivatives_reduce_to_xi(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 6, 2, 1)
        lam = 0.4
        model = FactorModel(x_train=X, y_train=Y, kernel_x=kx, kernel_y=ky,
                            lam=lam, beta=np.zeros(12))
        x0, y0 = rng.normal(size=1), rng.normal(size=2)
        _, grad, second = T_terms(model, x0, y0)
        _, xg, xs = xi_terms(X, Y, kx, ky, model.base, x0, y0)
        for j in range(2):
            assert grad[j] == pytest.approx(-xg[j] / lam, rel=1e-12)
            assert second[j] == pytest.approx(-xs[j] / lam, rel=1e-12)

    def test_one_dim_second_derivative_nested_differences(self, rng):
        model = fit_random(rng, n=10, d=1, p=1, lam=0.05)
        x0, y0 = rng.normal(size=1), rng.normal(size=1)
        h = 1e-4
        g = lambda y: eval_T(model, x0, np.atleast_1d(y))
        nested = (g(y0 + h) - 2 * g(y0) + g(y0 - h)) / h**2
        _, _, second = T_terms(model, x0, y0)
        assert second[0] == pytest.approx(float(nested), rel=1e-4, abs=1e-6)


class TestCrossTBlocks:
    def test_matches_brute_force_at_every_pair(self, rng, monkeypatch):
        model = fit_random(rng, n=7, d=2, p=2, lam=0.15)
        X_rows, Y_set = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))
        monkeypatch.setattr(score_fit_mod, "_IS_CHUNK", 2)
        blocks = list(cross_T_blocks(model, X_rows, Y_set))
        assert [sl for sl, _ in blocks] == [slice(0, 2), slice(2, 4), slice(4, 5)]
        full = np.hstack([block for _, block in blocks])
        assert full.shape == (3, 5)
        for r in range(3):
            for s in range(5):
                expect = brute_eval_T(model, X_rows[r], Y_set[s])
                assert abs(full[r, s] - expect) < 1e-10


class TestCrossWeights:
    """The blocks of T that IS and the grid sampler take from
    ``cross_T_blocks``, bit for bit against ``cross_T_reference`` on each
    route, and within a tolerance of k_X @ (k_Y * weight) from the
    unblocked expression ref_kernel(...) * ref_weight(...)."""

    @staticmethod
    def weights(model, Y_set):
        a, e = score_fit_mod._model_coeffs(model)
        return (ref_kernel(model.kernel_y, model.y_train, Y_set)
                * ref_weight(ref_diffs(model.y_train, Y_set),
                             model.kernel_y.variances, a, e, 0, 0))

    @pytest.mark.parametrize("chunk", [300, 2048])
    @pytest.mark.parametrize("p", [0, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cross_T_blocks_are_gemms_of_the_reference(self, rng, monkeypatch,
                                                       d, p, chunk):
        """At n = 9 the cap is one pivot: the constant k_X of a parentless
        model is rank 1 and takes the stacked factor route, 2 parents take
        k_X."""
        model = fit_random(rng, n=9, d=d, p=p, lam=0.05)
        S = 2 * chunk + 41  # the last chunk is partial, and so is its last block
        X_rows, Y_set = rng.normal(size=(4, p)), 2.0 * rng.normal(size=(S, d))
        W = self.weights(model, Y_set)
        kx = kernel_matrix(model.kernel_x, model.x_train, X_rows)
        factor = score_fit_mod._kx_factor(model)
        assert (factor is None) == (p > 0)
        monkeypatch.setattr(score_fit_mod, "_IS_CHUNK", chunk)
        # collected first: a block that aliased scratch reused across chunks
        # would be overwritten by the chunks after it
        blocks = list(cross_T_blocks(model, X_rows, Y_set))
        assert [sl for sl, _ in blocks] == [slice(0, chunk), slice(chunk, 2 * chunk),
                                            slice(2 * chunk, S)]
        for sl, block in blocks:
            assert np.array_equal(block, cross_T_reference(model, X_rows, Y_set, sl))
            assert np.all(np.abs(block - kx.T @ W[:, sl])
                          <= 1e-10 * (np.abs(kx.T) @ np.abs(W[:, sl])))
        for (_, first), (_, second) in itertools.combinations(blocks, 2):
            assert not np.shares_memory(first, second)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cross_T_blocks_do_not_depend_on_worker_count(self, rng, monkeypatch,
                                                          d, workers):
        """Each chunk of draws is one ``_in_blocks`` call over its blocks of
        ``_CROSS_BLOCK`` draws, on as many threads as the CPUs and the
        blocks allow: the 16 blocks of a full chunk take every CPU up to 16,
        and the last chunk, blocks of 128, 128 and 1 draws, three.  Two
        parents at n = 10 take k_X, a parentless model the stacked route."""
        chunk = score_fit_mod._IS_CHUNK
        S = chunk + 2 * score_fit_mod._CROSS_BLOCK + 1  # the last block has 1 draw
        monkeypatch.setattr(score_fit_mod, "_POOL_ROWS", 1)
        monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: workers)
        calls, pools = [], []
        real_in_blocks = score_fit_mod._in_blocks
        real_pool = score_fit_mod.ThreadPoolExecutor

        def recording_in_blocks(work, size, *args, **kwargs):
            done = []
            calls.append((size, done))
            real_in_blocks(lambda lo, hi, scratch: (done.append((lo, hi)),
                                                    work(lo, hi, scratch)),
                           size, *args, **kwargs)

        def recording_pool(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(score_fit_mod, "_in_blocks", recording_in_blocks)
        monkeypatch.setattr(score_fit_mod, "ThreadPoolExecutor", recording_pool)
        for p in (2, 0):
            model = fit_random(rng, n=10, d=d, p=p, lam=0.05)
            X_rows, Y_set = rng.normal(size=(4, p)), 2.0 * rng.normal(size=(S, d))
            calls.clear()
            pools.clear()
            blocks = list(cross_T_blocks(model, X_rows, Y_set))
            assert [sl for sl, _ in blocks] == [slice(0, chunk), slice(chunk, S)]
            for sl, block in blocks:
                assert np.array_equal(block, cross_T_reference(model, X_rows, Y_set, sl))
            # every block of each chunk once, in any order
            assert [size for size, _ in calls] == [chunk, S - chunk]
            for size, done in calls:
                assert sorted(done) == score_fit_mod._blocks(size, 128)
            assert pools == {1: [], 2: [2, 2], 3: [3, 3], 8: [8, 3]}[workers]

    def test_pooling_follows_the_work_of_a_block(self, rng, monkeypatch):
        """A block's work is its n training rows times (1 + the R rows of its
        GEMM): at n = 500 the 500 rows of a test set reach ``_POOL_ROWS``
        and pool, one conditioning row (a parentless node) does not."""
        model = fit_random(rng, n=500, d=1, p=1, lam=0.05)
        Y_set = rng.normal(size=(300, 1))
        monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: 2)
        pools = []
        real = score_fit_mod.ThreadPoolExecutor

        def recording(max_workers):
            pools.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(score_fit_mod, "ThreadPoolExecutor", recording)
        for R, expect in ((500, [2]), (1, [])):
            pools.clear()
            list(cross_T_blocks(model, rng.normal(size=(R, 1)), Y_set))
            assert pools == expect, R

    def test_more_workers_than_cores_under_fast_thread_switching(self, rng,
                                                                 monkeypatch):
        """Eight workers, one per CPU, share the blocks of each chunk while
        the interpreter switches threads every microsecond; a GEMM that read
        k_Y or weights of another worker's block, or a column left unwritten,
        would change the blocks.  Two parents at n = 20 take k_X, a
        parentless model the stacked route."""
        models = [fit_random(rng, n=20, d=2, p=p, lam=0.05) for p in (2, 0)]
        X_rows, Y_set = rng.normal(size=(5, 2)), 2.0 * rng.normal(size=(3000, 2))
        monkeypatch.setattr(score_fit_mod, "_POOL_ROWS", 1)
        monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: 8)
        blocks = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: blocks.extend(
                [list(cross_T_blocks(model, X_rows[:, :model.p], Y_set))
                 for model in models]))
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        for model, model_blocks in zip(models, blocks, strict=True):
            assert [sl for sl, _ in model_blocks] == [slice(0, 2048), slice(2048, 3000)]
            for sl, block in model_blocks:
                assert np.array_equal(
                    block, cross_T_reference(model, X_rows[:, :model.p], Y_set, sl))


class TestKxFactor:
    """IS takes k_X through a pivoted Cholesky factor when pivoting reaches
    its tolerance within n // 8 pivots, and takes k_X itself otherwise: one
    fixture of each route with one parent, one with two parents."""

    # n, parents, x bandwidth, whether the factor route is taken
    CASES = {"p1": (240, 1, 1.2, True), "p2": (800, 2, 3.0, True),
             "cap": (200, 1, 0.05, False)}

    @staticmethod
    def model(case, d=1, y_bandwidth=1.0):
        n, p, bw, _ = TestKxFactor.CASES[case]
        rng = np.random.default_rng(31)
        return FactorModel(x_train=rng.normal(size=(n, p)), y_train=rng.normal(size=(n, d)),
                           kernel_x=GaussianKernelSpec(np.full(p, bw)),
                           kernel_y=GaussianKernelSpec(np.full(d, y_bandwidth)), lam=0.05,
                           beta=0.1 * rng.normal(size=n * d))

    @staticmethod
    def outlier(case, d, y_bandwidth=1.0):
        """The model of ``case`` with its first training y moved to 6 in
        every dimension, and 2301 draws: 1500 from the base density and 401
        along each of two diagonals out to ±16, 8 base stds."""
        model = TestKxFactor.model(case, d, y_bandwidth)
        y_train = model.y_train.copy()
        y_train[0] = 6.0
        rng = np.random.default_rng(5)
        line = np.linspace(-16.0, 16.0, 401)[:, None]
        Y_set = np.vstack([2.0 * rng.normal(size=(1500, d)), line * np.ones(d),
                           line * np.where(np.arange(d) % 2, -1.0, 1.0)])
        return dataclasses.replace(model, y_train=y_train), Y_set

    @pytest.mark.parametrize("case", CASES)
    def test_pivoting_stops_at_the_tolerance_or_the_cap(self, monkeypatch, case):
        model = self.model(case)
        factor = score_fit_mod._kx_factor(model)
        assert (factor is not None) == self.CASES[case][3]
        monkeypatch.setattr(score_fit_mod, "_RANK_CAP", 1)  # pivoting to the end
        pivots, Lt = score_fit_mod._kx_factor(model)
        assert (len(pivots) <= model.n // 8) == self.CASES[case][3]
        assert len(set(pivots)) == len(pivots) and Lt.shape == (len(pivots), model.n)
        K = kernel_matrix(model.kernel_x, model.x_train, model.x_train)
        assert np.max(np.abs(K - Lt.T @ Lt)) <= 2e-13
        # the training rows by forward substitution give k_X back as well
        ell = score_fit_mod._kx_rows(model, pivots, Lt, model.x_train)
        assert np.max(np.abs(K - ell.T @ Lt)) <= 2e-13

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("case", CASES)
    def test_a_row_keeps_its_bits_with_a_one_draw_block(self, case, d):
        """129 draws make a block of 128 draws and one of a single draw,
        whose k_Y, weights and GEMMs have one column (a matrix-vector product
        in OpenBLAS).  On each route (p1 stacked, p2 through the weights,
        cap exact) a row's T has the same bits alone, in slices of 3 rows
        and among all 20 rows permuted."""
        model = self.model(case, d)
        rng = np.random.default_rng(8)
        X_rows, Y_set = rng.normal(size=(20, model.p)), 2.0 * rng.normal(size=(129, d))
        blocks = score_fit_mod._cross_T(model)
        [(_, whole)] = blocks(X_rows, Y_set)
        perm = rng.permutation(20)
        parts = [(np.arange(r, r + 1), X_rows[r:r + 1]) for r in range(20)]
        parts += [(np.arange(lo, min(lo + 3, 20)), X_rows[lo:lo + 3])
                  for lo in range(0, 20, 3)]
        for rows, X in parts + [(perm, X_rows[perm])]:
            [(_, got)] = blocks(X, Y_set)
            assert got.tobytes() == whole[rows].tobytes(), (case, rows)

    @pytest.mark.parametrize("case", CASES)
    def test_routes_agree(self, case):
        """Each route is ``cross_T_reference`` bit for bit (p1 at rank 16 the
        stacked GEMM, p2 at rank 77 Lᵀ @ W, the capped model k_X @ W) and
        within 1e-10 of k_X @ W, relative to the summed magnitudes
        |k_X|·|W|.  A GEMM's sizes can change its bits, so the reference
        takes IS's blocks of draws and of rows."""
        model = self.model(case)
        rng = np.random.default_rng(5)
        X_rows = rng.normal(size=(6, model.p))
        S = 2 * score_fit_mod._IS_CHUNK + 300
        Y_set = 2.0 * rng.normal(size=(S, 1))
        W = TestCrossWeights.weights(model, Y_set)
        kxT = kernel_matrix(model.kernel_x, X_rows, model.x_train)
        full = []
        for sl, block in cross_T_blocks(model, X_rows, Y_set):
            assert np.array_equal(block, cross_T_reference(model, X_rows, Y_set, sl))
            full.append(block)
        full = np.hstack(full)
        assert np.all(np.abs(full - kxT @ W) <= 1e-10 * (np.abs(kxT) @ np.abs(W)))
        factor = score_fit_mod._kx_factor(model)
        assert (factor is None) == (case == "cap")
        stacked = factor is not None and len(factor[0]) <= score_fit_mod._STACK_RANK
        assert stacked == (case == "p1")

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("case", CASES)
    def test_T_agrees_with_the_paired_sums(self, case, d):
        """On each route T agrees with ``_T_terms``, the paired sums that
        ``unnorm_logpdf_rows`` takes, within 1e-12 of the summed magnitudes
        of the weight's terms, sum_b |k_X| k_Y (|c0_b| + sum_l |c1_bl y_l| +
        |e| q(y)).  One training y sits at 6 in every dimension, and the
        draws reach ±16 along two diagonals (``outlier``), where the terms
        of the quadratic in y cancel most."""
        self.check_T_against_the_paired_sums(case, d, y_bandwidth=1.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("case", CASES)
    def test_T_agrees_with_the_paired_sums_on_a_narrow_y_kernel(self, case, d):
        """The same bound at y bandwidth 0.25 (bandwidth scale 0.25), where
        the terms of k_Y's exponent, u_b + a_b · y + v(y), are 16 times
        those at bandwidth 1."""
        self.check_T_against_the_paired_sums(case, d, y_bandwidth=0.25)

    def check_T_against_the_paired_sums(self, case, d, y_bandwidth):
        model, Y_set = self.outlier(case, d, y_bandwidth)
        X_rows = np.random.default_rng(5).normal(size=(6, model.p))
        S = len(Y_set)
        T = np.hstack([block for _, block in cross_T_blocks(model, X_rows, Y_set)])
        paired = np.vstack([
            _T_terms(model, np.repeat(X_rows[r:r + 1], S, axis=0), Y_set)[0]
            for r in range(len(X_rows))])
        c0, c1, e = form_coefficients(model)
        terms = (np.abs(c0)[:, None] + np.abs(c1) @ np.abs(Y_set.T)
                 + abs(e) * np.sum((Y_set / model.kernel_y.variances) ** 2, axis=1))
        magnitude = (ref_kernel(model.kernel_x, X_rows, model.x_train)
                     @ (ref_kernel(model.kernel_y, model.y_train, Y_set) * terms))
        # plus the smallest normal double: at bandwidth 0.25 the magnitudes
        # far from the training y are subnormal, down to 1e-323, where both
        # sums keep few bits (at bandwidth 1 they stay above 1e-153)
        assert np.all(np.abs(T - paired) <= 1e-12 * magnitude + np.finfo(float).tiny)
        factor = score_fit_mod._kx_factor(model)
        route = ("cap" if factor is None else
                 "p1" if len(factor[0]) <= score_fit_mod._STACK_RANK else "p2")
        assert route == case

    @pytest.mark.parametrize("y_bandwidth", [1.0, 0.25, 0.1])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_k_Y_of_one_gemm_is_within_its_exponent_error(self, d, y_bandwidth):
        """k_Y as IS and the grid sampler build it (``gemm_ky``, which the
        reference tests tie to ``cross_T_blocks`` bit for bit) is within 4
        eps (1 + |u_b| + |a_b · y| + |v(y)|) of kernel_matrix's value,
        relative to the larger of the two, plus the smallest normal double,
        below which exp's results are subnormal: the GEMM rounds each of
        the exponent's terms, not their sum.  On the outlier fixture the
        largest |ΔK| at d = 1 is 1.4e-15, 1.9e-14 and 2.3e-13 at bandwidths
        1, 0.25 and 0.1, and at most 2.6 times eps (...) for every d."""
        model, Y_set = self.outlier("p1", d, y_bandwidth)
        s2, Y_train = model.kernel_y.variances, model.y_train
        ky = gemm_ky(model, Y_set)
        exact = kernel_matrix(model.kernel_y, Y_train, Y_set)
        terms = (np.sum(Y_train * Y_train / (2.0 * s2), axis=1)[:, None]
                 + np.abs(Y_train / s2) @ np.abs(Y_set.T)
                 + np.sum(Y_set * Y_set / (2.0 * s2), axis=1))
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        assert np.all(np.abs(ky - exact)
                      <= 4.0 * eps * (1.0 + terms) * np.maximum(ky, exact) + tiny)
        assert np.max(np.abs(ky - exact)) > 0  # the two routes do differ

    def test_factor_route_builds_no_k_X(self, monkeypatch):
        """Beside the pivoting's columns of k_X, the factor route builds only
        k_X between the pivots and the rows, (m × R), never (R × n)."""
        model = self.model("p1")
        X_rows = np.random.default_rng(5).normal(size=(7, 1))
        shapes = []
        real = score_fit_mod.kernel_matrix

        def recording(spec, A, B, *args, **kwargs):
            out = real(spec, A, B, *args, **kwargs)
            if spec is model.kernel_x:
                shapes.append(out.shape)
            return out

        m = len(score_fit_mod._kx_factor(model)[0])
        monkeypatch.setattr(score_fit_mod, "kernel_matrix", recording)
        list(cross_T_blocks(model, X_rows, np.zeros((5, 1))))
        assert shapes == [(1, 1)] + [(1, model.n)] * m + [(m, 7)]


class TestWorkerCount:
    """The assembly and the paired T sums split their columns into blocks of
    ``_CROSS_BLOCK`` across ``_worker_count`` threads; every output equals
    the all-at-once reference bit for bit, whatever the worker count."""

    WORKERS = [1, 2, 3, 8]

    @pytest.fixture(autouse=True)
    def small_blocks_may_pool(self, monkeypatch):
        monkeypatch.setattr(score_fit_mod, "_POOL_ROWS", 1)

    def test_a_lone_column_sums_in_row_order(self, rng):
        """``_sum_rows`` adds the rows of a 1-column block one after another,
        as numpy adds those of a wider block: the lone column's sum, in tiles
        of 1, 7 and all 1000 rows carried from tile to tile, has the bits of
        that column's sum inside a 128-column block, where numpy's pairwise
        sum of the column alone has others.  The blocks themselves are plain
        ``_CROSS_BLOCK``-column blocks, the last narrower."""
        assert score_fit_mod._blocks(0, 128) == []
        assert score_fit_mod._blocks(1, 128) == [(0, 1)]
        assert score_fit_mod._blocks(129, 128) == [(0, 128), (128, 129)]
        assert score_fit_mod._blocks(300, 128) == [(0, 128), (128, 256), (256, 300)]
        W = rng.normal(size=(1000, 128))
        wide = np.empty(128)
        score_fit_mod._sum_rows(W.copy(), wide, False)
        columns = range(0, 128, 8)
        assert any(np.sum(W[:, c]) != wide[c] for c in columns)
        for tile, c in itertools.product((1, 7, 1000), columns):
            lone = np.empty(1)
            for start in range(0, len(W), tile):
                score_fit_mod._sum_rows(W[start:start + tile, c:c + 1].copy(), lone,
                                        start > 0)
            assert lone.tobytes() == wide[c:c + 1].tobytes(), (tile, c)

    def test_block_plan_counts_the_blocks_by_arithmetic(self, monkeypatch):
        """With a CPU for every block, ``_block_plan`` gives one worker per
        block of ``_blocks`` at ``_CROSS_BLOCK`` columns, from the sizes
        alone: ``_blocks(131, 128)`` is 2 blocks, so 2 workers.  Rows this
        few are one tile."""
        monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: 10**6)
        buffers = score_fit_mod._WORKER_BUFFERS
        assert score_fit_mod._block_plan(0, 1, 1) == (1, 1)
        # no list of blocks: a pre-flight may ask about any size
        assert score_fit_mod._block_plan(10**18 + 1, 1, 1) == (10**6, 1)
        assert (score_fit_mod._scratch_bytes(10**18 + 1, 3, 2)
                == 10**6 * (2 * 3 * 128 * 8 + buffers))
        for block in (128, 3, 1):
            monkeypatch.setattr(score_fit_mod, "_CROSS_BLOCK", block)
            for size in (1, 2, 3, 4, 7, 127, 128, 129, 130, 131, 256, 257, 300, 2177):
                blocks = score_fit_mod._blocks(size, block)
                assert score_fit_mod._block_plan(size, 1, 1) == (len(blocks), 1)
                widest = max(hi - lo for lo, hi in blocks)
                assert (score_fit_mod._scratch_bytes(size, 3, 2)
                        == len(blocks) * (2 * 3 * widest * 8 + buffers)), (block, size)
        assert score_fit_mod._scratch_bytes(0, 1, 1) == buffers

    def test_tiles_cap_the_scratch_of_a_worker(self):
        """A tile takes as many training rows as keep a worker's arrays
        within ``_WORKER_SCRATCH`` (1 MiB): 204 rows for the assembly's five
        arrays at d = 1 and 146 for CV's scoring pass's seven, at any n.  A
        GEMM adds its full-height operand, a 1-column block takes tiles 128
        times as tall, and a block with no arrays is one tile."""
        def tile(rows, arrays, size=1000, **plan):
            return score_fit_mod._block_plan(size, rows, arrays, **plan)[1]

        assert score_fit_mod._WORKER_SCRATCH == 2**20
        assert tile(100, 5) == 100
        assert tile(2000, 5) == tile(10**6, 5) == 204
        assert tile(2000, 7) == 146
        # cross_T_blocks: the weight's quadratic at d = 1, and a term beside
        # it at d > 1; the stacked route holds no array and takes one tile
        assert tile(2000, 1, gemm_rows=500) == 1024
        assert tile(2000, 2) == tile(2000, 2, gemm_rows=500) == 512
        assert tile(2000, 0, gemm_rows=500) == 2000 and tile(10**6, 0) == 10**6
        assert tile(2000, 5, size=129) == 204  # blocks of 128 columns and of 1
        assert tile(10**6, 5, size=1) == 2**20 // (5 * 8) == 26214
        assert (score_fit_mod._scratch_bytes(1000, 2000, 3, gemm_rows=500)
                - score_fit_mod._scratch_bytes(1000, 2000, 3)
                == score_fit_mod._block_plan(1000, 2000, 3)[0] * 2000 * 128 * 8)

    @pytest.mark.parametrize("d", [1, 2])
    def test_the_tile_height_changes_no_bit(self, rng, monkeypatch, d):
        """Tiles of 1 row, of 7 rows (the assembly's and one model's sums;
        other calls take the tiles that the same cap gives their arrays)
        and tiles of all n rows give the same bytes: G, h and beta, T's
        value, grad and second (also at one row, a 1-column block), the score of 1 and of 8 models and every IS block.  n =
        19 * 7 + 1, so the assembly's last 7-row tile has one row next to
        the carried sum, as every tile of 1 row does; the tiled runs take 2
        workers."""
        n, R = 134, 300
        X, Y, kx, ky, _ = random_instance(rng, n, d, 2)
        lams = np.geomspace(1e-3, 1.0, 8)
        X_eval, Y_eval = rng.normal(size=(R, 2)), 1.5 * rng.normal(size=(R, d))

        def outputs():
            system = build_gram_system(X, Y, kx, ky, BaseDensity())
            models = [fit_factor(X, Y, kx, ky, lam, system=system) for lam in lams]
            return [system.G, system.h, models[0].beta,
                    *score_fit_mod._T_terms(models[0], X_eval, Y_eval, True, True, True),
                    *score_fit_mod._T_terms(models[0], X_eval[:1], Y_eval[:1], True, True, True),
                    np.array([empirical_score(models[0], X_eval, Y_eval)]),
                    np.array(empirical_score(models, X_eval, Y_eval)),
                    *(block for _, block in cross_T_blocks(models[0], X_eval, Y_eval))]

        monkeypatch.setattr(score_fit_mod, "_WORKER_SCRATCH", 2**40)
        assert score_fit_mod._block_plan(R, n, score_fit_mod._block_arrays(d, 8))[1] == n
        whole = outputs()
        monkeypatch.setattr(score_fit_mod, "_POOL_ROWS", 1)
        monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: 2)
        seven = 7 * score_fit_mod._block_arrays(d) * 128 * 8
        for cap, tile in ((1, 1), (seven, 7)):
            monkeypatch.setattr(score_fit_mod, "_WORKER_SCRATCH", cap)
            assert score_fit_mod._block_plan(n, n, score_fit_mod._block_arrays(d))[1] == tile
            assert n % tile == 1 % tile
            for got, expect in zip(outputs(), whole, strict=True):
                assert got.tobytes() == expect.tobytes(), (cap, d)

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("d", [1, 2])
    def test_gram_system(self, rng, monkeypatch, d, workers):
        n = 257  # three blocks: 128, 128 and 1 column
        X, Y, kx, ky, _ = random_instance(rng, n, d, 2)
        base = BaseDensity()
        G, h = ref_gram_system(X, Y, kx, ky, base)
        monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: workers)
        system = build_gram_system(X, Y, kx, ky, base)
        assert np.array_equal(system.G, G)
        assert np.array_equal(system.h, h)

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("d", [1, 2])
    def test_paired_sums(self, rng, monkeypatch, d, workers):
        model = fit_random(rng, n=257, d=d, p=2, lam=0.05)
        monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: workers)
        # one column; 128 + 1; 128 + 128 + 1; five blocks of 128 and a 1
        for R in (1, 129, 257, 641):
            X_eval, Y_eval = rng.normal(size=(R, 2)), 1.5 * rng.normal(size=(R, d))
            value, grad, second = ref_T_terms(model, X_eval, Y_eval)
            c = model.base.grad_log(Y_eval)
            score = float(np.mean(np.sum(0.5 * grad**2 + second + c * grad, axis=1)))
            assert empirical_score(model, X_eval, Y_eval) == score
            assert np.array_equal(unnorm_logpdf_rows(model, X_eval, Y_eval),
                                  model.base.log_pdf_rows(Y_eval) + value)
            kx_pair = kernel_matrix(model.kernel_x, model.x_train, X_eval)
            got = score_fit_mod._T_terms(model, X_eval, Y_eval, want_value=True,
                                         want_grad=True, kx_pair=kx_pair)
            assert np.array_equal(got[0], value)
            assert np.array_equal(got[1], grad)
            assert got[2] is None

    @pytest.mark.parametrize("d", [1, 2])
    def test_a_row_keeps_its_bits_alone_and_among_other_rows(self, rng, monkeypatch, d):
        """A row's T, its gradient and second derivative, its unnormalized
        log-density and ``eval_T`` are the same bits alone as among R rows,
        for R = 1 (a 1-column block), 2, 129 (blocks of 128 and 1) and 257
        (128, 128 and 1), on 2 workers and in tiles of training rows: every
        column of every block is summed over the training rows in order."""
        model = fit_random(rng, n=300, d=d, p=2, lam=0.05)
        monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: 2)
        assert score_fit_mod._block_plan(128, 300, score_fit_mod._block_arrays(d))[1] < 300
        for R in (1, 2, 129, 257):
            X_eval, Y_eval = rng.normal(size=(R, 2)), 1.5 * rng.normal(size=(R, d))
            among = score_fit_mod._T_terms(model, X_eval, Y_eval, True, True, True)
            logpdf = unnorm_logpdf_rows(model, X_eval, Y_eval)
            for r in range(R):
                rows = slice(r, r + 1)
                alone = score_fit_mod._T_terms(model, X_eval[rows], Y_eval[rows],
                                               True, True, True)
                for got, expect in zip(alone, among, strict=True):
                    assert got.tobytes() == expect[rows].tobytes(), (R, r)
                assert (unnorm_logpdf_rows(model, X_eval[rows], Y_eval[rows]).tobytes()
                        == logpdf[rows].tobytes()), (R, r)
                assert eval_T(model, X_eval[r], Y_eval[r]) == among[0][r], (R, r)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_keep_the_callers_error_state(self, monkeypatch, workers):
        """Rows ten times wider than the 0.5 bandwidths make exp underflow
        in k_X and k_Y.  Under np.errstate(under="raise") the assembly and
        the paired sums raise on one worker and on a pool of two alike: each
        block runs in a copy of the caller's context, where numpy keeps its
        error state."""
        X = Y = np.random.default_rng(0).normal(size=(1100, 1)) * 10
        kx = ky = GaussianKernelSpec([0.5])
        base = BaseDensity()
        monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: workers)
        assert score_fit_mod._block_plan(1100, 1100, score_fit_mod._block_arrays(1))[0] == workers
        with np.errstate(under="raise"):
            with pytest.raises(FloatingPointError, match="underflow"):
                build_gram_system(X, Y, kx, ky, base)
            with pytest.raises(FloatingPointError, match="underflow"):
                _pair_sums(X, Y, kx, ky, [_xi_coeffs(Y, base)], X, Y)

    def test_a_pool_starts_only_for_two_blocks_of_enough_rows(self, rng,
                                                               monkeypatch):
        model = fit_random(rng, n=20, d=1, p=1, lam=0.05)
        monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: 8)
        pools = []
        real = score_fit_mod.ThreadPoolExecutor

        def recording(max_workers):
            pools.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(score_fit_mod, "ThreadPoolExecutor", recording)
        for rows in (20, 21):  # the blocks have n = 20 rows
            monkeypatch.setattr(score_fit_mod, "_POOL_ROWS", rows)
            for R, expect in ((100, []), (129, [2]), (257, [3]), (641, [6])):
                pools.clear()
                X_eval, Y_eval = rng.normal(size=(R, 1)), rng.normal(size=(R, 1))
                empirical_score(model, X_eval, Y_eval)
                assert pools == (expect if rows == 20 else [])

    def test_more_workers_than_cores_under_fast_thread_switching(self, rng,
                                                                 monkeypatch):
        """With 8 CPUs, four workers share the four column blocks of one G
        and one h, and five share the five row blocks of one grad, while the
        interpreter switches threads every microsecond; a block written
        twice, left unwritten or computed in scratch that another worker
        holds would change the bits."""
        n, R = 4 * score_fit_mod._CROSS_BLOCK + 1, 5 * score_fit_mod._CROSS_BLOCK
        X, Y, kx, ky, _ = random_instance(rng, n, 1, 1)
        base = BaseDensity()
        G, h = ref_gram_system(X, Y, kx, ky, base)
        model = fit_random(rng, n=300, d=2, p=1, lam=0.05)
        X_eval, Y_eval = rng.normal(size=(R, 1)), rng.normal(size=(R, 2))
        grad = ref_T_terms(model, X_eval, Y_eval)[1]
        monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: 8)
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: got.extend((
                build_gram_system(X, Y, kx, ky, base),
                score_fit_mod._T_terms(model, X_eval, Y_eval, want_value=False,
                                       want_grad=True)[1])))
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        system, got_grad = got
        assert np.array_equal(system.G, G)
        assert np.array_equal(system.h, h)
        assert np.array_equal(got_grad, grad)

    def test_workers_allocate_nothing_large(self, rng, monkeypatch):
        """tracemalloc's peak up to the end of the assembly's blocks, before
        GramSystem's finiteness check: a second worker adds its scratch and
        nothing else.  The slack covers the pool's threads and small
        objects; one (n, 128) temporary per block would be 1.5 MiB."""
        n = 1536
        X, Y, kx, ky, _ = random_instance(rng, n, 1, 1)
        real = score_fit_mod._pool
        peaks = {}

        @contextlib.contextmanager
        def recording(workers):
            with real(workers) as run:
                yield run
            peaks[workers] = tracemalloc.get_traced_memory()[1]

        monkeypatch.setattr(score_fit_mod, "_pool", recording)
        tracemalloc.start()
        try:
            for workers in (1, 2):
                monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: workers)
                tracemalloc.reset_peak()
                build_gram_system(X, Y, kx, ky, BaseDensity())
        finally:
            tracemalloc.stop()
        # five (tile, 128) arrays at d = 1
        tile = score_fit_mod._block_plan(n, n, 5)[1]
        scratch = score_fit_mod._block_arrays(1) * tile * score_fit_mod._CROSS_BLOCK * 8
        assert sorted(peaks) == [1, 2]
        assert peaks[2] <= peaks[1] + scratch + 256 * 1024


class TestUnnormLogpdf:
    def zero_T_model(self, rng, d=2):
        Y = rng.normal(size=(4, d))
        return FactorModel(
            x_train=np.empty((4, 0)), y_train=Y, kernel_x=ConstantKernel(),
            kernel_y=GaussianKernelSpec(np.ones(d)), lam=1.0,
            beta=np.zeros(4 * d), xi_coeff=0.0,
        )

    def test_zero_T_reduces_to_base(self, rng):
        model = self.zero_T_model(rng)
        base = model.base
        for _ in range(10):
            y0 = rng.normal(size=2)
            got = unnorm_logpdf_rows(model, point(None), point(y0))[0]
            assert got == base.log_pdf_rows(point(y0))[0]
            # the d = 2 Gaussian log-density with std s: -log(2 pi s^2) - |y|^2 / (2 s^2)
            s2 = base.std**2
            assert got == pytest.approx(-np.log(2 * np.pi * s2) - y0 @ y0 / (2 * s2),
                                        rel=1e-14)

    def test_gradient_matches_finite_differences(self, rng):
        model = fit_random(rng, n=6, d=2, p=1, lam=0.2)
        x0, y0 = rng.normal(size=1), rng.normal(size=2)
        f = lambda y: unnorm_logpdf_rows(model, point(x0), point(y))[0]
        grad = model.base.grad_log(y0) + T_terms(model, x0, y0)[1]
        np.testing.assert_allclose(grad, fd_gradient(f, y0), rtol=1e-5, atol=1e-8)

    def test_additivity_identity(self, rng):
        model = fit_random(rng, n=5, d=1, p=1)
        x0 = rng.normal(size=1)
        y1, y2 = rng.normal(size=1), rng.normal(size=1)
        lhs = (unnorm_logpdf_rows(model, point(x0), point(y1))[0]
               - unnorm_logpdf_rows(model, point(x0), point(y2))[0])
        rhs = ((y2 @ y2 - y1 @ y1) / (2 * model.base.std**2)  # log q0(y1) - log q0(y2)
               + eval_T(model, x0, y1) - eval_T(model, x0, y2))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestEmpiricalScore:
    def test_zero_T_scores_zero(self, rng):
        Y = rng.normal(size=(5, 2))
        model = FactorModel(x_train=np.empty((5, 0)), y_train=Y,
                            kernel_x=ConstantKernel(),
                            kernel_y=GaussianKernelSpec([1.0, 1.0]),
                            lam=1.0, beta=np.zeros(10), xi_coeff=0.0)
        rows = rng.normal(size=(8, 2))
        assert empirical_score(model, np.empty((8, 0)), rows) == 0.0

    def test_nonpositive_on_training_data(self, rng):
        for _ in range(8):
            n = int(rng.integers(5, 25))
            model = fit_random(rng, n=n, d=int(rng.integers(1, 3)),
                               p=int(rng.integers(0, 3)),
                               lam=float(10 ** rng.uniform(-3, 0)))
            score = empirical_score(model, model.x_train, model.y_train)
            assert score <= 0.0

    def test_matches_finite_difference_recomputation(self, rng):
        model = fit_random(rng, n=6, d=2, p=1, lam=0.2)
        X_eval = rng.normal(size=(5, 1))
        Y_eval = rng.normal(size=(5, 2))
        total = 0.0
        for r in range(5):
            f = lambda y: eval_T(model, X_eval[r], y)
            grad = fd_gradient(f, Y_eval[r])
            sec = fd_second(f, Y_eval[r])
            c = model.base.grad_log(Y_eval[r])
            total += np.sum(0.5 * grad**2 + sec + c * grad)
        expect = total / 5
        assert empirical_score(model, X_eval, Y_eval) == pytest.approx(
            expect, rel=1e-4
        )


class TestScoreList:
    """empirical_score on a list of models that share their training set,
    as cross-validation scores each lambda of one held-out block in one
    pass, against each model scored alone, bit for bit."""

    @staticmethod
    def models(rng, n, d, p):
        """Models on one training set and one pair of kernels that differ in
        beta and lambda, as the fits of one CV fold do."""
        X, Y, kx, ky, _ = random_instance(rng, n, d, p)
        return [FactorModel(x_train=X, y_train=Y, kernel_x=kx, kernel_y=ky,
                            lam=lam, beta=rng.normal(size=n * d))
                for lam in (1e-3, 0.1, 1.0)]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_each_model_alone(self, rng, monkeypatch, d, workers):
        """n = _POOL_ROWS training rows, so two blocks run on two workers;
        R = 129 is blocks of 128 columns and of 1, R = 257 three, each in
        tiles of training rows.  The list builds each tile's
        k_X and k_Y once for all models."""
        n = score_fit_mod._POOL_ROWS
        monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: workers)
        models = self.models(rng, n, d, 2)
        real, calls = score_fit_mod.kernel_matrix, []

        def counted(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(score_fit_mod, "kernel_matrix", counted)
        for R in (129, 257):
            X_eval, Y_eval = rng.normal(size=(R, 2)), 1.5 * rng.normal(size=(R, d))
            alone = [empirical_score(model, X_eval, Y_eval) for model in models]
            calls.clear()
            assert empirical_score(models, X_eval, Y_eval) == alone
            tile = score_fit_mod._block_plan(R, n, score_fit_mod._block_arrays(d, 2))[1]
            assert len(calls) == 2 * len(score_fit_mod._blocks(R, 128)) * -(-n // tile)
            assert empirical_score(tuple(models[:1]), X_eval, Y_eval) == alone[:1]
            got = score_fit_mod._pair_sums(
                models[0].x_train, models[0].y_train, models[0].kernel_x,
                models[0].kernel_y, [score_fit_mod._model_coeffs(m) for m in models],
                X_eval, Y_eval, want_value=False, want_grad=True, want_second=True)
            for model, (value, grad, second) in zip(models, got):
                expect = score_fit_mod._T_terms(model, X_eval, Y_eval, False, True, True)
                assert value is None
                assert np.array_equal(grad, expect[1])
                assert np.array_equal(second, expect[2])

    def test_a_mixed_list_is_data_error(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 20, 1, 2)
        X_eval, Y_eval = rng.normal(size=(7, 2)), rng.normal(size=(7, 1))

        def model(**changed):
            args = dict(x_train=X, y_train=Y, kernel_x=kx, kernel_y=ky, lam=0.1,
                        beta=rng.normal(size=20))
            return FactorModel(**(args | changed))

        first = model()
        for other in (model(x_train=X + 1.0), model(y_train=Y[::-1]),
                      model(kernel_x=GaussianKernelSpec(2.0 * kx.bandwidths)),
                      model(kernel_y=GaussianKernelSpec(2.0 * ky.bandwidths)),
                      model(base=BaseDensity(std=1.0)),
                      model(x_train=X[:, :1], kernel_x=GaussianKernelSpec([1.0]))):
            with pytest.raises(DataError, match="must share"):
                empirical_score([first, other], X_eval, Y_eval)
        # equal kernels built as new objects share the setup
        same = model(kernel_x=GaussianKernelSpec(kx.bandwidths.copy()),
                     kernel_y=GaussianKernelSpec(ky.bandwidths.copy()))
        assert empirical_score([first, same], X_eval, Y_eval) == [
            empirical_score(first, X_eval, Y_eval), empirical_score(same, X_eval, Y_eval)]
        constant = [FactorModel(x_train=np.empty((20, 0)), y_train=Y, kernel_x=kernel,
                                kernel_y=ky, lam=0.1, beta=np.zeros(20))
                    for kernel in (ConstantKernel(1.0), ConstantKernel(2.0))]
        with pytest.raises(DataError, match="must share"):
            empirical_score(constant, np.empty((7, 0)), Y_eval)
        with pytest.raises(DataError, match="at least one model"):
            empirical_score([], X_eval, Y_eval)


class TestOptimality:
    """The fitted coefficients minimize the penalized empirical objective
    over the expansion span; verified through the Gram quadratic form."""

    @staticmethod
    def xi_norm_sq(X, Y, kx, ky, base):
        n, d = Y.shape
        total = 0.0
        for a in range(n):
            for b in range(n):
                kxv = kx_value(kx, X[a], X[b])
                for l in range(d):
                    ca = -Y[a, l] / base.std**2
                    for m in range(d):
                        cb = -Y[b, m] / base.std**2
                        term = (
                            kernel_partial(ky, Y[a], Y[b], DerivRequest(l, 2, m, 2))
                            + cb * kernel_partial(ky, Y[a], Y[b],
                                                  DerivRequest(l, 2, m, 1))
                            + ca * kernel_partial(ky, Y[a], Y[b],
                                                  DerivRequest(l, 1, m, 2))
                            + ca * cb * kernel_partial(ky, Y[a], Y[b],
                                                       DerivRequest(l, 1, m, 1))
                        )
                        total += kxv * term
        return total / n**2

    def penalized_objective(self, G, h, xi_sq, n, lam, delta, beta):
        feat = delta * h + G @ beta
        j_hat = 0.5 * np.sum(feat**2) / n + delta * xi_sq + beta @ h
        norm_sq = delta**2 * xi_sq + 2 * delta * (beta @ h) + beta @ G @ beta
        return j_hat + 0.5 * lam * norm_sq

    def test_fit_is_span_minimizer(self, rng):
        n, d, p, lam = 6, 1, 1, 0.2
        X, Y, kx, ky, _ = random_instance(rng, n, d, p, lam)
        model = fit_factor(X, Y, kx, ky, lam)
        G = build_gram(X, Y, kx, ky)
        h = build_h(X, Y, kx, ky, model.base)
        xi_sq = self.xi_norm_sq(X, Y, kx, ky, model.base)
        at_fit = self.penalized_objective(G, h, xi_sq, n, lam,
                                          model.xi_coeff, model.beta)
        eps = 1e-4
        for _ in range(20):
            eta = rng.normal(size=n * d)
            perturbed = self.penalized_objective(
                G, h, xi_sq, n, lam, model.xi_coeff, model.beta + eps * eta
            )
            assert perturbed >= at_fit - 1e-10

    def test_quadratic_form_agrees_with_empirical_score(self, rng):
        n, d, p, lam = 5, 2, 1, 0.3
        X, Y, kx, ky, _ = random_instance(rng, n, d, p, lam)
        model = fit_factor(X, Y, kx, ky, lam)
        G = build_gram(X, Y, kx, ky)
        h = build_h(X, Y, kx, ky, model.base)
        xi_sq = self.xi_norm_sq(X, Y, kx, ky, model.base)
        feat = model.xi_coeff * h + G @ model.beta
        j_quad = 0.5 * np.sum(feat**2) / n + model.xi_coeff * xi_sq + model.beta @ h
        j_mc = empirical_score(model, X, Y)
        assert j_quad == pytest.approx(j_mc, rel=1e-9, abs=1e-11)


class TestDeterminism:
    def test_fit_and_eval_bit_identical(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 8, 2, 2)
        m1 = fit_factor(X, Y, kx, ky, 0.1)
        m2 = fit_factor(X, Y, kx, ky, 0.1)
        np.testing.assert_array_equal(m1.beta, m2.beta)
        x0, y0 = rng.normal(size=2), rng.normal(size=2)
        assert eval_T(m1, x0, y0) == eval_T(m2, x0, y0)
        assert empirical_score(m1, X, Y) == empirical_score(m2, X, Y)

    def test_gram_system_container(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 5, 1, 1)
        sys = build_gram_system(X, Y, kx, ky, BaseDensity())
        np.testing.assert_array_equal(sys.G, build_gram(X, Y, kx, ky))
        np.testing.assert_array_equal(sys.h, build_h(X, Y, kx, ky, BaseDensity()))
