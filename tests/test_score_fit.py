import contextlib
import itertools
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

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
    _cross_weights,
    _ridge_solve,
    build_gram,
    build_gram_system,
    build_h,
    cross_T_blocks,
    empirical_score,
    eval_T,
    fit_factor,
    grad_y_T,
    laplacian_terms_T,
    unnorm_logpdf,
    unnorm_logpdf_rows,
    xi_hat,
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


def ref_T_terms(model, X_eval, Y_eval, kx_pair=None):
    """(value, grad, second) of T at paired rows, all rows at once."""
    a, e = score_fit_mod._model_coeffs(model)
    s2 = model.kernel_y.variances
    kx = (ref_kernel(model.kernel_x, model.x_train, X_eval)
          if kx_pair is None else kx_pair)
    kxky = kx * ref_kernel(model.kernel_y, model.y_train, Y_eval)
    U = ref_diffs(model.y_train, Y_eval)
    value = np.sum(kxky * ref_weight(U, s2, a, e, 0, 0), axis=0)
    grad, second = (np.stack([np.sum(kxky * ref_weight(U, s2, a, e, j, q), axis=0)
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
        (two column blocks, the second with the 1-column remainder) on the
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
        value = xi_hat(np.array([[0.5]]), np.array([[0.0]]),
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
        v1 = xi_hat(X, Y, ConstantKernel(1.0), ky, base, None, y0)
        v2 = xi_hat(X, Y, ConstantKernel(2.0), ky, base, None, y0)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-14)

    def test_matches_brute_force(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 6, 2, 2)
        base = BaseDensity()
        x0, y0 = rng.normal(size=2), rng.normal(size=2)
        assert xi_hat(X, Y, kx, ky, base, x0, y0) == pytest.approx(
            brute_xi_hat(X, Y, kx, ky, base, x0, y0), rel=1e-12
        )

    def test_y_partial_matches_finite_difference(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 6, 2, 2)
        base = BaseDensity()
        x0, y0 = rng.normal(size=2), rng.normal(size=2)
        plain = lambda y: xi_hat(X, Y, kx, ky, base, x0, y)
        grad_fd = fd_gradient(plain, y0)
        sec_fd = fd_second(plain, y0)
        for j in range(2):
            g = xi_hat(X, Y, kx, ky, base, x0, y0, deriv=(j, 1))
            s = xi_hat(X, Y, kx, ky, base, x0, y0, deriv=(j, 2))
            assert g == pytest.approx(grad_fd[j], rel=1e-5, abs=1e-8)
            assert s == pytest.approx(sec_fd[j], rel=1e-4, abs=1e-6)

    def test_bad_deriv_request(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 3, 2, 1)
        with pytest.raises(DataError):
            xi_hat(X, Y, kx, ky, BaseDensity(), [0.0], [0.0, 0.0], deriv=(0, 3))
        with pytest.raises(DataError):
            xi_hat(X, Y, kx, ky, BaseDensity(), [0.0], [0.0, 0.0], deriv=(2, 1))


class TestBuildH:
    def test_entries_are_xi_partials_at_training_pairs(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 5, 2, 1)
        base = BaseDensity()
        h = build_h(X, Y, kx, ky, base)
        for b in range(5):
            for i in range(2):
                expect = xi_hat(X, Y, kx, ky, base, X[b], Y[b], deriv=(i, 1))
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
        # blocks of 1 column each, then (2, 2, 3) and (3, 4): a 1-column
        # remainder joins the block before it
        for chunk, blocks in ((1, 7), (2, 3), (3, 2)):
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

    def test_preflight_constant_bounds_a_real_fit(self, rng, monkeypatch):
        """_PEAK_OVER_GRAM bounds the traced peak of a fit for every worker
        count a host may give the assembly, whatever CPUs run the test.  The
        fit holds G and the solve's work array and nothing else of the
        Gram's size (2.004-2.017 measured), so the peak stays within 2.05."""
        for n, workers in itertools.product((1536, 2000), (1, 2, 4)):
            # the assembly runs on the pool, over more columns than the
            # _EVAL_CHUNK that its workers' scratch may span at once
            assert n >= score_fit_mod._POOL_ROWS
            assert n > 2 * score_fit_mod._EVAL_CHUNK
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
            assert peak <= score_fit_mod._PEAK_OVER_GRAM * n * n * 8, (n, workers)
            assert peak <= 2.05 * n * n * 8, (n, workers)


class TestRidgeSolve:
    @pytest.fixture
    def solve_calls(self, monkeypatch):
        """Record each cho_solve; ``corrupt(k, x)`` may replace the k-th result
        (0 is the first solve, 1.. are refinement steps)."""
        real = score_fit_mod.scipy.linalg.cho_solve
        calls = []

        def install(corrupt):
            def recorded(factor, b, **kwargs):
                calls.append(b)
                return corrupt(len(calls) - 1, real(factor, b, **kwargs))
            monkeypatch.setattr(score_fit_mod.scipy.linalg, "cho_solve", recorded)
            return calls
        return install

    @pytest.fixture
    def failing_factor(self, monkeypatch):
        """Make the first ``fails`` cho_factor calls run the real
        factorization, which overwrites the work array, and then raise
        LinAlgError.  Returns a copy of each call's argument as received."""
        real = score_fit_mod.scipy.linalg.cho_factor
        received = []

        def install(fails):
            def flaky(a, **kwargs):
                received.append(a.copy())
                factor = real(a, **kwargs)
                if len(received) <= fails:
                    assert not np.array_equal(a, received[-1])  # destroyed
                    raise score_fit_mod.scipy.linalg.LinAlgError("injected")
                return factor
            monkeypatch.setattr(score_fit_mod.scipy.linalg, "cho_factor", flaky)
            return received
        return install

    @staticmethod
    def shifted(G, *shifts):
        """G with each shift added to its diagonal, one addition at a time."""
        A = G.copy()
        for s in shifts:
            A[np.diag_indices_from(A)] += s
        return A

    def test_jitter_attempt_refills_the_work_array_from_G(self, rng, failing_factor):
        X, Y, kx, ky, lam = random_instance(rng, 8, 1, 1)
        system = build_gram_system(X, Y, kx, ky, BaseDensity())
        G, n = system.G, system.n
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
        G, n = system.G, system.n
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
        exact = _ridge_solve(system.G, system.h, lam, system.n)
        calls = solve_calls(lambda k, x: x * (1 + 1e-3) if k == 0 else x)
        beta = _ridge_solve(system.G, system.h, lam, system.n)
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
            _ridge_solve(system.G, system.h, lam, system.n)
        assert calls == []

    @pytest.mark.parametrize("lam", [1e308, np.float64(1e308)], ids=["float", "float64"])
    def test_overflowing_ridge_raises_before_factoring(self, rng, monkeypatch, lam):
        """n * lambda overflows to inf while h / lambda stays finite: a
        NumericalError before any factorization and without a warning, not
        a factorization of an infinite diagonal."""
        X, Y, kx, ky, _ = random_instance(rng, 6, 1, 1)
        system = build_gram_system(X, Y, kx, ky, BaseDensity())
        factored = []
        monkeypatch.setattr(score_fit_mod.scipy.linalg, "cho_factor",
                            lambda *args, **kwargs: factored.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="n \\* lambda overflows"):
                _ridge_solve(system.G, system.h, lam, system.n)
        assert factored == []

    def test_scipy_checks_nothing_again(self, rng, monkeypatch):
        """G and h are checked when the GramSystem is built, and h / lambda,
        the ridge and each residual by _ridge_solve, so every factorization
        and solve skips scipy's finiteness scan and its boolean array."""
        X, Y, kx, ky, lam = random_instance(rng, 6, 1, 1)
        system = build_gram_system(X, Y, kx, ky, BaseDensity())
        seen = []

        def recording(real):
            def call(*args, **kwargs):
                seen.append(kwargs.get("check_finite", True))
                return real(*args, **kwargs)
            return call

        for name in ("cho_factor", "cho_solve"):
            real = getattr(score_fit_mod.scipy.linalg, name)
            monkeypatch.setattr(score_fit_mod.scipy.linalg, name, recording(real))
        _ridge_solve(system.G, system.h, lam, system.n)
        assert seen == [False, False]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf @ G is nan
    def test_non_finite_residual_raises(self, rng, solve_calls):
        X, Y, kx, ky, lam = random_instance(rng, 6, 1, 1)
        system = build_gram_system(X, Y, kx, ky, BaseDensity())
        calls = solve_calls(lambda k, x: np.full_like(x, np.inf))
        with pytest.raises(NumericalError, match="residual is not finite"):
            _ridge_solve(system.G, system.h, lam, system.n)
        assert len(calls) == 1  # no refinement step on a non-finite residual

    def test_residual_left_after_three_steps_raises(self, rng, solve_calls):
        X, Y, kx, ky, lam = random_instance(rng, 6, 1, 1)
        system = build_gram_system(X, Y, kx, ky, BaseDensity())
        calls = solve_calls(lambda k, x: x * (1 + 1e-3) if k == 0 else 0 * x)
        with pytest.raises(NumericalError, match="exceeds bound"):
            _ridge_solve(system.G, system.h, lam, system.n)
        assert len(calls) == 4  # the solve and three refinement steps


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

    def test_given_system_fits_the_same_bits(self, rng):
        X, Y, kx, ky, lam = random_instance(rng, 9, 2, 1)
        base = BaseDensity(1.5)
        system = build_gram_system(X, Y, kx, ky, base)
        # one system serves several lambdas
        for each in (lam, 10 * lam):
            given = fit_factor(X, Y, kx, ky, each, base, system=system)
            np.testing.assert_array_equal(
                given.beta, fit_factor(X, Y, kx, ky, each, base).beta)

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
                GramSystem(G=G, h=system.h, n=system.n)
            h[4] = bad
            with pytest.raises(NumericalError, match="h vector"):
                GramSystem(G=system.G, h=h, n=system.n)

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
        expect = -xi_hat(X, Y, kx, ky, model.base, x0, y0) / lam
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
        grad, second = laplacian_terms_T(model, x0, y0)
        np.testing.assert_allclose(grad, fd_gradient(f, y0), rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(second, fd_second(f, y0), rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(grad_y_T(model, x0, y0), grad, rtol=1e-14)

    def test_zero_beta_model_derivatives_reduce_to_xi(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 6, 2, 1)
        lam = 0.4
        model = FactorModel(x_train=X, y_train=Y, kernel_x=kx, kernel_y=ky,
                            lam=lam, beta=np.zeros(12))
        x0, y0 = rng.normal(size=1), rng.normal(size=2)
        grad, second = laplacian_terms_T(model, x0, y0)
        for j in range(2):
            xg = xi_hat(X, Y, kx, ky, model.base, x0, y0, deriv=(j, 1))
            xs = xi_hat(X, Y, kx, ky, model.base, x0, y0, deriv=(j, 2))
            assert grad[j] == pytest.approx(-xg / lam, rel=1e-12)
            assert second[j] == pytest.approx(-xs / lam, rel=1e-12)

    def test_one_dim_second_derivative_nested_differences(self, rng):
        model = fit_random(rng, n=10, d=1, p=1, lam=0.05)
        x0, y0 = rng.normal(size=1), rng.normal(size=1)
        h = 1e-4
        g = lambda y: eval_T(model, x0, np.atleast_1d(y))
        nested = (g(y0 + h) - 2 * g(y0) + g(y0 - h)) / h**2
        _, second = laplacian_terms_T(model, x0, y0)
        assert second[0] == pytest.approx(float(nested), rel=1e-4, abs=1e-6)


class TestCrossTBlocks:
    def test_matches_brute_force_at_every_pair(self, rng):
        model = fit_random(rng, n=7, d=2, p=2, lam=0.15)
        X_rows, Y_set = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))
        blocks = list(cross_T_blocks(model, X_rows, Y_set, chunk=2))
        assert [sl for sl, _ in blocks] == [slice(0, 2), slice(2, 4), slice(4, 5)]
        full = np.hstack([block for _, block in blocks])
        assert full.shape == (3, 5)
        for r in range(3):
            for s in range(5):
                expect = brute_eval_T(model, X_rows[r], Y_set[s])
                assert abs(full[r, s] - expect) < 1e-10


class TestCrossWeights:
    """The column-blocked, buffered weights against the unblocked expression
    ref_kernel(...) * ref_weight(...), bit for bit."""

    @staticmethod
    def reference(model, Y_set):
        a, e = score_fit_mod._model_coeffs(model)
        return (ref_kernel(model.kernel_y, model.y_train, Y_set)
                * ref_weight(ref_diffs(model.y_train, Y_set),
                             model.kernel_y.variances, a, e, 0, 0))

    @pytest.mark.parametrize("p", [0, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bit_identical_to_unblocked_weights(self, rng, d, p):
        model = fit_random(rng, n=9, d=d, p=p, lam=0.05)
        S = 2 * score_fit_mod._CROSS_BLOCK + 37  # ends on a partial block
        Y_set = 2.0 * rng.normal(size=(S, d))
        ref = self.reference(model, Y_set)
        assert np.array_equal(_cross_weights(model, Y_set), ref)
        out = np.full((model.n, S), np.nan)
        assert _cross_weights(model, Y_set, out) is out
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("chunk", [300, 2048])
    @pytest.mark.parametrize("p", [0, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cross_T_blocks_are_gemms_of_the_reference(self, rng, d, p, chunk):
        model = fit_random(rng, n=9, d=d, p=p, lam=0.05)
        S = 2 * chunk + 41  # the last chunk is partial, and so is its last block
        X_rows, Y_set = rng.normal(size=(4, p)), 2.0 * rng.normal(size=(S, d))
        ref = self.reference(model, Y_set)
        kx = kernel_matrix(model.kernel_x, model.x_train, X_rows)
        # collected first: a block that aliased the reused weight buffer
        # would be overwritten by the chunks after it
        blocks = list(cross_T_blocks(model, X_rows, Y_set, chunk=chunk))
        assert [sl for sl, _ in blocks] == [slice(0, chunk), slice(chunk, 2 * chunk),
                                            slice(2 * chunk, S)]
        for sl, block in blocks:
            assert np.array_equal(block, kx.T @ ref[:, sl])
        for (_, first), (_, second) in itertools.combinations(blocks, 2):
            assert not np.shares_memory(first, second)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_row_ranges_fill_the_full_weights(self, rng, d):
        model = fit_random(rng, n=10, d=d, p=2, lam=0.05)
        S = score_fit_mod._CROSS_BLOCK + 37  # ends on a partial block
        Y_set = 2.0 * rng.normal(size=(S, d))
        full = _cross_weights(model, Y_set)
        for parts in (1, 2, 3):  # 3 parts of n = 10 rows: 3, 3 and 4
            ranges = score_fit_mod._even_slices(model.n, parts)
            assert np.array_equal(np.r_[tuple(ranges)], np.arange(model.n))
            out = np.full((model.n, S), np.nan)
            for rows in ranges:
                _cross_weights(model, Y_set, out, rows)
            assert np.array_equal(out, full)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cross_T_blocks_do_not_depend_on_worker_count(self, rng, monkeypatch,
                                                          d, workers):
        model = fit_random(rng, n=10, d=d, p=2, lam=0.05)
        chunk, panel = 2048, score_fit_mod._GEMM_PANEL
        S = chunk + panel + 41  # the last chunk is partial and has two panels
        X_rows, Y_set = rng.normal(size=(4, 2)), 2.0 * rng.normal(size=(S, d))
        ref = self.reference(model, Y_set)
        kx = kernel_matrix(model.kernel_x, model.x_train, X_rows)
        monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: workers)
        filled = []
        real = score_fit_mod._cross_weights

        def recording(model, Y_set, out, rows):
            filled.append(rows)
            return real(model, Y_set, out, rows)

        monkeypatch.setattr(score_fit_mod, "_cross_weights", recording)
        blocks = list(cross_T_blocks(model, X_rows, Y_set, chunk=chunk))
        assert [sl for sl, _ in blocks] == [slice(0, chunk), slice(chunk, S)]
        for sl, block in blocks:
            assert np.array_equal(block, kx.T @ ref[:, sl])
        # each chunk fills the buffer once per worker, in any order
        assert sorted(filled) == sorted(2 * score_fit_mod._even_slices(model.n, workers))

    def test_more_workers_than_cores_under_fast_thread_switching(self, rng,
                                                                 monkeypatch):
        """Eight workers share one weight buffer and one block while the
        interpreter switches threads every microsecond; a GEMM panel that
        read rows not yet filled, or a row or column left unwritten, would
        change the blocks."""
        model = fit_random(rng, n=20, d=2, p=2, lam=0.05)
        X_rows, Y_set = rng.normal(size=(5, 2)), 2.0 * rng.normal(size=(3000, 2))
        ref = self.reference(model, Y_set)
        kx = kernel_matrix(model.kernel_x, model.x_train, X_rows)
        monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: 8)
        blocks = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: blocks.extend(
                cross_T_blocks(model, X_rows, Y_set)))
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert [sl for sl, _ in blocks] == [slice(0, 2048), slice(2048, 3000)]
        for sl, block in blocks:
            assert np.array_equal(block, kx.T @ ref[:, sl])


class TestWorkerCount:
    """The assembly and the paired T sums split their columns into blocks of
    ``_CROSS_BLOCK`` across ``_worker_count`` threads; every output equals
    the all-at-once reference bit for bit, whatever the worker count."""

    WORKERS = [1, 2, 3, 8]

    @pytest.fixture(autouse=True)
    def small_blocks_may_pool(self, monkeypatch):
        monkeypatch.setattr(score_fit_mod, "_POOL_ROWS", 1)

    def test_blocks_join_a_one_column_remainder(self, monkeypatch):
        assert score_fit_mod._blocks(0) == []
        assert score_fit_mod._blocks(1) == [(0, 1)]
        assert score_fit_mod._blocks(129) == [(0, 129)]
        assert score_fit_mod._blocks(257) == [(0, 128), (128, 257)]
        assert score_fit_mod._blocks(300) == [(0, 128), (128, 256), (256, 300)]
        monkeypatch.setattr(score_fit_mod, "_CROSS_BLOCK", 1)
        assert score_fit_mod._blocks(3) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("d", [1, 2])
    def test_gram_system(self, rng, monkeypatch, d, workers):
        n = 257  # two blocks: 128 columns, then 129 with the remainder
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
        # one column; one block of 129; 128 + 129; four blocks of 128 and a 129
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
            for R, expect in ((100, []), (129, []), (257, [2]), (641, [5])):
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
        scratch = (1 + 5) * n * score_fit_mod._CROSS_BLOCK * 8  # d + 5 arrays
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
            assert unnorm_logpdf(model, None, y0) == base.log_pdf(y0)

    def test_gradient_matches_finite_differences(self, rng):
        model = fit_random(rng, n=6, d=2, p=1, lam=0.2)
        x0, y0 = rng.normal(size=1), rng.normal(size=2)
        f = lambda y: unnorm_logpdf(model, x0, y)
        grad = model.base.grad_log(y0) + grad_y_T(model, x0, y0)
        np.testing.assert_allclose(grad, fd_gradient(f, y0), rtol=1e-5, atol=1e-8)

    def test_additivity_identity(self, rng):
        model = fit_random(rng, n=5, d=1, p=1)
        x0 = rng.normal(size=1)
        y1, y2 = rng.normal(size=1), rng.normal(size=1)
        lhs = unnorm_logpdf(model, x0, y1) - unnorm_logpdf(model, x0, y2)
        rhs = (model.base.log_pdf(y1) - model.base.log_pdf(y2)
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


class TestKeptPieces:
    """empirical_score with ``pieces``, as cross-validation scores each
    lambda of one held-out block, against the call without, bit for bit."""

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
    def test_matches_the_uncached_score(self, rng, monkeypatch, d, workers):
        """n = _POOL_ROWS training rows, so two blocks run on two workers;
        R = 129 is one block with the 1-column remainder joined, R = 257 two."""
        n = score_fit_mod._POOL_ROWS
        monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: workers)
        models = self.models(rng, n, d, 2)
        for R in (129, 257):
            X_eval, Y_eval = rng.normal(size=(R, 2)), 1.5 * rng.normal(size=(R, d))
            pieces = {}
            for model in models:
                expect = score_fit_mod._T_terms(model, X_eval, Y_eval, False, True, True)
                got = score_fit_mod._T_terms(model, X_eval, Y_eval, False, True, True,
                                             pieces=pieces)
                assert got[0] is None
                assert np.array_equal(got[1], expect[1])
                assert np.array_equal(got[2], expect[2])
                assert (empirical_score(model, X_eval, Y_eval, pieces)
                        == empirical_score(model, X_eval, Y_eval))
            assert sorted(pieces) == score_fit_mod._blocks(R)
            K, F = pieces[0, 128 if R == 257 else R]
            assert K.shape == (n, 128 if R == 257 else R)
            assert F.shape == (2 * d, d, 2) + K.shape  # 1 + 4 d^2 arrays in all

    def test_a_failed_call_keeps_nothing(self, rng, monkeypatch):
        model = self.models(rng, 20, 2, 1)[0]
        X_eval, Y_eval = rng.normal(size=(30, 1)), rng.normal(size=(30, 2))
        expect = empirical_score(model, X_eval, Y_eval)
        real = score_fit_mod._mixed_factor
        calls = []

        def failing(*args):
            calls.append(None)
            if len(calls) == 5:
                raise FloatingPointError("injected")
            return real(*args)

        monkeypatch.setattr(score_fit_mod, "_mixed_factor", failing)
        pieces = {}
        with pytest.raises(FloatingPointError):
            empirical_score(model, X_eval, Y_eval, pieces)
        assert pieces == {}
        assert empirical_score(model, X_eval, Y_eval, pieces) == expect
        assert len(pieces) == 1


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
        assert sys.n == 5
        np.testing.assert_array_equal(sys.G, build_gram(X, Y, kx, ky))
        np.testing.assert_array_equal(sys.h, build_h(X, Y, kx, ky, BaseDensity()))
