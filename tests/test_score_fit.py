import numpy as np
import pytest

import kexpfam.score_fit as score_fit_mod
from kexpfam.errors import DataError
from kexpfam.kernels import (
    ConstantKernel,
    DerivRequest,
    GaussianKernelSpec,
    eval_kernel,
    kernel_partial,
    median_heuristic,
)
from kexpfam.score_fit import (
    BaseDensity,
    FactorModel,
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

    def test_symmetry_exact(self, rng):
        X, Y, kx, ky, _ = random_instance(rng, 6, 2, 2)
        G = build_gram(X, Y, kx, ky)
        np.testing.assert_array_equal(G, G.T)

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
