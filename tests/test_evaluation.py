import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats as st

import kexpfam.evaluation as evaluation
import kexpfam.score_fit as score_fit_mod
from kexpfam.data_io import standardize
from kexpfam.errors import DataError, NumericalError
from kexpfam.evaluation import (
    CvConfig,
    LogPartitionEstimate,
    cross_validate,
    disjoint_support_demo,
    fisher_divergence,
    log_partition_from_draws,
    log_partition_is,
)
from kexpfam.factorization import (
    JointModel,
    NodeHyperparams,
    _node_kernels,
    fit_joint,
    make_dag,
)
from kexpfam.kernels import ConstantKernel, GaussianKernelSpec
from kexpfam.sampling import GridDatasetConfig, _grid_pass, rejection_sample_grid
from kexpfam.score_fit import (
    FactorModel,
    empirical_score,
    eval_T,
    fit_factor,
    unnorm_logpdf_rows,
)


def zero_T_factor(n=4, d=1, p=0):
    return FactorModel(x_train=np.zeros((n, p)), y_train=np.zeros((n, d)),
                       kernel_x=(ConstantKernel() if p == 0
                                 else GaussianKernelSpec(np.ones(p))),
                       kernel_y=GaussianKernelSpec(np.ones(d)),
                       lam=1.0, beta=np.zeros(n * d), xi_coeff=0.0)


@pytest.fixture(scope="module")
def fitted_1d():
    """Unconditional 1-D fit on grid-marginal data."""
    raw = rejection_sample_grid(GridDatasetConfig(dim=1, n=200, seed=3))
    ds = standardize(raw)
    model = fit_joint(ds, make_dag("full", 1), NodeHyperparams(lam=1e-2))
    return model, ds


def quadrature_log_z(factor, x_row, half_width_stds=8.0, points=4097):
    std = factor.base.std
    grid = np.linspace(-half_width_stds * std, half_width_stds * std, points)
    if x_row is None:
        X = np.empty((grid.size, 0))
    else:
        X = np.repeat(np.atleast_2d(x_row), grid.size, axis=0)
    # log Z = log E_q0[exp T] = log int exp(log q0 + T) dy for a normalized q0
    logp = unnorm_logpdf_rows(factor, X, grid[:, None])
    return float(np.log(np.trapezoid(np.exp(logp), grid)))


class TestLogPartitionEstimateType:
    def test_validation(self):
        with pytest.raises(DataError):
            LogPartitionEstimate(log_z=0.0, std_err=-1.0, sample_count=10)
        with pytest.raises(DataError):
            LogPartitionEstimate(log_z=0.0, std_err=0.0, sample_count=0)


class TestLogPartition:
    def test_zero_T_is_exactly_zero(self):
        est = log_partition_is(zero_T_factor(), None, 1000, seed=0)
        assert est.log_z == 0.0
        assert est.std_err == 0.0
        assert est.sample_count == 1000

    def test_matches_quadrature(self, fitted_1d):
        model, _ = fitted_1d
        factor = model.factors[0]
        est = log_partition_is(factor, None, 100_000, seed=21)
        log_z_quad = quadrature_log_z(factor, None)
        assert abs(est.log_z - log_z_quad) < 3 * est.std_err
        assert abs(est.log_z - log_z_quad) < 0.02

    def test_grid_engine_matches_quadrature_and_is(self, fitted_1d):
        """The grid sampler's trapezoid log Z against the 4097-node oracle and
        against importance sampling, two independent routes."""
        model, _ = fitted_1d
        factor = model.factors[0]
        _, log_z, gap, _ = _grid_pass(factor, np.empty((3, 0)), np.full(3, 0.5))
        assert np.all(log_z == log_z[0])
        assert abs(log_z[0] - quadrature_log_z(factor, None)) < 1e-6
        est = log_partition_is(factor, None, 100_000, seed=21)
        assert abs(log_z[0] - est.log_z) < 3 * est.std_err
        assert gap[0] < 1e-6

    def test_pooled_streams_shrink_std_err(self, fitted_1d):
        model, _ = fitted_1d
        factor = model.factors[0]
        ratios = []
        for rep in range(20):
            rng_a = np.random.default_rng((rep, 1))
            rng_b = np.random.default_rng((rep, 2))
            d_a = factor.base.sample(rng_a, 4000, 1)
            d_b = factor.base.sample(rng_b, 4000, 1)
            single = log_partition_from_draws(factor, None, d_a)
            pooled = log_partition_from_draws(factor, None,
                                              np.vstack([d_a, d_b]))
            ratios.append(single.std_err / pooled.std_err)
        assert 1.2 <= np.mean(ratios) <= 1.7

    def test_no_draws_is_data_error(self, fitted_1d):
        factor = fitted_1d[0].factors[0]
        with pytest.raises(DataError, match="at least one draw"):
            log_partition_from_draws(factor, None, np.empty((0, 1)))

    def test_reordering_draws_is_invariant(self, fitted_1d, rng):
        model, _ = fitted_1d
        factor = model.factors[0]
        draws = factor.base.sample(np.random.default_rng(5), 3000, 1)
        before = log_partition_from_draws(factor, None, draws)
        after = log_partition_from_draws(factor, None,
                                         draws[rng.permutation(3000)])
        assert abs(before.log_z - after.log_z) <= 1e-12

    def test_streaming_matches_direct_logsumexp(self, fitted_1d, monkeypatch):
        model, _ = fitted_1d
        factor = model.factors[0]
        draws = factor.base.sample(np.random.default_rng(9), 300, 1)
        t_vals = np.array([eval_T(factor, None, y) for y in draws])
        expect = float(scipy.special.logsumexp(t_vals) - math.log(300))
        est = log_partition_from_draws(factor, None, draws)
        assert est.log_z == pytest.approx(expect, abs=1e-12)
        # stream 64-draw chunks; 300 draws end on a partial chunk
        monkeypatch.setattr(score_fit_mod, "_IS_CHUNK", 64)
        log_z, _ = evaluation._log_z_from_draws(factor, np.empty((1, 0)), draws)
        assert log_z[0] == pytest.approx(expect, abs=1e-12)

    def test_memory_does_not_grow_with_draw_count(self, monkeypatch):
        """IS holds k_X (n, R), one (R, chunk) block at a time, updated in
        place, and each worker's four (n, 128) scratch arrays.  The traced
        peak reads 1.02 times their bytes on 1 and 2 workers; a second
        block allocated beside the first read 1.38 and 1.27, and one (n,
        chunk) weight buffer for the whole call 2.3 and 1.6 times the
        bound."""
        rng = np.random.default_rng(4)
        n, R, S = 1024, 200, 5000
        chunk = score_fit_mod._IS_CHUNK
        factor = FactorModel(x_train=rng.normal(size=(n, 1)),
                             y_train=rng.normal(size=(n, 1)),
                             kernel_x=GaussianKernelSpec([1.0]),
                             kernel_y=GaussianKernelSpec([1.0]),
                             lam=1e-2, beta=1e-3 * rng.normal(size=n))
        X_rows = rng.normal(size=(R, 1))
        for workers in (1, 2):
            monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: workers)
            scratch = score_fit_mod._scratch_bytes(chunk, n, 4, budget=n * chunk * 8,
                                                   gemm_rows=R)
            assert scratch == workers * 4 * n * score_fit_mod._CROSS_BLOCK * 8
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                evaluation._partition_for_rows(factor, X_rows, S, seed=0)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= 1.2 * ((n * R + R * chunk) * 8 + scratch), workers

    def test_nonfinite_block_raises(self, fitted_1d, monkeypatch):
        factor = fitted_1d[0].factors[0]
        monkeypatch.setattr(
            evaluation, "cross_T_blocks",
            lambda m, X, Y: iter([(slice(0, 2), np.array([[1.0, np.inf]]))]))
        with pytest.raises(NumericalError):
            evaluation._log_z_from_draws(factor, np.empty((1, 0)),
                                         np.zeros((2, 1)))

    def test_cache_returns_identical_estimates(self, fitted_1d):
        model, _ = fitted_1d
        factor = model.factors[0]
        e1 = log_partition_is(factor, None, 5000, seed=3)
        e2 = log_partition_is(factor, None, 5000, seed=3)
        assert e1.log_z == e2.log_z and e1.std_err == e2.std_err

    def test_cache_rounds_conditioning_point(self):
        raw = rejection_sample_grid(GridDatasetConfig(dim=2, n=100, seed=3))
        model = fit_joint(standardize(raw), make_dag("markov", 2),
                          NodeHyperparams(lam=0.02))
        factor = model.factors[1]
        e1 = log_partition_is(factor, [0.25], 2000, seed=1)
        e2 = log_partition_is(factor, [0.25 + 1e-15], 2000, seed=1)
        assert e1.log_z == e2.log_z

    def test_cache_does_not_depend_on_earlier_node_calls(self):
        raw = rejection_sample_grid(GridDatasetConfig(dim=2, n=100, seed=3))
        ds = standardize(raw)

        def fresh_factor():
            return fit_joint(ds, make_dag("markov", 2),
                             NodeHyperparams(lam=0.02)).factors[1]

        alone = log_partition_is(fresh_factor(), [0.25], 2000, seed=1,
                                 node_index=1)
        factor = fresh_factor()
        node0 = log_partition_is(factor, [0.25], 2000, seed=1, node_index=0)
        after = log_partition_is(factor, [0.25], 2000, seed=1, node_index=1)
        assert node0.log_z != alone.log_z
        assert (after.log_z, after.std_err) == (alone.log_z, alone.std_err)


class TestTestLoglik:
    def test_zero_T_reduces_to_base_plus_jacobian(self, rng):
        n = 6
        factors = (zero_T_factor(n=n, d=1, p=0), zero_T_factor(n=n, d=1, p=1))
        means = np.array([1.0, -2.0])
        stds = np.array([2.0, 0.5])
        model = JointModel(dag=make_dag("markov", 2), factors=factors,
                           column_means=means, column_stds=stds,
                           column_names=("a", "b"))
        rows = rng.normal(size=(10, 2))
        mean, per_row = evaluation.test_loglik(model, rows, is_samples=500, seed=0)
        z = (rows - means) / stds
        base = factors[0].base
        expect = (base.log_pdf_rows(z[:, [0]]) + base.log_pdf_rows(z[:, [1]])
                  - np.sum(np.log(stds)))
        np.testing.assert_array_equal(per_row, expect)
        assert mean == np.mean(per_row)

    def test_matches_full_quadrature_normalization(self, fitted_1d):
        model, ds = fitted_1d
        factor = model.factors[0]
        test_raw = rejection_sample_grid(GridDatasetConfig(dim=1, n=300, seed=9))
        mean_is, _ = evaluation.test_loglik(model, test_raw,
                                            is_samples=100_000, seed=13)
        z = (test_raw - ds.column_means) / ds.column_stds
        log_quad = (unnorm_logpdf_rows(factor, np.empty((z.shape[0], 0)), z)
                    - quadrature_log_z(factor, None)
                    - np.sum(np.log(ds.column_stds)))
        assert abs(mean_is - log_quad.mean()) < 0.02

    def test_no_test_rows_is_data_error(self, fitted_1d):
        model, _ = fitted_1d
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="at least one test row"):
                evaluation.test_loglik(model, np.empty((0, model.dim)),
                                       is_samples=100)

    @pytest.mark.parametrize("is_samples", [0, -5])
    def test_nonpositive_is_samples_is_data_error(self, fitted_1d, is_samples):
        model, ds = fitted_1d
        with pytest.raises(DataError, match="num_samples must be >= 1"):
            evaluation.test_loglik(model, ds.values[:3], is_samples=is_samples)

    def test_duplicated_rows_share_cached_partitions(self):
        raw = rejection_sample_grid(GridDatasetConfig(dim=2, n=100, seed=3))
        model = fit_joint(standardize(raw), make_dag("markov", 2),
                          NodeHyperparams(lam=0.02))
        rows = raw[:5]
        doubled = np.vstack([rows, rows])
        _, per_row = evaluation.test_loglik(model, doubled, is_samples=2000,
                                            seed=11)
        np.testing.assert_array_equal(per_row[:5], per_row[5:])

    def test_does_not_depend_on_worker_count(self, monkeypatch):
        """IS splits each chunk of draws into blocks of 128 draws across
        ``_worker_count`` threads; the n = 100 training rows times (1 + the
        20 test rows) are work enough to pool."""
        raw = rejection_sample_grid(GridDatasetConfig(dim=2, n=100, seed=3))
        model = fit_joint(standardize(raw), make_dag("markov", 2),
                          NodeHyperparams(lam=0.02))
        rows = raw[:20]
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: workers)
            # 3000 draws: a full chunk of 16 blocks, then a partial one of 8
            mean, per_row, stats = evaluation.test_loglik(
                model, rows, is_samples=3000, seed=7, return_stats=True)
            results.append((mean, per_row,
                            [e["is_std_err"] for e in stats["per_node"]]))
        for mean, per_row, std_errs in results[1:]:
            assert mean == results[0][0]
            np.testing.assert_array_equal(per_row, results[0][1])
            for got, expect in zip(std_errs, results[0][2]):
                np.testing.assert_array_equal(got, expect)

    def test_stats_report_each_nodes_is_std_err(self):
        raw = rejection_sample_grid(GridDatasetConfig(dim=2, n=100, seed=3))
        model = fit_joint(standardize(raw), make_dag("markov", 2),
                          NodeHyperparams(lam=0.02))
        rows = raw[:7]
        mean, per_row = evaluation.test_loglik(model, rows, is_samples=2000, seed=5)
        mean_s, per_row_s, stats = evaluation.test_loglik(
            model, rows, is_samples=2000, seed=5, return_stats=True)
        assert mean_s == mean
        np.testing.assert_array_equal(per_row_s, per_row)
        Z = model.standardize_rows(rows)
        assert [e["node"] for e in stats["per_node"]] == [0, 1]
        for node, entry in enumerate(stats["per_node"]):
            X = Z[:, list(model.dag.parents[node])]
            _, std_err = evaluation._partition_for_rows(model.factors[node], X,
                                                        2000, 5, node)
            np.testing.assert_array_equal(entry["is_std_err"], std_err)
            assert np.all(std_err > 0)

    def test_determinism(self, fitted_1d):
        model, _ = fitted_1d
        rows = rejection_sample_grid(GridDatasetConfig(dim=1, n=50, seed=2))
        m1, r1 = evaluation.test_loglik(model, rows, is_samples=3000, seed=4)
        m2, r2 = evaluation.test_loglik(model, rows, is_samples=3000, seed=4)
        assert m1 == m2
        np.testing.assert_array_equal(r1, r2)

    def test_dimension_mismatch(self, fitted_1d):
        model, _ = fitted_1d
        with pytest.raises(DataError):
            evaluation.test_loglik(model, np.zeros((3, 2)))


@pytest.fixture(scope="module")
def small_grid():
    raw = rejection_sample_grid(GridDatasetConfig(dim=2, n=120, seed=6))
    return standardize(raw)


class TestCrossValidate:

    def test_single_point_grid(self, small_grid):
        config = CvConfig(folds=3, lambda_grid=(0.05,),
                          bandwidth_scale_grid=(1.0,), seed=2)
        result = cross_validate(small_grid, make_dag("markov", 2), config)
        for node_result in result.nodes:
            assert node_result.best_lam == 0.05
            assert node_result.best_scale == 1.0
            assert len(node_result.table) == 1
            assert math.isfinite(node_result.best_score)

    def test_determinism(self, small_grid):
        config = CvConfig(folds=3, lambda_grid=(0.01, 0.1),
                          bandwidth_scale_grid=(0.5, 1.0), seed=7)
        dag = make_dag("markov", 2)
        r1 = cross_validate(small_grid, dag, config)
        r2 = cross_validate(small_grid, dag, config)
        for a, b in zip(r1.nodes, r2.nodes):
            assert a.best_lam == b.best_lam and a.best_scale == b.best_scale
            for c1, c2 in zip(a.table, b.table):
                assert c1.mean_score == c2.mean_score

    def test_enumeration_order_invariance(self, small_grid):
        dag = make_dag("markov", 2)
        fwd = CvConfig(folds=3, lambda_grid=(0.01, 0.1, 1.0),
                       bandwidth_scale_grid=(0.5, 1.0, 2.0), seed=7)
        rev = CvConfig(folds=3, lambda_grid=(1.0, 0.1, 0.01),
                       bandwidth_scale_grid=(2.0, 1.0, 0.5), seed=7)
        r_fwd = cross_validate(small_grid, dag, fwd)
        r_rev = cross_validate(small_grid, dag, rev)
        for a, b in zip(r_fwd.nodes, r_rev.nodes):
            assert a.best_lam == b.best_lam
            assert a.best_scale == b.best_scale

    def test_duplicate_grid_points_tie_consistently(self, small_grid):
        config = CvConfig(folds=3, lambda_grid=(0.05, 0.05),
                          bandwidth_scale_grid=(1.0,), seed=2)
        result = cross_validate(small_grid, make_dag("markov", 2), config)
        cells = result.nodes[0].table
        assert cells[0].mean_score == cells[1].mean_score
        assert result.nodes[0].best_lam == 0.05

    def test_failed_fit_scores_infinity(self, small_grid, monkeypatch):
        real_solve = score_fit_mod._ridge_solve
        poison = 0.123456

        def exploding_solve(G, h, lam, n):
            if lam == poison:
                raise NumericalError("forced failure")
            return real_solve(G, h, lam, n)

        monkeypatch.setattr(score_fit_mod, "_ridge_solve", exploding_solve)
        config = CvConfig(folds=3, lambda_grid=(poison, 0.05),
                          bandwidth_scale_grid=(1.0,), seed=2)
        result = cross_validate(small_grid, make_dag("markov", 2), config)
        for node_result in result.nodes:
            scores = {c.lam: c.mean_score for c in node_result.table}
            assert math.isinf(scores[poison])
            assert node_result.best_lam == 0.05

    def test_fold_too_large_for_memory_is_data_error(self, small_grid,
                                                     monkeypatch):
        monkeypatch.setattr(score_fit_mod, "_physical_memory_bytes", lambda: 1024)
        config = CvConfig(folds=3, lambda_grid=(0.01, 0.1),
                          bandwidth_scale_grid=(1.0,), seed=2)
        with pytest.raises(DataError, match="GiB"):
            cross_validate(small_grid, make_dag("markov", 2), config)

    def test_fold_scores_match_per_fold_refits(self, small_grid):
        """Shared-assembly CV against an independent route: one fit_factor
        refit per (lambda, scale, fold), scored on the held-out block."""
        config = CvConfig(folds=3, lambda_grid=(0.01, 0.1),
                          bandwidth_scale_grid=(0.5, 2.0), seed=7)
        dag = make_dag("markov", 2)
        result = cross_validate(small_grid, dag, config)
        values = small_grid.values
        perm = np.random.default_rng(config.seed).permutation(values.shape[0])
        blocks = np.array_split(perm, config.folds)
        for node_result in result.nodes:
            node = node_result.node
            parents = dag.parents[node]
            x, y = values[:, list(parents)], values[:, [node]]
            assert [(c.lam, c.scale) for c in node_result.table] == list(
                itertools.product(config.lambda_grid, config.bandwidth_scale_grid))
            for cell in node_result.table:
                hp = NodeHyperparams(lam=cell.lam, scale=cell.scale)
                kx, ky = _node_kernels(values, parents, node, hp)
                expect = []
                for block in blocks:
                    train = np.setdiff1d(np.arange(values.shape[0]), block)
                    fitted = fit_factor(x[train], y[train], kx, ky, cell.lam)
                    expect.append(empirical_score(fitted, x[block], y[block]))
                assert cell.fold_scores == tuple(expect)

    def test_one_assembly_per_fold_and_one_fit_per_lambda(self, small_grid,
                                                          monkeypatch):
        """Each (node, scale, fold) system is assembled once and handed to
        fit_factor for every lambda, so no fit assembles again."""
        assemblies, fits = [], []
        real_build = evaluation.build_gram_system
        real_fit = evaluation.fit_factor

        def counted_build(x, y, kx, ky, base):
            system = real_build(x, y, kx, ky, base)
            assemblies.append((kx, ky, system))
            return system

        def counted_fit(x, y, kx, ky, lam, base=None, system=None):
            fits.append((kx, ky, lam, system))
            return real_fit(x, y, kx, ky, lam, base, system=system)

        monkeypatch.setattr(evaluation, "build_gram_system", counted_build)
        monkeypatch.setattr(evaluation, "fit_factor", counted_fit)
        monkeypatch.setattr(score_fit_mod, "build_gram_system", None)
        config = CvConfig(folds=3, lambda_grid=(0.01, 0.1, 1.0),
                          bandwidth_scale_grid=(0.5, 2.0), seed=7)
        result = cross_validate(small_grid, make_dag("markov", 2), config)
        nodes, lams, scales, folds = 2, len(config.lambda_grid), 2, 3
        assert len(assemblies) == nodes * scales * folds
        assert len(fits) == nodes * lams * scales * folds
        # each assembly's system serves exactly its lambdas, in grid order
        for k, (kx, ky, system) in enumerate(assemblies):
            served = fits[k * lams:(k + 1) * lams]
            assert all(f[0] is kx and f[1] is ky and f[3] is system
                       for f in served)
            assert tuple(f[2] for f in served) == config.lambda_grid
        assert all(math.isfinite(c.mean_score)
                   for r in result.nodes for c in r.table)

    def test_held_out_kernels_do_not_grow_with_the_lambda_grid(self, small_grid,
                                                                monkeypatch):
        """Each (node, scale, fold) builds its held-out k_X and k_Y once and
        scores every lambda from them: 2 lambdas and 6 take the same
        held-out kernel_matrix calls.  The 120 rows split into 3 folds of 40,
        so a held-out call has 40 columns and an assembly call 80."""
        held_out = []
        real = score_fit_mod.kernel_matrix

        def counted(spec, A, B, *args):
            held_out.append(np.shape(B)[0] == 40)
            return real(spec, A, B, *args)

        monkeypatch.setattr(score_fit_mod, "kernel_matrix", counted)
        counts = []
        for lambdas in ((0.01, 0.1), (1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3)):
            held_out.clear()
            config = CvConfig(folds=3, lambda_grid=lambdas,
                              bandwidth_scale_grid=(0.5, 2.0), seed=7)
            cross_validate(small_grid, make_dag("markov", 2), config)
            counts.append((sum(held_out), len(held_out)))
        nodes, scales, folds = 2, 2, 3
        # k_X and k_Y per (node, scale, fold), for the block and the assembly
        assert counts == [(nodes * scales * folds * 2, nodes * scales * folds * 4)] * 2

    def test_lambda_loop_peak_stays_within_the_preflight(self, monkeypatch):
        """tracemalloc's peak over CV against the fold's Gram, at 5 folds of
        n_fit = 800 training rows and at 2 folds of 500 (one worker: below
        _POOL_ROWS).  Each (scale, fold) holds G and, in turn, the assembly's
        five (n_fit, 128) scratch arrays and, after G is dropped, the
        scoring pass's seven (1.12 and 1.79 Grams); each solve factors G in
        its own memory.  The bound is the pre-flight's count, G plus the
        larger scratch: 2.12 and 2.79 Grams, where the former count, with a
        solve's work array and 0.2 Grams of slack, was 2.32 and 2.99."""
        counted = []
        real = evaluation._check_memory
        monkeypatch.setattr(evaluation, "_check_memory",
                            lambda need, *args: (counted.append(need),
                                                 real(need, *args)))
        data = standardize(rejection_sample_grid(GridDatasetConfig(dim=2, n=1000,
                                                                   seed=4)))
        for folds, n_fit in ((5, 800), (2, 500)):
            config = CvConfig(folds=folds, lambda_grid=(0.01, 0.1, 1.0),
                              bandwidth_scale_grid=(1.0,), seed=1)
            gram = n_fit * n_fit * 8
            scoring = 7 * n_fit * 128 * 8  # R = 200 and 500: 128-column blocks
            # the assembly's five arrays weigh less than the scoring pass's seven
            count = gram + scoring
            counted.clear()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                cross_validate(data, make_dag("markov", 2), config)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert counted == [count]
            assert peak <= count, (folds, peak / gram)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_preflight_counts_the_scratch_of_every_worker(self, monkeypatch,
                                                          workers):
        """At 5 folds of n_fit = 1040 training rows (enough for the pool),
        the workers of the assembly each hold five (n_fit, 128) scratch
        arrays at d = 1 beside G, 1.23 Grams on 2 workers, and those of the
        scoring pass seven, 1.72 Grams.  The pre-flight counts at least the
        traced peak."""
        monkeypatch.setattr(score_fit_mod, "_worker_count", lambda: workers)
        counted = []
        real = evaluation._check_memory
        monkeypatch.setattr(evaluation, "_check_memory",
                            lambda need, *args: (counted.append(need),
                                                 real(need, *args)))
        data = standardize(rejection_sample_grid(GridDatasetConfig(dim=2, n=1300,
                                                                   seed=4)))
        config = CvConfig(folds=5, lambda_grid=(0.01, 0.1, 1.0),
                          bandwidth_scale_grid=(1.0,), seed=1)
        assert 1300 - 260 >= score_fit_mod._POOL_ROWS
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            cross_validate(data, make_dag("markov", 2), config)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(counted) == 1
        assert peak <= counted[0]

    def test_preflight_counts_the_held_out_pieces(self, monkeypatch):
        """The held-out pieces live in the scoring pass's worker scratch:
        k_X * k_Y, the scaled differences and, for more than one lambda, the
        prefactors that every lambda reads, seven (n_fit, 128) arrays at
        d = 1.  At 2 folds of n_fit = 150 they outweigh the assembly's five
        arrays, so memory for all but 8 of G's bytes plus theirs is a data
        error before any assembly, and the count itself is enough."""
        n_fit = 150
        need = n_fit**2 * 8 + 7 * n_fit * 128 * 8
        data = standardize(rejection_sample_grid(GridDatasetConfig(dim=2, n=300,
                                                                   seed=4)))
        config = CvConfig(folds=2, lambda_grid=(0.01, 0.1),
                          bandwidth_scale_grid=(1.0,), seed=2)
        monkeypatch.setattr(score_fit_mod, "_physical_memory_bytes", lambda: need - 8)
        real_build = evaluation.build_gram_system
        monkeypatch.setattr(evaluation, "build_gram_system", None)
        with pytest.raises(DataError, match="cross-validation with folds of 150"):
            cross_validate(data, make_dag("markov", 2), config)
        monkeypatch.setattr(score_fit_mod, "_physical_memory_bytes", lambda: need)
        monkeypatch.setattr(evaluation, "build_gram_system", real_build)
        cross_validate(data, make_dag("markov", 2), config)

    def test_overflowing_lambda_scores_infinity_and_stays_in_the_table(self,
                                                                      small_grid):
        """At lambda = 1e-320, h / lambda overflows; the solve raises a
        NumericalError, so the cell scores +inf instead of crashing CV.  In
        the middle of the grid it leaves the other cells, scored in the same
        pass, bit for bit as in the grid without it."""
        config = CvConfig(folds=2, lambda_grid=(1e-320, 0.01),
                          bandwidth_scale_grid=(1.0,), seed=2)
        result = cross_validate(small_grid, make_dag("markov", 2), config)
        for node_result in result.nodes:
            scores = {c.lam: c.fold_scores for c in node_result.table}
            assert scores[1e-320] == (math.inf, math.inf)
            assert all(math.isfinite(s) for s in scores[0.01])
            assert node_result.best_lam == 0.01
        tables = [
            cross_validate(small_grid, make_dag("markov", 2),
                           CvConfig(folds=2, lambda_grid=lambdas,
                                    bandwidth_scale_grid=(1.0,), seed=2)).nodes
            for lambdas in ((0.01, 1e-320, 0.1), (0.01, 0.1))]
        for with_failure, without in zip(*tables):
            scores = {c.lam: c.fold_scores for c in with_failure.table}
            assert scores.pop(1e-320) == (math.inf, math.inf)
            assert scores == {c.lam: c.fold_scores for c in without.table}
            assert with_failure.best_lam == without.best_lam

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_score_is_never_selected(self):
        # lambda=1e-300 at scale 0.01 overflows T's derivatives, so the
        # held-out score is nan; it must score +inf in either grid order
        raw = rejection_sample_grid(GridDatasetConfig(dim=3, n=60, seed=0))
        data = standardize(raw)
        dag = make_dag("markov", 3)
        fwd = CvConfig(folds=3, lambda_grid=(1e-300, 0.001),
                       bandwidth_scale_grid=(0.01, 1.0))
        rev = CvConfig(folds=3, lambda_grid=(0.001, 1e-300),
                       bandwidth_scale_grid=(1.0, 0.01))
        r_fwd = cross_validate(data, dag, fwd)
        r_rev = cross_validate(data, dag, rev)
        for a, b in zip(r_fwd.nodes, r_rev.nodes):
            for cell in a.table + b.table:
                assert not math.isnan(cell.mean_score)
                assert not any(math.isnan(s) for s in cell.fold_scores)
            assert math.isfinite(a.best_score)
            assert (a.best_lam, a.best_scale) == (b.best_lam, b.best_scale)
            assert a.best_score == b.best_score

    def test_on_grid_edge_flags_boundary_picks(self, small_grid):
        config = CvConfig(folds=3, lambda_grid=(1e-6, 1e-4, 1e-2, 1.0),
                          bandwidth_scale_grid=(0.25, 1.0, 4.0), seed=7)
        result = cross_validate(small_grid, make_dag("markov", 2), config)
        interior, edge = result.nodes
        assert (interior.best_lam, interior.best_scale) == (1e-4, 1.0)
        assert not interior.on_grid_edge
        assert edge.best_scale == 4.0
        assert edge.on_grid_edge

    def test_needs_enough_rows(self, small_grid):
        with pytest.raises(DataError):
            cross_validate(np.zeros((3, 2)), make_dag("markov", 2),
                           CvConfig(folds=5))

    def test_hyperparams_export(self, small_grid):
        config = CvConfig(folds=3, lambda_grid=(0.05,),
                          bandwidth_scale_grid=(2.0,), seed=2)
        result = cross_validate(small_grid, make_dag("markov", 2), config)
        hyper = result.hyperparams()
        assert all(isinstance(h, NodeHyperparams) for h in hyper)
        assert hyper[0].lam == 0.05 and hyper[0].scale == 2.0

    def test_default_grid_selects_interior_lambda(self):
        """Soft sanity check: warn (do not fail) if the chosen lambda sits on
        the default grid boundary."""
        raw = rejection_sample_grid(GridDatasetConfig(dim=3, n=500, seed=1))
        ds = standardize(raw)
        result = cross_validate(ds, make_dag("markov", 3), CvConfig(seed=3))
        grid = CvConfig().lambda_grid
        for node_result in result.nodes:
            if node_result.best_lam in (min(grid), max(grid)):
                warnings.warn(
                    f"node {node_result.node}: selected lambda "
                    f"{node_result.best_lam:g} lies on the default grid edge"
                )


class TestFisherDivergence:
    def test_zero_for_identical_scores(self, rng):
        score = lambda X, Y: -Y
        X = rng.normal(size=(50, 1))
        Y = rng.normal(size=(50, 1))
        assert fisher_divergence(score, score, X, Y) == 0.0

    def test_gaussian_mean_shift_closed_form(self):
        # unit-variance Gaussians with means 0 and 1: the score difference is
        # the constant -1, so the divergence is exactly 1/2
        rng = np.random.default_rng(8)
        X = rng.normal(size=(10_000, 1))
        Y = rng.normal(size=(10_000, 1))  # samples from p = N(0, 1)
        p_score = lambda X_, Y_: -Y_
        q_score = lambda X_, Y_: -(Y_ - 1.0)
        est = fisher_divergence(p_score, q_score, X, Y)
        diffs = 0.5 * np.ones(10_000)
        se = diffs.std(ddof=1) / math.sqrt(10_000)  # zero here
        assert abs(est - 0.5) <= max(3 * se, 1e-12)

    def test_nonnegative(self, rng):
        for _ in range(10):
            a = rng.normal()
            b = rng.normal()
            p_score = lambda X_, Y_: a * Y_
            q_score = lambda X_, Y_: b * Y_ + 1.0
            X = rng.normal(size=(40, 2))
            Y = rng.normal(size=(40, 2))
            assert fisher_divergence(p_score, q_score, X, Y) >= 0.0

    def test_nonfinite_score_rejected(self, rng):
        bad = lambda X_, Y_: np.full_like(Y_, np.nan)
        good = lambda X_, Y_: -Y_
        with pytest.raises(NumericalError):
            fisher_divergence(bad, good, rng.normal(size=(5, 1)),
                              rng.normal(size=(5, 1)))


class TestDisjointSupportDemo:
    def test_divergence_vanishes_but_tv_is_large(self):
        result = disjoint_support_demo(n_samples=50_000, seed=0)
        assert result["fisher_divergence"] < 1e-12
        assert result["tv_distance"] > 0.4
        assert result["tv_distance"] == pytest.approx(0.5, abs=1e-3)

    def test_deterministic(self):
        a = disjoint_support_demo(n_samples=10_000, seed=4)
        b = disjoint_support_demo(n_samples=10_000, seed=4)
        assert a["fisher_divergence"] == b["fisher_divergence"]
        assert a["tv_distance"] == b["tv_distance"]
