import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats as st

import kexpfam.sampling as sampling_mod
import kexpfam.score_fit as score_fit
from kexpfam.data_io import standardize
from kexpfam.errors import DataError, NumericalError
from kexpfam.factorization import NodeHyperparams, fit_joint, make_dag
from kexpfam.kernels import ConstantKernel, GaussianKernelSpec
from kexpfam.sampling import (
    GridDatasetConfig,
    GridSamplerConfig,
    HmcConfig,
    _grid_nodes,
    _grid_pass,
    _make_potential,
    ancestral_sample,
    hmc_sample_conditional,
    leapfrog,
    rejection_sample_grid,
)
from kexpfam.score_fit import FactorModel, cross_T_blocks, unnorm_logpdf_rows


def zero_T_model(d=1):
    n = 5
    return FactorModel(x_train=np.empty((n, 0)), y_train=np.zeros((n, d)),
                       kernel_x=ConstantKernel(),
                       kernel_y=GaussianKernelSpec(np.ones(d)),
                       lam=1.0, beta=np.zeros(n * d), xi_coeff=0.0)


@pytest.fixture(scope="module")
def grid_conditional():
    """A well-behaved 1-D fitted conditional on 2-column grid data."""
    raw = rejection_sample_grid(GridDatasetConfig(dim=2, n=400, seed=11))
    ds = standardize(raw)
    model = fit_joint(ds, make_dag("markov", 2), NodeHyperparams(lam=3e-3))
    return model.factors[1]


@pytest.fixture(scope="module")
def capped_conditional():
    """Node 3 of a 4-column full-DAG fit: with three parents at n = 300,
    pivoting k_X reaches its cap, so T takes the exact k_X route."""
    raw = rejection_sample_grid(GridDatasetConfig(dim=4, n=300, seed=3))
    model = fit_joint(standardize(raw), make_dag("full", 4), NodeHyperparams(lam=1e-2))
    return model.factors[3]


def quadrature_cdf(factor, x0, half_width_stds=8.0, points=4097):
    std = factor.base.std
    grid = np.linspace(-half_width_stds * std, half_width_stds * std, points)
    logp = unnorm_logpdf_rows(factor, np.repeat(x0[None, :], grid.size, axis=0),
                              grid[:, None])
    pdf = np.exp(logp - logp.max())
    cdf = np.concatenate(
        [[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))]
    )
    return grid, cdf / cdf[-1]


def per_row_grid_pass(factor, x_rows, uniforms):
    """The grid pass as one loop over distinct rows, each row's T (from
    ``cross_T_blocks`` on that row alone), density, CDF, normalizer and
    draws computed on their own: the reference that ``_grid_pass``'s
    whole-chunk steps must match bit for bit."""
    grid = _grid_nodes(factor)
    widths = np.diff(grid)
    coarse_widths = grid[2::2] - grid[:-2:2]
    log_q0 = factor.base.log_pdf_rows(grid[:, None])
    uniq, inverse = np.unique(x_rows, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    draws, log_z, gap = np.empty(x_rows.shape[0]), np.empty(uniq.shape[0]), np.empty(uniq.shape[0])
    for u in range(uniq.shape[0]):
        T = np.hstack([block for _, block in
                       cross_T_blocks(factor, uniq[u:u + 1], grid[:, None])])[0]
        log_p = log_q0 + T
        top = log_p.max()
        p = np.exp(log_p - top)
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * widths)))
        coarse = np.sum(0.5 * (p[2::2] + p[:-2:2]) * coarse_widths)
        log_z[u] = top + math.log(cdf[-1])
        gap[u] = abs(math.log(cdf[-1] / coarse)) if coarse > 0.0 else math.inf
        rows = np.flatnonzero(inverse == u)
        target = uniforms[rows] * cdf[-1]
        i = np.minimum(np.searchsorted(cdf, target, side="right") - 1, grid.size - 2)
        rest = target - cdf[i]
        slope = (p[i + 1] - p[i]) / widths[i]
        root = p[i] + np.sqrt(np.maximum(p[i] * p[i] + 2.0 * slope * rest, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(root > 0.0, 2.0 * rest / root, 0.0)
        draws[rows] = grid[i] + np.minimum(step, widths[i])
    return draws, log_z[inverse], gap[inverse], grid


def spiked_conditional():
    """T(x, y) = 1e6 k_X(x, 0) d/du k_Y(u, y) at u = 0.1: for x near 0 the
    density peaks at an odd grid node and falls by more than 745 nats
    within one cell, so the even nodes miss it; for |x| = 10, k_X is
    about 2e-22 and the density is smooth."""
    return FactorModel(x_train=np.array([[0.0]]), y_train=np.array([[0.1]]),
                       kernel_x=GaussianKernelSpec([1.0]),
                       kernel_y=GaussianKernelSpec([1.0]), lam=1.0,
                       beta=np.array([1e6]), xi_coeff=0.0)


def ecdf_sup_distance(samples, grid, cdf):
    ys = np.sort(samples)
    emp_hi = np.arange(1, ys.size + 1) / ys.size
    model_cdf = np.interp(ys, grid, cdf)
    return float(np.max(np.maximum(np.abs(emp_hi - model_cdf),
                                   np.abs(emp_hi - 1.0 / ys.size - model_cdf))))


class TestConfigs:
    def test_hmc_config_validation(self):
        for kwargs in ({"step_size": 0.0}, {"leapfrog_steps": 0},
                       {"burn_in": -1}, {"thin": 0}):
            with pytest.raises(DataError):
                HmcConfig(**kwargs)

    def test_grid_config_validation(self):
        for kwargs in ({"dim": 0, "n": 5}, {"dim": 2, "n": 0},
                       {"dim": 2, "n": 5, "support": (1.0, 0.0)},
                       {"dim": 2, "n": 5, "weights_a": -1.0}):
            with pytest.raises(DataError):
                GridDatasetConfig(**kwargs)

    def test_grid_weights_broadcast(self):
        cfg = GridDatasetConfig(dim=3, n=10, weights_a=2.0, weights_b=[1, 2, 3])
        np.testing.assert_array_equal(cfg.weights_a, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(cfg.weights_b, [1.0, 2.0, 3.0])


class TestLeapfrog:
    def test_reversibility(self, grid_conditional, rng):
        x_rows = np.repeat([[0.3]], 6, axis=0)
        _, grad_u = _make_potential(grid_conditional, x_rows)
        y0 = rng.normal(size=(6, 1))
        p0 = rng.normal(size=(6, 1))
        y1, p1 = leapfrog(y0, p0, grad_u, 0.1, 20)
        y2, p2 = leapfrog(y1, -p1, grad_u, 0.1, 20)
        np.testing.assert_allclose(y2, y0, atol=1e-8)
        np.testing.assert_allclose(-p2, p0, atol=1e-8)

    def test_energy_error_scales_quadratically(self, grid_conditional):
        x_rows = np.repeat([[0.3]], 4, axis=0)
        potential, grad_u = _make_potential(grid_conditional, x_rows)

        def mean_abs_energy_change(h, n_traj=100):
            rng = np.random.default_rng(5)
            total = 0.0
            for _ in range(n_traj):
                y = grid_conditional.base.sample(rng, 4, 1)
                p = rng.normal(size=(4, 1))
                h0 = potential(y) + 0.5 * np.sum(p * p, axis=1)
                y1, p1 = leapfrog(y, p, grad_u, h, 20)
                h1 = potential(y1) + 0.5 * np.sum(p1 * p1, axis=1)
                total += float(np.mean(np.abs(h1 - h0)))
            return total / n_traj

        coarse = mean_abs_energy_change(0.2)
        fine = mean_abs_energy_change(0.1)
        assert fine <= 0.3 * coarse


class TestHmcConditional:
    def test_zero_T_matches_base_density(self):
        samples = hmc_sample_conditional(zero_T_model(), None, 2000,
                                         HmcConfig(seed=17))
        stat = st.kstest(samples[:, 0], st.norm(scale=2.0).cdf).statistic
        critical = st.kstwobign.isf(0.01) / np.sqrt(2000)
        assert stat < critical

    def test_tiny_step_acceptance_near_one(self, grid_conditional):
        x_rows = np.repeat([[0.3]], sampling_mod._CHAINS, axis=0)
        _, rate = sampling_mod._run_chains(
            grid_conditional, x_rows, 5,
            HmcConfig(step_size=1e-4, burn_in=10, thin=1, seed=1))
        assert rate > 0.99

    def test_fitted_conditional_matches_quadrature_cdf(self, grid_conditional):
        x0 = np.array([0.3])
        samples = hmc_sample_conditional(grid_conditional, x0, 2000,
                                         HmcConfig(seed=3))
        grid, cdf = quadrature_cdf(grid_conditional, x0)
        assert ecdf_sup_distance(samples[:, 0], grid, cdf) < 0.05

    def test_acceptance_rate_in_unit_interval(self, grid_conditional):
        x_rows = np.repeat([[0.0]], sampling_mod._CHAINS, axis=0)
        _, rate = sampling_mod._run_chains(grid_conditional, x_rows, 3, HmcConfig(seed=2))
        assert 0.0 < rate <= 1.0

    def test_seed_determinism(self, grid_conditional):
        a = hmc_sample_conditional(grid_conditional, [0.1], 60, HmcConfig(seed=9))
        b = hmc_sample_conditional(grid_conditional, [0.1], 60, HmcConfig(seed=9))
        np.testing.assert_array_equal(a, b)
        c = hmc_sample_conditional(grid_conditional, [0.1], 60, HmcConfig(seed=10))
        assert not np.array_equal(a, c)

    def test_sample_count_and_shape(self, grid_conditional):
        samples = hmc_sample_conditional(grid_conditional, [0.0], 37,
                                         HmcConfig(seed=0, burn_in=5))
        assert samples.shape == (37, 1)

    def test_rejects_bad_count(self, grid_conditional):
        with pytest.raises(DataError):
            hmc_sample_conditional(grid_conditional, [0.0], 0, HmcConfig())

    def test_non_finite_conditioning_point_is_data_error(self, grid_conditional):
        """A nan x makes every potential nan; it is bad input, not a
        numerical failure after a hundred resamplings of y."""
        for bad in (np.nan, np.inf):
            with pytest.raises(DataError, match="must be finite"):
                hmc_sample_conditional(grid_conditional, [bad], 10, HmcConfig())


def grid_binned_tv(points, bins=20):
    """Total variation between the 2-d histogram of ``points`` and the true
    binned density of the 2-d grid distribution."""
    edges = np.linspace(0.0, 1.0, bins + 1)

    # true binned probabilities by quadrature over each cell
    probs = np.zeros((bins, bins))
    gx = np.linspace(0.0, 1.0, 2049)
    for a in range(bins):
        xs = np.linspace(edges[a], edges[a + 1], 40)
        z_norm = np.trapezoid(
            1 + np.sin(2 * np.pi * gx)[None, :] * np.sin(2 * np.pi * xs)[:, None],
            gx, axis=1,
        )
        for b in range(bins):
            ys = np.linspace(edges[b], edges[b + 1], 40)
            vals = (1 + np.sin(2 * np.pi * ys)[None, :]
                    * np.sin(2 * np.pi * xs)[:, None]) / z_norm[:, None]
            probs[a, b] = np.trapezoid(np.trapezoid(vals, ys, axis=1), xs)
    probs /= probs.sum()

    clipped = np.clip(points, 0.0, 1.0 - 1e-12)
    hist, _, _ = np.histogram2d(clipped[:, 0], clipped[:, 1], bins=[edges, edges])
    return 0.5 * np.abs(hist / hist.sum() - probs).sum()


@pytest.fixture(scope="module")
def joint_model():
    raw = rejection_sample_grid(GridDatasetConfig(dim=2, n=300, seed=11))
    return fit_joint(standardize(raw), make_dag("markov", 2),
                     NodeHyperparams(lam=3e-3))


class TestAncestral:

    def test_single_node_reduces_to_marginal_chains(self, rng):
        raw = rng.normal(size=(60, 1)) * 1.5
        ds = standardize(raw)
        model = fit_joint(ds, make_dag("full", 1), NodeHyperparams(lam=0.05))
        config = HmcConfig(seed=4, burn_in=20)
        samples = ancestral_sample(model, 25, config)
        chains, _ = sampling_mod._run_chains(model.factors[0],
                                             np.empty((25, 0)), 1, config)
        expect = chains[:, 0, :] * ds.column_stds + ds.column_means
        np.testing.assert_array_equal(samples, expect)

    def test_seed_determinism(self, joint_model):
        config = HmcConfig(seed=21, burn_in=20)
        a = ancestral_sample(joint_model, 30, config)
        b = ancestral_sample(joint_model, 30, config)
        np.testing.assert_array_equal(a, b)

    def test_output_in_original_units(self, joint_model):
        samples = ancestral_sample(joint_model, 200, HmcConfig(seed=2, burn_in=30))
        # grid data lives on [0, 1]; destandardized output should center there
        assert 0.2 < np.median(samples) < 0.8

    def test_histogram_close_to_true_density(self, joint_model):
        """End-to-end check: the model-sampled 2-d histogram is nearly as
        close to the true binned density as a same-size exact sample.

        At 2000 samples on a 20x20 grid the multinomial noise floor alone is
        a total variation of about 0.17, so the comparison is calibrated
        against an exact-sampler baseline rather than an absolute constant.
        """
        samples = ancestral_sample(joint_model, 2000, HmcConfig(seed=21))
        tv_model = grid_binned_tv(samples)
        exact = rejection_sample_grid(GridDatasetConfig(dim=2, n=2000, seed=77))
        tv_floor = grid_binned_tv(exact)
        assert tv_model < 0.25
        assert tv_model - tv_floor < 0.07

    def test_rejects_bad_count(self, joint_model):
        with pytest.raises(DataError):
            ancestral_sample(joint_model, 0)

    def test_stats_report_per_node_acceptance(self, rng):
        raw = rng.normal(size=(60, 1)) * 1.5
        model = fit_joint(standardize(raw), make_dag("full", 1),
                          NodeHyperparams(lam=0.05))
        config = HmcConfig(seed=4, burn_in=20)
        samples, stats = ancestral_sample(model, 25, config, return_stats=True)
        _, rate = sampling_mod._run_chains(model.factors[0], np.empty((25, 0)), 1,
                                           config)
        assert stats == {"sampler": "hmc",
                         "per_node": [{"node": 0, "accept_rate": rate}]}
        assert 0.0 < rate <= 1.0
        np.testing.assert_array_equal(samples, ancestral_sample(model, 25, config))


class TestGridSampler:
    """The default route of ``ancestral_sample``: exact inverse-CDF draws on a
    y-grid, each checked against an independent route."""

    def test_fitted_conditional_matches_quadrature_cdf(self, grid_conditional):
        x0 = np.array([0.3])
        uniforms = np.random.default_rng(3).random(2000)
        draws, _, _, _ = _grid_pass(grid_conditional, np.repeat(x0[None, :], 2000, axis=0),
                                 uniforms)
        grid, cdf = quadrature_cdf(grid_conditional, x0)
        assert ecdf_sup_distance(draws, grid, cdf) < 0.05

    def test_zero_T_matches_base_density(self):
        uniforms = np.random.default_rng(17).random(2000)
        draws, log_z, _, _ = _grid_pass(zero_T_model(), np.empty((2000, 0)), uniforms)
        stat = st.kstest(draws, st.norm(scale=2.0).cdf).statistic
        assert stat < st.kstwobign.isf(0.01) / np.sqrt(2000)
        np.testing.assert_allclose(log_z, 0.0, atol=1e-6)

    def test_histogram_close_to_true_density(self, joint_model):
        samples = ancestral_sample(joint_model, 2000, GridSamplerConfig(seed=21))
        tv_model = grid_binned_tv(samples)
        exact = rejection_sample_grid(GridDatasetConfig(dim=2, n=2000, seed=77))
        tv_floor = grid_binned_tv(exact)
        assert tv_model < 0.25
        assert tv_model - tv_floor < 0.07

    def test_is_the_default(self, joint_model):
        np.testing.assert_array_equal(ancestral_sample(joint_model, 15),
                                      ancestral_sample(joint_model, 15,
                                                       GridSamplerConfig()))

    def test_seed_determinism(self, joint_model):
        a = ancestral_sample(joint_model, 30, GridSamplerConfig(seed=21))
        b = ancestral_sample(joint_model, 30, GridSamplerConfig(seed=21))
        assert a.tobytes() == b.tobytes()
        c = ancestral_sample(joint_model, 30, GridSamplerConfig(seed=22))
        assert not np.array_equal(a, c)

    def test_rows_independent_of_count_and_chunk(self, joint_model, monkeypatch):
        config = GridSamplerConfig(seed=5)
        first = ancestral_sample(joint_model, 20, config)
        assert ancestral_sample(joint_model, 10, config).tobytes() == first[:10].tobytes()
        monkeypatch.setattr(sampling_mod, "_GRID_ROW_CHUNK", 3)
        assert ancestral_sample(joint_model, 20, config).tobytes() == first.tobytes()

    def test_grid_spacing_follows_y_bandwidth(self, joint_model):
        for factor in joint_model.factors:
            grid = _grid_nodes(factor)
            sigma_y = factor.kernel_y.bandwidths[0]
            assert grid.size % 2 == 1
            assert np.max(np.diff(grid)) <= sigma_y / 8 * (1 + 1e-12)
            assert grid[0] <= min(-8 * factor.base.std,
                                  factor.y_train.min() - 8 * sigma_y)
            assert grid[-1] >= max(8 * factor.base.std,
                                   factor.y_train.max() + 8 * sigma_y)

    def test_diagnostics_describe_grid_and_log_z_gap(self, joint_model):
        samples, stats = ancestral_sample(joint_model, 12, GridSamplerConfig(seed=1),
                                          return_stats=True)
        assert stats["sampler"] == "grid"
        assert [e["node"] for e in stats["per_node"]] == [0, 1]
        z = joint_model.standardize_rows(samples)
        for node, entry in enumerate(stats["per_node"]):
            factor = joint_model.factors[node]
            grid = _grid_nodes(factor)
            assert entry["grid_nodes"] == grid.size
            assert entry["spacing"] == pytest.approx(grid[1] - grid[0], rel=1e-12)
            # the gap between np.trapezoid on the full grid and on its even nodes
            parents = list(joint_model.dag.parents[node])
            gaps = []
            for x_row in z[:, parents]:
                logp = unnorm_logpdf_rows(factor, np.repeat(x_row[None, :], grid.size,
                                                            axis=0), grid[:, None])
                dens = np.exp(logp)
                gaps.append(abs(np.log(np.trapezoid(dens, grid))
                                - np.log(np.trapezoid(dens[::2], grid[::2]))))
            assert entry["max_log_z_gap"] == pytest.approx(max(gaps), rel=1e-6,
                                                           abs=1e-12)
            assert entry["max_log_z_gap"] < 1e-3

    def test_peak_missed_by_even_nodes_reports_infinite_gap(self):
        """T(y) = 1e6 * d/du k_Y(u, y) at u = 0.1 peaks at an odd node of
        the grid and falls by more than 745 nats within one cell."""
        spike = FactorModel(x_train=np.empty((1, 0)), y_train=np.array([[0.1]]),
                            kernel_x=ConstantKernel(),
                            kernel_y=GaussianKernelSpec([1.0]), lam=1.0,
                            beta=np.array([1e6]), xi_coeff=0.0)
        draws, log_z, gap, _ = _grid_pass(spike, np.empty((1, 0)), np.array([0.5]))
        assert np.isfinite(draws[0]) and np.isfinite(log_z[0])
        assert gap[0] == np.inf

    def test_infinite_gap_is_reported_as_none(self, joint_model, monkeypatch):
        real = sampling_mod._grid_pass

        def gapless(factor, *args, **kwargs):
            draws, log_z, gap, grid = real(factor, *args, **kwargs)
            return draws, log_z, np.full_like(gap, np.inf), grid

        monkeypatch.setattr(sampling_mod, "_grid_pass", gapless)
        _, stats = ancestral_sample(joint_model, 4, return_stats=True)
        assert [e["max_log_z_gap"] for e in stats["per_node"]] == [None, None]

    @pytest.mark.parametrize("route", ["factor", "exact"])
    def test_repeated_rows_match_rows_drawn_alone(self, route, request):
        """On both routes of ``cross_T_blocks``: the pivoted factor of k_X
        (one parent), and k_X itself once pivoting reaches its cap (three
        parents, 150 of the training rows drawn together)."""
        if route == "factor":
            factor = request.getfixturevalue("grid_conditional")
            x_rows = np.array([[0.3], [-1.0], [0.3], [0.3], [-1.0]])
        else:
            factor = request.getfixturevalue("capped_conditional")
            x_rows = factor.x_train[:150]
        assert (score_fit._kx_factor(factor) is None) == (route == "exact")
        uniforms = np.random.default_rng(8).random(x_rows.shape[0])
        draws, log_z, gap, _ = _grid_pass(factor, x_rows, uniforms)
        for r in range(x_rows.shape[0]):
            alone = _grid_pass(factor, x_rows[r:r + 1], uniforms[r:r + 1])
            assert (draws[r], log_z[r], gap[r]) == tuple(v[0] for v in alone[:3])

    @pytest.mark.parametrize("case", ["repeated rows", "parentless", "missed peak"])
    def test_matches_the_per_row_reference(self, case, grid_conditional, joint_model,
                                           monkeypatch):
        """With 3 distinct rows per chunk, the rows span at least 3 chunks
        (one for a parentless factor), and every draw, log Z and gap equals
        the per-row reference bit for bit, infinite gaps included."""
        monkeypatch.setattr(sampling_mod, "_GRID_ROW_CHUNK", 3)
        rng = np.random.default_rng(12)
        if case == "repeated rows":
            factor = grid_conditional
            x_rows = rng.normal(size=(8, 1))[rng.integers(0, 8, size=40)]
        elif case == "parentless":
            factor = joint_model.factors[0]
            x_rows = np.empty((40, 0))
        else:
            factor = spiked_conditional()
            x_rows = np.array([[0.0], [10.0], [0.5], [-10.0], [0.0], [3.0],
                               [-0.2], [10.0], [7.0], [1.5], [0.5]])
        uniforms = rng.random(x_rows.shape[0])
        uniforms[:2] = 0.0, np.nextafter(1.0, 0.0)
        got = _grid_pass(factor, x_rows, uniforms)
        want = per_row_grid_pass(factor, x_rows, uniforms)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        distinct = np.unique(x_rows, axis=0).shape[0]
        assert distinct == 1 if case == "parentless" else distinct > 2 * 3
        if case == "missed peak":
            assert np.isinf(got[2]).any() and np.isfinite(got[2]).any()

    def test_non_finite_T_in_a_later_chunk_names_the_node(self, grid_conditional,
                                                         monkeypatch):
        """The first chunk of 3 distinct rows passes; in the second chunk,
        the last row's T is NaN."""
        monkeypatch.setattr(sampling_mod, "_GRID_ROW_CHUNK", 3)
        calls = []
        real = sampling_mod._cross_T

        def nan_in_second_chunk(model):
            T_blocks = real(model)

            def blocks(X_rows, Y_set):
                calls.append(X_rows.shape[0])
                for cols, T in T_blocks(X_rows, Y_set):
                    if len(calls) == 2:
                        T[-1] = np.nan
                    yield cols, T
            return blocks

        monkeypatch.setattr(sampling_mod, "_cross_T", nan_in_second_chunk)
        x_rows = np.linspace(-1.0, 1.0, 9)[:, None]
        with pytest.raises(NumericalError, match="at node 4"):
            _grid_pass(grid_conditional, x_rows, np.full(9, 0.5), node_index=4)
        assert calls == [3, 3]

    def test_each_node_pivots_k_X_once(self, joint_model, monkeypatch):
        """The grid pass prepares a node's ``cross_T_blocks`` once: with more
        distinct parent rows than one chunk of 256, k_X is still pivoted
        once per node."""
        pivoted = []
        real = score_fit._kx_factor
        monkeypatch.setattr(score_fit, "_kx_factor",
                            lambda model: pivoted.append(model) or real(model))
        ancestral_sample(joint_model, 2 * sampling_mod._GRID_ROW_CHUNK + 1)
        assert sorted(map(id, pivoted)) == sorted(map(id, joint_model.factors))

    def test_grid_too_large_for_memory_is_data_error(self, joint_model, monkeypatch):
        monkeypatch.setattr(score_fit, "_physical_memory_bytes", lambda: 1024)
        with pytest.raises(DataError, match="HMC"):
            ancestral_sample(joint_model, 5)
        ancestral_sample(joint_model, 5, HmcConfig(burn_in=2))

    @pytest.mark.parametrize("sigma_y", [1.0, 50.0])
    def test_preflight_bounds_the_whole_grid_pass(self, sigma_y, monkeypatch):
        """The one pre-flight of ``_grid_nodes``, a chunk's density and CDF
        and what ``cross_T_blocks`` holds for a chunk on the exact route,
        bounds the traced peak of the whole pass.  This model takes the
        factor route (rank 23), and the pass peaks at 0.60-0.70 of the
        count; a capped model at n = 1024 peaks at 0.92-0.96."""
        rng = np.random.default_rng(5)
        n = 1024
        model = FactorModel(x_train=rng.normal(size=(n, 1)),
                            y_train=rng.normal(size=(n, 1)),
                            kernel_x=GaussianKernelSpec([1.0]),
                            kernel_y=GaussianKernelSpec([sigma_y]),
                            lam=1e-2, beta=1e-3 * rng.normal(size=n))
        rows = 4 * sampling_mod._GRID_ROW_CHUNK  # all distinct
        x_rows, uniforms = rng.normal(size=(rows, 1)), rng.uniform(size=rows)
        for workers in (1, 2):  # cross_T_blocks pools at n = 1024
            monkeypatch.setattr(score_fit, "_worker_count", lambda: workers)
            checked = []
            monkeypatch.setattr(sampling_mod, "_check_memory",
                                lambda need, *_: checked.append(need))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                _grid_pass(model, x_rows, uniforms)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert len(checked) == 1
            assert peak <= checked[0], workers

    def test_tiny_y_bandwidth_is_rejected_before_allocating(self, monkeypatch):
        monkeypatch.setattr(score_fit, "_physical_memory_bytes", lambda: 2**36)
        model = FactorModel(x_train=np.empty((5, 0)), y_train=np.zeros((5, 1)),
                            kernel_x=ConstantKernel(),
                            kernel_y=GaussianKernelSpec([1e-8]),
                            lam=1.0, beta=np.zeros(5), xi_coeff=0.0)
        with pytest.raises(DataError, match="nodes"):
            _grid_nodes(model)

    def test_non_finite_T_names_the_node(self, joint_model, monkeypatch):
        real = sampling_mod._cross_T

        def broken(model):
            T_blocks = real(model)

            def blocks(X_rows, Y_set):
                for cols, T in T_blocks(X_rows, Y_set):
                    broken_node = model is joint_model.factors[1]
                    yield cols, np.full_like(T, np.inf) if broken_node else T
            return blocks

        monkeypatch.setattr(sampling_mod, "_cross_T", broken)
        with pytest.raises(NumericalError, match="node 1"):
            ancestral_sample(joint_model, 5)

    def test_rejects_unknown_config(self, joint_model):
        with pytest.raises(DataError, match="config"):
            ancestral_sample(joint_model, 5, {"seed": 0})


class TestRejectionGrid:
    def test_zero_weights_give_uniform(self):
        X = rejection_sample_grid(GridDatasetConfig(dim=2, n=5000,
                                                    weights_a=0.0,
                                                    weights_b=0.0, seed=8))
        obs, _ = np.histogram(X[:, 1], bins=np.linspace(0, 1, 21))
        assert st.chisquare(obs).pvalue > 0.01

    def test_conditional_band_matches_quadrature(self):
        X = rejection_sample_grid(GridDatasetConfig(dim=2, n=5000, seed=4))
        band = (X[:, 0] >= 0.45) & (X[:, 0] <= 0.55)
        x2 = X[band, 1]
        nbins = 20
        edges = np.linspace(0, 1, nbins + 1)
        gx = np.linspace(0.45, 0.55, 201)
        probs = np.empty(nbins)
        for b in range(nbins):
            ys = np.linspace(edges[b], edges[b + 1], 101)
            dens = (1 + np.sin(2 * np.pi * ys)[None, :]
                    * np.sin(2 * np.pi * gx)[:, None])
            probs[b] = np.trapezoid(np.trapezoid(dens, ys, axis=1), gx)
        probs /= probs.sum()
        obs, _ = np.histogram(x2, bins=edges)
        assert st.chisquare(obs, f_exp=probs * obs.sum()).pvalue > 0.01

    def test_seed_determinism(self):
        cfg = GridDatasetConfig(dim=3, n=500, seed=12)
        np.testing.assert_array_equal(rejection_sample_grid(cfg),
                                      rejection_sample_grid(cfg))

    def test_acceptance_rate_near_half(self):
        _, stats = rejection_sample_grid(
            GridDatasetConfig(dim=3, n=4000, seed=2), return_stats=True
        )
        assert 0.4 <= stats["accept_rate"] <= 0.6

    def test_trial_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sampling_mod, "_TRIAL_CAP", 1)
        with pytest.raises(NumericalError, match="trials"):
            rejection_sample_grid(GridDatasetConfig(dim=2, n=300, seed=0))

    def test_support_respected(self):
        X = rejection_sample_grid(GridDatasetConfig(dim=2, n=1000,
                                                    support=(-2.0, 3.0), seed=6))
        assert X.min() >= -2.0
        assert X.max() <= 3.0


class TestInitializationFailure:
    def test_nonfinite_potential_reported(self, monkeypatch):
        model = zero_T_model()

        def broken_potential(model_, x_rows):
            return (lambda Y: np.full(Y.shape[0], np.nan),
                    lambda Y: np.zeros_like(Y))

        monkeypatch.setattr(sampling_mod, "_make_potential", broken_potential)
        with pytest.raises(NumericalError, match="initialization"):
            hmc_sample_conditional(model, None, 10, HmcConfig(seed=0))
