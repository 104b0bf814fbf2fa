"""Samplers: exact inverse-CDF draws on a y-grid and HMC for fitted
conditionals, ancestral composition over a DAG, and the synthetic grid
dataset generator.

Every HMC chain owns a private counter-based (Philox) stream keyed by
(seed, node index, chain index), so running chains in parallel or serially
produces identical output.  The grid sampler takes one uniform per row from
a Philox stream keyed by (seed, node index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .factorization import JointModel
from .kernels import kernel_matrix
from .score_fit import (FactorModel, _as_x_row, _check_memory, _cross_T,
                        _cross_T_bytes, _T_terms)

_INIT_RETRIES = 100
_CHAINS = 20  # of hmc_sample_conditional, as in the experimental protocol
_TRIAL_CAP = 1_000_000
# Distinct conditioning rows per chunk of the grid pass: one call of the
# node's prepared cross_T_blocks for their T, then one (chunk, G) density
# and one (chunk, G) CDF, each computed over the whole chunk at once.
_GRID_ROW_CHUNK = 256
# Chains per chunk of _run_chains: a chunk holds one (n, chunk) k_X between
# the training rows and its conditioning rows, so memory does not grow with
# the chain count.
_CHAIN_CHUNK = 2048


@dataclass(frozen=True)
class GridSamplerConfig:
    """Exact inverse-CDF sampling of d = 1 factors on a y-grid.

    The grid follows from each factor (``_grid_nodes``), so the seed is the
    only setting.
    """

    seed: int = 0


@dataclass(frozen=True)
class HmcConfig:
    """Leapfrog-Metropolis sampler settings.

    Defaults follow the experimental protocol this library reproduces:
    burn-in of 100 iterations and thinning by 10.  The mass matrix is the
    identity and no step-size adaptation is performed, which keeps runs
    reproducible.  The chain count is not a setting:
    ``hmc_sample_conditional`` runs ``_CHAINS`` chains and
    ``ancestral_sample`` one per output row.
    """

    step_size: float = 0.1
    leapfrog_steps: int = 20
    burn_in: int = 100
    thin: int = 10
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.step_size) or self.step_size <= 0:
            raise DataError("step_size must be positive")
        if self.leapfrog_steps < 1:
            raise DataError("leapfrog_steps must be >= 1")
        if self.burn_in < 0:
            raise DataError("burn_in must be >= 0")
        if self.thin < 1:
            raise DataError("thin must be >= 1")


@dataclass(frozen=True, eq=False)
class GridDatasetConfig:
    """Synthetic 'grid' distribution: first coordinate uniform on the
    support, each later coordinate i distributed proportionally to
    1 + sin(2*pi*wa_i * x_i) * sin(2*pi*wb_i * x_{i-1}).

    ``weights_a``/``weights_b`` hold one value per dimension (entry 0 is
    unused).  Scalars broadcast to every dimension.
    """

    dim: int
    n: int
    weights_a: np.ndarray = 1.0
    weights_b: np.ndarray = 1.0
    support: tuple[float, float] = (0.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise DataError("grid dimension must be >= 1")
        if self.n < 1:
            raise DataError("sample count must be >= 1")
        lo, hi = self.support
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise DataError("support must be a finite interval (lo, hi)")
        for name in ("weights_a", "weights_b"):
            w = np.broadcast_to(
                np.asarray(getattr(self, name), dtype=np.float64), (self.dim,)
            ).copy()
            if not np.all(np.isfinite(w)) or np.any(w < 0):
                raise DataError(f"{name} must be finite and nonnegative")
            w.flags.writeable = False
            object.__setattr__(self, name, w)


def _chain_rng(seed: int, node_index: int, chain_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=(int(seed), int(node_index), int(chain_index)))
    return np.random.Generator(np.random.Philox(ss))


def leapfrog(y: np.ndarray, p: np.ndarray, grad_potential,
             step_size: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Integrate Hamiltonian dynamics for one trajectory.

    ``y`` and ``p`` are (C, d) position/momentum batches and
    ``grad_potential`` maps positions to potential gradients of the same
    shape.  Returns the final (position, momentum) pair; the integrator is
    time-reversible up to roundoff when the momentum is negated.
    """
    y = np.array(y, dtype=np.float64)
    p = np.array(p, dtype=np.float64)
    p -= 0.5 * step_size * grad_potential(y)
    for step in range(n_steps):
        y += step_size * p
        g = grad_potential(y)
        p -= step_size * g if step < n_steps - 1 else 0.5 * step_size * g
    return y, p


def _make_potential(model: FactorModel, x_rows: np.ndarray):
    """Potential -log(unnormalized density) and its gradient, batched over
    chains with fixed per-chain conditioning rows."""
    kx_pair = kernel_matrix(model.kernel_x, model.x_train, x_rows)

    def potential(Y):
        value, _, _ = _T_terms(model, x_rows, Y, want_value=True, kx_pair=kx_pair)
        return -(model.base.log_pdf_rows(Y) + value)

    def grad_potential(Y):
        _, grad, _ = _T_terms(model, x_rows, Y, want_value=False, want_grad=True,
                              kx_pair=kx_pair)
        return -(model.base.grad_log(Y) + grad)

    return potential, grad_potential


def _run_chains(model: FactorModel, x_rows: np.ndarray, samples_per_chain: int,
                config: HmcConfig, node_index: int = 0):
    """Run one independent chain per row of ``x_rows``, in chunks of
    ``_CHAIN_CHUNK`` rows.  Row c's chain is keyed by (seed, node_index, c)
    and a row's T does not depend on the other rows, so its states do not
    depend on the chunks or on how many rows there are.

    Returns (samples (C, samples_per_chain, d), acceptance rate).
    """
    C = x_rows.shape[0]
    out = np.empty((C, samples_per_chain, model.d))
    accepted = 0
    for lo in range(0, C, _CHAIN_CHUNK):
        hi = min(lo + _CHAIN_CHUNK, C)
        accepted += _run_chunk(model, x_rows[lo:hi], out[lo:hi], config, node_index, lo)
    return out, accepted / ((config.burn_in + config.thin * samples_per_chain) * C)


def _run_chunk(model: FactorModel, x_rows: np.ndarray, out: np.ndarray,
               config: HmcConfig, node_index: int, first: int) -> int:
    """The chains of ``_run_chains`` for one chunk of rows, the first keyed
    by chain index ``first``; writes their samples into ``out`` and returns
    the number of accepted proposals."""
    C, samples_per_chain, d = out.shape
    rngs = [_chain_rng(config.seed, node_index, first + c) for c in range(C)]
    potential, grad_potential = _make_potential(model, x_rows)

    y = np.vstack([model.base.sample(rng, 1, d) for rng in rngs])
    U = potential(y)
    for _ in range(_INIT_RETRIES):
        bad = ~np.isfinite(U)
        if not np.any(bad):
            break
        for c in np.nonzero(bad)[0]:
            y[c] = model.base.sample(rngs[c], 1, d)[0]
        U = potential(y)
    else:
        raise NumericalError(
            "potential is non-finite at initialization after "
            f"{_INIT_RETRIES} resampling attempts"
        )

    total_iters = config.burn_in + config.thin * samples_per_chain
    n_out = 0
    accepted = 0
    for t in range(total_iters):
        p0 = np.vstack([rng.normal(size=d) for rng in rngs])
        log_u = np.log(np.array([rng.uniform() for rng in rngs]))
        h_old = U + 0.5 * np.sum(p0 * p0, axis=1)
        # a proposal that overflows has a non-finite energy and is rejected
        with np.errstate(over="ignore", invalid="ignore"):
            y_prop, p_prop = leapfrog(y, p0, grad_potential,
                                      config.step_size, config.leapfrog_steps)
            U_prop = potential(y_prop)
            h_new = U_prop + 0.5 * np.sum(p_prop * p_prop, axis=1)
            log_ratio = np.where(np.isfinite(h_new), h_old - h_new, -np.inf)
        accept = log_u < log_ratio
        y[accept] = y_prop[accept]
        U[accept] = U_prop[accept]
        accepted += int(np.sum(accept))
        if t >= config.burn_in and (t - config.burn_in + 1) % config.thin == 0:
            out[:, n_out, :] = y
            n_out += 1
    return accepted


def hmc_sample_conditional(model: FactorModel, x, n_samples: int,
                           config: HmcConfig | None = None) -> np.ndarray:
    """Draw samples from the fitted conditional p(y | x) by HMC.

    ``_CHAINS`` (20) chains start from independent base-density draws, run
    ``burn_in`` iterations, and then emit every ``thin``-th state until
    ``n_samples`` total are collected (round-robin across chains).
    """
    config = config if config is not None else HmcConfig()
    if n_samples < 1:
        raise DataError("n_samples must be >= 1")
    x_row = _as_x_row(x, model.p)
    per_chain = -(-n_samples // _CHAINS)
    x_rows = np.repeat(x_row, _CHAINS, axis=0)
    chains, _ = _run_chains(model, x_rows, per_chain, config)
    return chains.transpose(1, 0, 2).reshape(-1, model.d)[:n_samples]


def _grid_nodes(factor: FactorModel) -> np.ndarray:
    """The y-grid of a d = 1 factor.

    It spans [-8 sigma0, 8 sigma0] of the base density, widened where needed
    to cover the training targets +- 8 sigma_y (the y-kernel bandwidth, the
    scale on which T varies).  Its spacing is at most sigma_y / 8 and its
    node count is odd, so the even nodes form a grid of spacing at most
    sigma_y / 4.  Raises DataError before allocating when ``_grid_pass``
    cannot fit in physical memory, as with a tiny sigma_y: a chunk's (rows,
    nodes) density and CDF, and what ``cross_T_blocks`` holds for the chunk.
    The rank of k_X is unknown before pivoting, so the latter is counted
    for the exact route, with all n training rows.
    """
    sigma_y = float(factor.kernel_y.bandwidths[0])
    half = 8.0 * factor.base.std
    lo = min(-half, float(factor.y_train.min()) - 8.0 * sigma_y)
    hi = max(half, float(factor.y_train.max()) + 8.0 * sigma_y)
    nodes = 2 * math.ceil((hi - lo) / (0.25 * sigma_y)) + 1
    _check_memory(16 * _GRID_ROW_CHUNK * nodes
                  + _cross_T_bytes(factor.n, factor.d, _GRID_ROW_CHUNK, nodes),
                  f"grid sampling with {nodes} nodes and n = {factor.n}",
                  "sample by HMC instead (HmcConfig; on the command line, "
                  "any HMC flag such as --burn-in)")
    return np.linspace(lo, hi, nodes)


def _grid_density(T_blocks, x_rows: np.ndarray, log_q0: np.ndarray,
                  grid: np.ndarray, node_index: int = 0):
    """Densities on the grid of a chunk of at most ``_GRID_ROW_CHUNK``
    distinct conditioning rows of a d = 1 factor, whose ``cross_T_blocks``
    ``_cross_T`` prepared as ``T_blocks``.

    log q0(y) + T(x_u, y) fills a (rows, G) array, one block of
    ``T_blocks`` at a time, so a row's values do not depend on which
    or how many rows come with it.  The rest runs over the whole array: one
    finiteness check, the density exp(log p - row max) in place, the
    trapezoid CDF as a cumulative sum along each row and the trapezoid sums
    on the even nodes alone.

    Returns (p, cdf, log Z, gap): the (rows, G) density over its row
    maximum and its integral from grid[0], and per row log Z and |log Z -
    log Z on the even nodes alone| (inf where the even nodes miss the peak
    entirely and hold no mass).
    """
    p = np.empty((x_rows.shape[0], grid.size))
    for cols, T in T_blocks(x_rows, grid[:, None]):
        np.add(T, log_q0[cols], out=p[:, cols])
        del T  # so that the next block, or the CDF, is not allocated beside it
    if not np.isfinite(p).all():
        raise NumericalError(
            f"natural parameter is not finite on the sampling grid "
            f"at node {node_index}"
        )
    top = p.max(axis=1)
    p -= top[:, None]
    np.exp(p, out=p)
    # the even nodes' trapezoid sums come first: their (rows, G / 2)
    # temporaries are gone before the CDF is allocated
    coarse = np.sum(0.5 * (p[:, 2::2] + p[:, :-2:2]) * (grid[2::2] - grid[:-2:2]),
                    axis=1)
    cdf = np.empty_like(p)
    cdf[:, 0] = 0.0
    terms = cdf[:, 1:]  # in place: the pre-flight counts no temporaries here
    np.add(p[:, 1:], p[:, :-1], out=terms)
    terms *= 0.5
    terms *= np.diff(grid)
    np.cumsum(terms, axis=1, out=terms)
    log_z, gap = np.empty(p.shape[0]), np.empty(p.shape[0])
    for u, (total, even) in enumerate(zip(cdf[:, -1], coarse)):
        log_z[u] = top[u] + math.log(total)
        gap[u] = abs(math.log(total / even)) if even > 0.0 else math.inf
    return p, cdf, log_z, gap


def _grid_pass(factor: FactorModel, x_rows: np.ndarray, uniforms: np.ndarray,
               node_index: int = 0):
    """Normalizers and exact inverse-CDF draws of a d = 1 factor, per row.

    Row r's log q0(y) + T(x_r, y) is evaluated on the grid of
    ``_grid_nodes``.  Between nodes the density is taken as linear, so the
    trapezoid rule is its exact integral, and the draw for ``uniforms[r]``
    solves one quadratic in the cell that holds that fraction of the mass.
    Rows with equal conditioning values share one density.  The factor's
    ``cross_T_blocks`` is prepared once (``_cross_T``: one pivoting of k_X),
    and the distinct rows go through ``_grid_density`` in chunks of
    ``_GRID_ROW_CHUNK``; then each distinct row takes one binary search for
    all of its uniforms, and the quadratic runs once over the chunk's output
    rows.  Every step is
    element-wise or along one row, so a row's values do not depend on which
    or how many rows are computed together, or on the row chunk.

    Returns (draws (R,), log Z (R,), gap (R,), grid), where gap is
    |log Z - log Z on the even nodes alone|.
    """
    if factor.d != 1:
        raise DataError(f"grid sampling needs a 1-d target, node {node_index} "
                        f"has d = {factor.d}")
    grid = _grid_nodes(factor)
    widths = np.diff(grid)
    log_q0 = factor.base.log_pdf_rows(grid[:, None])
    T_blocks = _cross_T(factor)
    uniq, inverse = np.unique(x_rows, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")  # rows grouped by distinct row
    ends = np.cumsum(np.bincount(inverse, minlength=uniq.shape[0]))
    starts = np.concatenate(([0], ends[:-1]))
    draws = np.empty(x_rows.shape[0])
    log_z, gap = np.empty(uniq.shape[0]), np.empty(uniq.shape[0])
    for lo in range(0, uniq.shape[0], _GRID_ROW_CHUNK):
        hi = min(lo + _GRID_ROW_CHUNK, uniq.shape[0])
        p, cdf, log_z[lo:hi], gap[lo:hi] = _grid_density(
            T_blocks, uniq[lo:hi], log_q0, grid, node_index)
        rows = order[starts[lo]:ends[hi - 1]]  # this chunk's output rows
        which = inverse[rows] - lo  # each one's distinct row in the chunk
        target = uniforms[rows] * cdf[which, -1]
        i = np.empty(rows.size, dtype=np.intp)
        for u in range(hi - lo):
            run = slice(starts[lo + u] - starts[lo], ends[lo + u] - starts[lo])
            i[run] = cdf[u].searchsorted(target[run], side="right")
        i = np.minimum(i - 1, grid.size - 2)
        rest = target - cdf[which, i]
        p_i = p[which, i]
        slope = (p[which, i + 1] - p_i) / widths[i]
        # p_i*s + slope*s^2/2 = rest, in the form that stays exact as slope -> 0
        root = p_i + np.sqrt(np.maximum(p_i * p_i + 2.0 * slope * rest, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(root > 0.0, 2.0 * rest / root, 0.0)
        draws[rows] = grid[i] + np.minimum(step, widths[i])
        del p, cdf  # free this chunk's arrays before the next chunk's T
    return draws, log_z[inverse], gap[inverse], grid


def ancestral_sample(model: JointModel, count: int,
                     config: GridSamplerConfig | HmcConfig | None = None,
                     return_stats: bool = False):
    """Draw joint samples by sampling each node after its parents.

    Each node is drawn conditioned on the row's already-sampled parent
    values.  With a ``GridSamplerConfig`` (the default) the draw is the
    exact inverse-CDF draw of ``_grid_pass``, from one uniform per row of a
    Philox stream keyed by (seed, node): row r always takes the stream's
    r-th uniform, so the first k rows do not depend on ``count``.  With an
    ``HmcConfig`` each output row runs its own HMC chain per node instead,
    for ``burn_in + thin`` iterations, and keeps the chain's last state; so
    only that sum matters.  Row r's chain is keyed by (seed, node, r), so
    here too the first k rows do not depend on ``count``, and the chains run
    in chunks of rows, so memory does not grow with it.  A node whose chains
    accept no proposal at all raises NumericalError, since each of its rows
    would be the chain's first base-density draw.
    Model math happens in standardized coordinates; results are mapped back
    to original units at the end.

    With ``return_stats`` also returns per-node diagnostics: the grid's node
    count, spacing and largest log Z gap over rows (None when the even nodes
    miss a peak, so the gap is infinite), or the HMC acceptance rate.
    """
    config = config if config is not None else GridSamplerConfig()
    if not isinstance(config, (GridSamplerConfig, HmcConfig)):
        raise DataError(f"unknown sampler config {type(config).__name__}")
    if count < 1:
        raise DataError("count must be >= 1")
    D = model.dim
    out = np.empty((count, D))
    per_node = []
    for node in range(D):
        factor = model.factors[node]
        parents = model.dag.parents[node]
        x_rows = out[:, list(parents)]
        if isinstance(config, HmcConfig):
            try:
                chains, rate = _run_chains(factor, x_rows, 1, config, node_index=node)
            except NumericalError as exc:
                raise NumericalError(f"HMC failed at node {node}: {exc}") from exc
            if rate == 0.0:  # every row would be its chain's first base draw
                raise NumericalError(
                    f"HMC accepted no proposal at node {node} with step size "
                    f"{config.step_size:g}; use a smaller step size")
            out[:, node] = chains[:, 0, 0]
            per_node.append({"node": node, "accept_rate": float(rate)})
        else:
            stream = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=(int(config.seed), node))))
            out[:, node], _, gap, grid = _grid_pass(factor, x_rows, stream.random(count),
                                                    node_index=node)
            max_gap = float(gap.max())
            per_node.append({"node": node, "grid_nodes": int(grid.size),
                             "spacing": float(grid[1] - grid[0]),
                             "max_log_z_gap": max_gap if math.isfinite(max_gap) else None})
    samples = model.destandardize_rows(out)
    if return_stats:
        sampler = "hmc" if isinstance(config, HmcConfig) else "grid"
        return samples, {"sampler": sampler, "per_node": per_node}
    return samples


def rejection_sample_grid(config: GridDatasetConfig, return_stats: bool = False):
    """Generate the synthetic grid dataset by per-dimension rejection.

    The first coordinate is uniform on the support.  Each later coordinate
    proposes uniformly and accepts with probability
    (1 + sin(2*pi*wa_i*x_i) * sin(2*pi*wb_i*x_{i-1})) / 2, which lies in
    [0, 1].  A hard cap of 1e6 trials per coordinate guards against a
    non-terminating loop.
    """
    rng = np.random.default_rng(config.seed)
    lo, hi = config.support
    n, D = config.n, config.dim
    X = np.empty((n, D))
    X[:, 0] = rng.uniform(lo, hi, size=n)
    proposals = 0
    accepts = 0
    for i in range(1, D):
        wa = config.weights_a[i]
        wb = config.weights_b[i]
        pending = np.arange(n)
        attempts = np.zeros(n, dtype=np.int64)
        while pending.size:
            cand = rng.uniform(lo, hi, size=pending.size)
            u = rng.uniform(0.0, 1.0, size=pending.size)
            prev = X[pending, i - 1]
            p_acc = 0.5 * (1.0 + np.sin(2.0 * np.pi * wa * cand)
                           * np.sin(2.0 * np.pi * wb * prev))
            acc = u < p_acc
            X[pending[acc], i] = cand[acc]
            attempts[pending] += 1
            proposals += pending.size
            accepts += int(np.sum(acc))
            pending = pending[~acc]
            if pending.size and attempts[pending].max() >= _TRIAL_CAP:
                raise NumericalError(
                    f"rejection sampler exceeded {_TRIAL_CAP} trials for "
                    f"coordinate {i}"
                )
    if return_stats:
        rate = accepts / proposals if proposals else 1.0
        return X, {"accept_rate": rate, "proposals": proposals}
    return X
