"""Model evaluation: normalizing constants by importance sampling, test
log-likelihoods, cross-validation over hyperparameter grids, and a score
(Fisher) divergence diagnostic.

The importance-sampling proposal is the base density itself, making the
normalizer estimate a plain Monte Carlo average of exp(T) under q0.  The
draws are seeded per (seed, node index), so repeated evaluation is
deterministic; no state outlives a call.
"""

from __future__ import annotations

import contextvars
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from . import score_fit
from .errors import DataError, KexpfamError, NumericalError
from .factorization import (DagSpec, JointModel, NodeHyperparams, _node_kernels,
                            _node_medians, _standardized_values)
from .score_fit import (
    _WORKER_BUFFERS,
    BaseDensity,
    FactorModel,
    _as_matrix,
    _as_x_row,
    _block_arrays,
    _check_memory,
    _scratch_bytes,
    build_gram_system,
    cross_T_blocks,
    empirical_score,
    fit_factor,
    unnorm_logpdf_rows,
)

_X_ROUND_DECIMALS = 12  # rows equal after this rounding share one estimate


@dataclass(frozen=True)
class LogPartitionEstimate:
    """Monte Carlo estimate of the log normalizing constant at one
    conditioning point, with a delta-method standard error."""

    log_z: float
    std_err: float
    sample_count: int

    def __post_init__(self):
        if self.sample_count < 1:
            raise DataError("sample_count must be >= 1")
        if not np.isfinite(self.std_err) or self.std_err < 0:
            raise DataError("std_err must be finite and nonnegative")


@dataclass(frozen=True)
class CvConfig:
    """Grid-search cross-validation settings.

    Bandwidth-scale entries multiply the median-heuristic bandwidths of both
    kernels; the lambda grid is taken as given.  Deterministic grid search
    replaces gradient-based tuning so results are exactly reproducible.
    """

    folds: int = 5
    lambda_grid: tuple = tuple(np.logspace(-4.0, 0.0, 8))
    bandwidth_scale_grid: tuple = (0.25, 0.5, 1.0, 2.0, 4.0)
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise DataError("folds must be >= 2")
        lam = tuple(float(v) for v in self.lambda_grid)
        scale = tuple(float(v) for v in self.bandwidth_scale_grid)
        if not lam or not scale:
            raise DataError("hyperparameter grids must be non-empty")
        if any(v <= 0 or not np.isfinite(v) for v in lam + scale):
            raise DataError("grid values must be positive and finite")
        object.__setattr__(self, "lambda_grid", lam)
        object.__setattr__(self, "bandwidth_scale_grid", scale)


@dataclass(frozen=True)
class CvCell:
    lam: float
    scale: float
    mean_score: float
    fold_scores: tuple


@dataclass(frozen=True)
class NodeCvResult:
    """One node's CV table and its pick.  ``on_grid_edge`` is true when the
    chosen lambda or scale is the smallest or largest value of its grid."""

    node: int
    best_lam: float
    best_scale: float
    best_score: float
    table: tuple
    on_grid_edge: bool


@dataclass(frozen=True)
class CvResult:
    nodes: tuple

    def hyperparams(self) -> list[NodeHyperparams]:
        return [
            NodeHyperparams(lam=r.best_lam, scale=r.best_scale) for r in self.nodes
        ]


def _log_z_from_draws(model: FactorModel, X_rows: np.ndarray, draws: np.ndarray):
    """Log-mean-exp of T(x_r, draw) over the draws for every row, with its
    delta-method standard error: (log_z, std_err).  Each block that
    ``cross_T_blocks`` yields is a fresh array, so it is shifted by the new
    row max, exponentiated and squared in place into the sums s1 and s2."""
    m = np.full(X_rows.shape[0], -np.inf)
    s1, s2 = np.zeros_like(m), np.zeros_like(m)
    S = 0
    for _, block in cross_T_blocks(model, X_rows, draws):
        if not np.all(np.isfinite(block)):
            raise NumericalError(
                "natural parameter overflowed during normalization; "
                "the fitted model is not normalizable at this point"
            )
        new_m = np.maximum(m, block.max(axis=1))
        shift = np.exp(m - new_m, where=np.isfinite(m), out=np.zeros_like(m))
        w = np.exp(np.subtract(block, new_m[:, None], out=block), out=block)
        s1 = s1 * shift + w.sum(axis=1)
        s2 = s2 * shift**2 + np.multiply(w, w, out=w).sum(axis=1)
        m = new_m
        S += block.shape[1]
        del block, w  # so that the next block is not allocated beside it
    log_z = m + np.log(s1) - math.log(S)
    if S < 2:
        return log_z, np.zeros_like(log_z)
    var_w = np.maximum(s2 - s1**2 / S, 0.0) / (S - 1)
    return log_z, np.sqrt(var_w / S) / (s1 / S)


def _partition_for_rows(model: FactorModel, X_rows: np.ndarray,
                        num_samples: int, seed: int, node_index: int = 0):
    """Log-partition estimates for many conditioning rows from one seeded
    draw set; rows equal after rounding are estimated once.  Returns
    (log_z, std_err)."""
    X_rows = np.atleast_2d(np.asarray(X_rows, dtype=np.float64))
    rounded = np.round(X_rows, _X_ROUND_DECIMALS)
    uniq, inverse = np.unique(rounded, axis=0, return_inverse=True)
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence((int(seed), int(node_index))))
    )
    draws = model.base.sample(rng, num_samples, model.d)
    log_z, std_err = _log_z_from_draws(model, uniq, draws)
    return log_z[inverse], std_err[inverse]


def log_partition_is(model: FactorModel, x, num_samples: int,
                     seed: int = 0) -> LogPartitionEstimate:
    """Estimate log Z(x) = log E_q0[exp T(x, y)] by Monte Carlo under q0.

    Uses a max-stabilized log-mean-exp, so a model with T identically zero
    yields log_z == 0.0 exactly.  The draws come from the stream (seed, 0),
    which ``test_loglik`` gives node 0, so equal arguments give equal
    estimates, and x is rounded to 12 decimals first.
    """
    if num_samples < 1:
        raise DataError("num_samples must be >= 1")
    x_row = _as_x_row(x, model.p)
    log_z, se = _partition_for_rows(model, x_row, num_samples, seed)
    return LogPartitionEstimate(log_z=float(log_z[0]), std_err=float(se[0]),
                                sample_count=num_samples)


def test_loglik(model: JointModel, test_rows, is_samples: int = 10_000,
                seed: int = 0, return_stats: bool = False):
    """Normalized joint log-likelihood of test rows, in original data units.

    Rows are standardized with the model's stored statistics; each node
    contributes its unnormalized conditional log-density minus an
    importance-sampling log-partition estimate, and the standardization
    Jacobian shifts the total back to the original scale.  Returns
    (mean, per-row values).

    With ``return_stats`` also returns ``{"per_node": [{"node": i,
    "is_std_err": (rows,) array}, ...]}``: the delta-method standard error
    of each row's log-partition estimate at each node.
    """
    if is_samples < 1:
        raise DataError("is_samples must be >= 1")
    rows = _as_matrix(test_rows, "test_rows")
    if rows.shape[1] != model.dim:
        raise DataError(
            f"test rows have {rows.shape[1]} columns, model expects {model.dim}"
        )
    if rows.shape[0] < 1:
        raise DataError("test log-likelihood needs at least one test row")
    Z = model.standardize_rows(rows)
    total = np.full(rows.shape[0], model.log_jacobian)
    per_node = []
    for node in range(model.dim):
        factor = model.factors[node]
        parents = list(model.dag.parents[node])
        X = Z[:, parents]
        Y = Z[:, [node]]
        terms = unnorm_logpdf_rows(factor, X, Y)
        log_z, std_err = _partition_for_rows(factor, X, is_samples, seed, node)
        total += terms - log_z
        per_node.append({"node": node, "is_std_err": std_err})
    if return_stats:
        return float(np.mean(total)), total, {"per_node": per_node}
    return float(np.mean(total)), total


def _fold_pipeline(tasks, assemble, solve, score) -> list:
    """``[score(solve(assemble(task)), task) for task in tasks]``, with
    every ``solve`` on the calling thread.

    On one CPU the steps run inline in that order, holding one assembled
    system at a time.  Otherwise one helper thread assembles the next task
    while this task's solves run, and then scores the task solved before
    it: the next assembly is queued ahead of that scoring, so the solves
    never wait on scoring.  The helper makes no BLAS or LAPACK call, its
    pools leave one CPU to the solves (``_leave_cpu``), and it runs each
    step in a copy of the caller's context, so with the caller's numpy
    error state.  An error in any step reaches the caller unchanged, queued
    helper work is cancelled, and the helper ends before the call returns.
    """
    if score_fit._worker_count() == 1:
        return [score(solve(assemble(task)), task) for task in tasks]

    def in_helper(step, *args):
        with score_fit._leave_cpu():
            return step(*args)

    with ThreadPoolExecutor(max_workers=1) as helper:
        def submit(step, *args):
            return helper.submit(contextvars.copy_context().run, in_helper, step, *args)

        try:
            scored, pending = [], submit(assemble, tasks[0])
            for task, after in zip(tasks, [*tasks[1:], None]):
                built = pending.result()
                pending = None if after is None else submit(assemble, after)
                fits = solve(built)
                del built  # this fold's G goes before its scoring runs beside the next G
                scored.append(submit(score, fits, task))
            return [future.result() for future in scored]
        except BaseException:
            helper.shutdown(cancel_futures=True)
            raise


def _node_cv(values: np.ndarray, dag: DagSpec, node: int, config: CvConfig,
             base: BaseDensity, fold_blocks) -> NodeCvResult:
    parents = dag.parents[node]
    x_all = values[:, list(parents)]
    y_all = values[:, [node]]
    lambdas, scales = config.lambda_grid, config.bandwidth_scale_grid

    # one median heuristic per node; every scale rescales the same bandwidths
    medians = _node_medians(values, parents, node)
    kernels = [_node_kernels(*medians, scale) for scale in scales]

    # Each (scale, fold) is assembled once, fitted once per lambda and then
    # every fit is scored on the held-out rows in one pass.
    def assemble(task):
        """The fold's training rows and system (None if it fails numerically)."""
        kx, ky, block = task
        mask = np.ones(values.shape[0], dtype=bool)
        mask[block] = False
        x_fit, y_fit = x_all[mask], y_all[mask]
        try:
            system = build_gram_system(x_fit, y_fit, kx, ky, base)
        except (NumericalError, FloatingPointError):
            system = None
        return x_fit, y_fit, kx, ky, system

    def solve(built) -> dict:
        x_fit, y_fit, kx, ky, system = built
        fits = {}  # by lambda index; a failed fit scores +inf
        for i, lam in enumerate(lambdas if system is not None else ()):
            with suppress(KexpfamError, FloatingPointError):
                fits[i] = fit_factor(x_fit, y_fit, kx, ky, lam, base, system=system)
        return fits

    def score(fits, task) -> list[float]:
        block = task[2]
        scores = [math.inf] * len(lambdas)
        with np.errstate(all="ignore"):  # an overflow in one fit's score is nan
            held_out = (empirical_score(list(fits.values()), x_all[block], y_all[block])
                        if fits else [])
        for i, value in zip(fits, held_out):  # nan would make the pick order-bound
            scores[i] = value if math.isfinite(value) else math.inf
        return scores

    # one entry per (scale, fold), in that order
    results = _fold_pipeline([(kx, ky, block) for kx, ky in kernels for block in fold_blocks],
                             assemble, solve, score)

    folds = len(fold_blocks)
    table = []
    for (i, lam), (j, scale) in itertools.product(enumerate(lambdas),
                                                  enumerate(scales)):
        fold_scores = [results[j * folds + f][i] for f in range(folds)]
        table.append(CvCell(lam=lam, scale=scale,
                            mean_score=float(np.mean(fold_scores)),
                            fold_scores=tuple(fold_scores)))

    # ties break toward stronger smoothing: larger lambda, then larger scale
    best = min(table, key=lambda c: (c.mean_score, -c.lam, -c.scale))
    on_grid_edge = (best.lam in (min(lambdas), max(lambdas))
                    or best.scale in (min(scales), max(scales)))
    return NodeCvResult(node=node, best_lam=best.lam, best_scale=best.scale,
                        best_score=best.mean_score, table=tuple(table),
                        on_grid_edge=on_grid_edge)


def cross_validate(dataset, dag: DagSpec, config: CvConfig | None = None,
                   base: BaseDensity | None = None) -> CvResult:
    """Independent K-fold grid search per node of a StandardizedDataset.

    The split is one seeded shuffle followed by contiguous blocks, shared by
    every node.  Each grid point is scored by the mean held-out empirical
    score (lower is better); a failed fit or a non-finite held-out score
    scores +inf but stays in the table.  A fold whose assembly is rejected
    as bad input, such as a fold too large for memory, raises DataError.
    Selection is invariant to grid enumeration order.  Each fold's system
    is assembled once per (node, bandwidth scale) and solved for every
    lambda, which gives the same bits as one fit per grid cell; then one
    pass over the held-out rows scores every lambda's fit, with the same
    bits as scoring each fit on its own.  A node's (scale, fold) steps run
    through ``_fold_pipeline``: one after another on one CPU; on more, a
    helper thread assembles the next fold and scores the last one while
    this fold's Choleskys run, with the same bits.
    """
    config = config if config is not None else CvConfig()
    base = base if base is not None else BaseDensity()
    values = _standardized_values(dataset, dag)
    n = values.shape[0]
    if n < config.folds:
        raise DataError(f"need at least {config.folds} rows for {config.folds}-fold CV")
    perm = np.random.default_rng(config.seed).permutation(n)
    fold_blocks = np.array_split(perm, config.folds)
    # A fold holds G and, in turn, the workers' scratch of its assembly and
    # the scratch of the scoring pass (d = 1 per factor), where G's bytes
    # are slack; a solve adds only vectors of n_fit and numpy's buffers.
    # With _fold_pipeline's helper, the next fold's G and its assembly's
    # scratch, or the last fold's scoring, live beside this fold's G, its
    # solve's buffers and its fits.  Beside them live the node's copies of
    # the data (two columns per node) and eight vectors of each fold in
    # flight, and each fit holds three (its x, y and beta), all counted in
    # vectors of n.
    n_fit, R = n - len(fold_blocks[-1]), len(fold_blocks[0])
    lambdas = len(config.lambda_grid)
    pipelined = score_fit._worker_count() > 1
    gram = n_fit * n_fit * 8
    vectors = 2 * values.shape[1] + 8 + pipelined * (8 + 3 * lambdas)
    with score_fit._leave_cpu():  # as the pipeline's helper runs them
        assembly = _scratch_bytes(n_fit, n_fit, _block_arrays(1))
        scoring = _scratch_bytes(R, n_fit, _block_arrays(1, lambdas))
    folds = gram + (_WORKER_BUFFERS + max(gram + assembly, scoring) if pipelined
                    else max(assembly, scoring))
    _check_memory(8 * n * vectors + folds,
                  f"cross-validation with folds of {n_fit} training rows", "use fewer rows")
    nodes = tuple(
        _node_cv(values, dag, node, config, base, fold_blocks)
        for node in range(dag.node_count)
    )
    return CvResult(nodes=nodes)


def fisher_divergence(p_grad, q_grad, x_samples, y_samples) -> float:
    """Monte Carlo estimate of the expected conditional score divergence.

    ``p_grad`` and ``q_grad`` map (X, Y) batches to conditional score
    gradients of shape (m, d); the estimate is the mean of
    0.5 * ||p_grad - q_grad||^2 over sample pairs drawn from p's joint.
    Nonnegative by construction, and exactly zero when the scores agree.
    """
    X = np.atleast_2d(np.asarray(x_samples, dtype=np.float64))
    Y = _as_matrix(y_samples, "y_samples")
    gp = np.atleast_2d(np.asarray(p_grad(X, Y), dtype=np.float64))
    gq = np.atleast_2d(np.asarray(q_grad(X, Y), dtype=np.float64))
    if gp.shape != Y.shape or gq.shape != Y.shape:
        raise DataError("score functions must return one gradient row per sample")
    if not (np.all(np.isfinite(gp)) and np.all(np.isfinite(gq))):
        raise NumericalError("non-finite score at a sample")
    diff = gp - gq
    return float(0.5 * np.mean(np.sum(diff * diff, axis=1)))


# --- disjoint-support degeneracy demonstration -----------------------------

_BUMP_A = (-2.0, -1.0)
_BUMP_B = (1.0, 2.0)
_BUMP_GRID = 4096  # points of each bump's inverse-CDF table and of the TV quadrature


def _bump_pdf(y, lo, hi):
    """Raised-cosine bump normalized on [lo, hi]; exactly zero outside."""
    y = np.asarray(y, dtype=np.float64)
    w = hi - lo
    c = 0.5 * (lo + hi)
    inside = (y >= lo) & (y <= hi)
    vals = np.where(inside, (1.0 + np.cos(2.0 * np.pi * (y - c) / w)) / w, 0.0)
    return vals


def _bump_grad_log(y, lo, hi):
    y = np.asarray(y, dtype=np.float64)
    w = hi - lo
    c = 0.5 * (lo + hi)
    z = 2.0 * np.pi * (y - c) / w
    return -(2.0 * np.pi / w) * np.sin(z) / (1.0 + np.cos(z))


def _bump_pdf_deriv(y, lo, hi):
    y = np.asarray(y, dtype=np.float64)
    w = hi - lo
    c = 0.5 * (lo + hi)
    inside = (y >= lo) & (y <= hi)
    z = 2.0 * np.pi * (y - c) / w
    return np.where(inside, -(2.0 * np.pi / w**2) * np.sin(z), 0.0)


def _bump_sample(rng, size, lo, hi):
    grid = np.linspace(lo, hi, _BUMP_GRID)
    pdf = _bump_pdf(grid, lo, hi)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))])
    cdf /= cdf[-1]
    return np.interp(rng.uniform(size=size), cdf, grid)


def disjoint_support_demo(n_samples: int = 100_000, seed: int = 0) -> dict:
    """Degenerate case for the score divergence.

    The conditional density switches between two disjoint-support bumps as
    the conditioning variable crosses zero, while the reference is the
    static equal mixture of the two bumps.  Their conditional scores agree
    wherever the density is positive, so the divergence estimate vanishes
    even though the distributions differ grossly (total variation computed
    by quadrature is returned alongside).
    """
    if n_samples < 1:
        raise DataError(f"the demo needs at least 1 sample, got {n_samples}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=n_samples)
    use_a = x > 0
    y = np.empty(n_samples)
    y[use_a] = _bump_sample(rng, int(np.sum(use_a)), *_BUMP_A)
    y[~use_a] = _bump_sample(rng, int(np.sum(~use_a)), *_BUMP_B)

    def p_grad(X, Y):
        yy = Y[:, 0]
        on_a = X[:, 0] > 0
        out = np.empty_like(yy)
        out[on_a] = _bump_grad_log(yy[on_a], *_BUMP_A)
        out[~on_a] = _bump_grad_log(yy[~on_a], *_BUMP_B)
        return out[:, None]

    def q_grad(X, Y):
        yy = Y[:, 0]
        num = 0.5 * (_bump_pdf_deriv(yy, *_BUMP_A) + _bump_pdf_deriv(yy, *_BUMP_B))
        den = 0.5 * (_bump_pdf(yy, *_BUMP_A) + _bump_pdf(yy, *_BUMP_B))
        return (num / den)[:, None]

    divergence = fisher_divergence(p_grad, q_grad, x[:, None], y[:, None])

    grid = np.linspace(_BUMP_A[0] - 0.5, _BUMP_B[1] + 0.5, _BUMP_GRID)
    p_a = _bump_pdf(grid, *_BUMP_A)
    mix = 0.5 * (p_a + _bump_pdf(grid, *_BUMP_B))
    diff = np.abs(p_a - mix)
    tv = 0.5 * float(np.trapezoid(diff, grid))
    return {
        "fisher_divergence": divergence,
        "tv_distance": tv,
        "n_samples": n_samples,
        "seed": seed,
    }
