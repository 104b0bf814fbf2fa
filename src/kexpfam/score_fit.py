"""Score-matched fitting of conditional exponential family factors.

A factor models p(y|x) on top of a Gaussian base density via a natural
parameter T(x, y) living in a product of RKHSs.  Fitting minimizes a
regularized empirical score objective, which reduces to one symmetric
positive-definite linear system of size (n·d) over expansion coefficients.
Everything here is deterministic: identical inputs give identical outputs.
"""

from __future__ import annotations

import contextvars
import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field

import numpy as np

from . import _openblas
from .errors import DataError, NumericalError
from .kernels import (
    ConstantKernel,
    GaussianKernelSpec,
    _mixed_factor,
    kernel_matrix,
)

RESIDUAL_RTOL = 1e-8

_CROSS_BLOCK = 128  # columns per block of every buffered kernel sum, at most
_IS_CHUNK = 2048  # draws per block that cross_T_blocks yields
# Blocks whose work, rows times (1 + the rows of the GEMM each takes), is
# less run on one thread.  On 2 CPUs, two threads assembled an n = 400
# system (CV's folds) in 7.5 ms against 4.7 ms for one, tied at n = 1000 and
# took 125 ms against 180 ms at n = 2000, while the second CPU was free.
_POOL_ROWS = 1024

# One worker's scratch: each block runs in tiles of training rows, as many
# as keep its tile arrays within _WORKER_SCRATCH, so that the scratch does not
# grow with n.  The tiles give the bits of one: their arrays hold elementwise
# results, and each axis-0 sum carries from tile to tile (_sum_rows).
_WORKER_SCRATCH = 2**20
# Besides its scratch a worker holds, during a ufunc, the two buffers of
# np.getbufsize() doubles that numpy takes for broadcast operands, and its
# thread's own objects: 150-170 KB per worker measured, counted as 192 KiB.
_WORKER_BUFFERS = 2 * 8 * np.getbufsize() + 2**16
# cross_T_blocks evaluates T through a pivoted Cholesky factor of k_X: pivoting
# stops once every residual diagonal is at most _PIVOT_RTOL times k(x, x), and
# gives the factor up at n // _RANK_CAP pivots.
_PIVOT_RTOL = 1e-13
_RANK_CAP = 8
# A factor of rank m at most _STACK_RANK takes T's weight through one
# stacked GEMM of k_Y per block of draws (see _cross_T): (d + 2) m
# multiply-adds per (training row, draw) pair in place of m and the weight's
# 2d + 2 elementwise passes, so the break-even is a rank, whatever d.  At
# n = 2000, 500 rows and 4096 draws, one BLAS thread and one CPU, with k_Y
# from one GEMM on both routes, the stacked route took 0.64-0.96 of the
# other's time up to m = 34 and 1.07-1.21 from m = 44 at d = 1, 2 and 3; the
# two tied at m = 35-40.
_STACK_RANK = 32
# Every GEMM of cross_T_blocks takes this many rows, the last tile padded
# with zero rows: OpenBLAS picks its kernel by the sizes (a matrix-vector
# product for one row, a small-matrix kernel for few), and kernels differ
# in their last bits, so a fixed height keeps a row's bits whatever the
# other rows are.
_GEMM_ROWS = 64
# The strict upper triangle of a diagonal block that _mirror_lower refills
_STRICT_UPPER = np.triu(np.ones((_CROSS_BLOCK, _CROSS_BLOCK), dtype=bool), 1)
_STRICT_UPPER.flags.writeable = False


@dataclass(frozen=True)
class BaseDensity:
    """Centered Gaussian carrier density with a shared per-dimension std."""

    std: float = 2.0

    def __post_init__(self):
        if not np.isfinite(self.std) or self.std <= 0:
            raise DataError("base density std must be positive and finite")

    def log_pdf_rows(self, y: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        const = -0.5 * math.log(2.0 * math.pi * self.std**2)
        return y.shape[1] * const - np.sum(y * y, axis=1) / (2.0 * self.std**2)

    def grad_log(self, y: np.ndarray) -> np.ndarray:
        """Per-dimension derivative of log q0: -y_m / std^2."""
        return -np.asarray(y, dtype=np.float64) / self.std**2

    def sample(self, rng: np.random.Generator, size: int, dim: int) -> np.ndarray:
        return rng.normal(0.0, self.std, size=(size, dim))


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise DataError(f"{name} must be a 2-d array, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise DataError(f"{name} contains non-finite values")
    return a


def _as_x_row(x, p: int) -> np.ndarray:
    if x is None:
        x = np.empty(0)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size != p:
        raise DataError(f"conditioning point has dimension {x.size}, expected {p}")
    if not np.all(np.isfinite(x)):
        raise DataError("evaluation points must be finite")
    return x[None, :]


def _check_training(x_train, y_train, kernel_x, kernel_y):
    x_train = _as_matrix(x_train, "x_train")
    y_train = _as_matrix(y_train, "y_train")
    if x_train.shape[0] != y_train.shape[0]:
        raise DataError("x_train and y_train must have the same number of rows")
    if y_train.shape[0] < 1:
        raise DataError("need at least one training row")
    if isinstance(kernel_x, GaussianKernelSpec) and x_train.shape[1] != kernel_x.dim:
        raise DataError("x_train column count does not match kernel_x dimension")
    if y_train.shape[1] != kernel_y.dim:
        raise DataError("y_train column count does not match kernel_y dimension")
    return x_train, y_train


@dataclass(frozen=True, eq=False)
class FactorModel:
    """One fitted conditional p(y|x).

    ``beta`` holds the expansion coefficients in the flat layout where sample
    b and target dimension i live at position b*d + i (row-major over
    (sample, dimension); this convention is shared by every module).
    ``xi_coeff`` is the coefficient on the averaged-feature term of the
    natural parameter; fitting always sets it to -1/lambda, and a model with
    ``xi_coeff == 0`` and zero beta has T identically zero.  ``x_train``,
    ``y_train`` and ``beta`` are always copied into read-only arrays of the
    model's own, so no write to the arrays it was given changes a fitted
    model.
    """

    x_train: np.ndarray
    y_train: np.ndarray
    kernel_x: GaussianKernelSpec | ConstantKernel
    kernel_y: GaussianKernelSpec
    lam: float
    beta: np.ndarray
    base: BaseDensity = field(default_factory=BaseDensity)
    xi_coeff: float | None = None

    def __post_init__(self):
        x_train, y_train = _check_training(
            self.x_train, self.y_train, self.kernel_x, self.kernel_y
        )
        if not np.isfinite(self.lam) or self.lam <= 0:
            raise DataError("lambda must be positive and finite")
        beta = np.asarray(self.beta, dtype=np.float64).reshape(-1)
        n, d = y_train.shape
        if beta.size != n * d:
            raise DataError(f"beta has length {beta.size}, expected n*d = {n * d}")
        if not np.all(np.isfinite(beta)):
            raise DataError("beta contains non-finite values")
        xi_coeff = -1.0 / self.lam if self.xi_coeff is None else float(self.xi_coeff)
        for name, arr in (("x_train", x_train), ("y_train", y_train), ("beta", beta)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "xi_coeff", xi_coeff)

    @property
    def n(self) -> int:
        return self.y_train.shape[0]

    @property
    def d(self) -> int:
        return self.y_train.shape[1]

    @property
    def p(self) -> int:
        return self.x_train.shape[1]

    @property
    def beta2d(self) -> np.ndarray:
        return self.beta.reshape(self.n, self.d)


@dataclass(frozen=True, eq=False)
class GramSystem:
    """The linear system data: symmetric PSD matrix G (nd x nd) and vector h.

    Both are checked here, once, whether the system was assembled or given,
    so the solver need not check them again: finiteness, then that G is
    exactly symmetric, each entry equal to its mirror.  ``_ridge_solve``
    factors G in its own memory and then copies G's lower triangle back
    onto the upper one, so a G that is not symmetric would come back
    changed.  The checks run in strips of 128 rows, so that no temporary of
    G's size appears.  G is kept as given when it is a writable C-ordered
    float64 array (as assembled), and copied into one otherwise.
    """

    G: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        G = np.require(self.G, np.float64, ["C", "W"])
        h = np.asarray(self.h, dtype=np.float64)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise DataError(f"Gram matrix must be square, got shape {G.shape}")
        strips = [slice(lo, lo + _CROSS_BLOCK) for lo in range(0, len(G), _CROSS_BLOCK)]
        if not all(np.isfinite(G[s]).all() for s in strips):
            raise NumericalError("Gram matrix has non-finite entries")
        if not np.all(np.isfinite(h)):
            raise NumericalError("h vector has non-finite entries")
        # each strip of columns from the diagonal down against its mirror
        if not all(np.array_equal(G[s.start:, s], G[s, s.start:].T) for s in strips):
            raise DataError("Gram matrix is not exactly symmetric")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)


def _xi_coeffs(y_train, base: BaseDensity):
    """Coefficients (a, e) of the averaged feature function alone."""
    n = y_train.shape[0]
    return base.grad_log(y_train) / n, 1.0 / n


def _model_coeffs(model: FactorModel):
    """Coefficients (a, e) of the fitted T: beta plus xi_coeff times the
    averaged feature function."""
    e = model.xi_coeff / model.n
    return model.beta2d + e * model.base.grad_log(model.y_train), e


def _prefactors(V, s2, j: int, q: int, pairs, tmp):
    """Yield the pair (mixed(l,1; j,q), mixed(l,2; j,q)) of each dimension l,
    written into ``pairs[l]`` once the pair before is taken, so that one use
    may pass ``_weight``'s own [(out, extra)] + [(term, extra)] * (d - 1).
    V[l] holds (Y_b - y)_l / s2_l and ``tmp`` is scratch."""
    for l, (f1, f2) in enumerate(pairs):
        _mixed_factor(V[l], s2[l], 1, V[j], s2[j], q, l == j, f1, tmp)
        _mixed_factor(V[l], s2[l], 2, V[j], s2[j], q, l == j, f2, tmp)
        yield f1, f2


def _weight(F, a, e, out, term, extra):
    """sum_l a[b,l] * f1_l + e * f2_l over the prefactor pairs (f1_l, f2_l) of
    F, elementwise over (train, eval), into ``out``.  T, its y-partials, the
    averaged feature function and h are all sums sum_b k_X(X_b, x) *
    k_Y(Y_b, y) * weight that differ only in the per-sample coefficients
    a (n, d) and the scalar e.
    ``term`` (only used when d > 1) and ``extra`` are scratch of out's shape."""
    for l, (f1, f2) in enumerate(F):
        t = out if l == 0 else term
        np.multiply(a[:, l, None], f1, out=t)
        np.multiply(e, f2, out=extra)
        np.add(t, extra, out=t)
        if l:
            np.add(out, term, out=out)
    return out


def _pair_sums(x_train, y_train, kernel_x, kernel_y, coeffs, X_eval, Y_eval,
               want_value=True, want_grad=False, want_second=False, kx_pair=None):
    """Kernel sums with each coefficient pair (a, e) of ``coeffs`` and their
    first/second y-partials at paired rows (X_eval[r], Y_eval[r]).  Returns
    one (value (R,), grad (R, d), second (R, d)) per pair, None where not
    wanted.

    The rows go through ``_in_blocks``: each tile of training rows of a
    block of rows builds k_X * k_Y, the scaled differences and the
    prefactors of each sum once in reused scratch, then takes every pair's
    weights from them.  Each sum comes from the same operations as the whole
    call for one pair at once, so no value depends on the blocks, the tiles,
    the worker count or the other pairs.
    """
    n, d = y_train.shape
    s2 = kernel_y.variances
    R = X_eval.shape[0]
    results = [(np.empty(R) if want_value else None,
                np.empty((R, d)) if want_grad else None,
                np.empty((R, d)) if want_second else None) for _ in coeffs]
    sums = [(0, 0)] if want_value else []
    for j in range(d):
        sums += [(j, 1)] if want_grad else []
        sums += [(j, 2)] if want_second else []
    shared = len(coeffs) > 1

    def block(lo, hi, tiles):
        for rows, (K, Y, W, X, *V) in tiles:
            P = [(V.pop(), V.pop()) for _ in range(d)] if shared else None
            T = V.pop() if d > 1 else None
            pairs = P or [(W, X)] + [(T, X)] * (d - 1)  # one model: _weight's arrays
            y_rows = y_train[rows]
            if kx_pair is None:
                kernel_matrix(kernel_x, x_train[rows], X_eval[lo:hi], K, W)
            kernel_matrix(kernel_y, y_rows, Y_eval[lo:hi], Y, W)
            np.multiply(K if kx_pair is None else kx_pair[rows, lo:hi], Y, out=K)
            for m in range(d):
                np.subtract(y_rows[:, m, None], Y_eval[None, lo:hi, m], out=V[m])
                np.divide(V[m], s2[m], out=V[m])
            for j, q in sums:
                F = _prefactors(V, s2, j, q, pairs, Y)
                F = list(F) if shared else F  # every pair's weights read the list
                for (a, e), res in zip(coeffs, results):
                    np.multiply(K, _weight(F, a[rows], e, W, T, X), out=W)
                    _sum_rows(W, (res[0] if q == 0 else res[q][:, j])[lo:hi], rows.start > 0)

    _in_blocks(block, R, n, _block_arrays(d, len(coeffs)))
    return results


def _physical_memory_bytes() -> int | None:
    """Physical memory of the machine, or None where the OS does not say."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


def _check_memory(need: float, what: str, remedy: str) -> None:
    """Raise DataError before allocating when ``need`` bytes exceed physical
    memory, instead of dying in MemoryError or the OOM killer."""
    have = _physical_memory_bytes()
    if have is not None and need > have:
        raise DataError(
            f"{what} needs about {need / 2**30:.1f} GiB, more than "
            f"the {have / 2**30:.1f} GiB of physical memory; {remedy}"
        )


def _check_fit_size(n: int, d: int) -> None:
    """Raise DataError before assembly when a fit of n rows of d dimensions
    cannot fit in physical memory.  A fit holds G, h, the coefficients of
    the averaged feature and, while it assembles G, the workers' scratch,
    whose tiles of training rows keep it within ``_WORKER_SCRATCH`` per
    worker at any n; the solve adds only vectors of length n*d."""
    gram = (n * d) ** 2 * 8
    _check_memory(gram + 16 * n * d + _scratch_bytes(n, n, _block_arrays(d)),
                  f"a fit with n*d = {n * d}", "use fewer rows")


def build_gram_system(x_train, y_train, kernel_x, kernel_y, base: BaseDensity) -> GramSystem:
    """Assemble G and h in one pass over blocks of training columns b.

    G is the nd x nd Gram matrix of derivative features: entry ((a,i),(b,j))
    is k_X(X_a, X_b) times the (first-dim i, second-dim j) first-order mixed
    partial of the y-kernel at (Y_a, Y_b).  It is exactly symmetric as
    assembled: an entry and its mirror come from the same element-wise
    operations on equal or exactly negated operands (kernel_matrix gives
    the exact transpose, Y_a - Y_b = -(Y_b - Y_a), the prefactors follow
    fixed sign rules and products commute).  Entry (b,i) of h is the
    i-th y-partial of the averaged feature function at the training pair
    (X_b, Y_b).  Both are sums over the same kernel values, so each tile of
    rows a of a block of columns b builds k_X, k_Y and the differences
    Y_a - Y_b once for both, in the reused scratch of ``_in_blocks``.
    """
    x_train, y_train = _check_training(x_train, y_train, kernel_x, kernel_y)
    n, d = y_train.shape
    _check_fit_size(n, d)
    s2 = kernel_y.variances
    a, e = _xi_coeffs(y_train, base)
    G = np.empty((n * d, n * d))
    h = np.empty((n, d))

    def block(lo, hi, tiles):
        for rows, (K, Y, W, X, *V) in tiles:
            T = V.pop() if d > 1 else None
            y_rows = y_train[rows]
            kernel_matrix(kernel_x, x_train[rows], x_train[lo:hi], K, W)
            kernel_matrix(kernel_y, y_rows, y_train[lo:hi], Y, W)
            for m in range(d):
                np.subtract(y_rows[:, m, None], y_train[None, lo:hi, m], out=V[m])
                np.divide(V[m], s2[m], out=V[m])
            for i in range(d):
                for j in range(d):
                    _mixed_factor(V[i], s2[i], 1, V[j], s2[j], 1, i == j, W, X)
                    np.multiply(W, Y, out=W)
                    np.multiply(K, W, out=G[rows.start * d + i:rows.stop * d:d,
                                            lo * d + j:hi * d:d])
            np.multiply(K, Y, out=K)  # now k_X * k_Y
            for j in range(d):
                F = _prefactors(V, s2, j, 1, [(W, X)] + [(T, X)] * (d - 1), Y)
                np.multiply(K, _weight(F, a[rows], e, W, T, X), out=W)
                _sum_rows(W, h[lo:hi, j], rows.start > 0)

    _in_blocks(block, n, n, _block_arrays(d))
    if d > 1:  # a zero mixed partial may be -0 opposite a +0 mirror; -0 + 0 = +0
        G += 0.0
    return GramSystem(G=G, h=h.reshape(-1))


def build_gram(x_train, y_train, kernel_x, kernel_y) -> np.ndarray:
    """The Gram matrix G of ``build_gram_system``."""
    return build_gram_system(x_train, y_train, kernel_x, kernel_y, BaseDensity()).G


def build_h(x_train, y_train, kernel_x, kernel_y, base: BaseDensity) -> np.ndarray:
    """The right-hand-side vector h of ``build_gram_system``."""
    return build_gram_system(x_train, y_train, kernel_x, kernel_y, base).h


def _mirror_lower(G: np.ndarray) -> None:
    """Copy G's strict lower triangle onto its strict upper triangle, in
    place: each block above the diagonal from its transposed mirror, and
    the strict upper part of each diagonal block through a fixed mask."""
    size = len(_STRICT_UPPER)
    for lo in range(0, len(G), size):
        hi = min(lo + size, len(G))
        for col in range(hi, len(G), size):
            np.copyto(G[lo:hi, col:col + size], G[col:col + size, lo:hi].T)
        block = G[lo:hi, lo:hi]
        np.copyto(block, block.T, where=_STRICT_UPPER[:hi - lo, :hi - lo])


def _ridge_solve(G: np.ndarray, h: np.ndarray, lam: float, n: int) -> np.ndarray:
    """Solve (G + n*lam*I) beta = h / lam for beta.

    G is the C-ordered, exactly symmetric G of a ``GramSystem``.  LAPACK
    factors G + n*lam*I in G's own memory, in the lower triangle of the
    Fortran-order view G.T, which is G's upper triangle.  G's strict lower
    triangle stays intact and its diagonal is kept in a vector: each
    residual is a symmetric product (``dsymv``) with that triangle, and
    before returning, or raising, G's upper triangle and diagonal are
    written back from them.  So G comes back bit for bit as it went in, and one
    assembled system can be solved for several lambdas, one solve at a
    time.  These are the LAPACK routines (``_openblas``: ``dpotrf``,
    ``dpotrs``) that scipy's ``cho_factor`` and ``cho_solve`` call, on the
    same operands, so beta has their bits.

    The shifted matrix is PSD plus a positive ridge, so a Cholesky
    factorization is used; on breakdown a small jitter (1e-10 times the mean
    diagonal mass of G) is added and escalated tenfold up to three times.
    A failed factorization has already overwritten part of G's upper
    triangle, so every attempt after the first refills it from the lower.
    The solution must satisfy the residual bound
    ||(G + n*lam*I) beta - h/lam|| <= 1e-8 * max(1, ||h/lam||).

    G and h were checked when their GramSystem was built.  Here h/lam and
    the ridge n*lam are checked before any factorization, and each residual
    after a solve.
    """
    with np.errstate(over="ignore"):  # an overflow is raised as typed below
        rhs = h / lam
        ridge = n * lam
    if not np.all(np.isfinite(rhs)):
        raise NumericalError(f"h / lambda overflows at lambda = {lam:g}; "
                             "use a larger lambda")
    if not math.isfinite(ridge):
        raise NumericalError(f"the ridge n * lambda overflows at lambda = {lam:g}; "
                             "use a smaller lambda")

    A = G.T  # F-ordered: LAPACK's lower triangle is G's upper one
    on_diag = G.reshape(-1)[::len(G) + 1]  # a writable view of G's diagonal
    diag = on_diag.copy()
    scale = np.trace(G) / G.shape[0]
    jitter = 0.0
    try:
        for attempt in range(4):
            if attempt:
                _mirror_lower(G)
            np.add(diag, ridge, out=on_diag)
            if jitter:
                on_diag += jitter
            if _openblas.dpotrf(A) == 0:
                break
            jitter = 1e-10 * max(scale, 1.0) if jitter == 0.0 else jitter * 10.0
        else:
            raise NumericalError(
                "Cholesky factorization failed after jitter escalation; "
                "the system is severely ill-conditioned"
            )
        factor_diag = on_diag.copy()
        beta = _openblas.dpotrs(A, rhs)

        bound = RESIDUAL_RTOL * max(1.0, float(np.linalg.norm(rhs)))
        for step in range(4):
            on_diag[:] = diag  # dsymv reads G's diagonal and intact lower triangle
            resid = _openblas.dsymv(A, beta) + ridge * beta - rhs
            if not np.all(np.isfinite(resid)):
                raise NumericalError(f"solve residual is not finite at lambda = {lam:g}")
            if np.linalg.norm(resid) <= bound:
                return beta
            if step < 3:  # at most three refinement steps
                on_diag[:] = factor_diag
                beta = beta - _openblas.dpotrs(A, resid)
        raise NumericalError(
            f"solve residual {np.linalg.norm(resid):.3e} exceeds bound {bound:.3e}"
        )
    finally:
        _mirror_lower(G)
        on_diag[:] = diag


def fit_factor(x_train, y_train, kernel_x, kernel_y, lam: float,
               base: BaseDensity | None = None,
               system: GramSystem | None = None) -> FactorModel:
    """Fit the natural parameter by solving (G + n*lam*I) beta = h / lam.

    Assembles G and h with ``build_gram_system``, then solves with
    ``_ridge_solve`` (Cholesky with jitter escalation and a residual bound).
    A ``system`` built by ``build_gram_system`` from these same arguments
    skips the assembly, so one assembly serves a fit for each lambda.
    """
    base = base if base is not None else BaseDensity()
    x_train, y_train = _check_training(x_train, y_train, kernel_x, kernel_y)
    if not np.isfinite(lam) or lam <= 0:
        raise DataError("lambda must be positive and finite")
    nd = y_train.size
    if system is None:
        system = build_gram_system(x_train, y_train, kernel_x, kernel_y, base)
    elif system.G.shape != (nd, nd) or system.h.shape != (nd,):
        raise DataError(f"the given system has size {system.h.size}, "
                        f"expected n*d = {nd}")
    beta = _ridge_solve(system.G, system.h, lam, y_train.shape[0])
    return FactorModel(
        x_train=x_train, y_train=y_train, kernel_x=kernel_x, kernel_y=kernel_y,
        lam=lam, beta=beta, base=base, xi_coeff=-1.0 / lam,
    )


def _T_terms(model: FactorModel, X_eval: np.ndarray, Y_eval: np.ndarray,
             want_value=True, want_grad=False, want_second=False,
             kx_pair: np.ndarray | None = None):
    """Natural parameter and its first/second y-partials at paired rows.

    X_eval is (R, p), Y_eval is (R, d); entry r of each output refers to the
    pair (X_eval[r], Y_eval[r]).  ``kx_pair`` may carry a precomputed
    conditioning-kernel matrix of shape (n, R) (reused across leapfrog steps,
    where x stays fixed).  Returns (value (R,), grad (R, d), second (R, d)),
    with None for outputs not requested.
    """
    [sums] = _pair_sums(model.x_train, model.y_train, model.kernel_x, model.kernel_y,
                        [_model_coeffs(model)], X_eval, Y_eval, want_value=want_value,
                        want_grad=want_grad, want_second=want_second, kx_pair=kx_pair)
    return sums


def eval_T(model: FactorModel, x, y) -> float:
    """Evaluate the fitted natural parameter T(x, y)."""
    X_eval, Y_eval = _as_x_row(x, model.p), _as_x_row(y, model.d)
    value, _, _ = _T_terms(model, X_eval, Y_eval, want_value=True)
    v = float(value[0])
    if not np.isfinite(v):
        raise NumericalError("natural parameter evaluated to a non-finite value")
    return v


def unnorm_logpdf_rows(model: FactorModel, X_eval, Y_eval) -> np.ndarray:
    """Vectorized unnormalized log-density over paired rows."""
    X_eval = _as_matrix(X_eval, "X_eval")
    Y_eval = _as_matrix(Y_eval, "Y_eval")
    value, _, _ = _T_terms(model, X_eval, Y_eval, want_value=True)
    return model.base.log_pdf_rows(Y_eval) + value


def empirical_score(model, x_eval, y_eval):
    """Empirical score objective of the fitted parameter on evaluation rows.

    The per-row, per-dimension contribution is
    0.5 * (dT/dy_i)^2 + d^2T/dy_i^2 + dlogq0/dy_i * dT/dy_i, averaged over
    rows.  Usable on held-out data as a cross-validation criterion; lower is
    better, and the minimizer on its own training set is always <= 0.

    ``model`` may also be a list of models that share the training rows,
    kernels and base density, such as one cross-validation fold's fit for
    each lambda.  The rows are then scored for all of them in one pass of
    ``_pair_sums``, and the result is a list with one score per model, each
    bit for bit the score of that model alone.
    """
    many = isinstance(model, (list, tuple))
    models = list(model) if many else [model]
    if not models:
        raise DataError("empirical score needs at least one model")
    setups = [(m.x_train, m.y_train, *map(astuple, (m.kernel_x, m.kernel_y, m.base)))
              for m in models]
    if not all(np.array_equal(u, v) for s in setups[1:] for u, v in zip(s, setups[0])):
        raise DataError("models scored together must share their training rows, "
                        "kernels and base density")
    first = models[0]
    X_eval = _as_matrix(x_eval, "x_eval")
    Y_eval = _as_matrix(y_eval, "y_eval")
    if X_eval.shape[0] != Y_eval.shape[0]:
        raise DataError("x_eval and y_eval must have the same number of rows")
    if X_eval.shape[0] < 1:
        raise DataError("empirical score needs at least one evaluation row")
    if X_eval.shape[1] != first.p or Y_eval.shape[1] != first.d:
        raise DataError("evaluation rows do not match the model's dimensions")
    sums = _pair_sums(first.x_train, first.y_train, first.kernel_x, first.kernel_y,
                      [_model_coeffs(m) for m in models], X_eval, Y_eval,
                      want_value=False, want_grad=True, want_second=True)
    c = first.base.grad_log(Y_eval)
    scores = [float(np.mean(np.sum(0.5 * grad**2 + second + c * grad, axis=1)))
              for _, grad, second in sums]
    return scores if many else scores[0]


def _worker_count() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# CPUs that an _in_blocks pool may take in this context, where a caller has
# left some of _worker_count's to another thread (see _leave_cpu)
_POOL_CPUS = contextvars.ContextVar("pool_cpus", default=None)


@contextmanager
def _leave_cpu():
    """Within the block, and in this context only, an ``_in_blocks`` pool
    leaves one of the process's CPUs to another thread, such as the
    solves of the CV pipeline; it keeps at least one."""
    token = _POOL_CPUS.set(max(1, _worker_count() - 1))
    try:
        yield
    finally:
        _POOL_CPUS.reset(token)


@contextmanager
def _pool(workers: int):
    """A ``map`` that runs inline for one worker and on a pool of
    ``workers`` threads otherwise; callers consume its results."""
    if workers == 1:
        yield map
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool.map


def _blocks(size: int, width: int) -> list[tuple[int, int]]:
    """(lo, hi) blocks of ``width`` columns, the last one narrower, that
    cover range(size)."""
    return [(lo, min(lo + width, size)) for lo in range(0, size, width)]


def _block_arrays(d: int, models: int = 1) -> int:
    """Scratch arrays per worker of ``build_gram_system`` and ``_pair_sums``
    for a d-dimensional y: k_X, k_Y, two products, one (Y_b - y) / s2 per
    dimension, only when d > 1 the term that ``_weight`` adds for each
    dimension after the first and, only for more than one model, the two
    prefactors of each dimension that every model reads."""
    return d + 4 + (d > 1) + 2 * d * (models > 1)


def _sum_rows(W: np.ndarray, out: np.ndarray, carry: bool) -> None:
    """np.sum(W, axis=0) into ``out``, continued from the sum in ``out``
    when ``carry``, with the rows added one after another.  numpy's sum does
    so for two or more columns but sums a single column pairwise, so that
    one takes its cumulative sum, in place.  A sum carried into the first
    row of each tile then gives the bits of the sum over all rows at once,
    at any block width."""
    if carry:
        np.add(out, W[0], out=W[0])
    if W.shape[1] == 1:
        out[0] = np.cumsum(W[:, 0], out=W[:, 0])[-1]
    else:
        np.sum(W, axis=0, out=out)


def _block_plan(size: int, rows: int, arrays: int, gemm_rows: int = 0) -> tuple[int, int]:
    """(workers, tile) for ``_in_blocks``: the blocks are ``_blocks(size,
    _CROSS_BLOCK)``, and each of ``workers`` threads holds ``arrays`` (tile,
    width) scratch arrays and, with a GEMM (``gemm_rows`` above 0), its
    full-height (rows, width) operand, of width min(size, ``_CROSS_BLOCK``).
    It is arithmetic on the sizes alone, so that a pre-flight may ask about
    any size.

    A tile takes as many of the ``rows`` as keep the arrays within
    ``_WORKER_SCRATCH``, at least one; a block with no arrays is one tile.  A
    pool of up to one thread per CPU of ``_worker_count`` (one fewer within
    ``_leave_cpu``) starts only for two blocks or more whose work, rows
    times (1 + ``gemm_rows``), reaches ``_POOL_ROWS``.  So a pool holds at
    most one scratch per CPU and per block, which ``_scratch_bytes`` counts.
    """
    if size == 0:
        return 1, rows
    tile = rows if not arrays else min(
        rows, max(1, _WORKER_SCRATCH // (arrays * min(size, _CROSS_BLOCK) * 8)))
    workers = 1 if rows * (1 + gemm_rows) < _POOL_ROWS else min(
        _POOL_CPUS.get() or _worker_count(), -(-size // _CROSS_BLOCK))
    return workers, tile


def _scratch_bytes(size: int, rows: int, arrays: int, gemm_rows: int = 0) -> int:
    """Bytes of the scratch that ``_in_blocks`` holds for these arguments,
    with each worker's ``_WORKER_BUFFERS``."""
    workers, tile = _block_plan(size, rows, arrays, gemm_rows)
    gemm = rows * (gemm_rows > 0)
    return workers * ((arrays * tile + gemm) * min(size, _CROSS_BLOCK) * 8
                      + _WORKER_BUFFERS)


def _in_blocks(work, size: int, rows: int, arrays: int, gemm_rows: int = 0) -> None:
    """Call ``work(lo, hi, tiles)`` once for every block of ``_blocks(size,
    _CROSS_BLOCK)``.  ``tiles`` yields, in order, (slice, scratch) for tiles
    of range(rows) that cover it, where scratch is a list of ``arrays``
    (tile rows, hi - lo) arrays, after, with a GEMM, the block's (rows,
    hi - lo) operand, the same array for every tile.

    The blocks run on the threads, and take the tile height, that
    ``_block_plan`` gives.  Each worker takes the next block in order when
    it is free, so a CPU that the host slows down takes fewer blocks, and
    runs its tiles one after another.
    Before the pool starts, the calling thread allocates one scratch per
    worker, which a worker holds for one block at a time, so workers
    allocate nothing large.  It also takes one copy of its context per
    block, in which the block runs, so every block sees the caller's numpy
    error state on any worker count.
    """
    workers, tile = _block_plan(size, rows, arrays, gemm_rows)
    width = min(size, _CROSS_BLOCK)
    gemm = rows * (gemm_rows > 0)
    free = queue.SimpleQueue()  # one scratch per worker, taken for a block
    for _ in range(workers):
        free.put((np.empty((arrays, tile * width)), np.empty(gemm * width)))

    def tiles(width, buf, operand):
        head = [operand[:gemm * width].reshape(gemm, width)] if gemm else []
        for start in range(0, rows, tile):
            height = min(tile, rows - start)
            # C-contiguous (height, width) views, also for a partial tile or
            # block, so that every ufunc runs the loop it runs on a fresh array
            yield slice(start, start + height), head + list(
                buf[:, :height * width].reshape(arrays, height, width))

    def run_block(context, block):
        lo, hi = block
        buf, operand = free.get()
        try:
            context.run(work, lo, hi, tiles(hi - lo, buf, operand))
        finally:
            free.put((buf, operand))

    blocks = _blocks(size, _CROSS_BLOCK)
    with _pool(workers) as run:
        list(run(run_block, [contextvars.copy_context() for _ in blocks], blocks))


def _kx_factor(model: FactorModel) -> tuple[list[int], np.ndarray] | None:
    """Pivoted Cholesky factor of k_X over the training x: (pivots, Lt),
    where Lt is (m, n) and k_X(X_a, X_b) is Lt[:, a] · Lt[:, b] up to the
    residual, or None when n // ``_RANK_CAP`` pivots do not reach it.

    Each step takes the largest residual diagonal (the first index on
    ties) as pivot, until every residual is at most ``_PIVOT_RTOL`` times
    k(x, x) (Harbrecht, Peters & Schneider, Appl. Numer. Math. 2012).  It
    depends on the model alone.  Only the m rows of Lt that pivoting
    writes are touched, and they are copied out at the end.
    """
    X, spec, n = model.x_train, model.kernel_x, model.n
    cap = n // _RANK_CAP
    diag = np.full(n, kernel_matrix(spec, X[:1], X[:1])[0, 0])
    tol = _PIVOT_RTOL * diag[0]
    Lt = np.empty((cap, n))
    pivots = []
    for k in range(cap + 1):
        j = int(np.argmax(diag))
        if diag[j] <= tol:
            return pivots, Lt[:k].copy()
        if k == cap:
            return None
        row = kernel_matrix(spec, X[j:j + 1], X, out=Lt[k:k + 1])[0]
        if k:
            row -= Lt[:k, j] @ Lt[:k]
        row /= math.sqrt(diag[j])
        diag -= row * row
        diag[j] = 0.0
        pivots.append(j)


def _kx_rows(model: FactorModel, pivots: list[int], Lt: np.ndarray,
             X_rows: np.ndarray) -> np.ndarray:
    """ℓ(X)ᵀ, shape (m, R), with k_X(x_r, X_b) ≈ ℓ(x_r) · Lt[:, b]: the
    forward substitution of k_X(X_pivots, x_r) through the pivots' rows of
    the factor.  It runs elementwise, each step on all R rows at once, so
    row r's values take the same operations whatever the other rows are
    (a LAPACK solve blocks its columns, and gave some rows other bits)."""
    E = kernel_matrix(model.kernel_x, model.x_train[pivots], X_rows)
    tmp = np.empty_like(E)
    for k, j in enumerate(pivots):
        np.divide(E[k], Lt[k, j], out=E[k])
        np.multiply(Lt[k, pivots[k + 1:], None], E[k], out=tmp[k + 1:])
        np.subtract(E[k + 1:], tmp[k + 1:], out=E[k + 1:])
    return E


def _weight_arrays(d: int, stacked: bool) -> int:
    """Scratch arrays per worker of ``cross_T_blocks``: none when stacked,
    else the weight's quadratic and, when d > 1, one term of it."""
    return 0 if stacked else 1 + (d > 1)


def _cross_T_bytes(n: int, d: int, R: int, S: int, Lt: np.ndarray | None = None,
                   stack: np.ndarray | None = None) -> int:
    """Bytes that ``cross_T_blocks`` holds for R rows and S points, by
    arithmetic alone: k_Y's left operand (n × (d + 2)), the factor ``Lt``
    (m × n; None on the exact route, where m = n) and its ``stack`` (None
    off the stacked route) and the left operand, ℓ(X) or k_X, in whole row
    tiles; beside it, while it is built, ℓ(X)ᵀ and the substitution's
    scratch, or kernel_matrix's, and then a chunk's block, the workers'
    scratch and right operands of k_Y ((d + 2) × 128) and, with the factor,
    each worker's M = Lᵀ W or P = stack @ k_Y."""
    chunk = min(S, _IS_CHUNK)
    m = n if Lt is None else Lt.shape[0]
    height = -(-R // _GEMM_ROWS) * _GEMM_ROWS
    arrays = _weight_arrays(d, stack is not None)
    product = 0 if Lt is None else m if stack is None else stack.shape[0]
    scratch = (_scratch_bytes(chunk, n, arrays, gemm_rows=R)
               + _block_plan(chunk, n, arrays, R)[0] * (d + 2 + product)
               * min(chunk, _CROSS_BLOCK) * 8)
    held = (height * m + n * (d + 2)) * 8
    if Lt is not None:
        held += Lt.nbytes + (0 if stack is None else stack.nbytes)
    return held + max(R * m * 8 * (1 if Lt is None else 2), height * chunk * 8 + scratch)


def _cross_T(model: FactorModel):
    """``cross_T_blocks`` for one model, prepared once: returns blocks(X_rows,
    Y_set), which yields that call's blocks, so that a caller with several
    sets of rows (the grid sampler's chunks) pivots k_X once.

    k_Y's exponent -Σ_l (Y_bl - y_l)² / (2 s2_l) is u_b + a_b · y + v(y),
    with u_b = -Σ_l Y_bl² / (2 s2_l), a_b = Y_b / s2 and v(y) = -Σ_l y_l² /
    (2 s2_l) (the fast Gauss transform's split), so a block of draws takes
    k_Y as exp of one GEMM, [u, a, 1] (n × (d + 2), once per model) @ [1;
    yᵀ; v(y)], over its full height.  The exponent's error is a few eps
    (|u_b| + |a_b · y| + |v(y)|), not kernel_matrix's few eps (Y - y)² / s2.

    T's weight at (Y_b, y) is a quadratic in y, w_b(y) = c0_b + Σ_l c1_bl y_l
    + e q(y) with q(y) = Σ_l (y_l / s2_l)², so T(x, y) = Σ_b k_X(x, X_b)
    k_Y(Y_b, y) w_b(y) takes its per-row coefficients once per model.  With
    the factor L of k_X at rank m ≤ ``_STACK_RANK``, Lᵀ W for a block of
    draws is P₀ + Σ_l y_l P₁ₗ + q(y) P₂ over the blocks P of one GEMM of the
    stack [Lᵀ∘c0; Lᵀ∘c1_l …; e Lᵀ] with k_Y, and no weight is formed.
    Otherwise W = k_Y ∘ (Σ_l c1_l y_l + c0 + e q) in four elementwise
    passes for d = 1, tile by tile, and Lᵀ W or, at the cap, W itself is
    the block's M.
    """
    a, e = _model_coeffs(model)
    Y, s2, (n, d) = model.y_train, model.kernel_y.variances, model.y_train.shape
    V = Y / s2
    c0 = np.sum(-a * V + e * (V * V - 1.0 / s2), axis=1)
    c1 = a / s2 - 2.0 * e * V / s2
    Yaug = np.hstack([-0.5 * np.sum(Y * V, axis=1, keepdims=True), V, np.ones((n, 1))])
    factor = _kx_factor(model)
    Lt = None if factor is None else factor[1]
    m = n if Lt is None else Lt.shape[0]
    stack = None
    if Lt is not None and m <= _STACK_RANK:
        stack = np.concatenate([Lt * c0, *(Lt * c1[:, l] for l in range(d)), e * Lt])
    arrays = _weight_arrays(d, stack is not None)

    def blocks(X_rows, Y_set):
        X_rows = _as_matrix(X_rows, "X_rows")
        Y_set = _as_matrix(Y_set, "Y_set")
        R, S = X_rows.shape[0], Y_set.shape[0]
        _check_memory(_cross_T_bytes(n, d, R, S, Lt, stack),
                      f"the natural parameter for {R} distinct rows with n = {n}",
                      "evaluate fewer distinct rows")
        height = -(-R // _GEMM_ROWS) * _GEMM_ROWS  # R rounded up to whole row tiles
        left = np.zeros((height, m))  # k_X or ℓ(X), then zero rows
        if Lt is None:
            kernel_matrix(model.kernel_x, X_rows, model.x_train, out=left[:R])
        else:
            left[:R] = _kx_rows(model, *factor, X_rows).T
        row_tiles = [slice(t, t + _GEMM_ROWS) for t in range(0, height, _GEMM_ROWS)]
        for lo in range(0, S, _IS_CHUNK):
            hi = min(lo + _IS_CHUNK, S)
            block = np.empty((height, hi - lo))

            def gemm_block(b_lo, b_hi, tiles):  # k_Y into the operand K, then GEMMs
                y = Y_set[lo + b_lo:lo + b_hi]
                v = y / s2
                q = v[:, 0] * v[:, 0]
                for l in range(1, d):
                    q += v[:, l] * v[:, l]
                eq = e * q
                yaug = np.vstack([np.ones(len(y)), y.T, -0.5 * np.sum(y * v, axis=1)])
                for rows, (K, *tmp) in tiles:
                    if rows.start == 0:  # k_Y's exponent, one GEMM of K's full height
                        np.matmul(Yaug, yaug, out=K)
                    np.exp(K[rows], out=K[rows])
                    if stack is None:  # W = k_Y ∘ (Σ_l c1_l y_l + c0 + e q)
                        poly = tmp[0]
                        np.multiply(c1[rows, 0, None], y[None, :, 0], out=poly)
                        for l in range(1, d):
                            np.multiply(c1[rows, l, None], y[None, :, l], out=tmp[1])
                            np.add(poly, tmp[1], out=poly)
                        np.add(poly, c0[rows, None], out=poly)
                        np.add(poly, eq, out=poly)
                        np.multiply(K[rows], poly, out=K[rows])
                if stack is None:
                    M = K if Lt is None else Lt @ K
                else:  # M = P₀ + Σ_l y_l P₁ₗ + q P₂, in P's own rows
                    P = stack @ K
                    M = P[:m]
                    for l in range(d + 1):
                        part = P[(l + 1) * m:(l + 2) * m]
                        np.multiply(part, y[:, l] if l < d else q, out=part)
                        np.add(M, part, out=M)
                for t in row_tiles:
                    np.matmul(left[t], M, out=block[t, b_lo:b_hi])

            _in_blocks(gemm_block, hi - lo, n, arrays, gemm_rows=R)
            yield slice(lo, hi), block[:R]
            del block  # the caller drops its reference too: one block at a time

    return blocks


def cross_T_blocks(model: FactorModel, X_rows: np.ndarray, Y_set: np.ndarray):
    """Yield (slice, block) pairs covering T(x_r, y_s) for all rows and draws.

    X_rows is (R, p) and Y_set is (S, d); each block is a fresh (R, width)
    array for a chunk of at most ``_IS_CHUNK`` draws, and column s of the
    full matrix corresponds to draw Y_set[s].  Each chunk is one
    ``_in_blocks`` call: a block of draws computes k_Y into its full-height
    operand, as one GEMM of inner dimension d + 2 and one exp (see
    ``_cross_T``), and then its columns of T, bit for bit the same on any
    worker count and tile height.

    T is ℓ(X) @ (Lᵀ W), with the pivoted Cholesky factor L of k_X from
    ``_kx_factor`` (rank m, at most n // 8) and ℓ(X) (R × m) from
    ``_kx_rows``; k_X (R × n) is not built.  Lᵀ W comes from one stacked
    GEMM of k_Y at low rank, or from the weights W (``_cross_T``).  A model
    whose pivoting reaches the cap takes k_X @ W.  The route depends on the
    model alone (its d and m), and every GEMM of the left operand takes
    ``_GEMM_ROWS`` rows of it, the last tile padded with zero rows, so a
    row's values do not depend on the other rows of the call.

    A chunk has at most ``_IS_CHUNK / _CROSS_BLOCK`` blocks, so the workers'
    operands together stay within the bytes of one (n, ``_IS_CHUNK``)
    array, beside one capped scratch (and, with the factor, one product M
    or P of 128 columns) per worker.  Memory is O(m (n + R)), or O(n R) on
    the exact route, plus that, whatever S.  Before ℓ(X) or k_X is built,
    those bytes (``_cross_T_bytes``) are compared with physical memory, and
    a DataError names the rows when they do not fit.
    """
    yield from _cross_T(model)(X_rows, Y_set)
