"""Score-matched fitting of conditional exponential family factors.

A factor models p(y|x) on top of a Gaussian base density via a natural
parameter T(x, y) living in a product of RKHSs.  Fitting minimizes a
regularized empirical score objective, which reduces to one symmetric
positive-definite linear system of size (n·d) over expansion coefficients.
Everything here is deterministic: identical inputs give identical outputs.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DataError, NumericalError
from .kernels import (
    ConstantKernel,
    GaussianKernelSpec,
    _mixed_factor,
    kernel_matrix,
)

RESIDUAL_RTOL = 1e-8

_CROSS_BLOCK = 128  # columns per element-wise block of every buffered kernel sum
_EVAL_CHUNK = 256  # columns that the assembly's workers may span together at any size
_GEMM_PANEL = 1024  # columns per GEMM of cross_T_blocks, whatever the worker count
# Blocks of fewer rows run on one thread: their element-wise passes are too
# short for threads to pay.  On 2 CPUs, two threads assembled an n = 400
# system (CV's folds) in 7.5 ms against 4.7 ms for one and tied at n = 1000;
# at n = 2000 they took 125 ms against 180 ms while the second CPU was free.
_POOL_ROWS = 1024

# Peak traced memory of one fit over the bytes of its (n*d)^2 Gram matrix:
# tracemalloc around fit_factor at d=1 reads 2.004-2.017 at n=1536 and
# n=2000 (the benchmark's score_fit.peak_over_gram) on 1, 2, 4 or 8 CPUs.
# The peak is the solve's: G and _ridge_solve's one work array.  The
# assembly holds G and each worker's d + 5 (n, _CROSS_BLOCK) scratch
# arrays, which together stay within the Gram's size from n=1536 up.  The
# scratch weighs more as n falls: 2.52-2.54 at n=1024 on 2 or more CPUs and
# 3.76 at n=300, but such a Gram is at most 8*d^2 MiB.
_PEAK_OVER_GRAM = 2.2


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

    def log_pdf(self, y) -> float:
        return float(self.log_pdf_rows(np.atleast_2d(y))[0])

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
    ``xi_coeff == 0`` and zero beta has T identically zero.
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

    Both are checked for finiteness here, once, so the solver need not
    check them again, whether the system was assembled or given.
    """

    G: np.ndarray
    h: np.ndarray
    n: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.G)):
            raise NumericalError("Gram matrix has non-finite entries")
        if not np.all(np.isfinite(self.h)):
            raise NumericalError("h vector has non-finite entries")


def _xi_coeffs(y_train, base: BaseDensity):
    """Coefficients (a, e) of the averaged feature function alone."""
    n = y_train.shape[0]
    return base.grad_log(y_train) / n, 1.0 / n


def _model_coeffs(model: FactorModel):
    """Coefficients (a, e) of the fitted T: beta plus xi_coeff times the
    averaged feature function."""
    e = model.xi_coeff / model.n
    return model.beta2d + e * model.base.grad_log(model.y_train), e


def _weight(V, s2, a, e, j: int, q: int, out, term, extra, tmp, kept=None,
            fill=False):
    """sum_l a[b,l] * mixed(l,1; j,q) + e * mixed(l,2; j,q), elementwise over
    (train, eval), written into ``out``.  T, its y-partials, xi_hat and h are
    all sums sum_b k_X(X_b, x) * k_Y(Y_b, y) * weight that differ only in the
    per-sample coefficients a (n, d) and the scalar e.  V[l] holds
    (Y_b - y)_l / s2_l; ``term`` (only used when d > 1), ``extra`` and
    ``tmp`` are scratch of out's shape.  ``kept`` may carry the mixed
    prefactors, kept[l, p - 1] = mixed(l,p; j,q), which are read in place of
    V, or first written there from V with ``fill``."""
    for l in range(a.shape[1]):
        t = out if l == 0 else term
        f1, f2 = (t, extra) if kept is None else kept[l]
        if kept is None or fill:
            _mixed_factor(V[l], s2[l], 1, V[j], s2[j], q, l == j, f1, tmp)
            _mixed_factor(V[l], s2[l], 2, V[j], s2[j], q, l == j, f2, tmp)
        np.multiply(a[:, l, None], f1, out=t)
        np.multiply(e, f2, out=extra)
        np.add(t, extra, out=t)
        if l:
            np.add(out, term, out=out)
    return out


def _pair_sums(x_train, y_train, kernel_x, kernel_y, a, e, X_eval, Y_eval,
               want_value=True, want_grad=False, want_second=False, kx_pair=None,
               pieces=None):
    """Kernel sums with coefficients (a, e) and their first/second y-partials
    at paired rows (X_eval[r], Y_eval[r]).  Returns (value (R,), grad (R, d),
    second (R, d)), None where not wanted.

    The rows go through ``_in_blocks``: each block of rows is computed in
    reused scratch by the same operations as the whole call at once, so
    no value depends on the block split or the worker count.

    ``pieces`` may carry a dict shared by calls with the same training set,
    kernels, evaluation rows and wanted outputs, which differ only in
    (a, e).  The first call that completes fills it with every block's
    k_X * k_Y and mixed prefactors, and later calls compute only the (a, e)
    terms from them, by the same operations in the same order, so the sums
    are the same bits.  The pieces take one (n, R) array for k_X * k_Y and
    2 d per wanted sum: 1 + 4 d^2 for ``empirical_score``.
    """
    n, d = y_train.shape
    s2 = kernel_y.variances
    R = X_eval.shape[0]
    value = np.empty(R) if want_value else None
    grad = np.empty((R, d)) if want_grad else None
    second = np.empty((R, d)) if want_second else None
    sums = [(value, 0, 0)] if want_value else []
    for j in range(d):
        sums += [(grad[:, j], j, 1)] if want_grad else []
        sums += [(second[:, j], j, 2)] if want_second else []
    fill = pieces is not None and not pieces
    kept = pieces
    if fill:  # allocated here, so that workers allocate nothing large
        kept = {(lo, hi): (np.empty((n, hi - lo)), np.empty((len(sums), d, 2, n, hi - lo)))
                for lo, hi in _blocks(R)}

    def block(lo, hi, scratch):
        K, Y, W, X, T, *V = scratch  # T is used only when d > 1
        K, F = (K, None) if kept is None else kept[lo, hi]
        if kept is None or fill:
            if kx_pair is None:
                kernel_matrix(kernel_x, x_train, X_eval[lo:hi], K, W)
            kernel_matrix(kernel_y, y_train, Y_eval[lo:hi], Y, W)
            np.multiply(K if kx_pair is None else kx_pair[:, lo:hi], Y, out=K)
            for m in range(d):
                np.subtract(y_train[:, m, None], Y_eval[None, lo:hi, m], out=V[m])
                np.divide(V[m], s2[m], out=V[m])
        for k, (out, j, q) in enumerate(sums):
            f = None if F is None else F[k]
            np.multiply(K, _weight(V, s2, a, e, j, q, W, T, X, Y, f, fill), out=W)
            np.sum(W, axis=0, out=out[lo:hi])

    _in_blocks(block, R, n, d + 5)
    if fill:
        pieces.update(kept)
    return value, grad, second


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


def _check_fit_size(nd: int) -> None:
    """Raise DataError before assembly when a fit of size nd cannot fit in
    physical memory."""
    _check_memory(_PEAK_OVER_GRAM * nd * nd * 8, f"a fit with n*d = {nd}",
                  "use fewer rows")


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
    (X_b, Y_b).  Both are sums over the same kernel values, so each block
    builds k_X, k_Y and the differences Y_a - Y_b once for both, in the
    reused scratch of ``_in_blocks``.
    """
    x_train, y_train = _check_training(x_train, y_train, kernel_x, kernel_y)
    n, d = y_train.shape
    _check_fit_size(n * d)
    s2 = kernel_y.variances
    a, e = _xi_coeffs(y_train, base)
    G = np.empty((n * d, n * d))
    h = np.empty((n, d))

    def block(lo, hi, scratch):
        K, Y, W, X, T, *V = scratch  # T is used only when d > 1
        kernel_matrix(kernel_x, x_train, x_train[lo:hi], K, W)
        kernel_matrix(kernel_y, y_train, y_train[lo:hi], Y, W)
        for m in range(d):
            np.subtract(y_train[:, m, None], y_train[None, lo:hi, m], out=V[m])
            np.divide(V[m], s2[m], out=V[m])
        for i in range(d):
            for j in range(d):
                _mixed_factor(V[i], s2[i], 1, V[j], s2[j], 1, i == j, W, X)
                np.multiply(W, Y, out=W)
                np.multiply(K, W, out=G[i::d, lo * d + j:hi * d:d])
        np.multiply(K, Y, out=K)  # now k_X * k_Y
        for j in range(d):
            np.multiply(K, _weight(V, s2, a, e, j, 1, W, T, X, Y), out=W)
            np.sum(W, axis=0, out=h[lo:hi, j])

    _in_blocks(block, n, n, d + 5, budget=G.nbytes)
    return GramSystem(G=G, h=h.reshape(-1), n=n)


def build_gram(x_train, y_train, kernel_x, kernel_y) -> np.ndarray:
    """The Gram matrix G of ``build_gram_system``."""
    return build_gram_system(x_train, y_train, kernel_x, kernel_y, BaseDensity()).G


def build_h(x_train, y_train, kernel_x, kernel_y, base: BaseDensity) -> np.ndarray:
    """The right-hand-side vector h of ``build_gram_system``."""
    return build_gram_system(x_train, y_train, kernel_x, kernel_y, base).h


def xi_hat(x_train, y_train, kernel_x, kernel_y, base: BaseDensity,
           x, y, deriv: tuple[int, int] | None = None) -> float:
    """Monte Carlo average of the score features over the training set.

    With ``deriv=None`` returns the plain average; ``deriv=(j, q)`` returns
    its order-q partial along dimension j of y (q in {0, 1, 2}), obtained by
    raising the second-argument derivative orders of the kernel.
    """
    x_train, y_train = _check_training(x_train, y_train, kernel_x, kernel_y)
    j, q = (0, 0) if deriv is None else deriv
    if q not in (0, 1, 2):
        raise DataError(f"derivative order on y must be in (0, 1, 2), got {q}")
    if not 0 <= j < y_train.shape[1]:
        raise DataError(f"derivative dimension {j} out of range")
    X_eval = _as_x_row(x, x_train.shape[1])
    Y_eval = _as_x_row(y, y_train.shape[1])
    a, e = _xi_coeffs(y_train, base)
    sums = _pair_sums(x_train, y_train, kernel_x, kernel_y, a, e, X_eval, Y_eval,
                      want_value=q == 0, want_grad=q == 1, want_second=q == 2)
    return float(sums[0][0] if q == 0 else sums[q][0, j])


def _ridge_solve(G: np.ndarray, h: np.ndarray, lam: float, n: int) -> np.ndarray:
    """Solve (G + n*lam*I) beta = h / lam for beta.

    The ridge and any jitter go onto the diagonal of one Fortran-order work
    array, which LAPACK factors in place, so G is left untouched and one
    assembled system can be solved for several lambdas.  G is exactly
    symmetric, so G.T fills the work array in its own memory order.
    The shifted matrix is PSD plus a positive ridge, so a Cholesky
    factorization is used; on breakdown a small jitter (1e-10 times the mean
    diagonal mass of G) is added and escalated tenfold up to three times.
    A failed factorization has already overwritten the work array, so every
    attempt refills it from G.
    The solution must satisfy the residual bound
    ||(G + n*lam*I) beta - h/lam|| <= 1e-8 * max(1, ||h/lam||).

    G and h were checked for finiteness when their GramSystem was built.
    Here h/lam and the ridge n*lam are checked before any factorization,
    and each residual after a solve; scipy checks nothing again, so it
    allocates no array of G's shape beyond the work array.
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

    diag = np.diag_indices_from(G)
    A = np.empty_like(G, order="F")
    scale = np.trace(G) / G.shape[0]
    jitter = 0.0
    for attempt in range(4):
        np.copyto(A, G.T)
        A[diag] += ridge
        if jitter:
            A[diag] += jitter
        try:
            factor = scipy.linalg.cho_factor(A, lower=True, overwrite_a=True,
                                              check_finite=False)
            break
        except scipy.linalg.LinAlgError:
            jitter = 1e-10 * max(scale, 1.0) if jitter == 0.0 else jitter * 10.0
    else:
        raise NumericalError(
            "Cholesky factorization failed after jitter escalation; "
            "the system is severely ill-conditioned"
        )
    beta = scipy.linalg.cho_solve(factor, rhs, check_finite=False)

    bound = RESIDUAL_RTOL * max(1.0, float(np.linalg.norm(rhs)))
    for step in range(4):
        resid = G @ beta + ridge * beta - rhs  # A now holds the factor
        if not np.all(np.isfinite(resid)):
            raise NumericalError(f"solve residual is not finite at lambda = {lam:g}")
        if np.linalg.norm(resid) <= bound:
            return beta
        if step < 3:  # at most three refinement steps
            beta = beta - scipy.linalg.cho_solve(factor, resid, check_finite=False)
    raise NumericalError(
        f"solve residual {np.linalg.norm(resid):.3e} exceeds bound {bound:.3e}"
    )


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
    beta = _ridge_solve(system.G, system.h, lam, system.n)
    return FactorModel(
        x_train=x_train, y_train=y_train, kernel_x=kernel_x, kernel_y=kernel_y,
        lam=lam, beta=beta, base=base, xi_coeff=-1.0 / lam,
    )


def _T_terms(model: FactorModel, X_eval: np.ndarray, Y_eval: np.ndarray,
             want_value=True, want_grad=False, want_second=False,
             kx_pair: np.ndarray | None = None, pieces: dict | None = None):
    """Natural parameter and its first/second y-partials at paired rows.

    X_eval is (R, p), Y_eval is (R, d); entry r of each output refers to the
    pair (X_eval[r], Y_eval[r]).  ``kx_pair`` may carry a precomputed
    conditioning-kernel matrix of shape (n, R) (reused across leapfrog steps,
    where x stays fixed), and ``pieces`` the cache of ``_pair_sums``.
    Returns (value (R,), grad (R, d), second (R, d)), with None for outputs
    not requested.
    """
    a, e = _model_coeffs(model)
    return _pair_sums(model.x_train, model.y_train, model.kernel_x, model.kernel_y,
                      a, e, X_eval, Y_eval, want_value=want_value,
                      want_grad=want_grad, want_second=want_second, kx_pair=kx_pair,
                      pieces=pieces)


def _pair_eval_arrays(model: FactorModel, x, y):
    X_eval = _as_x_row(x, model.p)
    Y_eval = _as_x_row(y, model.d)
    if not (np.all(np.isfinite(X_eval)) and np.all(np.isfinite(Y_eval))):
        raise DataError("evaluation points must be finite")
    return X_eval, Y_eval


def eval_T(model: FactorModel, x, y) -> float:
    """Evaluate the fitted natural parameter T(x, y)."""
    X_eval, Y_eval = _pair_eval_arrays(model, x, y)
    value, _, _ = _T_terms(model, X_eval, Y_eval, want_value=True)
    v = float(value[0])
    if not np.isfinite(v):
        raise NumericalError("natural parameter evaluated to a non-finite value")
    return v


def grad_y_T(model: FactorModel, x, y) -> np.ndarray:
    """All first-order y-partials of T at (x, y), shape (d,)."""
    X_eval, Y_eval = _pair_eval_arrays(model, x, y)
    _, grad, _ = _T_terms(model, X_eval, Y_eval, want_value=False, want_grad=True)
    return grad[0].copy()


def laplacian_terms_T(model: FactorModel, x, y) -> tuple[np.ndarray, np.ndarray]:
    """First and pure-second y-partials of T at (x, y): (grad (d,), second (d,))."""
    X_eval, Y_eval = _pair_eval_arrays(model, x, y)
    _, grad, second = _T_terms(model, X_eval, Y_eval,
                               want_value=False, want_grad=True, want_second=True)
    return grad[0].copy(), second[0].copy()


def unnorm_logpdf(model: FactorModel, x, y) -> float:
    """log q0(y) + T(x, y); the conditional normalizer is omitted."""
    return model.base.log_pdf(y) + eval_T(model, x, y)


def unnorm_logpdf_rows(model: FactorModel, X_eval, Y_eval) -> np.ndarray:
    """Vectorized unnormalized log-density over paired rows."""
    X_eval = _as_matrix(X_eval, "X_eval")
    Y_eval = _as_matrix(Y_eval, "Y_eval")
    value, _, _ = _T_terms(model, X_eval, Y_eval, want_value=True)
    return model.base.log_pdf_rows(Y_eval) + value


def empirical_score(model: FactorModel, x_eval, y_eval,
                    pieces: dict | None = None) -> float:
    """Empirical score objective of the fitted parameter on evaluation rows.

    The per-row, per-dimension contribution is
    0.5 * (dT/dy_i)^2 + d^2T/dy_i^2 + dlogq0/dy_i * dT/dy_i, averaged over
    rows.  Usable on held-out data as a cross-validation criterion; lower is
    better, and the minimizer on its own training set is always <= 0.

    ``pieces`` may carry one dict for every call on the same evaluation rows
    with models that share the training set and kernels (one held-out block
    of cross-validation, scored for each lambda); the first call keeps the
    kernel values and prefactors there, and later calls reuse them, with
    the same result bit for bit.
    """
    X_eval = _as_matrix(x_eval, "x_eval")
    Y_eval = _as_matrix(y_eval, "y_eval")
    if X_eval.shape[0] != Y_eval.shape[0]:
        raise DataError("x_eval and y_eval must have the same number of rows")
    if X_eval.shape[0] < 1:
        raise DataError("empirical score needs at least one evaluation row")
    if X_eval.shape[1] != model.p or Y_eval.shape[1] != model.d:
        raise DataError("evaluation rows do not match the model's dimensions")
    _, grad, second = _T_terms(model, X_eval, Y_eval, want_value=False,
                               want_grad=True, want_second=True, pieces=pieces)
    c = model.base.grad_log(Y_eval)
    per_row = np.sum(0.5 * grad**2 + second + c * grad, axis=1)
    return float(np.mean(per_row))


def _cross_weights(model: FactorModel, Y_set: np.ndarray,
                   out: np.ndarray | None = None,
                   rows: slice = slice(None)) -> np.ndarray:
    """k_Y(Y_b, y_s) times T's weight for every training sample b and point
    y_s, shape (n, S), so that T(x, y_s) = sum_b k_X(X_b, x) * out[b, s]
    (the per-draw factor of cross_T_blocks and the grid sampler).

    Writes into ``out`` (allocated when None) and works through the columns
    in blocks of ``_CROSS_BLOCK`` with three reused (rows, block) scratch
    arrays, so its memory beyond ``out`` does not grow with S.  Only the
    training samples in ``rows`` (a slice of range(n)) are filled, so
    callers on several threads can fill disjoint row ranges of one buffer.
    Each entry comes from the operations of ``kernel_matrix(...) *
    _weight(V, ..., 0, 0)`` in the same order, bit for bit, whatever the
    row range; the only rewrite is an exact one: -(u/s2) is u/(-s2).
    """
    a, e = _model_coeffs(model)
    Y, a, s2 = model.y_train[rows], a[rows], model.kernel_y.variances
    n, S = Y.shape[0], Y_set.shape[0]
    out = np.empty((model.n, S)) if out is None else out
    scratch = np.empty((3, n * min(_CROSS_BLOCK, S)))
    for lo in range(0, S, _CROSS_BLOCK):
        hi = min(lo + _CROSS_BLOCK, S)
        # contiguous (n, width) views, also for a partial last block
        kb, vb, tb = (row[:n * (hi - lo)].reshape(n, hi - lo) for row in scratch)
        ob = out[rows, lo:hi]
        kernel_matrix(model.kernel_y, Y, Y_set[lo:hi], kb, tb)
        # weight = sum_l a_l * (-u_l/s2_l) + e * ((u_l/s2_l)^2 - 1/s2_l)
        for l in range(model.d):
            term = ob if l == 0 else tb
            np.subtract(Y[:, l, None], Y_set[None, lo:hi, l], out=vb)
            np.divide(vb, -s2[l], out=vb)
            np.multiply(a[:, l, None], vb, out=term)
            np.multiply(vb, vb, out=vb)
            np.subtract(vb, 1.0 / s2[l], out=vb)
            np.multiply(e, vb, out=vb)
            np.add(term, vb, out=term)
            if l:
                np.add(ob, tb, out=ob)
        np.multiply(kb, ob, out=ob)
    return out


def _worker_count() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _even_slices(size: int, parts: int) -> list[slice]:
    """``parts`` contiguous slices that cover range(size), in order, whose
    lengths differ by at most one."""
    bounds = [size * k // parts for k in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


@contextmanager
def _pool(workers: int):
    """A ``map`` that runs inline for one worker and on a pool of
    ``workers`` threads otherwise; callers consume its results."""
    if workers == 1:
        yield map
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool.map


def _blocks(size: int) -> list[tuple[int, int]]:
    """(lo, hi) blocks of ``_CROSS_BLOCK`` columns that cover range(size).
    A 1-column remainder joins the block before it: numpy sums a single
    column pairwise, which would change its last bits."""
    bounds = [*range(0, size, _CROSS_BLOCK), size]
    if size > 1 and size % _CROSS_BLOCK == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _block_plan(size: int, rows: int, arrays: int,
                budget: int | None = None) -> tuple[list, int, int]:
    """(blocks, workers, width) for ``_in_blocks``: each of ``workers``
    threads holds ``arrays`` (rows, width) scratch arrays.

    A pool of up to one thread per CPU of ``_worker_count`` starts only for
    two blocks or more of at least ``_POOL_ROWS`` rows.  With a ``budget``
    in bytes, the scratch of all workers together spans at most
    ``_EVAL_CHUNK`` columns, or more only while it stays within the budget.
    """
    blocks = _blocks(size)
    if not blocks:
        return blocks, 1, 0
    width = max(hi - lo for lo, hi in blocks)
    workers = min(_worker_count(), len(blocks)) if rows >= _POOL_ROWS else 1
    if budget is not None:
        per_worker = arrays * rows * width * 8
        workers = min(workers, max(_EVAL_CHUNK // _CROSS_BLOCK, budget // per_worker))
    return blocks, workers, width


def _in_blocks(work, size: int, rows: int, arrays: int,
               budget: int | None = None) -> None:
    """Call ``work(lo, hi, scratch)`` once for every block of ``_blocks(size)``,
    where scratch is a list of ``arrays`` (rows, hi - lo) arrays.

    The blocks run on the threads that ``_block_plan`` gives.  Each worker
    takes the next block in order when it is free, so a CPU that the host
    slows down takes fewer blocks.  Before the pool starts, the calling
    thread allocates one scratch per worker, which a worker holds for one
    block at a time, so workers allocate nothing large.
    """
    blocks, workers, width = _block_plan(size, rows, arrays, budget)
    free = queue.SimpleQueue()  # one scratch per worker, taken for a block
    for _ in range(workers):
        free.put(np.empty((arrays, rows * width)))

    def run_block(block):
        lo, hi = block
        buf = free.get()
        try:
            # C-contiguous (rows, width) views, also for a partial block, so
            # that every ufunc runs the loop it runs on a fresh array
            work(lo, hi, [row[:rows * (hi - lo)].reshape(rows, hi - lo) for row in buf])
        finally:
            free.put(buf)

    with _pool(workers) as run:
        list(run(run_block, blocks))


def cross_T_blocks(model: FactorModel, X_rows: np.ndarray, Y_set: np.ndarray,
                   chunk: int = 2048):
    """Yield (slice, block) pairs covering T(x_r, y_s) for all rows and draws.

    X_rows is (R, p) and Y_set is (S, d); each block has shape (R, chunk) and
    column s of the full matrix corresponds to draw Y_set[s].  Each chunk of
    draws fills one (n, chunk) weight buffer, reused for the whole call,
    through ``_cross_weights`` and takes a GEMM with k_X, so memory is
    O(n * (R + chunk)) whatever S is.  Every yielded block is a fresh array.

    Each chunk is split across one thread per CPU of ``_worker_count`` (at
    most n; a single worker runs inline): every worker fills a contiguous
    range of the buffer's training rows, and the GEMM runs in column panels
    of ``_GEMM_PANEL``.  Neither the weights' element-wise operations nor
    the panels depend on the worker count, so neither do the blocks, bit
    for bit.
    """
    X_rows = _as_matrix(X_rows, "X_rows")
    Y_set = _as_matrix(Y_set, "Y_set")
    n, S = model.n, Y_set.shape[0]
    kxT = kernel_matrix(model.kernel_x, model.x_train, X_rows).T  # (R, n)
    workers = min(_worker_count(), n)
    row_ranges = _even_slices(n, workers)
    # flat, so that every chunk's (n, width) view is contiguous
    buf = np.empty(n * min(chunk, S))
    with _pool(workers) as run:
        for lo in range(0, S, chunk):
            hi = min(lo + chunk, S)
            W = buf[:n * (hi - lo)].reshape(n, hi - lo)
            list(run(lambda rows: _cross_weights(model, Y_set[lo:hi], W, rows),
                     row_ranges))
            block = np.empty((kxT.shape[0], hi - lo))
            panels = [slice(c, c + _GEMM_PANEL) for c in range(0, hi - lo, _GEMM_PANEL)]
            list(run(lambda cols: np.matmul(kxT, W[:, cols], out=block[:, cols]), panels))
            yield slice(lo, hi), block
