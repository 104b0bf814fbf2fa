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
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DataError, NumericalError
from .kernels import (
    ConstantKernel,
    GaussianKernelSpec,
    _mixed_factor,
    kernel_matrix,
    partial_matrix,
)

RESIDUAL_RTOL = 1e-8

_EVAL_CHUNK = 512

# Peak traced memory of one fit over the bytes of its (n*d)^2 Gram matrix:
# 6.0 by tracemalloc around fit_factor at n=2000, d=1 (the benchmark's
# score_fit.peak_over_gram), set by the Gram-sized temporaries of build_gram.
# Fits with n <= _EVAL_CHUNK read 8.0, because one build_h chunk then spans
# all rows; their Gram is at most 2*d^2 MiB.
_PEAK_OVER_GRAM = 6.0


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
    """The linear system data: symmetric PSD matrix G (nd x nd) and vector h."""

    G: np.ndarray
    h: np.ndarray
    n: int


def _xi_coeffs(y_train, base: BaseDensity):
    """Coefficients (a, e) of the averaged feature function alone."""
    n = y_train.shape[0]
    return base.grad_log(y_train) / n, 1.0 / n


def _model_coeffs(model: FactorModel):
    """Coefficients (a, e) of the fitted T: beta plus xi_coeff times the
    averaged feature function."""
    e = model.xi_coeff / model.n
    return model.beta2d + e * model.base.grad_log(model.y_train), e


def _weight(U, s2, a, e, j: int, q: int):
    """sum_l a[b,l] * mixed(l,1; j,q) + e * mixed(l,2; j,q), elementwise over
    (train, eval).  T, its y-partials, xi_hat and h are all sums
    sum_b k_X(X_b, x) * k_Y(Y_b, y) * weight that differ only in the
    per-sample coefficients a (n, d) and the scalar e."""
    out = None
    for l in range(a.shape[1]):
        same = l == j
        term = a[:, l, None] * _mixed_factor(U[l], s2[l], 1, U[j], s2[j], q,
                                             same_dim=same)
        term += e * _mixed_factor(U[l], s2[l], 2, U[j], s2[j], q, same_dim=same)
        out = term if out is None else out + term
    return out


def _pair_sums(x_train, y_train, kernel_x, kernel_y, a, e, X_eval, Y_eval,
               want_value=True, want_grad=False, want_second=False, kx_pair=None):
    """Kernel sums with coefficients (a, e) and their first/second y-partials
    at paired rows (X_eval[r], Y_eval[r]), chunked over rows to bound memory.
    Returns (value (R,), grad (R, d), second (R, d)), None where not wanted.
    """
    d = y_train.shape[1]
    s2 = kernel_y.variances
    R = X_eval.shape[0]
    value = np.empty(R) if want_value else None
    grad = np.empty((R, d)) if want_grad else None
    second = np.empty((R, d)) if want_second else None

    for lo in range(0, R, _EVAL_CHUNK):
        hi = min(lo + _EVAL_CHUNK, R)
        kx = (kernel_matrix(kernel_x, x_train, X_eval[lo:hi])
              if kx_pair is None else kx_pair[:, lo:hi])
        kxky = kx * kernel_matrix(kernel_y, y_train, Y_eval[lo:hi])
        U = [y_train[:, m, None] - Y_eval[None, lo:hi, m] for m in range(d)]
        if want_value:
            value[lo:hi] = np.sum(kxky * _weight(U, s2, a, e, 0, 0), axis=0)
        for j in range(d):
            if want_grad:
                grad[lo:hi, j] = np.sum(kxky * _weight(U, s2, a, e, j, 1), axis=0)
            if want_second:
                second[lo:hi, j] = np.sum(kxky * _weight(U, s2, a, e, j, 2), axis=0)
    return value, grad, second


def _physical_memory_bytes() -> int | None:
    """Physical memory of the machine, or None where the OS does not say."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


def _check_fit_size(nd: int) -> None:
    """Raise DataError before assembly when a fit of size nd cannot fit in
    physical memory, instead of dying in MemoryError or the OOM killer."""
    need = _PEAK_OVER_GRAM * nd * nd * 8
    have = _physical_memory_bytes()
    if have is not None and need > have:
        raise DataError(
            f"a fit with n*d = {nd} needs about {need / 2**30:.1f} GiB, more than "
            f"the {have / 2**30:.1f} GiB of physical memory; use fewer rows"
        )


def build_gram(x_train, y_train, kernel_x, kernel_y) -> np.ndarray:
    """Assemble the nd x nd Gram matrix of derivative features.

    Entry ((a,i),(b,j)) is k_X(X_a, X_b) times the (first-dim i, second-dim j)
    first-order mixed partial of the y-kernel at (Y_a, Y_b).  The result is
    explicitly symmetrized to guard the symmetric solver against roundoff.
    """
    x_train, y_train = _check_training(x_train, y_train, kernel_x, kernel_y)
    n, d = y_train.shape
    _check_fit_size(n * d)
    kx = kernel_matrix(kernel_x, x_train, x_train)
    ky = kernel_matrix(kernel_y, y_train, y_train)
    G = np.empty((n * d, n * d))
    for i in range(d):
        for j in range(d):
            block = kx * partial_matrix(kernel_y, y_train, y_train, i, 1, j, 1, base=ky)
            G[i::d, j::d] = block
    if not np.all(np.isfinite(G)):
        raise NumericalError("Gram matrix has non-finite entries")
    return 0.5 * (G + G.T)


def build_h(x_train, y_train, kernel_x, kernel_y, base: BaseDensity) -> np.ndarray:
    """Right-hand-side vector: entry (b,i) is the i-th y-partial of the
    averaged feature function evaluated at the training pair (X_b, Y_b)."""
    x_train, y_train = _check_training(x_train, y_train, kernel_x, kernel_y)
    a, e = _xi_coeffs(y_train, base)
    _, grad, _ = _pair_sums(x_train, y_train, kernel_x, kernel_y, a, e,
                            x_train, y_train, want_value=False, want_grad=True)
    h = grad.reshape(-1)
    if not np.all(np.isfinite(h)):
        raise NumericalError("h vector has non-finite entries")
    return h


def build_gram_system(x_train, y_train, kernel_x, kernel_y, base: BaseDensity) -> GramSystem:
    G = build_gram(x_train, y_train, kernel_x, kernel_y)
    h = build_h(x_train, y_train, kernel_x, kernel_y, base)
    return GramSystem(G=G, h=h, n=np.atleast_2d(y_train).shape[0])


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

    The ridge and any jitter go onto the diagonal of a copy, so G is left
    untouched and one assembled system can be solved for several lambdas.
    The shifted matrix is PSD plus a positive ridge, so a Cholesky
    factorization is used; on breakdown a small jitter (1e-10 times the mean
    diagonal mass of G) is added and escalated tenfold up to three times.
    The solution must satisfy the residual bound
    ||(G + n*lam*I) beta - h/lam|| <= 1e-8 * max(1, ||h/lam||).
    """
    diag = np.diag_indices_from(G)
    A = G.copy()
    A[diag] += n * lam
    rhs = h / lam

    scale = np.trace(G) / G.shape[0]
    jitter = 0.0
    factor = None
    for attempt in range(4):
        shifted = A
        if jitter:
            shifted = A.copy()
            shifted[diag] += jitter
        try:
            factor = scipy.linalg.cho_factor(shifted, lower=True)
            break
        except scipy.linalg.LinAlgError:
            jitter = 1e-10 * max(scale, 1.0) if jitter == 0.0 else jitter * 10.0
    if factor is None:
        raise NumericalError(
            "Cholesky factorization failed after jitter escalation; "
            "the system is severely ill-conditioned"
        )
    beta = scipy.linalg.cho_solve(factor, rhs)

    bound = RESIDUAL_RTOL * max(1.0, float(np.linalg.norm(rhs)))
    for _ in range(3):
        resid = A @ beta - rhs
        if np.linalg.norm(resid) <= bound:
            break
        beta = beta - scipy.linalg.cho_solve(factor, resid)
    else:
        resid = A @ beta - rhs
        if np.linalg.norm(resid) > bound:
            raise NumericalError(
                f"solve residual {np.linalg.norm(resid):.3e} exceeds bound {bound:.3e}"
            )
    return beta


def fit_factor(x_train, y_train, kernel_x, kernel_y, lam: float,
               base: BaseDensity | None = None) -> FactorModel:
    """Fit the natural parameter by solving (G + n*lam*I) beta = h / lam.

    Assembles G and h with ``build_gram_system``, then solves with
    ``_ridge_solve`` (Cholesky with jitter escalation and a residual bound).
    """
    base = base if base is not None else BaseDensity()
    x_train, y_train = _check_training(x_train, y_train, kernel_x, kernel_y)
    if not np.isfinite(lam) or lam <= 0:
        raise DataError("lambda must be positive and finite")
    system = build_gram_system(x_train, y_train, kernel_x, kernel_y, base)
    beta = _ridge_solve(system.G, system.h, lam, system.n)
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
    a, e = _model_coeffs(model)
    return _pair_sums(model.x_train, model.y_train, model.kernel_x, model.kernel_y,
                      a, e, X_eval, Y_eval, want_value=want_value,
                      want_grad=want_grad, want_second=want_second, kx_pair=kx_pair)


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


def empirical_score(model: FactorModel, x_eval, y_eval) -> float:
    """Empirical score objective of the fitted parameter on evaluation rows.

    The per-row, per-dimension contribution is
    0.5 * (dT/dy_i)^2 + d^2T/dy_i^2 + dlogq0/dy_i * dT/dy_i, averaged over
    rows.  Usable on held-out data as a cross-validation criterion; lower is
    better, and the minimizer on its own training set is always <= 0.
    """
    X_eval = _as_matrix(x_eval, "x_eval")
    Y_eval = _as_matrix(y_eval, "y_eval")
    if X_eval.shape[0] != Y_eval.shape[0]:
        raise DataError("x_eval and y_eval must have the same number of rows")
    if X_eval.shape[0] < 1:
        raise DataError("empirical score needs at least one evaluation row")
    if X_eval.shape[1] != model.p or Y_eval.shape[1] != model.d:
        raise DataError("evaluation rows do not match the model's dimensions")
    _, grad, second = _T_terms(model, X_eval, Y_eval,
                               want_value=False, want_grad=True, want_second=True)
    c = model.base.grad_log(Y_eval)
    per_row = np.sum(0.5 * grad**2 + second + c * grad, axis=1)
    return float(np.mean(per_row))


def cross_T_blocks(model: FactorModel, X_rows: np.ndarray, Y_set: np.ndarray,
                   chunk: int = 2048):
    """Yield (slice, block) pairs covering T(x_r, y_s) for all rows and draws.

    X_rows is (R, p) and Y_set is (S, d); each block has shape (R, chunk) and
    column s of the full matrix corresponds to draw Y_set[s].  Computed
    blockwise over draws to bound memory.
    """
    X_rows = _as_matrix(X_rows, "X_rows")
    Y_set = _as_matrix(Y_set, "Y_set")
    s2 = model.kernel_y.variances
    a, e = _model_coeffs(model)
    kx = kernel_matrix(model.kernel_x, model.x_train, X_rows)  # (n, R)
    for lo in range(0, Y_set.shape[0], chunk):
        hi = min(lo + chunk, Y_set.shape[0])
        ky = kernel_matrix(model.kernel_y, model.y_train, Y_set[lo:hi])
        U = [model.y_train[:, m, None] - Y_set[None, lo:hi, m]
             for m in range(model.d)]
        yield slice(lo, hi), kx.T @ (ky * _weight(U, s2, a, e, 0, 0))
