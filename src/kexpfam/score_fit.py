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
from dataclasses import astuple, dataclass, field

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

_CROSS_BLOCK = 128  # columns per block of every buffered kernel sum, at most
_EVAL_CHUNK = 256  # columns that the assembly's workers may span together at any size
_IS_CHUNK = 2048  # draws per block that cross_T_blocks yields
_WEIGHT_ARRAYS = 3  # scratch arrays per worker of _weights_block
# Blocks whose work, rows times (1 + the rows of the GEMM each takes), is
# less run on one thread.  On 2 CPUs, two threads assembled an n = 400
# system (CV's folds) in 7.5 ms against 4.7 ms for one, tied at n = 1000 and
# took 125 ms against 180 ms at n = 2000, while the second CPU was free.
_POOL_ROWS = 1024

# One worker's scratch for a block without a GEMM: the width halves while
# the scratch would exceed _WORKER_SCRATCH, down to _MIN_BLOCK columns.
# Those blocks are elementwise operations and axis-0 sums, whose bits do not
# depend on the width.  At n = 2000 and d = 1 the assembly's five (n, 64)
# arrays hold 4.9 MiB per worker, not 9.8, and took the same time.
_WORKER_SCRATCH = 8 * 2**20
_MIN_BLOCK = 32
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

    Both are checked here, once, whether the system was assembled or given,
    so the solver need not check them again: finiteness, then that G is
    exactly symmetric, each entry equal to its mirror.  ``_ridge_solve``
    factors G in its own memory and then copies G's lower triangle back
    onto the upper one, so a G that is not symmetric would come back
    changed.  The checks run in strips of 128 rows, so that no temporary of
    G's size appears.  G is kept as given when it is a writable C-ordered
    float64 array (as assembled), and copied into one otherwise.

    Equal values may differ in the sign of a zero.  An assembled G at d = 1
    has the same bits as its mirror; at d > 1, a zero mixed partial of two
    rows tied in one coordinate may not, and a solve then leaves such an
    entry above the diagonal with its mirror's sign.
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
    F, elementwise over (train, eval), into ``out``.  T, its y-partials,
    xi_hat and h are all sums sum_b k_X(X_b, x) * k_Y(Y_b, y) * weight that
    differ only in the per-sample coefficients a (n, d) and the scalar e.
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

    The rows go through ``_in_blocks``: each block of rows builds k_X * k_Y,
    the scaled differences and the prefactors of each sum once in reused
    scratch, then takes every pair's weights from them.  Each sum comes from
    the same operations as the whole call for one pair at once, so no value
    depends on the block split, the worker count or the other pairs.
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

    def block(lo, hi, scratch):
        K, Y, W, X, *V = scratch
        P = [(V.pop(), V.pop()) for _ in range(d)] if shared else None
        T = V.pop() if d > 1 else None
        pairs = P or [(W, X)] + [(T, X)] * (d - 1)  # one model: _weight's arrays
        if kx_pair is None:
            kernel_matrix(kernel_x, x_train, X_eval[lo:hi], K, W)
        kernel_matrix(kernel_y, y_train, Y_eval[lo:hi], Y, W)
        np.multiply(K if kx_pair is None else kx_pair[:, lo:hi], Y, out=K)
        for m in range(d):
            np.subtract(y_train[:, m, None], Y_eval[None, lo:hi, m], out=V[m])
            np.divide(V[m], s2[m], out=V[m])
        for j, q in sums:
            F = _prefactors(V, s2, j, q, pairs, Y)
            F = list(F) if shared else F  # every pair's weights read the list
            for (a, e), res in zip(coeffs, results):
                np.multiply(K, _weight(F, a, e, W, T, X), out=W)
                np.sum(W, axis=0, out=(res[0] if q == 0 else res[q][:, j])[lo:hi])

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
    cannot fit in physical memory.  A fit holds G and, while it assembles
    G, the workers' scratch; the solve adds only vectors of length n*d."""
    gram = (n * d) ** 2 * 8
    _check_memory(gram + _scratch_bytes(n, n, _block_arrays(d), budget=gram),
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
    (X_b, Y_b).  Both are sums over the same kernel values, so each block
    builds k_X, k_Y and the differences Y_a - Y_b once for both, in the
    reused scratch of ``_in_blocks``.
    """
    x_train, y_train = _check_training(x_train, y_train, kernel_x, kernel_y)
    n, d = y_train.shape
    _check_fit_size(n, d)
    s2 = kernel_y.variances
    a, e = _xi_coeffs(y_train, base)
    G = np.empty((n * d, n * d))
    h = np.empty((n, d))

    def block(lo, hi, scratch):
        K, Y, W, X, *V = scratch
        T = V.pop() if d > 1 else None
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
            F = _prefactors(V, s2, j, 1, [(W, X)] + [(T, X)] * (d - 1), Y)
            np.multiply(K, _weight(F, a, e, W, T, X), out=W)
            np.sum(W, axis=0, out=h[lo:hi, j])

    _in_blocks(block, n, n, _block_arrays(d), budget=G.nbytes)
    return GramSystem(G=G, h=h.reshape(-1))


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
    [sums] = _pair_sums(x_train, y_train, kernel_x, kernel_y,
                        [_xi_coeffs(y_train, base)], X_eval, Y_eval,
                        want_value=q == 0, want_grad=q == 1, want_second=q == 2)
    return float(sums[0][0] if q == 0 else sums[q][0, j])


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
    written back from them.  So G comes back bit for bit as it went in (up
    to the sign of a zero, see ``GramSystem``), and one assembled system
    can be solved for several lambdas, one solve at a time.  These are the LAPACK routines that scipy's ``cho_factor``
    and ``cho_solve`` call, on the same operands, so beta has their bits.

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

    lapack, blas = scipy.linalg.lapack, scipy.linalg.blas
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
            _, info = lapack.dpotrf(A, lower=1, clean=0, overwrite_a=1)
            if info == 0:
                break
            jitter = 1e-10 * max(scale, 1.0) if jitter == 0.0 else jitter * 10.0
        else:
            raise NumericalError(
                "Cholesky factorization failed after jitter escalation; "
                "the system is severely ill-conditioned"
            )
        factor_diag = on_diag.copy()
        beta = lapack.dpotrs(A, rhs, lower=1)[0]

        bound = RESIDUAL_RTOL * max(1.0, float(np.linalg.norm(rhs)))
        for step in range(4):
            on_diag[:] = diag  # dsymv reads G's diagonal and intact lower triangle
            resid = blas.dsymv(1.0, A, beta) + ridge * beta - rhs
            if not np.all(np.isfinite(resid)):
                raise NumericalError(f"solve residual is not finite at lambda = {lam:g}")
            if np.linalg.norm(resid) <= bound:
                return beta
            if step < 3:  # at most three refinement steps
                on_diag[:] = factor_diag
                beta = beta - lapack.dpotrs(A, resid, lower=1)[0]
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


def grad_y_T(model: FactorModel, x, y) -> np.ndarray:
    """All first-order y-partials of T at (x, y), shape (d,)."""
    X_eval, Y_eval = _as_x_row(x, model.p), _as_x_row(y, model.d)
    _, grad, _ = _T_terms(model, X_eval, Y_eval, want_value=False, want_grad=True)
    return grad[0].copy()


def laplacian_terms_T(model: FactorModel, x, y) -> tuple[np.ndarray, np.ndarray]:
    """First and pure-second y-partials of T at (x, y): (grad (d,), second (d,))."""
    X_eval, Y_eval = _as_x_row(x, model.p), _as_x_row(y, model.d)
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


def _weights_block(model: FactorModel, a, e, Y_block: np.ndarray, out, kb, vb, tb):
    """One block of ``_cross_weights`` into ``out``, with scratch ``kb``,
    ``vb`` and ``tb`` of out's shape.  Each entry comes from the operations
    of ``kernel_matrix(...) * _weight(V, ..., 0, 0)`` in the same order, bit
    for bit; the only rewrite is an exact one: -(u/s2) is u/(-s2)."""
    Y, s2 = model.y_train, model.kernel_y.variances
    kernel_matrix(model.kernel_y, Y, Y_block, kb, tb)
    # weight = sum_l a_l * (-u_l/s2_l) + e * ((u_l/s2_l)^2 - 1/s2_l)
    for l in range(model.d):
        term = out if l == 0 else tb
        np.subtract(Y[:, l, None], Y_block[None, :, l], out=vb)
        np.divide(vb, -s2[l], out=vb)
        np.multiply(a[:, l, None], vb, out=term)
        np.multiply(vb, vb, out=vb)
        np.subtract(vb, 1.0 / s2[l], out=vb)
        np.multiply(e, vb, out=vb)
        np.add(term, vb, out=term)
        if l:
            np.add(out, tb, out=out)
    np.multiply(kb, out, out=out)


def _cross_weights(model: FactorModel, Y_set: np.ndarray) -> np.ndarray:
    """k_Y(Y_b, y_s) times T's weight for every training sample b and point
    y_s, shape (n, S), so that T(x, y_s) = sum_b k_X(X_b, x) * out[b, s].

    Fills the result through ``_in_blocks``, with its bytes as the budget,
    so the memory beyond it does not grow with S, and no entry depends on
    the blocks or the worker count.
    """
    a, e = _model_coeffs(model)
    n, S = model.n, Y_set.shape[0]
    out = np.empty((n, S))

    def block(lo, hi, scratch):
        _weights_block(model, a, e, Y_set[lo:hi], out[:, lo:hi], *scratch)

    _in_blocks(block, S, n, _WEIGHT_ARRAYS, budget=out.nbytes)
    return out


def _worker_count() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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
    """(lo, hi) blocks of ``width`` columns that cover range(size).
    A 1-column remainder joins the block before it: numpy sums a single
    column pairwise, which would change its last bits."""
    bounds = [*range(0, size, width), size]
    if size > 1 and size % width == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _block_arrays(d: int, models: int = 1) -> int:
    """Scratch arrays per worker of ``build_gram_system`` and ``_pair_sums``
    for a d-dimensional y: k_X, k_Y, two products, one (Y_b - y) / s2 per
    dimension, only when d > 1 the term that ``_weight`` adds for each
    dimension after the first and, only for more than one model, the two
    prefactors of each dimension that every model reads."""
    return d + 4 + (d > 1) + 2 * d * (models > 1)


def _block_plan(size: int, rows: int, arrays: int, budget: int | None = None,
                gemm_rows: int = 0) -> tuple[int, int]:
    """(workers, width) for ``_in_blocks``: the blocks are
    ``_blocks(size, width)``, and each of ``workers`` threads holds
    ``arrays`` (rows, ``_widest(size, width)``) scratch arrays.  It is
    arithmetic on the sizes alone, so that a pre-flight may ask about any
    size.

    Blocks are ``_CROSS_BLOCK`` columns wide.  Without a GEMM
    (``gemm_rows`` 0) the width halves while one worker's scratch would
    exceed ``_WORKER_SCRATCH``, down to ``_MIN_BLOCK``; a GEMM keeps its
    width, which fixes its bits.  A pool of up to one thread per CPU of
    ``_worker_count`` starts only for two blocks or more whose work, rows
    times (1 + ``gemm_rows``), reaches ``_POOL_ROWS``.  With a ``budget``
    in bytes, the scratch of all workers together spans at most
    ``_EVAL_CHUNK`` columns, or more only while it stays within the budget.
    """
    width = _CROSS_BLOCK
    while not gemm_rows and width > _MIN_BLOCK and arrays * rows * width * 8 > _WORKER_SCRATCH:
        width //= 2
    if size == 0:
        return 1, width
    joined = _widest(size, width) > width  # a 1-column remainder joins a block
    workers = 1 if rows * (1 + gemm_rows) < _POOL_ROWS else min(
        _worker_count(), -(-size // width) - joined)
    if budget is not None:
        per_worker = arrays * rows * _widest(size, width) * 8
        workers = min(workers, max(_EVAL_CHUNK // width, budget // per_worker))
    return workers, width


def _widest(size: int, width: int) -> int:
    """Columns of the widest block of ``_blocks(size, width)``."""
    return min(size, width) + (size > 1 and size % width == 1)


def _scratch_bytes(size: int, rows: int, arrays: int, **plan) -> int:
    """Bytes of the scratch that ``_in_blocks`` holds for these arguments."""
    workers, width = _block_plan(size, rows, arrays, **plan)
    return workers * arrays * rows * _widest(size, width) * 8


def _in_blocks(work, size: int, rows: int, arrays: int, **plan) -> None:
    """Call ``work(lo, hi, scratch)`` once for every block of
    ``_blocks(size, width)``, where scratch is a list of ``arrays`` (rows,
    hi - lo) arrays.

    The blocks run on the threads, and take the width, that ``_block_plan``
    gives for ``plan`` (a budget, GEMM rows).  Each worker takes the next
    block in order when it is free, so a CPU that the host slows down takes
    fewer blocks.  Before the pool starts, the calling thread allocates one
    scratch per worker, which a worker holds for one block at a time, so
    workers allocate nothing large.
    """
    workers, width = _block_plan(size, rows, arrays, **plan)
    widest = _widest(size, width)
    free = queue.SimpleQueue()  # one scratch per worker, taken for a block
    for _ in range(workers):
        free.put(np.empty((arrays, rows * widest)))

    def run_block(block):
        lo, hi = block
        buf = free.get()
        try:
            # C-contiguous (rows, width) views, also for a partial block, so
            # that every ufunc runs the loop it runs on a fresh array
            work(lo, hi, list(buf[:, :rows * (hi - lo)].reshape(arrays, rows, hi - lo)))
        finally:
            free.put(buf)

    with _pool(workers) as run:
        list(run(run_block, _blocks(size, width)))


def cross_T_blocks(model: FactorModel, X_rows: np.ndarray, Y_set: np.ndarray):
    """Yield (slice, block) pairs covering T(x_r, y_s) for all rows and draws.

    X_rows is (R, p) and Y_set is (S, d); each block is a fresh (R, width)
    array for a chunk of at most ``_IS_CHUNK`` draws, and column s of the
    full matrix corresponds to draw Y_set[s].  Each chunk is one
    ``_in_blocks`` call: a block of draws computes its weights into worker
    scratch and takes one GEMM with k_X into its columns, bit for bit the
    same on any worker count.  The scratch stays within the bytes of one
    (n, ``_IS_CHUNK``) array, so memory is O(n * R) plus that, whatever S.
    """
    X_rows = _as_matrix(X_rows, "X_rows")
    Y_set = _as_matrix(Y_set, "Y_set")
    a, e = _model_coeffs(model)
    n, S = model.n, Y_set.shape[0]
    kxT = kernel_matrix(model.kernel_x, X_rows, model.x_train)  # exact k_X.T, C order
    for lo in range(0, S, _IS_CHUNK):
        hi = min(lo + _IS_CHUNK, S)
        block = np.empty((kxT.shape[0], hi - lo))

        def gemm_block(b_lo, b_hi, scratch):  # weights into scratch[0], then a GEMM
            _weights_block(model, a, e, Y_set[lo + b_lo:lo + b_hi], *scratch)
            np.matmul(kxT, scratch[0], out=block[:, b_lo:b_hi])

        _in_blocks(gemm_block, hi - lo, n, 1 + _WEIGHT_ARRAYS, budget=n * _IS_CHUNK * 8,
                   gemm_rows=kxT.shape[0])
        yield slice(lo, hi), block
        del block  # the caller drops its reference too: one block at a time
