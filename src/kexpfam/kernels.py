"""Anisotropic Gaussian RBF kernels and their mixed partial derivatives.

The kernel factorizes over dimensions, so every mixed partial (up to second
order in each argument, one dimension per argument) is the full kernel value
times a closed-form polynomial prefactor.  This keeps derivatives exact and
cheap, with no symbolic or automatic differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

BANDWIDTH_FLOOR = 1e-8

_VALID_ORDERS = (0, 1, 2)


@dataclass(frozen=True, eq=False)
class GaussianKernelSpec:
    """Anisotropic RBF kernel with one bandwidth per dimension.

    k(y, y') = exp(-sum_m (y_m - y'_m)^2 / (2 sigma_m^2))

    Bandwidths are in the same units as the data coordinates and must all be
    strictly positive (a floor of 1e-8 is enforced because derivative
    magnitudes grow like sigma^-4).
    """

    bandwidths: np.ndarray

    def __post_init__(self):
        bw = np.asarray(self.bandwidths, dtype=np.float64).reshape(-1)
        if bw.size < 1:
            raise DataError("kernel needs at least one dimension")
        if not np.all(np.isfinite(bw)):
            raise DataError("bandwidths must be finite")
        if np.any(bw < BANDWIDTH_FLOOR):
            raise DataError(
                f"bandwidths must be >= {BANDWIDTH_FLOOR:g} (got min {bw.min():g})"
            )
        bw = bw.copy()
        bw.flags.writeable = False
        object.__setattr__(self, "bandwidths", bw)

    @property
    def dim(self) -> int:
        return self.bandwidths.size

    @property
    def variances(self) -> np.ndarray:
        return self.bandwidths**2


@dataclass(frozen=True)
class ConstantKernel:
    """Kernel that is identically ``value`` regardless of its inputs.

    Used as the conditioning kernel of a factor with no parents, which turns
    the conditional model into a plain unconditional one.  Any input
    dimension (including zero) is accepted.
    """

    value: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.value) or self.value <= 0:
            raise DataError("constant kernel value must be positive and finite")


@dataclass(frozen=True)
class DerivRequest:
    """A mixed partial of the kernel: order ``order_first`` along dimension
    ``dim_first`` of the first argument and ``order_second`` along
    ``dim_second`` of the second argument."""

    dim_first: int = 0
    order_first: int = 0
    dim_second: int = 0
    order_second: int = 0

    def __post_init__(self):
        for order in (self.order_first, self.order_second):
            if order not in _VALID_ORDERS:
                raise DataError(f"derivative order must be in {_VALID_ORDERS}, got {order}")
        for dim in (self.dim_first, self.dim_second):
            if dim < 0:
                raise DataError(f"dimension index must be nonnegative, got {dim}")


def _check_point(spec: GaussianKernelSpec, y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.size != spec.dim:
        raise DataError(f"point has dimension {y.size}, kernel expects {spec.dim}")
    if not np.all(np.isfinite(y)):
        raise DataError("kernel inputs must be finite")
    return y


def _poly_factor(u, s2, order: int):
    """Prefactor P_k such that d^k/du^k exp(-u^2/(2 s2)) = P_k(u) exp(-u^2/(2 s2)).

    Closed forms up to total order 4, which covers mixed partials of order
    (2, 2) on a shared dimension.  Works elementwise on arrays.
    """
    if order == 0:
        return np.ones_like(u) if isinstance(u, np.ndarray) else 1.0
    v = u / s2
    if order == 1:
        return -v
    if order == 2:
        return v * v - 1.0 / s2
    if order == 3:
        return -v * v * v + 3.0 * v / s2
    if order == 4:
        v2 = v * v
        return v2 * v2 - 6.0 * v2 / s2 + 3.0 / (s2 * s2)
    raise DataError(f"unsupported derivative order {order}")


def _mixed_factor(u_i, s2_i, p: int, u_j, s2_j, q: int, same_dim: bool):
    """Polynomial prefactor of a mixed partial: order ``p`` on the first
    argument's dimension i, order ``q`` on the second argument's dimension j.

    Differentiating with respect to the second argument flips the sign of the
    inner derivative once per order, hence the (-1)^q factor.
    """
    sign = -1.0 if q % 2 else 1.0
    if same_dim:
        return sign * _poly_factor(u_i, s2_i, p + q)
    return sign * _poly_factor(u_i, s2_i, p) * _poly_factor(u_j, s2_j, q)


def eval_kernel(spec: GaussianKernelSpec, y, y2) -> float:
    """Evaluate the kernel at a pair of points.

    Parameters
    ----------
    spec : GaussianKernelSpec
    y, y2 : array_like
        Points whose dimension matches the spec.

    Returns
    -------
    float
        exp(-sum_m (y_m - y2_m)^2 / (2 sigma_m^2)), in (0, 1].
    """
    y = _check_point(spec, y)
    y2 = _check_point(spec, y2)
    d2 = np.sum((y - y2) ** 2 / (2.0 * spec.variances))
    return float(np.exp(-d2))


def kernel_partial(spec: GaussianKernelSpec, y, y2, req: DerivRequest) -> float:
    """Exact mixed partial derivative of the kernel.

    Order ``req.order_first`` along ``req.dim_first`` of the first argument
    and ``req.order_second`` along ``req.dim_second`` of the second.
    """
    y = _check_point(spec, y)
    y2 = _check_point(spec, y2)
    i, p = req.dim_first, req.order_first
    j, q = req.dim_second, req.order_second
    if i >= spec.dim or j >= spec.dim:
        raise DataError(f"dimension index out of range for a {spec.dim}-dim kernel")
    u = y - y2
    s2 = spec.variances
    base = float(np.exp(-np.sum(u * u / (2.0 * s2))))
    factor = _mixed_factor(u[i], s2[i], p, u[j], s2[j], q, same_dim=(i == j))
    return float(factor) * base


def kernel_matrix(spec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kernel values between all rows of A (n x D) and B (m x D).

    Accepts a ConstantKernel, in which case the inputs may have zero columns.
    Summation runs in a fixed per-dimension order, so swapping A and B yields
    the exact transpose bit for bit.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if isinstance(spec, ConstantKernel):
        return np.full((A.shape[0], B.shape[0]), spec.value)
    if A.shape[1] != spec.dim or B.shape[1] != spec.dim:
        raise DataError(
            f"kernel_matrix inputs have {A.shape[1]}/{B.shape[1]} columns, "
            f"kernel expects {spec.dim}"
        )
    s2 = spec.variances
    acc = np.zeros((A.shape[0], B.shape[0]))
    for m in range(spec.dim):
        diff = A[:, m, None] - B[None, :, m]
        acc += diff * diff / (2.0 * s2[m])
    return np.exp(-acc)


def partial_matrix(spec: GaussianKernelSpec, A: np.ndarray, B: np.ndarray,
                   i: int, p: int, j: int, q: int,
                   base: np.ndarray | None = None) -> np.ndarray:
    """Vectorized mixed partials between all rows of A and B.

    Entry (a, b) equals kernel_partial(A[a], B[b]) for the request
    (i, p, j, q).  ``base`` may carry a precomputed kernel_matrix(spec, A, B)
    to avoid recomputing it across many requests.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if base is None:
        base = kernel_matrix(spec, A, B)
    s2 = spec.variances
    u_i = A[:, i, None] - B[None, :, i]
    if i == j:
        factor = _mixed_factor(u_i, s2[i], p, u_i, s2[i], q, same_dim=True)
    else:
        u_j = A[:, j, None] - B[None, :, j]
        factor = _mixed_factor(u_i, s2[i], p, u_j, s2[j], q, same_dim=False)
    return factor * base


def median_heuristic(data: np.ndarray, subsample_cap: int = 1000) -> np.ndarray:
    """Per-dimension median of pairwise absolute coordinate differences.

    Rows are subsampled (deterministically) down to ``subsample_cap`` before
    forming pairs.  A zero median in some dimension is replaced by the
    smallest positive median across dimensions, or by 1.0 if every median is
    zero.

    Parameters
    ----------
    data : ndarray, shape (n, D)

    Returns
    -------
    ndarray, shape (D,)
        Bandwidth per dimension, usable as a GaussianKernelSpec.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n = data.shape[0]
    if n < 2:
        raise DataError("median heuristic needs at least two rows")
    if n > subsample_cap:
        rng = np.random.default_rng(0)
        idx = rng.choice(n, size=subsample_cap, replace=False)
        data = data[np.sort(idx)]
        n = subsample_cap
    iu = np.triu_indices(n, k=1)
    out = np.empty(data.shape[1])
    for m in range(data.shape[1]):
        diffs = np.abs(data[iu[0], m] - data[iu[1], m])
        out[m] = np.median(diffs)
    positive = out[out > 0]
    fallback = positive.min() if positive.size else 1.0
    out[out == 0] = fallback
    return out
