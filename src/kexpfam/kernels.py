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
_MEDIAN_ROWS = 1000


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


def _poly_factor(v, s2, order: int, out, tmp=None):
    """Prefactor P_k such that d^k/du^k exp(-u^2/(2 s2)) = P_k(u) exp(-u^2/(2 s2)).

    Takes v = u / s2 and writes P_k into ``out`` (arrays or 0-d arrays of
    v's shape); orders 3 and 4 also write into ``tmp``.  Closed forms for
    orders 0 to 4, which cover mixed partials of order (2, 2) on a shared
    dimension; no caller asks for more (``DerivRequest`` caps each order at
    2).
    """
    if order == 0:
        out[...] = 1.0
    elif order == 1:
        np.negative(v, out=out)
    elif order == 2:  # v*v - 1/s2
        np.multiply(v, v, out=out)
        np.subtract(out, 1.0 / s2, out=out)
    elif order == 3:  # -v*v*v + 3v/s2
        np.negative(v, out=out)
        np.multiply(out, v, out=out)
        np.multiply(out, v, out=out)
        np.multiply(3.0, v, out=tmp)
        np.divide(tmp, s2, out=tmp)
        np.add(out, tmp, out=out)
    else:  # order 4: v2*v2 - 6 v2/s2 + 3/s2^2, v2 = v*v
        np.multiply(v, v, out=tmp)
        np.multiply(tmp, tmp, out=out)
        np.multiply(6.0, tmp, out=tmp)
        np.divide(tmp, s2, out=tmp)
        np.subtract(out, tmp, out=out)
        np.add(out, 3.0 / (s2 * s2), out=out)
    return out


def _mixed_factor(v_i, s2_i, p: int, v_j, s2_j, q: int, same_dim: bool,
                  out=None, tmp=None):
    """Polynomial prefactor of a mixed partial: order ``p`` on the first
    argument's dimension i, order ``q`` on the second argument's dimension j.

    Takes v = u / s2 on each dimension, writes into ``out`` and uses
    ``tmp`` as scratch (each allocated when None).  Differentiating with
    respect to the second argument flips the sign of the inner derivative
    once per order, hence the (-1)^q factor.
    """
    out = np.empty(np.shape(v_i)) if out is None else out
    tmp = np.empty_like(out) if tmp is None else tmp
    _poly_factor(v_i, s2_i, p + q if same_dim else p, out, tmp)
    if q % 2:
        np.negative(out, out=out)
    if q and not same_dim:
        np.multiply(out, _poly_factor(v_j, s2_j, q, tmp), out=out)
    return out


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
    v = u / s2
    factor = _mixed_factor(v[i], s2[i], p, v[j], s2[j], q, same_dim=(i == j))
    return float(factor) * base


def kernel_matrix(spec, A: np.ndarray, B: np.ndarray, out=None,
                  scratch=None) -> np.ndarray:
    """Kernel values between all rows of A (n x D) and B (m x D).

    Accepts a ConstantKernel, in which case the inputs may have zero columns.
    Summation runs in a fixed per-dimension order, so swapping A and B yields
    the exact transpose bit for bit, which the assembly needs for an exactly
    symmetric G.  Its error scales with (A - B)², which the paired sums and
    k_X in ``cross_T_blocks`` (whose ℓ(X) would amplify it) rely on; that
    k_Y comes from one GEMM.  ``out`` and ``scratch`` may carry
    C-contiguous (n, m) arrays to write into (each allocated when None);
    the values do not depend on whether they do.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    out = np.empty((A.shape[0], B.shape[0])) if out is None else out
    if isinstance(spec, ConstantKernel):
        out[...] = spec.value
        return out
    if A.shape[1] != spec.dim or B.shape[1] != spec.dim:
        raise DataError(
            f"kernel_matrix inputs have {A.shape[1]}/{B.shape[1]} columns, "
            f"kernel expects {spec.dim}"
        )
    tmp = np.empty_like(out) if scratch is None else scratch
    s2 = spec.variances
    # out = sum_m (A_m - B_m)^2 / (-2 s2_m), then exp(out): the exact
    # negation of sum_m (A_m - B_m)^2 / (2 s2_m), since x / -c = -(x / c)
    # and a sum of negated terms is the negated sum, bit for bit
    for m in range(spec.dim):
        np.subtract(A[:, m, None], B[None, :, m], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.divide(tmp, -2.0 * s2[m], out=out if m == 0 else tmp)
        if m:
            np.add(out, tmp, out=out)
    return np.exp(out, out=out)


def median_heuristic(data: np.ndarray) -> np.ndarray:
    """Per-dimension median of pairwise absolute coordinate differences.

    Rows are subsampled (deterministically) down to 1000, and the median
    is selected among their pairs without building them.  A zero median in
    some dimension is replaced by the smallest positive median across
    dimensions, or by 1.0 if every median is zero.  Data that is not finite,
    or whose range overflows, is a DataError.

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
    if n > _MEDIAN_ROWS:
        rng = np.random.default_rng(0)
        idx = rng.choice(n, size=_MEDIAN_ROWS, replace=False)
        data = data[np.sort(idx)]
        n = _MEDIAN_ROWS
    # Over a sorted column, s[j] - s[i] for i < j are the pairwise absolute
    # differences: the same multiset, so the same median, bit for bit.  Its
    # one or two middle values are selected without building the m(m-1)/2
    # differences, and combined as np.median combines them.
    pairs = n * (n - 1) // 2
    out = np.empty(data.shape[1])
    for m in range(data.shape[1]):
        s = np.sort(data[:, m])
        with np.errstate(over="ignore", invalid="ignore"):
            spread = s[-1] - s[0]
        if not np.isfinite(spread):
            raise DataError("median heuristic needs finite data of finite range")
        middle = [_kth_difference(s, k) for k in sorted({(pairs - 1) // 2, pairs // 2})]
        out[m] = np.mean(middle)
    positive = out[out > 0]
    fallback = positive.min() if positive.size else 1.0
    out[out == 0] = fallback
    return out


def _row_ends(s: np.ndarray, t: float) -> np.ndarray:
    """For each i, the first j > i with s[j] - s[i] > t (len(s) if none),
    on a sorted s.  The rounded difference grows with j, so searchsorted at
    s[i] + t misses the end only where that sum rounds; the two loops put
    it right with the same subtraction, moving one run of equal values per
    step."""
    i = np.arange(len(s))
    j = np.maximum(np.searchsorted(s, s + t, side="right"), i + 1)
    while True:  # past a run whose difference is still <= t
        move = j < len(s)
        move[move] = s[j[move]] - s[i[move]] <= t
        if not move.any():
            break
        j[move] = np.searchsorted(s, s[j[move]], side="right")
    while True:  # back over a run whose difference is > t
        move = j > i + 1
        move[move] = s[j[move] - 1] - s[i[move]] > t
        if not move.any():
            return j
        j[move] = np.maximum(np.searchsorted(s, s[j[move] - 1], side="left"), i[move] + 1)


def _kth_difference(s: np.ndarray, k: int) -> float:
    """The k-th smallest (from 0) of s[j] - s[i] over the pairs i < j of a
    sorted, finite s, bit for bit as in the sorted array of all of them.

    Bisects a value bracket (lo, hi] that holds the k-th difference, with
    ``_row_ends`` counting the differences at or below each probe, until
    at most len(s) differences lie inside; those are then gathered and
    partitioned.  Where no double lies between lo and hi, hi is the k-th.
    """
    m = len(s)
    below = m * (m + 1) // 2  # the sum of i + 1: ends.sum() - below counts the pairs
    lo_t, hi_t = 0.0, s[-1] - s[0]
    lo, hi = _row_ends(s, lo_t), np.full(m, m)
    if lo.sum() - below > k:
        return 0.0
    while (hi - lo).sum() > m:
        t = lo_t + 0.5 * (hi_t - lo_t)
        if not lo_t < t < hi_t:
            t = np.nextafter(lo_t, hi_t)
            if t == hi_t:
                return hi_t
        ends = _row_ends(s, t)
        if ends.sum() - below > k:
            hi_t, hi = t, ends
        else:
            lo_t, lo = t, ends
    width = hi - lo  # row i's differences in the bracket: j in [lo[i], hi[i])
    i = np.repeat(np.arange(m), width)
    j = np.arange(width.sum()) + np.repeat(lo - np.cumsum(width) + width, width)
    rank = k - (lo.sum() - below)
    return float(np.partition(s[j] - s[i], rank)[rank])
