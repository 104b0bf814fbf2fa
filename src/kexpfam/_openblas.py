"""The OpenBLAS builds that the numpy and scipy wheels ship.

``openblas_threads`` reports, and can set, the thread count of each one
that is loaded.  ``dpotrf``, ``dpotrs`` and ``dsymv`` are the three
routines of the ridge solve, bound through ctypes to ``libscipy_openblas``
in ``scipy.libs``: the library and the symbols that scipy's f2py wrappers
call, so results have their bits, and no command imports ``scipy.linalg``.
The library is loaded when this module is imported, so ``main``'s thread
pin finds it before any solve.  Where that file or one of the three
symbols is missing (a scipy from conda or a distribution), the routines
are ``scipy.linalg.lapack``'s and ``scipy.linalg.blas``'s wrappers.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import os

import numpy as np

# (package, file pattern in the package's ``.libs`` directory, thread symbol
# with "set" or "get" in place of {})
LIBS = (
    ("numpy", "libscipy_openblas64_-*", "scipy_openblas_{}_num_threads64_"),
    ("scipy", "libscipy_openblas-*", "scipy_openblas_{}_num_threads"),
)


def _lib_paths(package: str, pattern: str) -> list[str]:
    """Files in ``package``'s wheel ``.libs`` directory that match
    ``pattern``, found without importing the package."""
    spec = importlib.util.find_spec(package)
    if spec is None or not spec.submodule_search_locations:
        return []
    libs = os.path.dirname(os.path.abspath(spec.submodule_search_locations[0]))
    return sorted(glob.glob(os.path.join(libs, package + ".libs", pattern)))


def openblas_threads(set_to: int | None = None) -> dict[str, int | str]:
    """Thread count of the OpenBLAS of numpy's and of scipy's wheel that is
    loaded, after setting it to ``set_to`` when given, or a note where that
    library is not loaded or lacks the symbol."""
    counts = {}
    for package, pattern, symbol in LIBS:
        counts[package] = f"not pinned: {symbol.format('set')} not found"
        for path in _lib_paths(package, pattern):
            try:  # RTLD_NOLOAD opens only a library that is already loaded
                lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
                set_threads = getattr(lib, symbol.format("set"))
                get_threads = getattr(lib, symbol.format("get"))
            except (OSError, AttributeError):
                continue
            # void set(int) and int get(void), also in the 64-bit-index build
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            if set_to is not None:
                set_threads(set_to)
            counts[package] = get_threads()
    return counts


def _pointer(A: np.ndarray) -> int:
    """Address of a Fortran-ordered square float64 matrix, which the raw
    routines read and factor in place and must never see copied."""
    if (A.dtype != np.float64 or A.ndim != 2 or A.shape[0] != A.shape[1]
            or not A.flags.f_contiguous):
        raise ValueError("expected a square Fortran-ordered float64 matrix")
    return A.ctypes.data


def _vector(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x, checked to hold one entry per row of A."""
    if x.shape != (len(A),):
        raise ValueError(f"expected a vector of length {len(A)}, got shape {x.shape}")
    return x


def _bind(pattern: str):
    """(dpotrf, dpotrs, dsymv) for a Fortran-ordered matrix A, from the
    first file of ``scipy.libs`` that matches ``pattern`` and has all three
    symbols, else from scipy.linalg:

    - ``dpotrf(A)`` factors A's lower triangle in place and returns
      LAPACK's ``info``;
    - ``dpotrs(A, b)`` returns the solution for the factor in that triangle;
    - ``dsymv(A, x)`` returns A @ x, reading A's upper triangle."""
    for path in _lib_paths("scipy", pattern):
        try:
            lib = ctypes.CDLL(path)
            potrf, potrs, symv = lib.scipy_dpotrf_, lib.scipy_dpotrs_, lib.scipy_dsymv_
        except (OSError, AttributeError):
            continue
        # LP64 Fortran calls: every argument by reference, with the hidden
        # length of each character argument last (dpotrs is gfortran's)
        ints, doubles = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
        array, char, length = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t
        potrf.argtypes = [char, ints, array, ints, ints, length]
        potrs.argtypes = [char, ints, ints, array, ints, array, ints, ints, length]
        symv.argtypes = [char, ints, doubles, array, ints, array, ints, doubles,
                         array, ints, length]
        potrf.restype = potrs.restype = symv.restype = None
        one, zero = ctypes.c_double(1.0), ctypes.c_double(0.0)
        unit = ctypes.c_int(1)

        def dpotrf(A):
            a = _pointer(A)
            n, info = ctypes.c_int(len(A)), ctypes.c_int()
            potrf(b"L", n, a, n, info, 1)
            return info.value

        def dpotrs(A, b):
            a = _pointer(A)
            x = _vector(A, np.array(b, dtype=np.float64))  # a copy, as f2py makes
            n, info = ctypes.c_int(len(A)), ctypes.c_int()
            potrs(b"L", n, unit, a, n, x.ctypes.data, n, info, 1)
            return x

        def dsymv(A, x):
            a = _pointer(A)
            x = _vector(A, np.ascontiguousarray(x, dtype=np.float64))
            y = np.zeros(len(A))
            n = ctypes.c_int(len(A))
            symv(b"U", n, one, a, n, x.ctypes.data, unit, zero, y.ctypes.data, unit, 1)
            return y

        return dpotrf, dpotrs, dsymv

    import scipy.linalg
    lapack, blas = scipy.linalg.lapack, scipy.linalg.blas

    def dpotrf(A):
        return lapack.dpotrf(A, lower=1, clean=0, overwrite_a=1)[1]

    def dpotrs(A, b):
        return lapack.dpotrs(A, b, lower=1)[0]

    def dsymv(A, x):
        return blas.dsymv(1.0, A, x)

    return dpotrf, dpotrs, dsymv


dpotrf, dpotrs, dsymv = _bind(LIBS[1][1])
