"""The OpenBLAS that numpy loaded, reached through ctypes: its thread count,
read and set, and two LAPACK factorizations that work in the caller's
memory.

The count is process-global.  dcprox calls BLAS from one thread only, so
a block that changes it changes it for nothing else.

eigvalsh_inplace and qr_inplace call the library's LAPACKE `_work`
routines (dsyevd; dgeqrf then dorgqr) with the workspace LAPACK asks for,
as numpy's `_umath_linalg` does, so they give the bytes of
np.linalg.eigvalsh and np.linalg.qr without numpy's copies of the input.
Where the library exports no such routines, both call numpy.
"""

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

_COL_MAJOR = 102  # LAPACK_COL_MAJOR
_INT = ctypes.c_int64  # the lapack_int of the 64_-suffixed ILP64 routines
_PTR = ctypes.c_void_p


def _library():
    """The OpenBLAS in numpy.libs as a ctypes.CDLL, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    try:
        return ctypes.CDLL(libs[0])
    except (IndexError, OSError):
        return None


@functools.cache
def _lookup():
    """(getter, setter) of the thread count of the OpenBLAS in numpy.libs
    (scipy_openblas..64_ or openblas_.. names); None for what is not found."""
    lib = _library()
    if lib is None:
        return None, None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            getter = getattr(lib, prefix + "_get_num_threads" + suffix, None)
            if getter is None:
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter = getattr(lib, prefix + "_set_num_threads" + suffix, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
            return getter, setter
    return None, None


#: routine -> argtypes of its LAPACKE_<routine>_work, after matrix_layout
_SIGNATURES = {
    # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork
    "dsyevd": [ctypes.c_char, ctypes.c_char, _INT, _PTR, _INT, _PTR, _PTR, _INT, _PTR, _INT],
    # m, n, a, lda, tau, work, lwork
    "dgeqrf": [_INT, _INT, _PTR, _INT, _PTR, _PTR, _INT],
    # m, n, k, a, lda, tau, work, lwork
    "dorgqr": [_INT, _INT, _INT, _PTR, _INT, _PTR, _PTR, _INT],
}


@functools.cache
def _lapack():
    """{routine: LAPACKE_<routine>_work} for the routines of _SIGNATURES, from
    the same library as _lookup (scipy_LAPACKE_..._work64_ or
    LAPACKE_..._work64_ names, whose integers are 64-bit); None unless all
    three are found."""
    lib = _library()
    if lib is None:
        return None
    for prefix in ("scipy_", ""):
        found = {name: getattr(lib, "%sLAPACKE_%s_work64_" % (prefix, name), None)
                 for name in _SIGNATURES}
        if None in found.values():
            continue
        for name, fn in found.items():
            fn.argtypes, fn.restype = [ctypes.c_int] + _SIGNATURES[name], _INT
        return found
    return None


def threads():
    """The thread count OpenBLAS uses; None when its library or getter is
    not found."""
    getter, _ = _lookup()
    return None if getter is None else getter()


@contextlib.contextmanager
def one_thread():
    """Run the block at one OpenBLAS thread and restore the caller's count
    after it, also when it raises; only yield when no setter is found."""
    getter, setter = _lookup()
    if setter is None:
        yield
        return
    before = getter()
    setter(1)
    try:
        yield
    finally:
        setter(before)


def _check(name, info):
    if info != 0:
        raise np.linalg.LinAlgError("LAPACK %s returned info = %d" % (name, info))


def _column_major(a, square):
    """Raise ValueError unless a is a writeable, 2-D, Fortran-contiguous
    float64 array, square or with at least as many rows as columns."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == 2
            and a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("expected a writeable 2-D Fortran-contiguous float64 array")
    m, n = a.shape
    if m != n if square else m < n:
        raise ValueError("expected a %s array, got shape %s"
                         % ("square" if square else "m x n, m >= n,", a.shape))


def eigvalsh_inplace(a):
    """Eigenvalues, ascending, of the symmetric n x n array a, from its lower
    triangle: the bytes of np.linalg.eigvalsh(a).

    a must be float64 and Fortran-contiguous (a symmetric C-contiguous
    array may be passed as its transpose), else ValueError.  LAPACK's dsyevd
    (jobz 'N', uplo 'L') runs in a's own memory and overwrites its lower
    triangle, diagonal included; only the numpy fallback leaves a as it was.
    A nonzero info raises np.linalg.LinAlgError.
    """
    _column_major(a, square=True)
    routines = _lapack()
    if routines is None:
        return np.linalg.eigvalsh(a)
    syevd, n = routines["dsyevd"], a.shape[0]
    w = np.empty(n)
    head = (_COL_MAJOR, b"N", b"L", n, a.ctypes.data, max(1, n), w.ctypes.data)
    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    _check("dsyevd", syevd(*head, work.ctypes.data, -1, iwork.ctypes.data, -1))  # the query
    lwork, liwork = int(work[0]), int(iwork[0])
    work, iwork = np.empty(lwork), np.empty(liwork, dtype=np.int64)
    _check("dsyevd", syevd(*head, work.ctypes.data, lwork, iwork.ctypes.data, liwork))
    return w


def qr_inplace(a):
    """The thin Q of the m x n array a, m >= n: the bytes of
    np.linalg.qr(a)[0].

    a must be float64 and Fortran-contiguous, else ValueError.  LAPACK's
    dgeqrf and then dorgqr run in a's own memory, and the Q returned is a
    itself; only the numpy fallback leaves a as it was and returns a new
    array.  A nonzero info raises np.linalg.LinAlgError.
    """
    _column_major(a, square=False)
    routines = _lapack()
    if routines is None:
        return np.linalg.qr(a)[0]
    m, n = a.shape
    tau = np.empty(n)
    for name, sizes in (("dgeqrf", (m, n)), ("dorgqr", (m, n, n))):
        head = (_COL_MAJOR, *sizes, a.ctypes.data, max(1, m), tau.ctypes.data)
        work = np.empty(1)
        _check(name, routines[name](*head, work.ctypes.data, -1))  # the workspace query
        lwork = max(1, n, int(work[0]))
        work = np.empty(lwork)
        _check(name, routines[name](*head, work.ctypes.data, lwork))
    return a
