"""The thread count of the OpenBLAS that numpy loaded, read and set through
ctypes.

The count is process-global.  dcprox calls BLAS from one thread only, so
a block that changes it changes it for nothing else.
"""

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np


@functools.cache
def _lookup():
    """(getter, setter) of the thread count of the OpenBLAS in numpy.libs
    (scipy_openblas..64_ or openblas_.. names); None for what is not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    try:
        lib = ctypes.CDLL(libs[0])
    except (IndexError, OSError):
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
