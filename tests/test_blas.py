"""The OpenBLAS handle: its thread count, the QR that runs at one thread,
and the in-place LAPACK factorizations with their numpy fallback."""

import contextlib
import glob

import numpy as np
import pytest

from dcprox import blas, cs


class FakeOpenBLAS:
    """A getter and setter of a thread count, in place of the library's."""

    def __init__(self, count):
        self.count = count

    def get(self):
        return self.count

    def set(self, count):
        self.count = count


@pytest.fixture
def fake(monkeypatch):
    lib = FakeOpenBLAS(3)
    monkeypatch.setattr(blas, "_lookup", lambda: (lib.get, lib.set))
    return lib


@pytest.fixture
def fresh_lookup():
    """The lookups' caches cleared before and after the test."""
    for lookup in (blas._lookup, blas._lapack):
        lookup.cache_clear()
    yield
    for lookup in (blas._lookup, blas._lapack):
        lookup.cache_clear()


def test_one_thread_restores_the_callers_count(fake):
    with blas.one_thread():
        assert blas.threads() == 1
    assert blas.threads() == 3
    with pytest.raises(KeyError):
        with blas.one_thread():
            raise KeyError("x")
    assert blas.threads() == 3
    with blas.one_thread():
        with blas.one_thread():
            assert blas.threads() == 1
        assert blas.threads() == 1
    assert blas.threads() == 3


def test_the_library_handle_restores_its_count():
    before = blas.threads()
    if before is None:
        pytest.skip("numpy loaded no OpenBLAS with a thread getter")
    with blas.one_thread():
        assert blas.threads() == 1
    assert blas.threads() == before


def test_without_the_library_the_handle_only_yields(monkeypatch, fresh_lookup):
    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    assert blas.threads() is None
    ran = []
    with blas.one_thread():
        ran.append(blas.threads())
    assert ran == [None]


def test_make_instance_leaves_the_thread_count():
    before = blas.threads()
    cs.make_instance(1, 0, 0.001, "lorentzian")
    assert blas.threads() == before


@pytest.mark.parametrize("d, count", [
    (cs.QR_ONE_THREAD_MAX_ENTRIES, 1), (cs.QR_ONE_THREAD_MAX_ENTRIES + 1, 3)])
def test_orthonormal_qr_runs_at_one_thread_up_to_the_cut(fake, monkeypatch, d, count):
    seen, qr = [], blas.qr_inplace

    def recording_qr(a):
        seen.append(blas.threads())
        return qr(a)

    monkeypatch.setattr(blas, "qr_inplace", recording_qr)
    cs.gen_gaussian(1, d, 0, mode="orthonormal")
    assert seen == [count] and blas.threads() == 3


# 1 x 1, one column, an odd size, and the transposed draws of cases 1-3:
# cases 1 and 2 at or below the one-thread cut, case 3 above it
QR_SHAPES = [(1, 1), (7, 1), (333, 130), (640, 180), (1280, 360), (2560, 720)]


def at_cut_threads(shape):
    """The thread regime gen_gaussian runs a QR of this shape in."""
    small = shape[0] * shape[1] <= cs.QR_ONE_THREAD_MAX_ENTRIES
    return blas.one_thread() if small else contextlib.nullcontext()


def column_major_draw(shape, seed=3):
    return np.asfortranarray(np.random.default_rng(seed).standard_normal(shape))


# Gram matrices of an odd size and of cases 1-3, 1 x 1, and an odd-size
# matrix that is not symmetric (numpy and LAPACK read its lower triangle only)
EIG_INPUTS = ["1x1", "not symmetric 333", "gram 130x333", "gram 180x640", "gram 360x1280",
              "gram 720x2560"]


def eig_input(name):
    """The Fortran-ordered square input that EIG_INPUTS names."""
    if name == "1x1":
        return np.full((1, 1), 2.5)
    if name.startswith("not symmetric"):
        n = int(name.split()[-1])
        return column_major_draw((n, n))
    A = column_major_draw(tuple(int(k) for k in name.split()[1].split("x")))
    return np.asfortranarray(A @ A.T)


@pytest.mark.parametrize("shape", QR_SHAPES, ids=lambda s: "%dx%d" % s)
def test_qr_inplace_equals_numpy_and_overwrites_its_input(shape):
    a = column_major_draw(shape)
    with at_cut_threads(shape):
        want, _ = np.linalg.qr(a)
        got = blas.qr_inplace(a)
    assert got.shape == want.shape and got.tobytes("F") == want.tobytes("F")
    if blas._lapack() is not None:  # the numpy fallback factors a copy
        assert got is a


@pytest.mark.parametrize("name", EIG_INPUTS)
def test_eigvalsh_inplace_equals_numpy_and_overwrites_the_lower_triangle(name):
    a = eig_input(name)
    before = a.copy(order="F")
    want = np.linalg.eigvalsh(a)
    got = blas.eigvalsh_inplace(a)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.triu(a, 1), np.triu(before, 1))
    if a.shape[0] > 1 and blas._lapack() is not None:  # the numpy fallback solves a copy
        assert not np.array_equal(np.tril(a), np.tril(before))


@pytest.mark.parametrize("a", [
    np.ones((4, 3)),  # C-ordered
    np.ones((4, 3), dtype=np.float32, order="F"),
    np.ones((4, 3), dtype=int, order="F"),
    np.ones((8, 3), order="F")[::2],  # not contiguous
    np.ones((3, 4), order="F"),  # wider than tall
    np.ones(4),
    np.ones((1, 4, 3), order="F"),
], ids=["c-order", "float32", "int", "strided", "wide", "1-d", "3-d"])
def test_qr_inplace_rejects_what_lapack_cannot_factor_in_place(a):
    with pytest.raises(ValueError, match="expected"):
        blas.qr_inplace(a)


@pytest.mark.parametrize("a", [
    np.arange(9.0).reshape(3, 3),  # C-ordered and not symmetric
    np.eye(3, dtype=np.float32, order="F"),
    np.eye(4, order="F")[::2, ::2],  # not contiguous
    np.ones((4, 3), order="F"),  # not square
    np.ones(3),
], ids=["c-order", "float32", "strided", "not-square", "1-d"])
def test_eigvalsh_inplace_rejects_what_lapack_cannot_solve_in_place(a):
    with pytest.raises(ValueError, match="expected"):
        blas.eigvalsh_inplace(a)


def test_a_read_only_input_is_rejected():
    a = np.eye(3, order="F")
    a.flags.writeable = False
    for inplace in (blas.eigvalsh_inplace, blas.qr_inplace):
        with pytest.raises(ValueError, match="writeable"):
            inplace(a)


def fail_after_query(routine, info):
    """routine, but every call after the workspace query returns info."""
    calls = []

    def call(*args):
        calls.append(args)
        return routine(*args) if len(calls) == 1 else info
    return call


@pytest.mark.parametrize("name, info", [("dsyevd", 3), ("dgeqrf", -4), ("dorgqr", -7)])
def test_a_nonzero_info_raises_naming_the_routine(monkeypatch, name, info):
    routines = blas._lapack()
    if routines is None:
        pytest.skip("numpy's OpenBLAS exports no LAPACKE routines")
    monkeypatch.setattr(blas, "_lapack", lambda: {
        **routines, name: fail_after_query(routines[name], info)})
    inplace = blas.eigvalsh_inplace if name == "dsyevd" else blas.qr_inplace
    message = "^LAPACK %s returned info = %d$" % (name, info)
    with pytest.raises(np.linalg.LinAlgError, match=message):
        inplace(np.asfortranarray(np.eye(5) + 1.0))


def test_without_the_library_numpy_gives_the_same_bytes(monkeypatch, fresh_lookup):
    def outputs():
        qrs = []
        for shape in QR_SHAPES[:4]:
            with at_cut_threads(shape):
                qrs.append(blas.qr_inplace(column_major_draw(shape)).tobytes("F"))
        eigs = [blas.eigvalsh_inplace(eig_input(name)).tobytes() for name in EIG_INPUTS[:4]]
        gaussians = [(A.tobytes("F"), norm_A, A.flags.f_contiguous) for A, norm_A in (
            cs.gen_gaussian(180, 640, 11, mode) for mode in ("scaled", "orthonormal"))]
        return qrs, eigs, gaussians

    with_lapack = outputs()
    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    blas._lapack.cache_clear()
    assert blas._lapack() is None
    assert outputs() == with_lapack
    for inplace, a in ((blas.eigvalsh_inplace, eig_input("gram 130x333")),
                       (blas.qr_inplace, column_major_draw((333, 130)))):
        before = a.copy(order="F")
        inplace(a)
        assert np.array_equal(a, before)  # numpy factors a copy
