"""The OpenBLAS thread handle and the QR that runs at one thread."""

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
    """The lookup's cache cleared before and after the test."""
    blas._lookup.cache_clear()
    yield
    blas._lookup.cache_clear()


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
    seen, qr = [], np.linalg.qr

    def recording_qr(a):
        seen.append(blas.threads())
        return qr(a)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    cs.gen_gaussian(1, d, 0, mode="orthonormal")
    assert seen == [count] and blas.threads() == 3
