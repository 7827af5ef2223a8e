import numpy as np
import pytest

from dcprox.linop import (
    LinearMap,
    SpectralNormError,
    adjoint_mismatch,
    gram_spectrum,
    spectral_norm,
)


def test_from_matrix_apply_adjoint():
    A = np.arange(6.0).reshape(2, 3)
    m = LinearMap.from_matrix(A)
    x = np.array([1.0, -1.0, 2.0])
    y = np.array([0.5, 2.0])
    assert np.allclose(m.apply(x), A @ x)
    assert np.allclose(m.adjoint(y), A.T @ y)
    assert m.dim_in == 3 and m.dim_out == 2


def test_from_matrix_rejects_non_2d():
    with pytest.raises(ValueError):
        LinearMap.from_matrix(np.ones(3))


def test_dense_returns_the_matrix():
    A = np.arange(6.0).reshape(2, 3)
    assert LinearMap.from_matrix(A).dense() is A
    free = LinearMap(lambda x: A @ x, lambda y: A.T @ y, 3, 2)
    assert np.array_equal(free.dense(), A)


def test_identity_map():
    m = LinearMap.identity(4)
    x = np.arange(4.0)
    assert np.array_equal(m.apply(x), x)
    assert np.array_equal(m.adjoint(x), x)


def test_adjoint_mismatch_consistent_map():
    rng = np.random.default_rng(3)
    m = LinearMap.from_matrix(rng.standard_normal((7, 5)))
    assert adjoint_mismatch(m, rng) < 1e-12


def test_adjoint_mismatch_detects_wrong_adjoint():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    bad = LinearMap(lambda x: A @ x, lambda y: A @ y, 2, 2)
    assert adjoint_mismatch(bad) > 1e-3


@pytest.mark.parametrize("shape", [(30, 50), (50, 30), (1, 7)])
def test_gram_spectrum_bounds_norm(shape):
    A = np.random.default_rng(4).standard_normal(shape)
    lam, bound = gram_spectrum(A)
    s = np.linalg.svd(A, compute_uv=False)
    assert lam.shape == (min(shape),)
    assert np.allclose(np.sqrt(np.maximum(lam[::-1], 0.0)), s, rtol=1e-10)
    assert s[0] <= bound <= (1 + 1e-10) * s[0]


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 50))
    est = spectral_norm(LinearMap.from_matrix(A), tol=1e-10)
    exact = np.linalg.norm(A, 2)
    assert abs(est - exact) <= exact * 1e-8


def test_spectral_norm_orthonormal_rows_is_one():
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 10)))
    est = spectral_norm(LinearMap.from_matrix(Q.T))
    assert abs(est - 1.0) < 1e-6


def test_spectral_norm_nonconvergence_raises():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((6, 6))
    with pytest.raises(SpectralNormError):
        spectral_norm(LinearMap.from_matrix(B), tol=1e-14, max_iter=1)


def test_spectral_norm_rejects_bad_tol():
    with pytest.raises(ValueError):
        spectral_norm(LinearMap.identity(2), tol=0.0)
