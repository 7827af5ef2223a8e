import dataclasses

import numpy as np
import pytest

from dcprox.linop import LinearMap, gram_spectrum


def test_from_matrix_apply_adjoint():
    A = np.arange(6.0).reshape(2, 3)
    m = LinearMap.from_matrix(A)
    x = np.array([1.0, -1.0, 2.0])
    y = np.array([0.5, 2.0])
    assert np.allclose(m.apply(x), A @ x)
    assert np.allclose(m.adjoint(y), A.T @ y)
    assert m.dim_in == 3 and m.dim_out == 2


def test_dense_returns_the_matrix():
    F = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    assert LinearMap.from_matrix(F).dense() is F
    A = np.arange(6.0).reshape(2, 3)
    stored = LinearMap.from_matrix(A).dense()
    assert stored.flags.f_contiguous and np.array_equal(stored, A)
    free = LinearMap(lambda x: A @ x, lambda y: A.T @ y, 3, 2)
    assert np.array_equal(free.dense(), A)


def test_map_is_a_frozen_record():
    A = np.arange(6.0).reshape(2, 3)
    free = LinearMap(lambda x: A @ x, lambda y: A.T @ y, 3, 2)
    assert free.matrix is None
    stored = LinearMap.from_matrix(A)
    assert stored.matrix.flags.f_contiguous and np.array_equal(stored.matrix, A)
    for field in ("apply", "adjoint", "dim_in", "dim_out", "matrix"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(stored, field, None)
    # replace swaps one product and keeps the other fields
    wrapped = dataclasses.replace(stored, apply=free.apply)
    assert wrapped.matrix is stored.matrix and wrapped.adjoint is stored.adjoint


def support_cases(d, rng):
    """Vectors for the support-column path of apply: around the d/8 cut,
    zero, one nonzero, dense, and -0.0 zeros."""
    out = {"zero": np.zeros(d), "dense": rng.standard_normal(d)}
    for k in (1, d // 8 - 1, d // 8, d // 8 + 1):
        x = np.zeros(d)
        x[rng.choice(d, size=k, replace=False)] = rng.standard_normal(k)
        out["nnz=%d" % k] = x
    x = -np.zeros(d)
    x[rng.choice(d, size=5, replace=False)] = rng.standard_normal(5)
    out["negative zeros"] = x
    return out


@pytest.mark.parametrize("shape", [(30, 80), (45, 64), (180, 640)])
def test_apply_on_support_matches_full_product(shape):
    rng = np.random.default_rng(6)
    A = rng.standard_normal(shape)
    map_ = LinearMap.from_matrix(A)
    assert map_.dense().flags.f_contiguous
    for name, x in support_cases(shape[1], rng).items():
        got = map_.apply(x)
        assert got.shape == (shape[0],) and got.dtype == float, name
        want = A @ x
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.abs(want).max()), name
    assert np.array_equal(map_.apply(np.zeros(shape[1])), np.zeros(shape[0]))


def test_apply_propagates_nan():
    A = np.random.default_rng(7).standard_normal((20, 64))
    x = np.zeros(64)
    x[3] = np.nan
    assert np.isnan(LinearMap.from_matrix(A).apply(x)).all()
    x[10:50] = 1.0  # dense: the full product
    assert np.isnan(LinearMap.from_matrix(A).apply(x)).all()


def test_identity_map():
    m = LinearMap.identity(4)
    x = np.arange(4.0)
    assert np.array_equal(m.apply(x), x)
    assert np.array_equal(m.adjoint(x), x)


@pytest.mark.parametrize("shape", [(30, 50), (50, 30), (1, 7)])
def test_gram_spectrum_bounds_norm(shape):
    A = np.random.default_rng(4).standard_normal(shape)
    lam, bound = gram_spectrum(A)
    s = np.linalg.svd(A, compute_uv=False)
    assert lam.shape == (min(shape),)
    assert np.allclose(np.sqrt(np.maximum(lam[::-1], 0.0)), s, rtol=1e-10)
    assert s[0] <= bound <= (1 + 1e-10) * s[0]
