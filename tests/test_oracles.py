import numpy as np
import pytest

from dcprox.oracles import (
    L1L2Regularizer,
    Loss,
    least_squares_value_grad,
    lorentzian_value_grad,
    norm_subgradient,
    soft_threshold,
)


def brute_force_prox_l1(w, t, halfwidth=4.0, n=80001):
    """Grid-search argmin of t |y| + (y - w)^2 / 2 around w."""
    grid = np.linspace(w - halfwidth, w + halfwidth, n)
    return grid[np.argmin(t * np.abs(grid) + 0.5 * (grid - w) ** 2)]


def test_soft_threshold_matches_grid_oracle():
    rng = np.random.default_rng(0)
    w = rng.standard_normal(200) * 2
    t = 0.37
    got = soft_threshold(w, t)
    for wi, gi in zip(w, got):
        assert abs(gi - brute_force_prox_l1(wi, t)) <= 1e-4


def test_soft_threshold_closed_form_points():
    w = np.array([-2.0, -0.1, 0.0, 0.1, 2.0])
    assert np.allclose(soft_threshold(w, 0.5), [-1.5, 0.0, 0.0, 0.0, 1.5])
    assert np.array_equal(soft_threshold(w, 0.0), w)


def test_soft_threshold_negative_threshold_raises():
    with pytest.raises(ValueError):
        soft_threshold(np.ones(2), -1e-3)


def test_norm_subgradient():
    assert np.array_equal(norm_subgradient(np.zeros(3)), np.zeros(3))
    x = np.array([3.0, 4.0])
    assert np.allclose(norm_subgradient(x), [0.6, 0.8])
    assert abs(np.linalg.norm(norm_subgradient(x)) - 1.0) < 1e-15


def finite_diff(fun, z, h=1e-6):
    g = np.zeros_like(z)
    for k in range(len(z)):
        e = np.zeros_like(z)
        e[k] = h
        g[k] = (fun(z + e) - fun(z - e)) / (2 * h)
    return g


@pytest.mark.parametrize("kind", ["least-squares", "lorentzian"])
def test_gradients_finite_difference(kind):
    rng = np.random.default_rng(4)
    b = rng.standard_normal(20)
    z = rng.standard_normal(20)
    loss = Loss(kind, b)
    fd = finite_diff(loss.value, z)
    g = loss.grad(z)
    assert np.max(np.abs(fd - g)) / max(1.0, np.max(np.abs(g))) <= 1e-6
    v, vg = loss.value_grad(z)
    assert loss.value(z) == v and np.array_equal(g, vg)


def test_least_squares_value():
    v, g = least_squares_value_grad(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    assert abs(v - 2.5) < 1e-15
    assert np.allclose(g, [1.0, 2.0])


def test_lorentzian_value_and_shape():
    v, g = lorentzian_value_grad(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    assert abs(v - np.log(2.0)) < 1e-15
    assert np.allclose(g, [0.0, 1.0])


def test_lorentzian_secant_bound():
    rng = np.random.default_rng(5)
    b = np.zeros(1)
    loss = Loss("lorentzian", b)
    worst = 0.0
    for _ in range(2000):
        z1, z2 = rng.standard_normal(2) * 3
        dz = z1 - z2
        if dz == 0:
            continue
        dg = loss.grad(np.array([z1]))[0] - loss.grad(np.array([z2]))[0]
        worst = max(worst, abs(dg / dz))
    assert worst <= 2.0 + 1e-9


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        least_squares_value_grad(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        lorentzian_value_grad(np.zeros(3), np.zeros(2))


def test_loss_kind_validation():
    with pytest.raises(ValueError):
        Loss("huber", np.zeros(2))
    assert Loss("least-squares", np.zeros(2)).lipschitz == 1.0
    assert Loss("lorentzian", np.zeros(2)).lipschitz == 2.0


def test_regularizer_value():
    reg = L1L2Regularizer(0.1)
    x = np.array([3.0, -4.0])
    assert abs(reg.value(x) - 0.1 * (7.0 - 5.0)) < 1e-15
    with pytest.raises(ValueError):
        L1L2Regularizer(0.0)
    with pytest.raises(ValueError):
        L1L2Regularizer(0.1, alpha=-1.0)
