import numpy as np
import pytest

from dcprox.oracles import Loss, norm_subgradient, soft_threshold


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


def test_least_squares_value():
    loss = Loss("least-squares", np.array([0.0, 0.0]))
    z = np.array([1.0, 2.0])
    assert abs(loss.value(z) - 2.5) < 1e-15
    assert np.allclose(loss.grad(z), [1.0, 2.0])


def test_lorentzian_value_and_shape():
    loss = Loss("lorentzian", np.array([0.0, 0.0]))
    z = np.array([0.0, 1.0])
    assert abs(loss.value(z) - np.log(2.0)) < 1e-15
    assert np.allclose(loss.grad(z), [0.0, 1.0])


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


def test_loss_kind_validation():
    assert Loss("least-squares", np.zeros(2)).lipschitz == 1.0
    assert Loss("lorentzian", np.zeros(2)).lipschitz == 2.0
