import numpy as np

from dcprox.oracles import Loss, norm_subgradient, soft_threshold


def test_soft_threshold_closed_form_points():
    w = np.array([-2.0, -0.1, 0.0, 0.1, 2.0])
    assert np.allclose(soft_threshold(w, 0.5), [-1.5, 0.0, 0.0, 0.0, 1.5])
    assert np.array_equal(soft_threshold(w, 0.0), w)


def test_norm_subgradient():
    assert np.array_equal(norm_subgradient(np.zeros(3)), np.zeros(3))
    x = np.array([3.0, 4.0])
    assert np.allclose(norm_subgradient(x), [0.6, 0.8])
    assert abs(np.linalg.norm(norm_subgradient(x)) - 1.0) < 1e-15


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
