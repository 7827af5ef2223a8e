import dataclasses
import math
import re

import numpy as np
import pytest

from dcprox.baselines import BaselineParams
from dcprox.linop import LinearMap
from dcprox.problem import (
    L1Screen, ProblemSpec, SolverParams, check_number, tau_upper_bound)


def number_error(name, value, op=">="):
    """The whole message of problem.check_number for name and value, as a
    match pattern."""
    return "^%s$" % re.escape("%s must be finite and %s 0: %r" % (name, op, value))


def make_spec(ell=1.0, norm_a=1.0, beta=0.0):
    ident = lambda z: z
    return ProblemSpec(
        prox_fC=lambda w, tau: w,
        grad_h=ident,
        subgrad_g=lambda x: np.zeros_like(x),
        value_f=lambda x: 0.0,
        value_h=lambda z: 0.5 * float(z @ z),
        value_g=lambda x: 0.0,
        map_A=LinearMap.identity(3),
        lipschitz_ell=ell,
        norm_A=norm_a,
        weak_convexity_beta=beta,
    )


def test_tau_upper_bound_reference_value():
    # ell = 1, ||A|| = 1, lambda_bar = 0.1, mu_bar = 0.01, tiny delta:
    # 1 / (1.2 + 0.02) up to the 1e-24 delta term.
    params = SolverParams()
    tau = tau_upper_bound(make_spec(), params)
    assert abs(tau - 1.0 / 1.22) < 1e-12


def test_tau_upper_bound_scales_with_norm():
    params = SolverParams()
    tau1 = tau_upper_bound(make_spec(norm_a=1.0), params)
    tau2 = tau_upper_bound(make_spec(norm_a=2.0), params)
    assert tau2 < tau1


def test_tau_upper_bound_degenerate_raises():
    # A zero denominator cannot arise from validated SolverParams, so feed
    # a raw namespace to exercise the degenerate-rule guard.
    from types import SimpleNamespace

    spec = make_spec(ell=0.0)
    fake = SimpleNamespace(delta=0.0, lambda_bar=0.0, mu_bar=0.0)
    with pytest.raises(ValueError,
                       match=number_error("the step-size rule's denominator", 0.0, ">")):
        tau_upper_bound(spec, fake)
    # finite constants whose ell ||A||^2 overflows gave tau = 1 / inf = 0.0
    with pytest.raises(ValueError,
                       match=number_error("the step-size rule's denominator", np.inf, ">")):
        tau_upper_bound(make_spec(ell=1e300, norm_a=1e10), SolverParams())


def test_solver_params_validation():
    with pytest.raises(ValueError, match=number_error("delta", 0.0, ">")):
        SolverParams(delta=0.0)
    for name, bad in (("lambda_bar", -0.1), ("lambda_bar", True), ("mu_bar", -1e-3)):
        with pytest.raises(ValueError, match=number_error(name, bad)):
            SolverParams(**{name: bad})
    # a NaN parameter passed every check
    for name, op in (("lambda_bar", ">="), ("mu_bar", ">="), ("delta", ">")):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=number_error(name, bad, op)):
                SolverParams(**{name: bad})


#: each class that inherits the loop fields, with the fields it needs besides
LOOP_CLASSES = [
    pytest.param(SolverParams, {}, id="SolverParams"),
    pytest.param(BaselineParams, {"step_tau": 0.1, "extrapolation": True},
                 id="BaselineParams"),
]


@pytest.mark.parametrize("cls, own", LOOP_CLASSES)
def test_loop_params_validation(cls, own):
    # a float count passed and the solve died with a TypeError from range();
    # restart_period = 0 would reset the momentum every iteration, so that
    # pDCAe would silently be GPPA
    for name, bad in (("max_iter", 0), ("max_iter", 10.0), ("max_iter", True),
                      ("restart_period", 0), ("restart_period", -1),
                      ("restart_period", 7.5)):
        with pytest.raises(ValueError, match="^%s$" % re.escape(
                "%s must be an integer >= 1: %r" % (name, bad))):
            cls(**own, **{name: bad})
    # a NaN stop_rel_tol passed every check and ran the solve to max_iter
    for bad in (-1e-8, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=number_error("stop_rel_tol", bad)):
            cls(**own, stop_rel_tol=bad)
    cls(**own, restart_period=None)  # no restart is allowed
    cls(**own, max_iter=np.int64(10), restart_period=np.int32(7))
    # keywords only: BaselineParams(0.1, 5) once meant max_iter = 5
    with pytest.raises(TypeError):
        cls(*own.values(), 5)


def test_check_number():
    for value in (0, 0.0, 2.5, np.float64(1e300), np.int64(3)):
        check_number("x", value)
    check_number("x", 1e-300, positive=True)
    for bad in (-1e-300, np.nan, np.inf, -np.inf, True, False, np.True_, "1", 1j,
                None, np.array([1.0, 2.0])):
        with pytest.raises(ValueError, match="^x must be finite and >= 0: "):
            check_number("x", bad)
    with pytest.raises(ValueError, match=number_error("x", 0.0, ">")):
        check_number("x", 0.0, positive=True)


def test_problem_spec_validation():
    with pytest.raises(ValueError, match=number_error("lipschitz_ell", -1.0)):
        make_spec(ell=-1.0)
    # a NaN constant passed the sign checks and made tau_upper_bound NaN; an
    # infinite beta ran GPPA and pDCAe to max-iter
    for arg, name in (("ell", "lipschitz_ell"), ("norm_a", "norm_A"),
                      ("beta", "weak_convexity_beta")):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=number_error(name, bad)):
                make_spec(**{arg: bad})
    # a finite norm_A whose square overflows: norm_A**2 raised OverflowError in
    # the step rules; 2**512 is the least norm_A whose square is not finite
    for bad in (1e200, 2.0**512):
        with pytest.raises(ValueError, match=number_error("norm_A * norm_A", np.inf)):
            make_spec(norm_a=bad)
    largest = make_spec(ell=1e-300, norm_a=math.nextafter(2.0**512, 0))
    assert 0 < tau_upper_bound(largest, SolverParams()) < math.inf
    spec = make_spec()
    with pytest.raises(ValueError, match="does not match map_A"):
        dataclasses.replace(spec, screen=L1Screen(0.1, np.eye(3, 4, order="F")))
    dataclasses.replace(spec, screen=L1Screen(0.1, np.eye(3, order="F")))


def test_objective_composition():
    spec = make_spec()
    x = np.array([1.0, 2.0, 2.0])
    assert abs(spec.objective(x) - 4.5) < 1e-15
