import dataclasses
import math

import numpy as np
import pytest

from dcprox.baselines import BaselineParams
from dcprox.linop import LinearMap
from dcprox.problem import L1Screen, ProblemSpec, SolverParams, tau_upper_bound


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
    with pytest.raises(ValueError, match="degenerate"):
        tau_upper_bound(spec, fake)
    # finite constants whose ell ||A||^2 overflows gave tau = 1 / inf = 0.0
    with pytest.raises(ValueError, match="degenerate"):
        tau_upper_bound(make_spec(ell=1e300, norm_a=1e10), SolverParams())


def test_solver_params_validation():
    with pytest.raises(ValueError):
        SolverParams(delta=0.0)
    with pytest.raises(ValueError):
        SolverParams(lambda_bar=-0.1)
    with pytest.raises(ValueError):
        SolverParams(max_iter=0)
    with pytest.raises(ValueError):
        SolverParams(restart_period=0)
    with pytest.raises(ValueError, match="stop_rel_tol must be nonnegative"):
        SolverParams(stop_rel_tol=-1e-8)
    SolverParams(restart_period=None)  # no restart is allowed
    # a float count passed and the solve died with a TypeError from range()
    for name, bad in (("max_iter", 10.0), ("restart_period", 7.5), ("max_iter", True)):
        with pytest.raises(ValueError,
                           match="%s must be an integer >= 1: %s" % (name, bad)):
            SolverParams(**{name: bad})
    SolverParams(max_iter=np.int64(10), restart_period=np.int32(7))
    # a NaN stop_rel_tol passed every check and ran the solve to max_iter
    for name in ("lambda_bar", "mu_bar", "delta", "stop_rel_tol"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="must be finite"):
                SolverParams(**{name: bad})


def test_baseline_params_reject_nonpositive_restart_period():
    # restart_period = 0 would reset the momentum every iteration: pDCAe
    # would silently be GPPA
    for period in (0, -1):
        with pytest.raises(ValueError, match="restart_period must be an integer >= 1: %d"
                           % period):
            BaselineParams(step_tau=1.0, extrapolation=True, restart_period=period)
    BaselineParams(step_tau=1.0, extrapolation=True, restart_period=None)


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        make_spec(ell=-1.0)
    # a NaN constant passed the sign checks and made tau_upper_bound NaN; an
    # infinite beta ran GPPA and pDCAe to max-iter
    for name in ("ell", "norm_a", "beta"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="must be >= 0"):
                make_spec(**{name: bad})
    # a finite norm_A whose square overflows: norm_A**2 raised OverflowError in
    # the step rules; 2**512 is the least norm_A whose square is not finite
    for bad in (1e200, 2.0**512):
        with pytest.raises(ValueError, match="must be >= 0"):
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
