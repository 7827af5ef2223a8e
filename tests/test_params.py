import math

import numpy as np
import pytest
from test_entry_checks import spec_kwargs

from dcprox.baselines import BaselineParams
from dcprox.problem import ProblemSpec, SolverParams, tau_upper_bound


def test_tau_upper_bound_reference_value():
    # ell = 1, ||A|| = 1, lambda_bar = 0.1, mu_bar = 0.01, tiny delta:
    # 1 / (1.2 + 0.02) up to the 1e-24 delta term.
    params = SolverParams()
    tau = tau_upper_bound(ProblemSpec(**spec_kwargs()), params)
    assert abs(tau - 1.0 / 1.22) < 1e-12


def test_tau_upper_bound_scales_with_norm():
    params = SolverParams()
    tau1 = tau_upper_bound(ProblemSpec(**spec_kwargs(norm_A=1.0)), params)
    tau2 = tau_upper_bound(ProblemSpec(**spec_kwargs(norm_A=2.0)), params)
    assert tau2 < tau1


@pytest.mark.parametrize("cls", [BaselineParams, SolverParams], ids=lambda cls: cls.__name__)
def test_loop_params_validation(cls):
    # keywords only: BaselineParams(0.1, 5) once meant max_iter = 5
    with pytest.raises(TypeError, match=r"^%s\.__init__\(\) takes 1 positional "
                       r"argument but 3 were given$" % cls.__name__):
        cls(0.1, 5)


def test_problem_spec_validation():
    largest = ProblemSpec(**spec_kwargs(lipschitz_ell=1e-300, norm_A=math.nextafter(2.0**512, 0)))
    assert 0 < tau_upper_bound(largest, SolverParams()) < math.inf


def test_objective_composition():
    spec = ProblemSpec(**spec_kwargs())
    x = np.array([1.0, 2.0, 2.0])
    assert abs(spec.objective(x) - 4.5) < 1e-15
