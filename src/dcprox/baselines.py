"""Baseline algorithms sharing the oracles of the extrapolated solver."""

import math
from dataclasses import dataclass
from typing import Optional

from .problem import check_count
from .psg import iterate, momentum_table


@dataclass(frozen=True)
class BaselineParams:
    """Fixed step size and stopping rule for GPPA / pDCAe."""

    step_tau: float
    max_iter: int = 3000
    stop_rel_tol: float = 1e-8
    extrapolation: bool = False  # pDCAe momentum on/off
    restart_period: Optional[int] = 50
    keep_iterates: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.step_tau) and math.isfinite(self.stop_rel_tol)):
            raise ValueError("step_tau and stop_rel_tol must be finite")
        if self.step_tau <= 0:
            raise ValueError("step_tau must be positive")
        if self.stop_rel_tol < 0:
            raise ValueError("stop_rel_tol must be nonnegative")
        check_count("max_iter", self.max_iter)
        if self.restart_period is not None:  # None means no restart
            check_count("restart_period", self.restart_period)


def gppa_solve(spec, x0, params):
    """Generalized proximal point algorithm: fixed-step, no extrapolation.

    x_{n+1} = prox_{tau (f + i_C)}(x_n - tau grad(h o A)(x_n) + tau g_n).
    """
    return iterate(spec, x0, params, params.step_tau, [0.0], [0.0])


def pdcae_solve(spec, x0, params):
    """Proximal difference-of-convex iteration with FISTA-type momentum.

    y_n = x_n + theta_n (x_n - x_{n-1}) with theta_n = (kappa_{n-1}-1)/kappa_n,
    the ratios of psg.momentum_table (reset every restart_period iterations);
    x_{n+1} = prox_{tau (f + i_C)}(y_n - tau grad(h o A)(y_n) + tau g_n),
    where g_n is taken at x_n.  Requires convex f, h o A, and g; this is a
    caller obligation, not checked here.  Without params.extrapolation,
    theta_n = 0 and this is GPPA.
    """
    thetas = (momentum_table(params.restart_period, params.max_iter)
              if params.extrapolation else [0.0])
    return iterate(spec, x0, params, params.step_tau, thetas, thetas)
