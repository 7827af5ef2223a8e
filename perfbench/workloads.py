"""Workload definitions and the solver rules of the sparse-recovery sweep.

The rules below mirror `dcprox.bench._solve_cell` and the defaults of
`dcprox.bench.ExperimentConfig`.  They are restated here because
`dcprox.bench` imports `dcprox.opf`, which does not import on Python 3.11;
keep the two in step.
"""

from dataclasses import dataclass

import numpy as np

from dcprox import baselines, psg
from dcprox.problem import SolverParams

SOLVERS = ("gppa", "pdcae", "proposed")

#: per-loss defaults of the sweep: (gamma, max_iter)
LOSS_DEFAULTS = {"least-squares": (0.1, 3000), "lorentzian": (0.001, 4000)}

#: ExperimentConfig defaults that reach the solvers
LAMBDA_BAR = 0.1
MU_BAR = 0.01
DELTA = 5e-25
RESTART_PERIOD = 50
STOP_REL_TOL = 1e-8

#: solve-span names, one per solver, named after the layer that runs it
SOLVE_SPANS = {
    "proposed": "psg.solve",
    "gppa": "baselines.gppa_solve",
    "pdcae": "baselines.pdcae_solve",
}


@dataclass(frozen=True)
class Workload:
    """A sweep: one loss, and per case the number of instance seeds a run uses.

    Run seed n gives case c the instance seeds n*k_c, ..., n*k_c + k_c - 1,
    so consecutive run seeds cover disjoint instances.
    """

    name: str
    loss_kind: str
    cases: tuple  # ((case, k_c), ...)

    @property
    def gamma(self):
        return LOSS_DEFAULTS[self.loss_kind][0]

    @property
    def max_iter(self):
        return LOSS_DEFAULTS[self.loss_kind][1]

    def instances(self, seed):
        """(case, instance seed) pairs of one run, case-major like the sweep."""
        return [(case, seed * k + j) for case, k in self.cases for j in range(k)]


WORKLOADS = {
    wl.name: wl
    for wl in (
        # Acceptance-sweep shape on small matrices: Python overhead per
        # iteration dominates the solves, and setup (SVD rank check, power
        # iteration) is a large share of the run.
        Workload("cs-ls-sweep", "least-squares",
                 ((1, 16), (2, 16), (5, 16), (6, 16))),
        # ~2,000 iterations per solve and ~1% setup, because the ensembles
        # are orthonormal: loop and oracle gains show here, setup gains not.
        Workload("cs-lorentzian-sweep", "lorentzian", ((1, 20), (5, 20))),
        # A/A* products and setup dominate: the dense 236 MB DCT matrix of
        # case 8 and the SVD and power iteration of case 3.  Case 4 is left
        # out: its power iteration took 18 s on one seed and 51 s on the
        # next, which no bound of 25% can absorb.
        Workload("cs-large", "least-squares", ((3, 4), (8, 2))),
    )
}


def solve(spec, solver, max_iter):
    """Run one solver from x0 = 0 with the step rule of `bench._solve_cell`."""
    x0 = np.zeros(spec.map_A.dim_in)
    if solver == "proposed":
        return psg.solve(spec, x0, SolverParams(
            lambda_bar=LAMBDA_BAR, mu_bar=MU_BAR, delta=DELTA,
            restart_period=RESTART_PERIOD, max_iter=max_iter,
            stop_rel_tol=STOP_REL_TOL, keep_iterates=False,
        ))
    base_tau = 1.0 / (spec.lipschitz_ell * spec.norm_A**2)
    params = baselines.BaselineParams(
        step_tau=0.8 * base_tau if solver == "gppa" else base_tau,
        max_iter=max_iter, stop_rel_tol=STOP_REL_TOL,
        extrapolation=solver == "pdcae", restart_period=RESTART_PERIOD,
    )
    if solver == "gppa":
        return baselines.gppa_solve(spec, x0, params)
    return baselines.pdcae_solve(spec, x0, params)
