"""Problem data model and the shared input checks; imports nothing from dcprox."""

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class ProblemSpec:
    """The quadruple (f + indicator-of-C, h, g, A) plus its constants.

    prox_fC(w, tau) returns a minimizer of f(x) + i_C(x) + ||x - w||^2/(2 tau);
    grad_h evaluates the gradient of the smooth term at points of the image
    space of map_A; subgrad_g returns one limiting subgradient of g.
    lipschitz_ell is the Lipschitz modulus of grad_h, weak_convexity_beta the
    weak-convexity modulus of g, norm_A an upper bound on ||A||, as the step
    rule needs.  cs takes it from the instance: 1.0 for maps with
    orthonormal rows (sampled DCT, row-orthonormal Gaussian), and for other
    matrices sqrt(lambda_max + margin) from one eigendecomposition of
    A A^T (linop.gram_spectrum), a certified bound about 1e-10 relative
    above ||A|| on case 3.  l1l2, when set, is the oracles.L1L2 record of
    an L1-L2 problem on map_A itself: psg.iterate fuses its oracles, and
    psg.screening decides whether its map's matrix lets the loop skip the
    A* grad_h entries that the prox provably zeroes.  A record on a map of
    another shape fails, as does one whose map holds a matrix when map_A
    holds another; a matrix-free map_A of the record's shape passes.
    """

    prox_fC: Callable[[np.ndarray, float], np.ndarray]
    grad_h: Callable[[np.ndarray], np.ndarray]
    subgrad_g: Callable[[np.ndarray], np.ndarray]
    value_f: Callable[[np.ndarray], float]
    value_h: Callable[[np.ndarray], float]
    value_g: Callable[[np.ndarray], float]
    map_A: "LinearMap"  # dcprox.linop.LinearMap
    lipschitz_ell: float
    norm_A: float
    weak_convexity_beta: float = 0.0
    is_feasible: Optional[Callable[[np.ndarray], bool]] = None
    l1l2: Optional["L1L2"] = None  # dcprox.oracles.L1L2

    def __post_init__(self):
        for name in ("lipschitz_ell", "weak_convexity_beta", "norm_A"):
            check_number(name, getattr(self, name))
        # norm_A**2 raises OverflowError where this product gives inf (from 2**512 on)
        check_number("norm_A * norm_A", self.norm_A * self.norm_A)
        if self.l1l2 is not None:
            own, shape = [(a.dim_out, a.dim_in) for a in (self.l1l2.map_A, self.map_A)]
            if own != shape:
                raise ValueError("l1l2 map shape %s does not match map_A %s" % (own, shape))
            own, matrix = self.l1l2.map_A.matrix, self.map_A.matrix
            if own is not None and matrix is not None and own is not matrix:
                raise ValueError("l1l2 map holds another matrix than map_A")

    def objective(self, x, Ax=None):
        """F(x) = f(x) + h(A x) - g(x); Ax, when given, must be A x."""
        Ax = self.map_A.apply(x) if Ax is None else Ax
        return self.value_f(x) + self.value_h(Ax) - self.value_g(x)


@dataclass(frozen=True, kw_only=True)
class LoopParams:
    """The update cap, stop rule, restart period and trace of every solver."""

    max_iter: int = 3000
    stop_rel_tol: float = 1e-8
    restart_period: int = 50
    keep_iterates: bool = False

    def __post_init__(self):
        check_count("max_iter", self.max_iter)
        check_number("stop_rel_tol", self.stop_rel_tol)
        check_count("restart_period", self.restart_period)


@dataclass(frozen=True, kw_only=True)
class SolverParams(LoopParams):
    """Step-size and extrapolation parameters of the extrapolated solver."""

    lambda_bar: float = 0.1
    mu_bar: float = 0.01
    delta: float = 5e-25

    def __post_init__(self):
        super().__post_init__()
        check_number("lambda_bar", self.lambda_bar)
        check_number("mu_bar", self.mu_bar)
        check_number("delta", self.delta, positive=True)


def check_count(name, value, least=1):
    """Reject a count, seed or case id unless it is an integer >= least;
    numpy integers pass, as operator.index takes them, and bools fail."""
    try:
        valid = not isinstance(value, bool) and operator.index(value) >= least
    except TypeError:
        valid = False
    if not valid:
        raise ValueError("%s must be an integer >= %d: %r" % (name, least, value))


def check_number(name, value, positive=False):
    """Reject a real parameter unless it is finite and >= 0 (> 0 when
    positive); NaN, bools and anything that does not compare as a real fail."""
    try:
        valid = (not isinstance(value, (bool, np.bool_)) and value < math.inf
                 and (value > 0 if positive else value >= 0))
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ValueError("%s must be finite and %s 0: %r"
                         % (name, ">" if positive else ">=", value))


def tau_upper_bound(spec, params):
    """Largest admissible constant step size for the extrapolated solver.

    Equals 1 / (beta + 2 delta + ell ||A||^2 (2 lambda_bar + 1) + 2 mu_bar).
    """
    denom = (
        spec.weak_convexity_beta
        + 2.0 * params.delta
        + spec.lipschitz_ell * spec.norm_A**2 * (2.0 * params.lambda_bar + 1.0)
        + 2.0 * params.mu_bar
    )
    check_number("the step-size rule's denominator", denom, positive=True)
    return 1.0 / denom


@dataclass
class IterateTrace:
    """Per-iteration scalars (and optionally iterates) of a solver run.

    objective[n] holds F(x_n), step_norms[n] holds ||x_n - x_{n-1}||
    (zero for n = 0 since x_{-1} = x_0), lyapunov[n] the value
    F(x_n) + c ||x_n - x_{n-1}||^2 for the c of the run, and iterates[n]
    a copy of x_n when the run keeps its iterates (None otherwise).
    """

    objective: list
    step_norms: list
    lyapunov: list
    iterates: Optional[list] = None


@dataclass
class SolveReport:
    """Outcome of one solver run."""

    x: np.ndarray
    objective: float
    iterations: int
    status: str  # "converged" | "max-iter"
    trace: IterateTrace
    max_lyapunov_violation: float
    wall_time: float
