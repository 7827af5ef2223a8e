"""DC optimal power flow with photovoltaic placement on a 14-bus feeder.

Assembles the relaxed placement model as a difference-of-convex objective
over a polyhedral feasible set, loads the bundled network data, and
post-processes solutions (rounding the placement indicators, dollar costs).
"""

import csv
import importlib.resources
import json
import math
import pathlib
from dataclasses import asdict, dataclass, field

import numpy as np

from .linop import LinearMap
from .polyhedron import PolyhedralSet, PolyhedronProjector
from .problem import ProblemSpec, check_number

N_BUS = 14
DOLLARS_PER_UNIT = 1_040_000.0
#: residual to which every projection onto the placement polyhedron is certified
PROJECTION_TOL = 1e-9
#: distance from {0, 1} within which the plan report snaps an indicator
ROUND_TOL = 1e-3
#: operating cost without PV (cost units), the reference of cost_reduction
BASELINE_COST = 6.433


class NetworkLoadError(RuntimeError):
    pass


@dataclass(frozen=True)
class NetworkData:
    """Per-unit network parameters of the 14-bus DC model."""

    demand_p: np.ndarray       # active demand D_i, pu
    susceptance: np.ndarray    # b_ij, diagonal = -row sum of neighbors
    generator_buses: tuple     # 1-based bus ids
    cost_a: float
    cost_b: float
    cost_c: float
    pv_unit_cost: float
    p_pv_max: float
    p_g_max: float
    line_p_max: float
    gamma: float

    @property
    def total_demand(self):
        return float(self.demand_p.sum())


def _number(text, file, key):
    """float(text), or NetworkLoadError naming the file and key if not finite."""
    value = float(text)
    if not math.isfinite(value):
        raise NetworkLoadError("non-finite %s in %s: %r" % (key, file, text))
    return value


def _read_rows(path, key=str):
    """(header, {key(first cell): the other cells}) of a CSV file; a key
    that repeats raises NetworkLoadError naming the file and the key."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header, rows = next(reader), {}
        for first, *cells in reader:
            if key(first) in rows:
                raise NetworkLoadError("repeated key %s in %s" % (first, path.name))
            rows[key(first)] = cells
    return header, rows


def _bus_rows(path, what):
    """(header, N_BUS x k array) of a file keyed by bus, row i - 1 holding
    the numbers of bus i."""
    header, rows = _read_rows(path, int)
    if sorted(rows) != list(range(1, N_BUS + 1)):
        raise NetworkLoadError("missing bus in %s" % path.name)
    return header, np.array([[_number(v, path.name, "%s of bus %d" % (what, i))
                              for v in rows[i]] for i in range(1, N_BUS + 1)])


def load_network(data_dir=None):
    """NetworkData from a directory of CSV files (bundled data by default).

    Reads params.csv (key,value), demand.csv (bus,active_pu) and the
    14 x 14 bus matrix susceptance.csv, all in per-unit values.  A key or
    bus that repeats, in any file, fails, as does a repeated generator bus.
    """
    if data_dir is None:
        data_dir = importlib.resources.files(__package__) / "data"
    data_dir = pathlib.Path(str(data_dir))
    try:
        params = {k: v for k, (v,) in _read_rows(data_dir / "params.csv")[1].items()}
        (demand_p,) = _bus_rows(data_dir / "demand.csv", "demand")[1].T
        header, b = _bus_rows(data_dir / "susceptance.csv", "row")
        buses = list(range(1, N_BUS + 1))
        if [int(v) for v in header[1:]] != buses or b.shape != (N_BUS, N_BUS):
            raise NetworkLoadError("missing bus in susceptance.csv")
    except (OSError, ValueError, IndexError, KeyError, StopIteration) as exc:
        raise NetworkLoadError("malformed network files: %s" % exc) from exc

    if np.any(demand_p < 0):
        raise NetworkLoadError("negative demand")
    if np.max(np.abs(b - b.T)) > 1e-12:
        raise NetworkLoadError("susceptance matrix asymmetric beyond 1e-12")
    off = b - np.diag(np.diag(b))
    if np.max(np.abs(np.diag(b) + off.sum(axis=1))) > 1e-9 * np.max(np.abs(b)):
        raise NetworkLoadError("susceptance diagonal must equal -row sum")

    def param(key):
        return _number(params[key], "params.csv", key)

    try:
        net = NetworkData(
            demand_p=demand_p,
            susceptance=b,
            generator_buses=tuple(int(v) for v in params["generator_buses"].split(";")),
            cost_a=param("cost_a"),
            cost_b=param("cost_b"),
            cost_c=param("cost_c"),
            pv_unit_cost=param("pv_unit_cost"),
            p_pv_max=param("p_pv_max_pu"),
            p_g_max=param("p_g_max_pu"),
            line_p_max=param("line_p_max_pu"),
            gamma=param("gamma"),
        )
    except (KeyError, ValueError) as exc:
        raise NetworkLoadError("malformed params.csv: %s" % exc) from exc
    if any(cap <= 0 for cap in (net.p_pv_max, net.p_g_max, net.line_p_max)):
        raise NetworkLoadError("capacities must be positive")
    gens = net.generator_buses
    if not all(1 <= g <= N_BUS for g in gens):
        raise NetworkLoadError("generator bus out of range")
    repeated = [g for k, g in enumerate(gens) if g in gens[:k]]
    if repeated:
        raise NetworkLoadError("generator_buses repeats %d in params.csv" % repeated[0])
    return net


class DCOPFLayout:
    """Index map of x = [P^PV (14), P^G, X (14), theta (14), P (14 x 14)]."""

    dim = 14 + 1 + 14 + 14 + N_BUS * N_BUS  # 239
    ppv = slice(0, 14)
    pg = 14
    x_bin = slice(15, 29)
    theta = slice(29, 43)
    flow = slice(43, 239)

    def unpack(self, x):
        return (
            x[self.ppv].copy(),
            float(x[self.pg]),
            x[self.x_bin].copy(),
            x[self.theta].copy(),
            x[self.flow].reshape(N_BUS, N_BUS).copy(),
        )


def build_dcopf(net):
    """Assemble the relaxed placement problem.

    Returns (ProblemSpec, PolyhedralSet, DCOPFLayout) with
    h(x) = sum_i C X_i + sum_{i in M} (a (P^G_i)^2 + b P^G_i + c)
           - sum_i P^PV_i / sum_i D_i,
    g(x) = gamma sum_i (X_i^2 - X_i) (differentiable, so subgrad_g = grad g),
    and f the indicator of the polyhedron S of flow physics, slack angle,
    nodal balance, 50% penetration, line/capacity/indicator bounds.
    The angle box is [-2 pi, 2 pi]: with the slack angle pinned to zero a
    one-sided box would force every angle difference, hence every flow, to
    be zero and make the model trivially infeasible in spirit.
    prox_fC is the projection onto S, certified to PROJECTION_TOL; an S with
    no point within that tolerance raises InfeasiblePolyhedronError.
    """
    gamma = net.gamma
    check_number("gamma", gamma, positive=True)
    lay = DCOPFLayout()
    d = lay.dim
    gens = np.array(net.generator_buses) - 1
    b = net.susceptance
    total_d = net.total_demand
    th, fl = lay.theta.start, lay.flow.start
    bus = np.arange(N_BUS)
    k = np.arange(N_BUS * N_BUS)
    i, j = np.divmod(k, N_BUS)

    E = np.zeros((len(k) + 1 + N_BUS, d))
    e = np.zeros(len(E))
    # Flow physics P_ij = b_ij (theta_i - theta_j), row 14 i + j for every
    # ordered pair; on the diagonal the angle terms cancel, pinning P_ii = 0.
    E[k, fl + k] = 1.0
    E[k, th + i] -= b[i, j]
    E[k, th + j] += b[i, j]
    # Slack bus angle.
    E[len(k), th + gens[0]] = 1.0
    # Nodal balance: generation minus demand equals net outflow.
    bal = len(k) + 1
    E[bal + i[i != j], fl + k[i != j]] = 1.0
    E[bal + bus, lay.ppv.start + bus] = -1.0
    E[bal + gens, lay.pg] = -1.0
    e[bal:] = -net.demand_p

    G = np.zeros((1 + N_BUS, d))
    g = np.zeros(len(G))
    # Penetration: sum P^PV >= 0.5 sum D.
    G[0, lay.ppv] = -1.0
    g[0] = -0.5 * total_d
    # PV output only where an indicator is on: P^PV_i <= X_i Pbar^PV.
    G[1 + bus, lay.ppv.start + bus] = 1.0
    G[1 + bus, lay.x_bin.start + bus] = -net.p_pv_max

    lo = np.full(d, -np.inf)
    hi = np.full(d, np.inf)
    lo[lay.ppv], hi[lay.ppv] = 0.0, net.p_pv_max
    lo[lay.pg], hi[lay.pg] = 0.0, net.p_g_max
    lo[lay.x_bin], hi[lay.x_bin] = 0.0, 1.0
    lo[lay.theta], hi[lay.theta] = -2.0 * np.pi, 2.0 * np.pi
    lo[lay.flow], hi[lay.flow] = -net.line_p_max, net.line_p_max

    set_ = PolyhedralSet(d, E, e, G, g, lo, hi)
    projector = PolyhedronProjector(set_, tol=PROJECTION_TOL)
    projector.feasible_point()

    a, b_cost, c = net.cost_a, net.cost_b, net.cost_c
    C_pv = net.pv_unit_cost
    n_gen = len(gens)

    def value_h(x):
        pg = x[lay.pg]
        return float(
            C_pv * x[lay.x_bin].sum()
            + a * pg * pg + b_cost * pg + n_gen * c
            - x[lay.ppv].sum() / total_d
        )

    def grad_h(x):
        grad = np.zeros(d)
        grad[lay.ppv] = -1.0 / total_d
        grad[lay.pg] = 2.0 * a * x[lay.pg] + b_cost
        grad[lay.x_bin] = C_pv
        return grad

    def value_g(x):
        xb = x[lay.x_bin]
        return float(gamma * np.sum(xb * xb - xb))

    def grad_g(x):
        grad = np.zeros(d)
        grad[lay.x_bin] = gamma * (2.0 * x[lay.x_bin] - 1.0)
        return grad

    spec = ProblemSpec(
        prox_fC=lambda w, tau: projector.project(w),
        grad_h=grad_h,
        subgrad_g=grad_g,
        value_f=lambda x: 0.0,
        value_h=value_h,
        value_g=value_g,
        map_A=LinearMap.identity(d),
        lipschitz_ell=2.0 * a,
        norm_A=1.0,
        is_feasible=lambda x: set_.residual(x) <= 1e-6,
    )
    return spec, set_, lay


def binary_relaxation_gap(x, layout):
    """sum_i max(0, X_i (1 - X_i)): zero iff every indicator is binary."""
    xb = x[layout.x_bin]
    return float(np.sum(np.maximum(xb - xb * xb, 0.0)))


@dataclass
class PlanReport:
    """Rounded placement decision with its dispatch and dollar costs."""

    placement: tuple          # 1-based bus ids with a PV system
    fractional: bool          # True if some X_i missed both endpoints
    objective: float
    pv_dispatch: np.ndarray
    generator_dispatch: float
    penetration: float
    install_cost_units: float
    generation_cost_units: float
    total_cost_units: float
    total_cost_dollars: float
    baseline_cost_units: float
    cost_reduction: float
    flags: list = field(default_factory=list)

    def to_json(self, **kw):
        return json.dumps(asdict(self), default=np.ndarray.tolist, **kw)

    def table(self):
        lines = [
            "placement buses   : %s" % (list(self.placement),),
            "objective         : %.6f" % self.objective,
            "penetration       : %.4f" % self.penetration,
            "generator P (pu)  : %.6f" % self.generator_dispatch,
            "install cost      : {:.3f} units (${:,.0f})".format(
                self.install_cost_units, self.install_cost_units * DOLLARS_PER_UNIT
            ),
            "generation cost   : %.3f units" % self.generation_cost_units,
            "total cost        : {:.3f} units (${:,.0f})".format(
                self.total_cost_units, self.total_cost_dollars
            ),
            "cost reduction    : %.1f%%" % (100 * self.cost_reduction),
        ]
        if self.flags:
            lines.append("flags             : %s" % "; ".join(self.flags))
        return "\n".join(lines)


def postprocess_solution(x, net, layout, objective):
    """Round the indicators and report placement, dispatch, and costs.

    objective is F(x), reported as given; the costs are the rounded plan's.
    Indicators within ROUND_TOL of {0, 1} are snapped; any other value marks
    the report as an unrounded relaxation.  The relative cost reduction is
    reported against BASELINE_COST.
    """
    ppv, pg, xb, _, _ = layout.unpack(x)
    rounded = np.round(xb)
    fractional = bool(np.any(np.abs(xb - rounded) > ROUND_TOL))
    flags = ["unrounded relaxation"] if fractional else []
    placement = tuple(int(i) + 1 for i in np.flatnonzero(rounded > 0.5))

    a, b, c = net.cost_a, net.cost_b, net.cost_c
    gen_cost = a * pg * pg + b * pg + c * len(net.generator_buses)
    install = net.pv_unit_cost * float(rounded.sum())
    total_units = install + gen_cost
    penetration = float(ppv.sum() / net.total_demand)
    return PlanReport(
        placement=placement,
        fractional=fractional,
        objective=objective,
        pv_dispatch=ppv,
        generator_dispatch=pg,
        penetration=penetration,
        install_cost_units=install,
        generation_cost_units=gen_cost,
        total_cost_units=total_units,
        total_cost_dollars=total_units * DOLLARS_PER_UNIT,
        baseline_cost_units=BASELINE_COST,
        cost_reduction=1.0 - total_units / BASELINE_COST,
        flags=flags,
    )
