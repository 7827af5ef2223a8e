"""One table of entry checks: each row of ROWS calls an entry point with the
base arguments of BASES, one replaced by a bad value, and expects the
exception and the whole message.  counts and numbers give an argument the
bad values of problem.check_count and problem.check_number, whose messages
no other test file spells: those expect a row's message through rejection.
"""

import dataclasses
import functools
import math
import pathlib
import re
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

import dcprox
from dcprox import bench, cs, opf
from dcprox.baselines import BaselineParams, gppa_solve, pdcae_solve
from dcprox.linop import LinearMap
from dcprox.oracles import L1L2, Loss, norm_subgradient, soft_threshold
from dcprox.polyhedron import (
    InfeasiblePolyhedronError, PolyhedralSet, PolyhedronProjector, ProjectionError)
from dcprox.problem import (
    IterateTrace, ProblemSpec, SolveReport, SolverParams, check_number,
    tau_upper_bound)
from dcprox.psg import lyapunov_c, solve, tail_linear_fit

NAN, INF = math.nan, math.inf


class Row(NamedTuple):
    entry: object
    arg: str  # "inst.gamma" is the gamma field of the argument inst
    bad: object  # a functools.partial is called when the row runs
    message: str
    exc: type = ValueError


def count_error(name, value, least=1):
    return "%s must be an integer >= %d: %r" % (name, least, value)


def number_error(name, value, positive=False):
    return "%s must be finite and %s 0: %r" % (name, ">" if positive else ">=", value)


def counts(entry, arg, least=1, name=None, wrap=lambda v: v, extra=()):
    """Rows of check_count's bad values and extra, made into arg by wrap."""
    return [Row(entry, arg, wrap(v), count_error(name or arg, v, least))
            for v in (least - 1, 2.5, True, "1") + extra]


def numbers(entry, arg, positive=False, name=None, extra=()):
    """Rows of an argument (or a field of one) that check_number checks."""
    return [Row(entry, arg, v, number_error(name or arg.split(".")[-1], v, positive))
            for v in (NAN, INF, -INF, True, 0.0 if positive else -1.0) + extra]


def spec_kwargs(**kw):
    """Arguments of a ProblemSpec with h = ||z||^2 / 2 on R^3."""
    return {"prox_fC": lambda w, tau: w, "grad_h": lambda z: z,
            "subgrad_g": np.zeros_like, "value_f": lambda x: 0.0,
            "value_h": lambda z: 0.5 * float(z @ z), "value_g": lambda x: 0.0,
            "map_A": LinearMap.identity(3), "lipschitz_ell": 1.0, "norm_A": 1.0, **kw}


def l1l2_record(dim):
    """An L1-L2 record on the identity map of R^dim."""
    return L1L2(0.1, Loss("least-squares", np.zeros(dim)), LinearMap.identity(dim))


def affine_spec():
    """h(z) = <b, z> with b = (1, -2, 0.5) and C = [-1, 1]^3: ell = 0, so the
    proposed step rule is finite and the baselines' 1 / (ell ||A||^2) is not."""
    b = np.array([1.0, -2.0, 0.5])
    return ProblemSpec(**spec_kwargs(
        prox_fC=lambda w, tau: np.clip(w, -1.0, 1.0), grad_h=lambda z: b,
        value_h=lambda z: float(b @ z), lipschitz_ell=0.0))


def solve_args(params, **kw):
    return lambda: {"spec": cs.build_cs_problem(cs.make_instance(5, 0, 0.1, "least-squares")),
                    "x0": np.zeros(640), "params": params(max_iter=3, **kw)}


def loss_args():
    return {"self": Loss("least-squares", np.zeros(2)), "z": np.zeros(2)}


SMALL = ("gaussian", 20, 50, 4)
CHECK_POSITIVE = functools.partial(check_number, positive=True)

#: entry point -> function giving base arguments that it accepts
BASES = {
    check_number: lambda: {"name": "x", "value": 1.0},
    CHECK_POSITIVE: lambda: {"name": "x", "value": 1.0},
    SolverParams: dict,
    BaselineParams: lambda: {"step_tau": 0.1, "extrapolation": True},
    ProblemSpec: lambda: spec_kwargs(map_A=LinearMap.from_matrix(np.eye(3))),
    tau_upper_bound: lambda: {"params": SolverParams(), "spec": ProblemSpec(
        **spec_kwargs(lipschitz_ell=0.0, norm_A=1e10))},
    LinearMap: lambda: {"apply": np.copy, "adjoint": np.copy, "dim_in": 3, "dim_out": 2},
    LinearMap.from_matrix: lambda: {"A": np.ones((2, 3))},
    LinearMap.identity: lambda: {"dim": 3},
    PolyhedralSet: lambda: {"dim": 2, "E": [[1.0, 1.0]], "e": [0.0], "G": [[1.0, -1.0]],
                            "g": [1.0], "lo": -np.ones(2), "hi": np.ones(2)},
    PolyhedronProjector: lambda: {"set_": PolyhedralSet(2)},
    PolyhedronProjector.project: lambda: {"w": np.zeros(3),
                                          "self": PolyhedronProjector(PolyhedralSet(3))},
    Loss: lambda: {"kind": "least-squares", "b": np.zeros(2)},
    Loss.value: loss_args,
    Loss.grad: loss_args,
    soft_threshold: lambda: {"w": np.ones(2), "t": 0.5},
    solve: solve_args(SolverParams),
    gppa_solve: solve_args(BaselineParams, step_tau=0.5),
    pdcae_solve: solve_args(BaselineParams, step_tau=0.5),
    cs.gen_gaussian: lambda: {"m": 5, "d": 10, "seed": 0, "mode": "scaled"},
    cs.gen_dct: lambda: {"m": 12, "d": 32, "seed": 3},
    cs.gen_ground_truth: lambda: {"d": 10, "s": 3, "seed": 0},
    cs.ground_truth_error: lambda: {"x": np.zeros(2), "x_g": np.ones(2)},
    cs.make_instance: lambda: dict(case=SMALL, seed=0, gamma=0.1, loss_kind="least-squares"),
    cs.build_cs_problem: lambda: {"inst": cs.make_instance(SMALL, 0, 0.1, "least-squares")},
    opf.load_network: dict,
    opf.build_dcopf: lambda: {"net": opf.load_network()},
    bench.SweepConfig: dict,
    bench.OPFConfig: lambda: {"out_json": "plan.json"},
    bench._solve_cell: lambda: dict(spec=affine_spec(), x0=np.zeros(3), solver="proposed",
                                    max_iter=100),
}

CASE_IDS = sorted(cs.CASES)
DENOMINATOR = "the step-size rule's denominator"

ROWS = [
    *numbers(check_number, "value", name="x",
             extra=(-1e-300, False, np.True_, "1", 1j, None, np.array([1.0, 2.0]))),
    *numbers(CHECK_POSITIVE, "value", positive=True, name="x"),
    *[row for cls in (SolverParams, BaselineParams) for row in (
        *counts(cls, "max_iter", extra=(10.0,)),
        *counts(cls, "restart_period", extra=(-1, 7.5)),
        *numbers(cls, "stop_rel_tol", extra=(-1e-8,)))],
    *numbers(SolverParams, "lambda_bar", extra=(-0.1,)),
    *numbers(SolverParams, "mu_bar", extra=(-1e-3,)),
    *numbers(SolverParams, "delta", positive=True),
    *numbers(BaselineParams, "step_tau", positive=True, extra=(-0.1,)),
    *numbers(ProblemSpec, "lipschitz_ell"),
    *numbers(ProblemSpec, "weak_convexity_beta"),
    *numbers(ProblemSpec, "norm_A"),
    # norm_A**2 overflows from 2**512 on
    *[Row(ProblemSpec, "norm_A", v, number_error("norm_A * norm_A", INF))
      for v in (1e200, 2.0**512)],
    Row(ProblemSpec, "l1l2", functools.partial(l1l2_record, 4),
        "l1l2 map shape (4, 4) does not match map_A (3, 3)"),
    # the base map_A holds its own copy of the identity matrix
    Row(ProblemSpec, "l1l2", L1L2(0.1, Loss("least-squares", np.zeros(3)),
                                  LinearMap.from_matrix(np.eye(3))),
        "l1l2 map holds another matrix than map_A"),
    # no SolverParams gives a zero denominator, so a namespace stands in
    Row(tau_upper_bound, "params", SimpleNamespace(delta=0.0, lambda_bar=0.0, mu_bar=0.0),
        number_error(DENOMINATOR, 0.0, True)),
    Row(tau_upper_bound, "spec.lipschitz_ell", 1e300, number_error(DENOMINATOR, INF, True)),
    *counts(LinearMap, "dim_in"),
    *counts(LinearMap, "dim_out"),
    *counts(LinearMap.identity, "dim", name="dim_in"),
    Row(LinearMap.from_matrix, "A", np.ones(3), "expected a 2-D array"),
    *counts(PolyhedralSet, "dim", extra=(-1,)),
    Row(PolyhedralSet, "G", np.ones((1, 3)), "inconsistent constraint dimensions"),
    Row(PolyhedralSet, "hi", [0.0, -2.0], "lo must be <= hi componentwise"),
    Row(PolyhedralSet, "lo", [NAN, 0.0], "lo must be <= hi componentwise"),
    Row(PolyhedralSet, "lo", np.zeros(3), "box bounds must have length dim"),
    *[Row(PolyhedralSet, name, bad, "%s has a non-finite entry" % name) for name, bad in
      (("G", [[NAN, 1.0]]), ("g", [NAN]), ("E", [[INF, 1.0]]), ("e", [NAN]))],
    *numbers(PolyhedronProjector, "tol", positive=True),
    *[Row(PolyhedronProjector.project, "w", w, "w has shape %s, not (3,)" % (np.shape(w),))
      for w in (5.0, np.ones(4), np.ones((1, 3)))],
    Row(Loss, "kind", "huber", "unknown loss kind 'huber'"),
    *[Row(method, arg, bad, "dimension mismatch") for method in (Loss.value, Loss.grad)
      for arg, bad in (("z", np.zeros(3)),
                       ("self", functools.partial(Loss, "lorentzian", np.zeros(3))))],
    *[Row(soft_threshold, "t", t, "threshold must be >= 0: %r" % t) for t in (-1e-3, NAN, -INF)],
    *[row for entry in (solve, gppa_solve, pdcae_solve) for row in (
        *[Row(entry, "x0", x0, "x0 has shape %s, not (640,)" % (x0.shape,))
          for x0 in (np.zeros(641), np.zeros(639), np.float64(0.0), np.zeros((1, 640)))],
        Row(entry, "spec.is_feasible", lambda x: False, "starting point is infeasible"))],
    Row(cs.gen_gaussian, "m", 20, "need m <= d"),
    *[Row(cs.gen_gaussian, "mode", v, "unknown mode %r" % v) for v in ("raw", "banana")],
    Row(cs.gen_dct, "m", 33, "need m <= d"),
    *[Row(cs.gen_ground_truth, "s", s, "need 1 <= s <= d") for s in (0, 11)],
    Row(cs.ground_truth_error, "x_g", np.zeros(2), "ground truth must be nonzero"),
    *counts(cs.make_instance, "case", extra=(1.0,)),
    Row(cs.make_instance, "case", 9, "unknown case id 9 (known: %s)" % CASE_IDS),
    Row(cs.make_instance, "case", ("fourier", 20, 50, 4), "unknown matrix kind 'fourier'"),
    *counts(cs.make_instance, "case", name="m", wrap=lambda v: ("gaussian", v, 50, 4)),
    *counts(cs.make_instance, "case", name="d", wrap=lambda v: ("gaussian", 20, v, 4)),
    *counts(cs.make_instance, "case", name="s", wrap=lambda v: ("gaussian", 20, 50, v)),
    # m > d too: a draw before the check of s would fail on gen_gaussian's m <= d
    Row(cs.make_instance, "case", ("gaussian", 60, 50, 51), "need 1 <= s <= d"),
    *[Row(cs.make_instance, "case", c, "case must be a (kind, m, d, s) tuple: %r" % (c,))
      for c in (SMALL[:3], SMALL + (1,))],
    *counts(cs.make_instance, "seed", least=0),
    *numbers(cs.make_instance, "gamma", positive=True, extra=("x",)),
    Row(cs.make_instance, "loss_kind", "lorentz", "unknown loss kind 'lorentz'"),
    *numbers(cs.build_cs_problem, "inst.gamma", positive=True, extra=(-0.1,)),
    Row(opf.load_network, "data_dir", "no-such-dir", "malformed network files: [Errno 2] "
        "No such file or directory: 'no-such-dir/params.csv'", opf.NetworkLoadError),
    *numbers(opf.build_dcopf, "net.gamma", positive=True, extra=(-1.0,)),
    *counts(bench.SweepConfig, "n_seeds", extra=(1.5,)),
    *counts(bench.SweepConfig, "base_seed", least=0, extra=(0.5,)),
    *[Row(bench.SweepConfig, "cases", (v,), count_error("case id in cases", v))
      for v in (1.0, True)],
    Row(bench.SweepConfig, "cases", (1, 9), "unimplemented cases: [9] (known: %s)" % CASE_IDS),
    Row(bench.SweepConfig, "cases", (), "cases is empty: ()"),
    Row(bench.SweepConfig, "cases", (1, 1), "cases repeats 1"),
    Row(bench.SweepConfig, "loss_kind", "lorentz",
        "unimplemented loss_kind: ['lorentz'] (known: ['least-squares', 'lorentzian'])"),
    *counts(bench.OPFConfig, "opf_starts", extra=(1.5,)),
    *counts(bench.OPFConfig, "base_seed", least=0, extra=(0.5,)),
    *[row for cls in (bench.SweepConfig, bench.OPFConfig) for row in (
        Row(cls, "solvers", (), "solvers is empty: ()"),
        Row(cls, "solvers", ("proposed", "gppa", "proposed"), "solvers repeats 'proposed'"),
        Row(cls, "solvers", ("admm",),
            "unimplemented solvers: ['admm'] (known: %s)" % list(bench.SOLVERS)))],
    # the plan report is the best proposed start
    Row(bench.OPFConfig, "solvers", ("gppa", "pdcae"), "out_json needs 'proposed' in solvers"),
    *[Row(bench._solve_cell, "solver", s,
          number_error("ell ||A||^2 of the baseline step", 0.0, True)) for s in ("gppa", "pdcae")],
]

#: (entry point, argument, value) that must be accepted, besides the bases
ACCEPTED = [
    *[(check_number, "value", v) for v in (0, 0.0, 2.5, np.float64(1e300), np.int64(3))],
    (CHECK_POSITIVE, "value", 1e-300),
    *[(cls, arg, v) for cls in (SolverParams, BaselineParams) for arg, v in (
        ("restart_period", None), ("max_iter", np.int64(10)), ("restart_period", np.int32(7)))],
    (ProblemSpec, "l1l2", functools.partial(l1l2_record, 3)),
    (cs.make_instance, "seed", np.int64(3)),
]

#: entry points that need rows besides the callables of dcprox.__all__
REQUIRED = [bench.SweepConfig, bench.OPFConfig, cs.make_instance, cs.build_cs_problem,
            opf.build_dcopf, opf.load_network]
NO_CHECKED_ARGUMENT = [IterateTrace, SolveReport, ProjectionError, InfeasiblePolyhedronError,
                       norm_subgradient, lyapunov_c, tail_linear_fit]


def show(value):
    if value is CHECK_POSITIVE:
        return "check_number(positive=True)"
    if isinstance(value, np.ndarray):
        return "array%s" % (value.shape,)
    text = getattr(value, "__qualname__", repr(value))
    return text if len(text) <= 40 else type(value).__name__


def call(entry, arg=None, value=None):
    """entry called with its base arguments, arg replaced by value."""
    kwargs = BASES[entry]()
    if isinstance(value, functools.partial):
        value = value()
    if arg is not None:
        name, _, field = arg.partition(".")
        kwargs[name] = dataclasses.replace(kwargs[name], **{field: value}) if field else value
    return entry(**kwargs)


def raises(row):
    return pytest.raises(row.exc, match="^%s$" % re.escape(row.message))


def rejection(entry, arg, bad):
    """pytest.raises expecting the row of entry, arg and bad (by repr: 1 is not True)."""
    (row,) = [r for r in ROWS if (r.entry, r.arg, repr(r.bad)) == (entry, arg, repr(bad))]
    return raises(row)


@pytest.mark.parametrize("row", ROWS, ids=["%s-%s=%s" % (show(r.entry), r.arg, show(r.bad))
                                           for r in ROWS])
def test_entry_check(row):
    with raises(row):
        call(row.entry, row.arg, row.bad)


@pytest.mark.parametrize("entry, arg, value", [(e, None, None) for e in BASES] + ACCEPTED,
                         ids=show)
def test_accepted(entry, arg, value):
    call(entry, arg, value)


def test_every_entry_point_is_in_the_table_or_has_no_checked_argument():
    tabled = {getattr(r.entry, "func", r.entry) for r in ROWS}
    exported = [getattr(dcprox, name) for name in dcprox.__all__]
    assert [show(e) for e in [*filter(callable, exported), *REQUIRED]
            if e not in tabled and e not in NO_CHECKED_ARGUMENT] == []
    assert [show(e) for e in NO_CHECKED_ARGUMENT if e in tabled] == []
    assert [show(e) for e in BASES if all(r.entry != e for r in ROWS)] == []


def test_only_this_file_spells_the_rule_messages():
    here = pathlib.Path(__file__)
    assert [p.name for p in sorted(here.parent.glob("*.py")) if p != here and re.search(
        "must be an integer >=|must be finite and", p.read_text())] == []


def test_rows_test_aliases_do_not_grow():
    # each row runs once, as test_entry_check[...]: no module binds a test to
    # another callable, which would rerun rows under an older name
    aliases = [name for p in sorted(pathlib.Path(__file__).parent.glob("*.py"))
               for name in re.findall(r"(?m)^(test_\w+) = ", p.read_text())]
    assert aliases == []
