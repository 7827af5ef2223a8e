"""Timed and traced passes over a workload, with the checks of every output.

A pass sets up every instance of the workload and runs the three solvers on
each.  Untraced passes give the end-to-end metrics; traced passes give the
per-layer metrics, and each is paired with an untraced pass whose outputs it
must reproduce bit for bit.
"""

import hashlib
import json
import pathlib
import re
import statistics

import numpy as np

from dcprox import cs
from dcprox.linop import SpectralNormError

import layers
from workloads import SOLVE_SPANS, SOLVERS, solve

clock = layers.clock
REFERENCE = pathlib.Path(__file__).with_name("reference.json")

# A solve matches its reference when the status is equal, the iteration
# count is within ITER_TOL (at least ITER_TOL_MIN) and objective and
# ground-truth error agree to OBJ_RTOL and ERR_RTOL.  The tolerances admit
# last-bit differences between BLAS kernels on other CPUs; on one machine
# every solve matches exactly, which the output reports.
ITER_TOL, ITER_TOL_MIN = 0.01, 2
OBJ_RTOL = 1e-9
ERR_RTOL = 1e-6

#: the Lyapunov certificate of dcprox.bench._check_solver_suite
LYAPUNOV_RTOL = 1e-10

#: set-up samples per run: the passes, then set-up alone until this many
MIN_SETUPS = 3

#: what reference.json holds per (case, seed, solver) of a workload
REFERENCE_FIELDS = ("status", "iterations", "objective", "gt_error")


def load_reference(workload):
    with open(REFERENCE) as fh:
        solves = json.load(fh)["solves"].get(workload, {})
    return {k: dict(zip(REFERENCE_FIELDS, v)) for k, v in solves.items()}


def ref_key(case, seed, solver):
    return "%d:%d:%s" % (case, seed, solver)


def _failure(workload, case, seed, solver, exc, iteration=None):
    if iteration is None:
        found = re.search(r"at iteration (\d+)", str(exc))
        iteration = int(found.group(1)) if found else None
    return {"workload": workload, "case": case, "seed": seed,
            "solver": solver, "iteration": iteration, "exception": repr(exc)}


def _digest(rep):
    """Hash of a solve's output: x, counts, objective and per-iteration trace."""
    h = hashlib.blake2b()
    h.update(np.ascontiguousarray(rep.x).tobytes())
    h.update(repr((rep.iterations, rep.status, rep.objective,
                   rep.max_lyapunov_violation)).encode())
    for seq in (rep.trace.objective, rep.trace.step_norms, rep.trace.lyapunov):
        h.update(np.asarray(seq, dtype=float).tobytes())
    for x in rep.trace.iterates or ():
        h.update(x.tobytes())
    return h.hexdigest()


def check(workload, case, seed, solver, rep, f0, x_g, reference):
    """Outcome of one solve; outcome["failure"] is None when every check holds."""
    out = {"case": case, "seed": seed, "solver": solver,
           "iterations": rep.iterations, "status": rep.status,
           "objective": rep.objective, "gt_error": None,
           "referenced": False, "exact": False, "failure": None}
    problems = []
    if not (np.all(np.isfinite(rep.x)) and np.isfinite(rep.objective)):
        problems.append("non-finite output")
    else:
        out["gt_error"] = cs.ground_truth_error(rep.x, x_g)
        if not rep.objective <= f0:
            problems.append("objective %.17g above F(x0) %.17g"
                            % (rep.objective, f0))
    if solver == "proposed" and not (
            rep.max_lyapunov_violation <= LYAPUNOV_RTOL * (1 + abs(f0))):
        problems.append("Lyapunov violation %.3e"
                        % rep.max_lyapunov_violation)
    ref = reference.get(ref_key(case, seed, solver))
    if ref is not None and out["gt_error"] is not None:
        out["referenced"] = True
        iter_tol = max(ITER_TOL_MIN, ITER_TOL * ref["iterations"])
        if rep.status != ref["status"]:
            problems.append("status %s, reference %s" % (rep.status, ref["status"]))
        if abs(rep.iterations - ref["iterations"]) > iter_tol:
            problems.append("iterations %d, reference %d"
                            % (rep.iterations, ref["iterations"]))
        if abs(rep.objective - ref["objective"]) > OBJ_RTOL * abs(ref["objective"]):
            problems.append("objective %.17g, reference %.17g"
                            % (rep.objective, ref["objective"]))
        if abs(out["gt_error"] - ref["gt_error"]) > ERR_RTOL * ref["gt_error"]:
            problems.append("ground-truth error %.17g, reference %.17g"
                            % (out["gt_error"], ref["gt_error"]))
        out["exact"] = (rep.status == ref["status"]
                        and rep.iterations == ref["iterations"]
                        and rep.objective == ref["objective"]
                        and out["gt_error"] == ref["gt_error"])
    if problems:
        out["failure"] = _failure(workload, case, seed, solver,
                                  "; ".join(problems), rep.iterations)
    return out


def run_instance(wl, case, seed, tracer, reference, digests=False):
    """Set up one instance and run every solver on it.

    Returns (setup seconds or None if setup raised, outcomes).  Only the
    instance span is timed; the checks run after it.
    """
    reports = []
    with tracer.span("instance", case=case, seed=seed):
        t0 = clock()
        try:
            with tracer.span("cs.make_instance"):
                inst = cs.make_instance(case, seed, wl.gamma, wl.loss_kind)
            with tracer.span("cs.build_cs_problem"):
                spec = cs.build_cs_problem(inst)
        except Exception as exc:
            return None, [
                {"case": case, "seed": seed, "solver": s, "solve_s": 0.0,
                 "iterations": 0, "failure": _failure(wl.name, case, seed, s, exc)}
                for s in SOLVERS]
        setup_s = clock() - t0
        for solver in SOLVERS:
            with tracer.span(SOLVE_SPANS[solver], solver=solver,
                             m=inst.m, d=inst.d, iterations=0,
                             status="failed") as span:
                run_spec = tracer.instrument(spec, span)
                t = clock()
                try:
                    rep = solve(run_spec, solver, wl.max_iter)
                except Exception as exc:
                    rep = exc
                dt = clock() - t
                if not isinstance(rep, Exception):
                    span["iterations"] = rep.iterations
                    span["status"] = rep.status
            reports.append((solver, rep, dt))

    f0 = spec.objective(np.zeros(inst.d))
    outcomes = []
    for solver, rep, dt in reports:
        if isinstance(rep, Exception):
            out = {"case": case, "seed": seed, "solver": solver, "iterations": 0,
                   "failure": _failure(wl.name, case, seed, solver, rep)}
        else:
            out = check(wl.name, case, seed, solver, rep, f0, inst.x_g, reference)
            if digests:
                out["digest"] = _digest(rep)
        out["solve_s"] = dt
        outcomes.append(out)
    return setup_s, outcomes


def screen(wl, seed):
    """Untimed set-up of each instance of run seed `seed`.

    Returns (instances, skipped).  An instance whose norm bound raises
    SpectralNormError is skipped, and its record goes to `skipped`: power
    iteration in linop.spectral_norm stops at 5000 iterations, which is too
    few when the top two singular values of a scaled Gaussian matrix lie
    close together.  Least-squares case 2 meets this on instance seed 419,
    one of its first 600 seeds.  It is a known defect of the set-up, to be
    removed by taking the bound from the rank-check SVD; until then a run
    reports what it skipped.  Every other exception is left to the passes,
    which count it as failed.  Screening also warms up the set-up path.
    """
    instances, skipped = [], []
    for case, iseed in wl.instances(seed):
        try:
            cs.build_cs_problem(cs.make_instance(case, iseed, wl.gamma, wl.loss_kind))
        except SpectralNormError as exc:
            skipped.append({"workload": wl.name, "case": case, "seed": iseed,
                            "exception": repr(exc)})
            continue
        except Exception:
            pass
        instances.append((case, iseed))
    return instances, skipped


def run_pass(wl, instances, tracer, reference, digests=False):
    """Set up and solve every instance of the workload once."""
    outcomes, setups = [], []
    t0 = clock()
    with tracer.span("workload", workload=wl.name,
                     instances=len(instances)), tracer.patched():
        for case, iseed in instances:
            s, outs = run_instance(wl, case, iseed, tracer, reference, digests)
            setups.append(s or 0.0)
            outcomes.extend(outs)
    return {"wall_s": clock() - t0, "setups": setups, "outcomes": outcomes}


def setup_only(wl, instances):
    """Seconds to set up each instance of the workload, as a pass does."""
    setups = []
    for case, iseed in instances:
        t0 = clock()
        try:
            cs.build_cs_problem(cs.make_instance(case, iseed, wl.gamma, wl.loss_kind))
            setups.append(clock() - t0)
        except Exception:
            setups.append(0.0)  # the pass that met it counts it as failed
    return setups


def _sum_of_medians(samples):
    """Sum over items of the median over repeats; samples[repeat][item]."""
    return float(sum(statistics.median(col) for col in zip(*samples)))


def measure(wl, instances, seconds):
    """Untraced passes until `seconds` have passed (at least one).

    Each instance's set-up and each solve is timed in every pass; the
    metrics sum, over instances and solves, the median over passes, so
    that a stall of the machine during one solve does not move them.
    Set-up is repeated on its own until it has MIN_SETUPS samples.
    wall_s is the median wall time of a whole pass.
    """
    reference = load_reference(wl.name)
    passes = []
    t_start = clock()
    while not passes or clock() - t_start < seconds:
        passes.append(run_pass(wl, instances, layers.NullTracer(), reference))
    setups = [p["setups"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(setup_only(wl, instances))

    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": _sum_of_medians(setups),
    }
    for solver in SOLVERS:
        metrics["solve_s." + solver] = _sum_of_medians(
            [[o["solve_s"] for o in p["outcomes"] if o["solver"] == solver]
             for p in passes])
    metrics["solve_s"] = sum(metrics["solve_s." + s] for s in SOLVERS)
    good = [o for o in passes[0]["outcomes"] if o["failure"] is None]
    metrics["iters_per_s"] = sum(o["iterations"] for o in good) / metrics["solve_s"]
    metrics["gt_error_mean"] = float(np.mean(
        [o["gt_error"] for o in good if o["solver"] == "proposed"] or [np.nan]))
    return {"passes": len(passes), "metrics": metrics,
            "outcomes": [o for p in passes for o in p["outcomes"]], "spans": None}


def measure_traced(wl, instances, seconds):
    """Pairs of an untraced and a traced pass until `seconds` have passed.

    Per-layer metrics are medians over the traced passes; counts repeat
    exactly.  trace.overhead_s is the median traced wall time minus the
    median untraced one.  Any solve whose traced output differs from its
    untraced twin counts as failed.
    """
    reference = load_reference(wl.name)
    plain, traced, tracers = [], [], []
    t_start = clock()
    while not traced or clock() - t_start < seconds:
        # alternate which of the pair runs first, so order does not bias
        # the overhead
        tracers.append(layers.Tracer())
        for tracer in ((layers.NullTracer(), tracers[-1]) if len(traced) % 2
                       else (tracers[-1], layers.NullTracer())):
            (traced if tracer.enabled else plain).append(
                run_pass(wl, instances, tracer, reference, digests=True))

    for p, t in zip(plain, traced):
        for a, b in zip(p["outcomes"], t["outcomes"]):
            if b["failure"] is None and a.get("digest") != b.get("digest"):
                b["failure"] = _failure(
                    wl.name, b["case"], b["seed"], b["solver"],
                    "traced output differs from the untraced one",
                    b["iterations"])

    per_pass = [layers.layer_metrics(tr.spans) for tr in tracers]
    metrics = {k: v if isinstance(v, int)  # counts repeat exactly
               else statistics.median(m[k] for m in per_pass)
               for k, v in per_pass[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    outcomes = [o for p in plain + traced for o in p["outcomes"]]
    return {"passes": len(traced), "metrics": metrics, "outcomes": outcomes,
            "spans": tracers[-1].spans}
