"""The shared iteration kernel against the loops it replaced, and its cost."""

import dataclasses
import warnings

import numpy as np
import pytest

import legacy_solvers
from dcprox import bench, cs, oracles, psg
from dcprox.baselines import gppa_solve, pdcae_solve
from dcprox.linop import LinearMap, gram_spectrum
from dcprox.oracles import L1L2, Loss
from dcprox.problem import tau_upper_bound
from dcprox.psg import solve


def sweep_params(spec, solver, max_iter, stop_rel_tol=1e-8, keep_iterates=True):
    """bench.solver_params, keeping every iterate by default."""
    return dataclasses.replace(bench.solver_params(spec, solver, max_iter),
                               stop_rel_tol=stop_rel_tol, keep_iterates=keep_iterates)


def make_problem(seed=0):
    """A small least-squares instance and its problem."""
    inst = cs.make_instance(("gaussian", 40, 120, 6), seed, 0.1, "least-squares")
    return inst, cs.build_cs_problem(inst)


def run_new(spec, solver, params, x0=None):
    x0 = np.zeros(spec.map_A.dim_in) if x0 is None else x0
    fn = {"proposed": solve, "gppa": gppa_solve, "pdcae": pdcae_solve}[solver]
    return fn(spec, x0, params)


def schedule(spec, solver, params):
    """(tau, lams, mus) as solve, gppa_solve and pdcae_solve hand them to
    psg.iterate: mus is the momentum of the prox point."""
    if solver == "gppa":
        return params.step_tau, [0.0], [0.0]
    ratios = psg.momentum_table(params.restart_period, params.max_iter)
    if solver == "pdcae":
        return params.step_tau, ratios, ratios
    tau = tau_upper_bound(spec, params)
    return (tau, [params.lambda_bar * r for r in ratios],
            [params.mu_bar * tau * r for r in ratios])


def assert_schedule_matches_legacy(spec, solver, params, trace, iterations):
    """The momentum tables, as iteration n reads them (entry n % period),
    equal the lambda, prox-point momentum and tau the legacy loop took from
    its per-iteration schedule; the legacy baseline loop takes its prox at
    the gradient point y, so its prox momentum is its lambda."""
    tau, lams, mus = schedule(spec, solver, params)
    used = [(lams[n % len(lams)], mus[n % len(mus)], tau) for n in range(iterations)]
    prox = trace.mus if solver == "proposed" else trace.lambdas
    assert used == list(zip(trace.lambdas[1:], prox[1:], trace.taus[1:])), solver


def assert_iterates_match(new, trace, solver):
    assert len(new.trace.iterates) == len(trace.iterates)
    worst = max(float(np.max(np.abs(a - b)))
                for a, b in zip(new.trace.iterates, trace.iterates))
    assert worst <= 1e-12, (solver, worst)


def run_legacy(spec, solver, params):
    x0 = np.zeros(spec.map_A.dim_in)
    if solver == "proposed":
        return legacy_solvers.psg_solve(spec, x0, params)
    return legacy_solvers.baseline_solve(spec, x0, params, solver == "pdcae")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("loss", ["least-squares", "lorentzian"])
@pytest.mark.parametrize("case", [1, 5])
def test_kernel_matches_legacy_loops(case, loss, seed):
    gamma, max_iter = bench.LOSS_DEFAULTS[loss]
    spec = cs.build_cs_problem(cs.make_instance(case, seed, gamma, loss))
    for solver in ("proposed", "gppa", "pdcae"):
        params = sweep_params(spec, solver, max_iter)
        new = run_new(spec, solver, params)
        status, iterations, trace, c, violation = run_legacy(spec, solver, params)
        assert (new.status, new.iterations) == (status, iterations)
        # the kernel's Lyapunov values take the legacy loop's weight c
        t = new.trace
        assert t.lyapunov == t.objective[:1] + [
            f + c * s * s for f, s in zip(t.objective[1:], t.step_norms[1:])]
        assert_schedule_matches_legacy(spec, solver, params, trace, iterations)
        assert len(trace.iterates) == iterations + 1
        assert_iterates_match(new, trace, solver)
        if solver == "gppa":
            assert all(np.array_equal(a, b)
                       for a, b in zip(new.trace.iterates, trace.iterates))
            assert new.trace.objective == trace.objective
            assert new.max_lyapunov_violation == violation


@pytest.mark.parametrize("solver", ["proposed", "gppa", "pdcae"])
def test_solve_cell_runs_with_solver_params(solver):
    # so the legacy-loop tests above run on the parameters every sweep uses
    _, spec = make_problem()
    cell = bench._solve_cell(spec, np.zeros(spec.map_A.dim_in), solver, 50)
    rep = run_new(spec, solver, bench.solver_params(spec, solver, 50))
    assert np.array_equal(cell.x, rep.x)
    assert (cell.iterations, cell.objective) == (rep.iterations, rep.objective)


@pytest.mark.parametrize("restart_period", [None, 7, 60])
@pytest.mark.parametrize("solver", ["proposed", "pdcae"])
def test_momentum_table_matches_per_iteration_schedule(solver, restart_period):
    # the table covers one restart period (7 wraps, 60 outlasts the run) or,
    # with no restart, every iteration
    _, spec = make_problem(3)
    params = dataclasses.replace(sweep_params(spec, solver, 40, stop_rel_tol=0.0),
                                 restart_period=restart_period)
    new = run_new(spec, solver, params)
    _, iterations, trace, _, _ = run_legacy(spec, solver, params)
    assert new.iterations == iterations == 40
    assert_schedule_matches_legacy(spec, solver, params, trace, iterations)
    assert_iterates_match(new, trace, solver)


def pass_through(spec, name="value_f"):
    """spec with its oracle name wrapped, which makes psg.iterate run its
    generic loop, and the list that gets one entry per call of the wrapper."""
    calls, fn = [], getattr(spec, name)

    def oracle(*args):
        calls.append(None)
        return fn(*args)

    return dataclasses.replace(spec, **{name: oracle}), calls


def fused_runs(monkeypatch):
    """The list of specs that psg._l1l2_loop runs on from now on."""
    runs, loop = [], psg._l1l2_loop

    def spy(spec, *args):
        runs.append(spec)
        return loop(spec, *args)

    monkeypatch.setattr(psg, "_l1l2_loop", spy)
    return runs


class Instrumented(L1L2):
    """A copy of an L1L2 record that counts each product's calls, keeps each
    column product in columns as (iteration, psi, cols) and, with fail =
    (name, k), makes call k of product name raise ArithmeticError.  Its map
    keeps the original matrix.  The iteration is the applies so far minus
    one: F(x_0) takes the first apply, each iteration one after its A*."""

    def __init__(self, rec, fail=None):
        self.counts = dict.fromkeys(("apply", "adjoint", "adjoint_columns"), 0)
        self.columns, self.fail, A = [], fail, rec.map_A
        super().__init__(rec.gamma, rec.loss, LinearMap(
            self.counted("apply", A.apply), self.counted("adjoint", A.adjoint),
            A.dim_in, A.dim_out, A.matrix))

    def counted(self, name, product):
        def call(*args):
            self.counts[name] += 1
            if self.fail == (name, self.counts[name]):
                raise ArithmeticError("injected at call %d of %s" % self.fail[::-1])
            return product(*args)
        return call

    def adjoint_columns(self, y, cols):
        self.columns.append((self.counts["apply"] - 1, y.copy(), cols.copy()))
        return self.counted("adjoint_columns", super().adjoint_columns)(y, cols)


def instrumented(spec, fail=None):
    """spec on an Instrumented copy of its record, whose fields() it takes,
    so that psg._l1l2_loop runs it; the copy is its l1l2."""
    rec = Instrumented(spec.l1l2, fail)
    return dataclasses.replace(spec, **rec.fields(), l1l2=rec)


def both_loops(spec, fail=None):
    """instrumented(spec, fail) and its pass_through twin, one per loop."""
    return instrumented(spec, fail), pass_through(instrumented(spec, fail))[0]


def assert_same_run(got, want):
    """Two reports agree bit for bit, kept iterates included; as bytes, a NaN
    (F of an iterate whose residual overflows) equals the same NaN."""
    assert got.x.tobytes() == want.x.tobytes()
    assert (got.status, got.iterations) == (want.status, want.iterations)
    for field in ("objective", "step_norms", "lyapunov", "iterates"):
        assert (np.array(getattr(got.trace, field) or ()).tobytes()
                == np.array(getattr(want.trace, field) or ()).tobytes()), field
    assert (np.float64(got.max_lyapunov_violation).tobytes()
            == np.float64(want.max_lyapunov_violation).tobytes())


#: (loss, case, seed, cap): the sweep inputs, which all converge, and case 1
#: stopped by the cap at stop_rel_tol = 0
FUSED_INPUTS = [
    *(pytest.param(loss, case, seed, None, id="%s-%d-%d" % (loss, case, seed))
      for loss, case in [("least-squares", 1), ("least-squares", 2), ("least-squares", 5),
                         ("lorentzian", 1), ("lorentzian", 5)] for seed in (0, 1)),
    *(pytest.param(loss, 1, 0, cap, id="%s-1-0-cap%d" % (loss, cap))
      for loss in ("least-squares", "lorentzian") for cap in (1, 2, 65))]


@pytest.mark.parametrize("loss, case, seed, cap", FUSED_INPUTS)
def test_fused_loop_equals_generic_loop(loss, case, seed, cap, monkeypatch):
    # case 2 is above oracles.SCREEN_MIN_ENTRIES, so both loops screen
    gamma, max_iter = bench.LOSS_DEFAULTS[loss]
    spec = cs.build_cs_problem(cs.make_instance(case, seed, gamma, loss))
    generic, _ = pass_through(spec)
    runs = fused_runs(monkeypatch)
    for solver in ("proposed", "gppa", "pdcae"):
        params = (sweep_params(spec, solver, max_iter) if cap is None
                  else sweep_params(spec, solver, cap, stop_rel_tol=0.0))
        got = run_new(spec, solver, params)
        assert cap is None or (got.status, got.iterations) == ("max-iter", cap)
        assert_same_run(got, run_new(generic, solver, params))
    assert len(runs) == 3 and all(run is spec for run in runs)


def draw(rng):
    """A random problem of the differential test, as the values that replay it."""
    d, pick = int(rng.integers(4, 200)), lambda *values: values[rng.integers(len(values))]
    return dict(
        case=(pick("gaussian", "dct"), int(rng.integers(1, d + 1)), d, int(d ** rng.uniform())),
        seed=int(rng.integers(10**6)), gamma=pick(1e-8, 1e-5, 1e-3, 0.03, 0.1, 0.5, 2.0, 50.0),
        loss=pick("least-squares", "lorentzian"), b_scale=pick(0.0, 1e-6, 1.0, 1e6),
        x0=pick("zero", "dense", "sparse"), max_iter=pick(1, 2, 5, 65, 200, 700),
        stop_rel_tol=pick(0.0, 1e-8, 1e-3, 0.5), restart_period=pick(None, 1, 2, 7, 50),
        solver=pick("proposed", "gppa", "pdcae"), lambda_bar=float(rng.uniform(0, 3)),
        mu_bar=float(rng.uniform(0, 1)), step=float(rng.uniform(0.01, 1.9)),
        keep_iterates=pick(False, True), screen=pick(False, True, True),
        fail=pick(None, "apply", "adjoint_columns"), fail_at=int(rng.integers(2, 8)))


def screened_draw(rng):
    """A draw biased to the column path: a least-squares Gaussian problem with
    32 <= d < 200, m from d/4 to d/2 and s <= d/16, x0 = 0, a cap of 200 or
    700, the screen forced, and an injected A* failure on two draws in three."""
    d, pick = int(rng.integers(32, 200)), lambda *values: values[rng.integers(len(values))]
    m, s = int(rng.integers(d // 4, d // 2 + 1)), int(rng.integers(1, d // 16 + 1))
    return dict(draw(rng), case=("gaussian", m, d, s), loss="least-squares",
                gamma=pick(0.03, 0.1, 0.3), b_scale=1.0, x0="zero", max_iter=pick(200, 700),
                stop_rel_tol=pick(0.0, 1e-8), screen=True,
                fail=pick(None, "adjoint_columns", "adjoint"))


def drawn_run(dr, generic, monkeypatch):
    """Draw dr's report on the fused or the generic loop, or the reprs of what it raised
    and of its cause, and its record's product counts; call fail_at of apply (1 is
    F(x_0)'s), adjoint or adjoint_columns raises."""
    monkeypatch.setattr(oracles, "SCREEN_MIN_ENTRIES", 0 if dr["screen"] else np.inf)
    inst = cs.make_instance(dr["case"], dr["seed"], dr["gamma"], dr["loss"])
    spec = instrumented(cs.build_cs_problem(dataclasses.replace(inst, b=inst.b * dr["b_scale"])),
                        dr["fail"] and (dr["fail"], dr["fail_at"]))
    x0 = np.where({"zero": False, "dense": True, "sparse": np.arange(inst.d) % 9 == 0}[dr["x0"]],
                  np.random.default_rng(dr["seed"]).standard_normal(inst.d), 0.0)
    loop = {k: dr[k] for k in ("max_iter", "stop_rel_tol", "restart_period", "keep_iterates")}
    params = dataclasses.replace(bench.solver_params(spec, dr["solver"], 1), **loop, **(
        {"lambda_bar": dr["lambda_bar"], "mu_bar": dr["mu_bar"]} if dr["solver"] == "proposed"
        else {"step_tau": dr["step"] / (spec.lipschitz_ell * spec.norm_A**2)}))
    try:
        with np.errstate(all="ignore"):
            got = run_new(pass_through(spec)[0] if generic else spec, dr["solver"], params, x0)
    except Exception as exc:
        got = repr(exc), repr(exc.__cause__)
    return got, spec.l1l2.counts


def drawn_runs_agree(draws, monkeypatch):
    """Each draw's fused-loop result and product counts, asserting that its
    generic twin gives the same report or failure, and the same counts."""
    results = []
    for i, dr in enumerate(draws):
        (got, counts), (want, twin_counts) = (drawn_run(dr, generic, monkeypatch)
                                              for generic in (False, True))
        try:
            assert counts == twin_counts
            if isinstance(got, tuple):
                assert got == want
            else:
                assert_same_run(got, want)
        except Exception as exc:
            raise AssertionError("draw %d: %r" % (i, dr)) from exc
        results.append((got, counts))
    return results


def test_fused_and_generic_loops_agree_on_drawn_problems(monkeypatch):
    # ROADMAP item 20; drawn_run(draw, generic, monkeypatch) replays a miss
    rng, runs = np.random.default_rng(20), fused_runs(monkeypatch)
    results = drawn_runs_agree([draw(rng) for _ in range(200)], monkeypatch)
    assert len(runs) == 200
    ends = {got[0].split("(")[0] if isinstance(got, tuple) else got.status for got, _ in results}
    assert ends >= {"converged", "max-iter", "ArithmeticError", "RuntimeError"}


def test_fused_and_generic_loops_agree_on_screened_draws(monkeypatch):
    # the column path and injected A* failures, which few of the draws above reach
    rng, runs = np.random.default_rng(21), fused_runs(monkeypatch)
    draws = [screened_draw(rng) for _ in range(60)]
    results = drawn_runs_agree(draws, monkeypatch)
    assert len(runs) == 60
    assert sum(counts["adjoint_columns"] > 0 for _, counts in results) >= 30
    raised = [dr["fail"] for dr, (got, _) in zip(draws, results)
              if isinstance(got, tuple) and got[1].startswith("ArithmeticError")]
    assert min(raised.count("adjoint_columns"), raised.count("adjoint")) >= 10


@pytest.mark.parametrize("name, extra", [
    ("prox_fC", 0), ("grad_h", 0), ("subgrad_g", 0),
    ("value_f", 1), ("value_h", 1), ("value_g", 1)])
def test_a_wrapped_oracle_is_called_every_iteration(name, extra):
    # F(x_0) takes the value oracles once more
    spec, calls = pass_through(make_problem()[1], name)
    for solver in ("proposed", "gppa", "pdcae"):
        calls.clear()
        rep = run_new(spec, solver, sweep_params(spec, solver, 40, stop_rel_tol=0.0))
        assert len(calls) == extra + rep.iterations == extra + 40, solver


@pytest.mark.parametrize("case", [7, 8])
def test_large_dct_cases_smoke(case):
    gamma, _ = bench.LOSS_DEFAULTS["least-squares"]
    spec = cs.build_cs_problem(cs.make_instance(case, 0, gamma, "least-squares"))
    f0 = spec.objective(np.zeros(spec.map_A.dim_in))
    for solver in ("proposed", "gppa", "pdcae"):
        for counted in both_loops(spec):
            rep = run_new(counted, solver, sweep_params(spec, solver, 30, stop_rel_tol=0.0))
            assert rep.iterations == 30
            assert np.all(np.isfinite(rep.x))
            assert rep.objective <= f0
            assert counted.l1l2.counts == {"apply": 1 + 30, "adjoint": 30, "adjoint_columns": 0}


def assert_solves_alike(spec, other, max_iter):
    """Each solver, run on spec and on other with spec's sweep parameters,
    ends with the same status and iteration count, and an objective and an
    x within 1e-12 relative (x in norm).  Returns {solver: (report on spec,
    report on other)}."""
    reports = {}
    for solver in ("proposed", "gppa", "pdcae"):
        params = sweep_params(spec, solver, max_iter, keep_iterates=False)
        got, want = run_new(spec, solver, params), run_new(other, solver, params)
        assert (got.status, got.iterations) == (want.status, want.iterations), solver
        assert abs(got.objective - want.objective) <= 1e-12 * abs(want.objective), solver
        assert (np.linalg.norm(got.x - want.x)
                <= 1e-12 * np.linalg.norm(want.x)), solver
        reports[solver] = got, want
    return reports


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("loss", ["least-squares", "lorentzian"])
@pytest.mark.parametrize("case", [5, 6])
def test_dct_map_solves_like_its_matrix(case, loss, seed):
    gamma, max_iter = bench.LOSS_DEFAULTS[loss]
    spec = cs.build_cs_problem(cs.make_instance(case, seed, gamma, loss))
    dense = dataclasses.replace(
        spec, map_A=LinearMap.from_matrix(spec.map_A.dense()))
    assert_solves_alike(spec, dense, max_iter)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case", [1, 2])
def test_support_products_solve_like_full_products(case, seed):
    gamma, max_iter = bench.LOSS_DEFAULTS["least-squares"]
    spec = cs.build_cs_problem(cs.make_instance(case, seed, gamma, "least-squares"))
    A = spec.map_A.dense()
    full = dataclasses.replace(spec, map_A=LinearMap(
        lambda x: A @ x, lambda y: A.T @ y, A.shape[1], A.shape[0]))
    assert_solves_alike(spec, full, max_iter)


def oracle_failing_at(spec, name, k, bad):
    """spec whose oracle name returns bad in entry 0 of its output at call k."""
    calls = [0]
    fn = getattr(spec, name)

    def oracle(*args):
        out = np.array(fn(*args))
        if calls[0] == k:
            out[0] = bad
        calls[0] += 1
        return out

    return dataclasses.replace(spec, **{name: oracle})


#: (bad value, instance) inputs; case 2 is above oracles.SCREEN_MIN_ENTRIES
NON_FINITE_INPUTS = [
    pytest.param(bad, case, id=str(bad) + suffix)
    for case, suffix in ((("gaussian", 40, 120, 6), ""), (2, "-screened"))
    for bad in (np.nan, np.inf, -np.inf)
]


@pytest.mark.parametrize("bad, case", NON_FINITE_INPUTS)
@pytest.mark.parametrize("solver", ["proposed", "gppa", "pdcae"])
def test_non_finite_iterate_raises_at_its_iteration(solver, bad, case):
    inst = cs.make_instance(case, 3, 0.1, "least-squares")
    spec = oracle_failing_at(cs.build_cs_problem(inst), "prox_fC", 7, bad)
    params = sweep_params(spec, solver, 50, stop_rel_tol=0.0)
    with pytest.raises(FloatingPointError, match="non-finite iterate at iteration 7$"):
        run_new(spec, solver, params)


@pytest.mark.parametrize("where", ["b", "x0"])
@pytest.mark.parametrize("solver", ["proposed", "gppa", "pdcae"])
def test_nan_in_b_or_x0_raises_in_both_loops(solver, where, monkeypatch):
    gamma, _ = bench.LOSS_DEFAULTS["lorentzian"]
    inst = cs.make_instance(1, 0, gamma, "lorentzian")
    x0 = np.zeros(inst.d)
    (inst.b if where == "b" else x0)[0] = np.nan
    spec = cs.build_cs_problem(inst)
    generic, _ = pass_through(spec)
    runs = fused_runs(monkeypatch)
    params = sweep_params(spec, solver, 5, stop_rel_tol=0.0)
    for s in (spec, generic):
        with pytest.raises(FloatingPointError, match="^non-finite iterate at iteration 0$"):
            run_new(s, solver, params, x0)
    assert runs == [spec]


@pytest.mark.parametrize("solver", ["proposed", "gppa", "pdcae"])
def test_finite_iterate_whose_step_overflows_does_not_raise(solver):
    spec = oracle_failing_at(make_problem(3)[1], "prox_fC", 7, 1e200)
    with np.errstate(over="ignore"):  # ||x_8 - x_7||^2 overflows, by design
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = run_new(spec, solver, sweep_params(spec, solver, 8, stop_rel_tol=0.0))
    # the report's Lyapunov figures take 0 * inf and inf - inf without a warning
    assert [w.message for w in caught if w.category is RuntimeWarning] == []
    assert rep.iterations == 8
    assert rep.trace.step_norms[-1] == np.inf
    assert np.isfinite(rep.x).all()


@pytest.mark.parametrize("solver", ["proposed", "gppa", "pdcae"])
def test_nan_objective_is_reported_as_nan_violation(solver):
    # x_8 has the finite entry 1e200: F(x_8) = finite + inf - inf = nan
    spec = oracle_failing_at(make_problem(3)[1], "prox_fC", 7, 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = run_new(spec, solver, sweep_params(spec, solver, 8, stop_rel_tol=0.0))
    assert np.isnan(rep.objective)
    assert np.isnan(rep.max_lyapunov_violation)


def skipped_margins(spec, solver, max_iter=3000):
    """Solve instrumented(spec) on the fused loop; at every column-path
    iteration, recompute w with the full product A^T psi and check each
    skipped coordinate against the threshold t = gamma tau.

    Returns the report, the column-path iteration count and the relative
    margins (t - |w_i|) / t of all skipped coordinates.
    """
    rec = instrumented(spec)
    params = sweep_params(spec, solver, max_iter)
    rep = run_new(rec, solver, params)
    tau, _, mus = schedule(spec, solver, params)
    A, tr = spec.l1l2.matrix, rep.trace
    t = spec.l1l2.gamma * tau
    margins = []
    for n, psi, cols in rec.l1l2.columns:
        x, x_prev = tr.iterates[n], tr.iterates[max(n - 1, 0)]
        mu = mus[n % len(mus)]
        v = x if mu == 0.0 else x + mu * (x - x_prev)
        w = v - tau * (A.T @ psi) + tau * spec.subgrad_g(x)
        skipped = np.ones(len(w), dtype=bool)
        skipped[cols] = False
        assert np.all(np.abs(w[skipped]) <= t), (solver, n)
        margins.append((t - np.abs(w[skipped])) / t)
    return rep, len(rec.l1l2.columns), np.concatenate(margins or [[]])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case", [2, 3])
def test_skipped_coordinates_are_zeroed_by_the_full_product(case, seed):
    gamma, _ = bench.LOSS_DEFAULTS["least-squares"]
    spec = cs.build_cs_problem(cs.make_instance(case, seed, gamma, "least-squares"))
    assert spec.l1l2.matrix is not None
    for solver in ("proposed", "gppa", "pdcae"):
        rep, column_iters, _ = skipped_margins(spec, solver)
        assert rep.status == "converged"
        assert column_iters >= rep.iterations // 2, solver


def near_threshold_instance(gamma=0.1, n_active=3, n_near=200):
    """A 360 x 1280 instance on which 200 coordinates sit just under the
    threshold at every iteration while the iterate moves.

    The case-2 matrix is changed so that 3 active columns K, whose
    correlations with b are 2 gamma, are orthogonal to 200 columns J, whose
    correlations are gamma (1 - delta_j) with delta_j from 1e-15 to 1e-2,
    and all other columns are orthogonal to b.  While the support stays in
    K, A^T psi on J keeps its value at x = 0, so |w_j| stays just under
    gamma tau.  200 > d/8 columns kept force full products until the bound
    has shrunk below delta_j gamma tau for enough of J; from then on the
    column path skips coordinates of J with margins down to ~1e-6.
    """
    inst = cs.make_instance(2, 0, gamma, "least-squares")
    A = inst.A.matrix.copy(order="F")
    rng = np.random.default_rng(0)
    idx = rng.permutation(A.shape[1])
    K, J, rest = idx[:n_active], idx[n_active:n_active + n_near], idx[n_active + n_near:]
    Q, _ = np.linalg.qr(A[:, K])
    A[:, J] -= Q @ (Q.T @ A[:, J])
    target = np.concatenate([
        2.0 * gamma * rng.choice([-1.0, 1.0], n_active),
        gamma * (1.0 - np.logspace(-15, -2, n_near)) * rng.choice([-1.0, 1.0], n_near),
    ])
    AKJ = A[:, np.concatenate([K, J])]
    b = AKJ @ np.linalg.solve(AKJ.T @ AKJ, target)
    unit_b = b / np.linalg.norm(b)
    A[:, rest] -= np.outer(unit_b, unit_b @ A[:, rest])
    return dataclasses.replace(inst, A=LinearMap.from_matrix(A),
                               norm_A=gram_spectrum(A)[1], b=b)


def test_skipped_coordinates_just_under_the_threshold():
    spec = cs.build_cs_problem(near_threshold_instance())
    assert spec.l1l2.matrix is not None
    for solver in ("proposed", "gppa", "pdcae"):
        rep, column_iters, margins = skipped_margins(spec, solver)
        assert rep.status == "converged"
        assert column_iters > 0
        assert np.count_nonzero(margins < 1e-4) >= 100, solver


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("case", [2, 3])
def test_screened_solves_match_unscreened(case, seed):
    gamma, max_iter = bench.LOSS_DEFAULTS["least-squares"]
    spec = cs.build_cs_problem(cs.make_instance(case, seed, gamma, "least-squares"))
    assert spec.l1l2.matrix is not None
    # both specs keep their record's oracles, so both run the fused loop;
    # the same map without its matrix does not screen
    A = spec.map_A
    rec = L1L2(spec.l1l2.gamma, spec.l1l2.loss,
               LinearMap(A.apply, A.adjoint, A.dim_in, A.dim_out))
    full = dataclasses.replace(spec, **rec.fields(), l1l2=rec)
    for solver, (scr, ref) in assert_solves_alike(spec, full, max_iter).items():
        assert np.array_equal(scr.x != 0, ref.x != 0), solver


@pytest.mark.parametrize("solver", ["proposed", "gppa", "pdcae"])
def test_screened_iteration_makes_one_apply_and_one_adjoint_product(solver):
    spec = cs.build_cs_problem(cs.make_instance(2, 3, 0.1, "least-squares"))
    # the column path starts after 39-81 iterations on this instance
    for counted in both_loops(spec):
        rep = run_new(counted, solver, sweep_params(spec, solver, 120, stop_rel_tol=0.0))
        assert rep.iterations == 120
        columns = len(counted.l1l2.columns)
        assert columns > 0
        assert counted.l1l2.counts == {
            "apply": 1 + 120, "adjoint": 120 - columns, "adjoint_columns": columns}
        # at most one column product per iteration
        assert len({n for n, _, _ in counted.l1l2.columns}) == columns


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("oracle", ["grad_h", "subgrad_g"])
@pytest.mark.parametrize("solver", ["proposed", "gppa", "pdcae"])
def test_non_finite_psi_or_bound_takes_the_full_product(solver, oracle, bad):
    # a non-finite psi or subgradient at the first iteration that takes the
    # column path makes the bound non-finite: that iteration takes the full
    # product instead, and its non-finite iterate raises there
    spec = cs.build_cs_problem(cs.make_instance(2, 3, 0.1, "least-squares"))
    params = sweep_params(spec, solver, 120, stop_rel_tol=0.0, keep_iterates=False)
    clean = instrumented(spec)
    run_new(clean, solver, params)
    k = clean.l1l2.columns[0][0]
    failing = oracle_failing_at(instrumented(spec), oracle, k, bad)
    with pytest.raises(FloatingPointError,
                       match="non-finite iterate at iteration %d$" % k):
        run_new(failing, solver, params)
    assert failing.l1l2.columns == []


def screened_record(gamma, A):
    """An L1-L2 record of the map of A, as screen_columns reads it."""
    return L1L2(gamma, Loss("least-squares", np.zeros(len(A))), LinearMap.from_matrix(A))


def test_screen_columns_keeps_nan_coordinates():
    # a NaN in the reference product fails the skip test (a NaN compared
    # with >= would have skipped it); every other coordinate is far below
    rng = np.random.default_rng(0)
    A = np.asfortranarray(rng.standard_normal((20, 64)))
    screen = screened_record(1.0, A)
    psi = rng.standard_normal(20)
    G = 1e-3 * rng.standard_normal(64)
    G[5] = np.nan
    x = np.zeros(64)
    w, cols = psg.screen_columns((psi, G, np.linalg.norm(psi)), screen,
                                 gram_spectrum(A)[1], 0.5, psi, x, x)
    assert cols.tolist() == [5]
    assert np.isnan(w[5])


@pytest.mark.parametrize("gamma, kept", [(0.2 * (1 - 1e-9), [0]), (0.2 * (1 + 1e-9), [])])
def test_screen_columns_bound_is_tight_on_an_aligned_column(gamma, kept):
    # psi - psi_r = -0.05 e_0 lies along column 0, whose norm is ||A|| = 2:
    # the full product moves w_0 from w~_0 = 0.05 to 0.1 = w~_0 + tau ||A||
    # ||psi - psi_r||, the worst case of the bound, so coordinate 0 is kept
    # exactly when 0.1 > gamma tau, up to the rounding slack; the other
    # coordinates stay at w = 0, 0.05 below the bound
    A = np.asfortranarray(np.hstack([2.0 * np.eye(4), np.zeros((4, 4))]))
    psi_r = np.array([-0.05, 0.0, 0.0, 0.0])
    psi = np.array([-0.1, 0.0, 0.0, 0.0])
    x = np.zeros(8)
    tau = 0.5
    ref = (psi_r, A.T @ psi_r, np.linalg.norm(psi_r))
    w, cols = psg.screen_columns(ref, screened_record(gamma, A), 2.0, tau, psi, x, x)
    assert cols.tolist() == kept
    assert w[0] == 0.05 and abs(-tau * (A.T @ psi))[0] == 0.1
