import csv
import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from equivalence import without_wall_time
from test_entry_checks import affine_spec, rejection

from dcprox import bench, cli, cs, opf
from dcprox.polyhedron import PolyhedronProjector, ProjectionError

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def config_file(tmp_path, text):
    p = tmp_path / "cfg.txt"
    p.write_text(text)
    return p


def test_parse_config(tmp_path):
    p = config_file(tmp_path, "# comment\ncases = 1, 5\nn_seeds = 2  # inline\n\n"
                              "loss_kind = lorentzian\n")
    raw = cli.parse_config(p)
    assert raw == {"cases": "1, 5", "n_seeds": "2", "loss_kind": "lorentzian"}


def test_parse_config_rejects_garbage(tmp_path):
    p = config_file(tmp_path, "just some words\n")
    with pytest.raises(ValueError, match="key = value"):
        cli.parse_config(p)
    # the last of two values was kept without a word
    p.write_text("cases = 1\n# comment\ncases = 5\n")
    with pytest.raises(ValueError,
                       match="^%s:3: repeated key 'cases'$" % re.escape(str(p))):
        cli.parse_config(p)


def test_config_from_dict_coercion():
    cfg = cli.config_from_dict(bench.SweepConfig, {
        "cases": "1,2", "solvers": "gppa, proposed", "n_seeds": "3",
        "base_seed": "4", "loss_kind": "lorentzian", "out_csv": "a.csv",
    })
    assert cfg == bench.SweepConfig(
        cases=(1, 2), loss_kind="lorentzian", solvers=("gppa", "proposed"),
        n_seeds=3, base_seed=4, out_csv="a.csv")
    cfg = cli.config_from_dict(bench.OPFConfig, {
        "solvers": "proposed", "base_seed": "2", "opf_starts": "7",
        "out_json": "plan.json",
    })
    assert cfg == bench.OPFConfig(solvers=("proposed",), base_seed=2,
                                  opf_starts=7, out_json="plan.json")


def test_config_rejects_unknown_key():
    for cls in (bench.SweepConfig, bench.OPFConfig):
        with pytest.raises(ValueError, match="unknown config key"):
            cli.config_from_dict(cls, {"frobnicate": "1"})


@pytest.mark.parametrize("command, line", [
    ("opf-run", "gamma = 2"),
    ("cs-run", "lambda_bar = 0.2"),
    ("cs-run", "opf_starts = 2"),
])
def test_cli_rejects_keys_of_other_commands(tmp_path, command, line):
    # each command takes only the fields of its own config class; the
    # solver parameters, gamma and the iteration caps are not config keys
    p = config_file(tmp_path, line + "\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-m", "dcprox.cli", command,
                          "--config", str(p)],
                         env=env, capture_output=True, text=True)
    assert run.returncode != 0
    assert "unknown config key %r" % line.split()[0] in run.stderr


def test_readme_lists_the_config_keys():
    text = (SRC.parent / "README.md").read_text()
    for command, cls in (("cs-run", bench.SweepConfig),
                         ("opf-run", bench.OPFConfig)):
        # the key table follows its "`dcprox <command>` keys" line
        table = text.split("`dcprox %s` keys" % command, 1)[1].split("\n\n")[1]
        rows = table.splitlines()[2:]
        keys = [row.split("`")[1] for row in rows]
        assert keys == [f.name for f in dataclasses.fields(cls)], command


def test_config_rejects_unknown_case_id():
    with rejection(bench.SweepConfig, "cases", (1, 9)):
        cli.config_from_dict(bench.SweepConfig, {"cases": "1, 9"})


@pytest.mark.parametrize("cls, key", [
    (bench.SweepConfig, "cases"),
    (bench.SweepConfig, "solvers"),
    (bench.OPFConfig, "solvers"),
])
def test_config_rejects_empty_lists(cls, key):
    # "key =" in a config file gives the empty tuple
    with rejection(cls, key, ()):
        cli.config_from_dict(cls, {key: ""})


def test_cli_cs_run_fails_at_config_load(tmp_path):
    p = config_file(tmp_path, "cases = 1\nloss_kind = lorentz\n")
    with rejection(bench.SweepConfig, "loss_kind", "lorentz"):
        cli.main(["cs-run", "--config", str(p)])


@pytest.mark.parametrize("cls, key, value", [
    (bench.SweepConfig, "cases", "1, x"),
    (bench.SweepConfig, "loss_kind", "lorentz"),
    (bench.SweepConfig, "solvers", "newton"),
    (bench.SweepConfig, "n_seeds", "two"),
    (bench.SweepConfig, "base_seed", "1.5"),
    (bench.OPFConfig, "solvers", "gppa, newton"),
    (bench.OPFConfig, "base_seed", "zero"),
    (bench.OPFConfig, "opf_starts", "-3x"),
    # a repeated item ran its cells twice and printed duplicate rows
    (bench.SweepConfig, "cases", "1, 1"),
    (bench.SweepConfig, "solvers", "gppa, proposed, gppa"),
    (bench.OPFConfig, "solvers", "pdcae, pdcae"),
])
def test_config_bad_value_names_its_key(cls, key, value):
    # every field but the output path, which takes any string
    with pytest.raises(ValueError) as err:
        cli.config_from_dict(cls, {key: value})
    # the message names the key and the item that fails
    assert key in str(err.value)
    assert value.split(", ")[-1] in str(err.value)


@pytest.mark.parametrize("cls, key, value", [
    # no config file gives these: a float count or seed, a float or bool case id
    (bench.SweepConfig, "n_seeds", 1.5),
    (bench.SweepConfig, "base_seed", 0.5),
    (bench.SweepConfig, "cases", (1.0,)),
    (bench.SweepConfig, "cases", (True,)),
    (bench.OPFConfig, "opf_starts", 1.5),
    (bench.OPFConfig, "base_seed", 0.5),
])
def test_config_rejects_a_non_integer_count(cls, key, value, tmp_path):
    out = tmp_path / "out"
    out.write_text("kept")
    out_key = "out_csv" if cls is bench.SweepConfig else "out_json"
    with rejection(cls, key, value):
        cls(**{key: value, out_key: str(out)})
    assert out.read_text() == "kept"  # rejected before the output is opened


@pytest.mark.parametrize("cls", [bench.SweepConfig, bench.OPFConfig])
def test_config_rejects_negative_base_seed(cls):
    with rejection(cls, "base_seed", -1):
        cli.config_from_dict(cls, {"base_seed": "-1"})


def test_sweep_shape_single_cell():
    cfg = bench.SweepConfig(cases=(1,), solvers=("proposed",), n_seeds=1)
    res = bench.run_cs_sweep(cfg)
    assert len(res.rows) == 1
    assert len(res.runs) == 1
    assert res.rows[0]["case"] == 1
    assert res.rows[0]["n_errors"] == 0


def test_sweep_runs_a_numpy_integer_case_id():
    # cs.make_instance took only a Python int as a case id, so every cell of
    # an np.int64 case failed with "cannot unpack non-iterable"
    cfg = bench.SweepConfig(cases=(np.int64(1),), solvers=("proposed",), n_seeds=1)
    res = bench.run_cs_sweep(cfg)
    assert res.rows[0]["n_errors"] == 0
    assert bench.results_csv_text(res.rows).splitlines()[1].startswith("1,proposed,")


def test_sweep_csv_byte_stable():
    cfg = bench.SweepConfig(cases=(1,), solvers=("gppa", "proposed"),
                            n_seeds=2)
    a = bench.run_cs_sweep(cfg)
    b = bench.run_cs_sweep(cfg)
    assert without_wall_time(bench.results_csv_text(a.rows).splitlines()) == (
        without_wall_time(bench.results_csv_text(b.rows).splitlines()))
    assert "nondeterministic" in bench.results_csv_text(a.rows).splitlines()[0]


def test_sweep_records_cell_failures(monkeypatch):
    cfg = bench.SweepConfig(cases=(1,), solvers=("proposed",), n_seeds=1)

    def boom(*a, **k):
        raise RuntimeError("injected")

    monkeypatch.setattr(bench.psg, "solve", boom)
    res = bench.run_cs_sweep(cfg)
    assert res.rows[0]["n_errors"] == 1
    assert "injected" in res.runs[0].failure


def test_solve_cell_with_affine_h_runs_only_the_proposed_solver():
    spec = affine_spec()
    rep = bench._solve_cell(spec, np.zeros(3), "proposed", 100)
    assert rep.status == "converged"
    # grad_h is the constant b, so the solve ends at the corner -sign(b)
    assert np.array_equal(rep.x, -np.sign(spec.grad_h(None)))


def test_sweep_records_a_cell_whose_setup_fails(tmp_path, monkeypatch, capsys):
    # case 5's instance fails to build: each of its solvers records the
    # failure, case 1 runs on, and cs-run reports the failed cells, one
    # line each
    make_instance = cs.make_instance

    def failing_case_5(case, *args):
        if case == 5:
            raise RuntimeError("injected")
        return make_instance(case, *args)

    monkeypatch.setattr(cs, "make_instance", failing_case_5)
    p = config_file(tmp_path, "cases = 1, 5\nsolvers = gppa, proposed\nn_seeds = 1\n")
    assert cli.main(["cs-run", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "2 cell(s) failed\n"
        "case 5 seed 0 solver gppa start 0: RuntimeError('injected')\n"
        "case 5 seed 0 solver proposed start 0: RuntimeError('injected')\n")
    rows = list(csv.DictReader(captured.out.splitlines()))
    assert [(r["case"], r["n_errors"]) for r in rows] == [
        ("1", "0"), ("1", "0"), ("5", "1"), ("5", "1")]
    res = bench.run_cs_sweep(bench.SweepConfig(cases=(5,), solvers=("gppa",),
                                               n_seeds=1))
    assert res.runs[0].failure == "RuntimeError('injected')"


@pytest.mark.parametrize("command, line", [
    ("cs-run", "cases = 1\nsolvers = proposed\nn_seeds = 1\nout_csv = %s\n"),
    ("opf-run", "opf_starts = 2\nout_json = %s\n"),
], ids=["cs-run", "opf-run"])
def test_cli_bad_output_path_fails_before_any_solve(tmp_path, monkeypatch,
                                                    command, line):
    calls = []
    solve_cell = bench._solve_cell
    monkeypatch.setattr(bench, "_solve_cell",
                        lambda *args: calls.append(args) or solve_cell(*args))
    p = config_file(tmp_path, line % (tmp_path / "missing-dir" / "out"))
    with pytest.raises(FileNotFoundError):
        cli.main([command, "--config", str(p)])
    assert calls == []


def test_opf_config_rejects_out_json_without_proposed():
    with rejection(bench.OPFConfig, "solvers", ("gppa", "pdcae")):
        cli.config_from_dict(bench.OPFConfig, {"solvers": "gppa, pdcae",
                                               "out_json": "plan.json"})
    bench.OPFConfig(solvers=("gppa",))


def test_opf_failed_start_is_recorded_with_its_cause(tmp_path, monkeypatch,
                                                     capsys):
    # pdcae's second start fails in its third projection; the other starts
    # and solvers run on, and the failure names the oracle, the iteration
    # and the projection's own message
    solve_cell = bench._solve_cell
    seen = []

    def failing_second_pdcae(spec, x0, solver, max_iter):
        seen.append(solver)
        if solver == "pdcae" and seen.count("pdcae") == 2:
            proxes = []
            project = spec.prox_fC

            def prox(w, tau):
                proxes.append(tau)
                if len(proxes) == 3:
                    raise ProjectionError(
                        "projection residual 2.500e-03 exceeds tol 1.0e-09",
                        2.5e-3)
                return project(w, tau)

            spec = dataclasses.replace(spec, prox_fC=prox)
        return solve_cell(spec, x0, solver, max_iter)

    monkeypatch.setattr(bench, "_solve_cell", failing_second_pdcae)
    res = bench.run_opf(bench.OPFConfig(opf_starts=3))
    failed = [s for s in res.starts if s.failure]
    assert [(s.case, s.seed, s.solver, s.start) for s in failed] == [
        ("opf", 0, "pdcae", 1)]
    assert failed[0].failure == (
        "RuntimeError('prox_fC failed at iteration 2') from ProjectionError("
        "'projection residual 2.500e-03 exceeds tol 1.0e-09')")
    assert {k: v["n_errors"] for k, v in res.stats.items()} == {
        "gppa": 0, "pdcae": 1, "proposed": 0}
    pdcae = [s for s in res.starts if s.solver == "pdcae" and not s.failure]
    assert [s.start for s in pdcae] == [0, 2]
    assert res.stats["pdcae"]["n_runs"] == 3
    assert res.stats["pdcae"]["mean_objective"] == float(
        np.mean([s.objective for s in pdcae]))
    assert res.best_report is not None

    seen.clear()
    p = config_file(tmp_path, "opf_starts = 3\n")
    assert cli.main(["opf-run", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "1 start(s) failed\n"
        "case opf seed 0 solver pdcae start 1: RuntimeError('prox_fC failed "
        "at iteration 2') from ProjectionError('projection residual "
        "2.500e-03 exceeds tol 1.0e-09')\n")
    assert captured.out.startswith("gppa ")


def test_opf_start_whose_projection_fails_is_recorded(tmp_path, monkeypatch,
                                                      capsys):
    # the model's feasible point takes the first projection and start 0 the
    # second, which fails: start 0 is a failure of every solver, starts 1
    # and 2 draw and solve as without the failure, and the rate diagnostic
    # fits the longer of their proposed solves
    want = bench.run_opf(bench.OPFConfig(opf_starts=3))
    project = PolyhedronProjector.project
    calls = []

    def failing_second(self, w):
        calls.append(w)
        if len(calls) == 2:
            raise ProjectionError("injected", float("nan"))
        return project(self, w)

    monkeypatch.setattr(PolyhedronProjector, "project", failing_second)
    res = bench.run_opf(bench.OPFConfig(opf_starts=3))
    for solver in bench.SOLVERS:
        assert res.stats[solver]["n_errors"] == 1
    assert [s.failure for s in res.starts if s.start == 0] == [
        "ProjectionError('injected')"] * 3
    fields = [[(s.solver, s.start, s.objective, s.iterations)
               for s in r.starts if s.start > 0] for r in (res, want)]
    assert fields[0] == fields[1]
    assert np.isfinite(res.rate_r2)
    assert res.best_report is not None

    calls.clear()
    p = config_file(tmp_path, "opf_starts = 3\n")
    assert cli.main(["opf-run", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "3 start(s) failed\n" + "".join(
        "case opf seed 0 solver %s start 0: ProjectionError('injected')\n"
        % solver for solver in bench.SOLVERS)
    assert "step-norm tail fit R^2: nan" not in captured.out


def test_cli_cs_run(tmp_path, capsys):
    p = config_file(tmp_path, "cases = 1\nsolvers = proposed\nn_seeds = 1\n")
    rc = cli.main(["cs-run", "--config", str(p)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("case,solver,")
    assert "proposed" in out


def test_cli_opf_run(tmp_path, capsys):
    report = tmp_path / "plan.json"
    p = config_file(tmp_path, "opf_starts = 2\nout_json = %s\n" % report)
    rc = cli.main(["opf-run", "--config", str(p)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    data = json.loads(report.read_text())
    assert "placement buses   : %s" % data["placement"] in out
    assert data["total_cost_dollars"] > 0


def test_cli_gen_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "inst"
    rc = cli.main(["gen", "--case", "1", "--seed", "3", "--out", str(out_dir)])
    assert rc == 0
    ref = cs.make_instance(1, 3, 0.1, "least-squares")
    matrix = np.loadtxt(out_dir / "matrix.csv", delimiter=",", ndmin=2)
    assert np.array_equal(matrix, ref.A.dense())
    assert np.array_equal(np.loadtxt(out_dir / "b.csv", delimiter=","), ref.b)
    with open(out_dir / "meta.csv", newline="") as fh:
        meta = {k: json.loads(v) for k, v in list(csv.reader(fh))[1:]}
    assert (meta["seed"], meta["m"], meta["d"]) == (3, 180, 640)
    assert meta["loss_kind"] == "least-squares"


def test_cli_gen_rejects_negative_seed(tmp_path, capsys):
    out_dir = tmp_path / "inst"
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--case", "1", "--seed", "-1", "--out", str(out_dir)])
    assert exc.value.code == 2
    assert "argument --seed: seed is negative: -1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_check_exit_code(capsys):
    assert cli.main(["check"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[-1].endswith(" 0 failures")
    assert not any(r.startswith("ac ") for r in rows)
    assert any(r.startswith("feasible point penetration") and " PASS " in r
               for r in rows)


def test_run_checks_surfaces_injected_failure(monkeypatch, capsys):
    def failing_suite(rng):
        yield ("injected breaker", False, "on purpose")

    monkeypatch.setattr(bench, "_check_oracles", failing_suite)
    failures = bench.run_checks()
    out = capsys.readouterr().out
    assert failures == 1
    assert "injected breaker" in out and "FAIL" in out


def test_run_checks_reports_a_suite_that_raises(monkeypatch, capsys):
    def _check_projection(rng):
        raise RuntimeError("broken suite")

    monkeypatch.setattr(bench, "_check_projection", _check_projection)
    assert bench.run_checks() == 1
    rows = capsys.readouterr().out.splitlines()
    assert [r for r in rows if r.startswith("_check_projection")] == [
        "%-32s FAIL  %r" % ("_check_projection", RuntimeError("broken suite"))]
    assert rows[-1].endswith(" 1 failures")


def test_cli_check_stops_the_network_checks_at_a_load_error(monkeypatch, capsys):
    error = opf.NetworkLoadError("missing bus in bus.csv")

    def load_network(data_dir=None):
        raise error

    monkeypatch.setattr(opf, "load_network", load_network)
    assert cli.main(["check"]) == 1
    rows = capsys.readouterr().out.splitlines()
    # the network suite runs last: its load line comes just before the summary
    assert rows[-2] == "%-32s FAIL  %r" % ("network load", error)
    assert rows[-1].endswith(" 1 failures")
    assert not any(r.startswith(("demand bus 1", "h at origin")) for r in rows)


def test_problem_module_imports_nothing_from_the_package():
    # problem is the base module that linop, polyhedron and cs take their
    # checks from; an import of any of them back would be a cycle.  The
    # package __init__ imports every module, so a bare package stands in.
    code = ("import sys, types; pkg = types.ModuleType('dcprox'); "
            "pkg.__path__ = [%r]; sys.modules['dcprox'] = pkg; "
            "import dcprox.problem; "
            "print(sorted(m for m in sys.modules if m.startswith('dcprox.')))"
            % str(SRC / "dcprox"))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "['dcprox.problem']"


def test_package_imports_no_scipy():
    # scipy is a test extra only: importing the package, the CLI and the
    # experiment driver must not load it.
    code = ("import sys, dcprox, dcprox.cli, dcprox.bench; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
