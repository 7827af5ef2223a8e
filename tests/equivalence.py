"""Equivalence fingerprint of the package's outputs, for A/B checks of a change.

Not a pytest module: run it against each checkout and compare the outputs
byte for byte,

    PYTHONPATH=<parent>/src python tests/equivalence.py > parent.json
    PYTHONPATH=<change>/src python tests/equivalence.py > change.json
    cmp parent.json change.json

It prints one JSON document of hex floats and SHA-256 hashes:
  - the environment: the Python and numpy versions, the name and version of
    numpy's BLAS, OPENBLAS_NUM_THREADS, the number of usable CPUs and the
    thread count OpenBLAS uses (None when its library is not found), since
    the last bits of several outputs depend on the BLAS thread count (compare
    outputs made under the same one);
  - the sweep CSVs of least-squares cases 1/2/5/6 and Lorentzian cases 1/5,
    3 seeds, without the nondeterministic wall-time column;
  - the OPF model: hashes of the bytes of E, e, G, g, lo and hi of the
    placement polyhedron that opf.build_dcopf makes of the bundled network,
    and the repr of opf.load_network();
  - the 30-start run_opf: each start's objective, iterations and Lyapunov
    violation, a hash of best_x, the placement, rate_r2 and the plan JSON;
  - the exit code and stdout of `dcprox check`, of `dcprox opf-run` with the
    default config and of a one-cell `dcprox cs-run` (case 1, proposed
    solver, one seed; without the wall-time column);
  - the exit code and the hash of every file of the bundle `dcprox gen`
    writes at seed 0 for case 1, case 1 with the Lorentzian loss and case 5;
  - status, iterations, objective, ||x||, hashes of x, of its zero pattern
    (the int64 indices of its nonzeros) and of the trace of every solve of
    least-squares cases 1/2/3/5/6 and Lorentzian cases 1/5, seeds 0-3, with
    each of the three solvers.
It uses only bench.SweepConfig, bench.OPFConfig, bench.run_cs_sweep,
bench.results_csv_text, bench.run_opf, bench._solve_cell, cs.make_instance,
cs.build_cs_problem, opf.load_network, opf.build_dcopf and cli.main, so it
runs unchanged on both sides of a change that keeps those.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from dcprox import bench, cli, cs, opf

SWEEPS = {"least-squares": (1, 2, 5, 6), "lorentzian": (1, 5)}
SWEEP_SEEDS = 3
SOLVES = {"least-squares": (1, 2, 3, 5, 6), "lorentzian": (1, 5)}
SOLVE_SEEDS = range(4)
WALL_TIME_COLUMN = bench.CSV_COLUMNS.index("mean_wall_time (nondeterministic)")


def openblas_threads():
    """The thread count of the OpenBLAS that numpy bundles, read through
    ctypes as perfbench/run.py reads it; None when that library is not
    found or exports no getter."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    try:
        lib = ctypes.CDLL(libs[0])
    except (IndexError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            getter = getattr(lib, prefix + "_get_num_threads" + suffix, None)
            if getter is not None:
                return int(getter())
    return None


def env():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpus": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
    }


def array_digest(values):
    data = np.ascontiguousarray(values, dtype=float).tobytes()
    return hashlib.sha256(data).hexdigest()


def sweep_csvs():
    out = {}
    for loss_kind, cases in SWEEPS.items():
        cfg = bench.SweepConfig(cases=cases, loss_kind=loss_kind,
                                n_seeds=SWEEP_SEEDS)
        text = bench.results_csv_text(bench.run_cs_sweep(cfg).rows)
        out[loss_kind] = [
            ",".join(c for k, c in enumerate(line.split(","))
                     if k != WALL_TIME_COLUMN)
            for line in text.splitlines()
        ]
    return out


def start_fields(start):
    """Solver, start, objective, iterations and Lyapunov violation of the
    bench.RunRecord of one OPF start."""
    return [start.solver, start.start, float(start.objective).hex(),
            start.iterations, float(start.lyapunov_violation).hex()]


def opf_model():
    net = opf.load_network()
    _, set_, _ = opf.build_dcopf(net)
    out = {name: array_digest(getattr(set_, name))
           for name in ("E", "e", "G", "g", "lo", "hi")}
    out["network"] = repr(net)
    return out


def opf_run():
    result = bench.run_opf(bench.OPFConfig(opf_starts=30))
    return {
        "starts": [start_fields(s) for s in result.starts],
        "best_x": array_digest(result.best_x),
        "placement": list(result.best_report.placement),
        "rate_r2": float(result.rate_r2).hex(),
        "plan_json": result.best_report.to_json(indent=2),
    }


def cli_stdout(argv, config=None):
    """Exit code and stdout lines of cli.main(argv), with config (a config
    file's text) passed by --config."""
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "config.txt")
            with open(path, "w") as fh:
                fh.write(config)
            argv = argv + ["--config", path]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    return {"exit": rc, "stdout": buf.getvalue().splitlines()}


def cs_run_stdout():
    out = cli_stdout(["cs-run"], "cases = 1\nsolvers = proposed\nn_seeds = 1\n")
    out["stdout"] = [
        ",".join(c for k, c in enumerate(line.split(","))
                 if k != WALL_TIME_COLUMN)
        for line in out["stdout"]
    ]
    return out


def gen_bundles():
    out = {}
    for args in (["--case", "1"], ["--case", "1", "--loss", "lorentzian"],
                 ["--case", "5"]):
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["gen", "--seed", "0", "--out", tmp] + args)
            files = {}
            for name in sorted(os.listdir(tmp)):
                with open(os.path.join(tmp, name), "rb") as fh:
                    files[name] = hashlib.sha256(fh.read()).hexdigest()
        out[" ".join(args)] = {"exit": rc, "files": files}
    return out


def solves():
    out = []
    for loss_kind, cases in SOLVES.items():
        gamma, max_iter = bench.LOSS_DEFAULTS[loss_kind]
        for case in cases:
            for seed in SOLVE_SEEDS:
                inst = cs.make_instance(case, seed, gamma, loss_kind)
                spec = cs.build_cs_problem(inst)
                x0 = np.zeros(inst.d)
                for solver in bench.SOLVERS:
                    rep = bench._solve_cell(spec, x0, solver, max_iter)
                    trace = rep.trace
                    steps = np.concatenate([trace.objective, trace.step_norms,
                                            trace.lyapunov])
                    support = np.flatnonzero(rep.x).astype(np.int64)
                    out.append({
                        "cell": [loss_kind, case, seed, solver],
                        "status": rep.status,
                        "iterations": rep.iterations,
                        "objective": float(rep.objective).hex(),
                        "x": array_digest(rep.x),
                        "support": hashlib.sha256(support.tobytes()).hexdigest(),
                        "norm_x": float(np.linalg.norm(rep.x)).hex(),
                        "trace": array_digest(steps),
                    })
    return out


def main():
    doc = {
        "env": env(),
        "sweep_csvs": sweep_csvs(),
        "opf_model": opf_model(),
        "opf_run": opf_run(),
        "check": cli_stdout(["check"]),
        "cs_run": cs_run_stdout(),
        "opf_run_stdout": cli_stdout(["opf-run"]),
        "gen": gen_bundles(),
        "solves": solves(),
    }
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
