"""Equivalence fingerprint of the package's outputs, for A/B checks of a change.

Not a pytest module: test_equivalence.py runs it in tier-1 and compares its
output with the committed fingerprint.json (made at 2 OpenBLAS threads).
By hand, run it against each checkout and compare the outputs byte for byte,

    PYTHONPATH=<parent>/src python tests/equivalence.py > parent.json
    PYTHONPATH=<change>/src python tests/equivalence.py > change.json
    cmp parent.json change.json

or, where a change may move the last bits, field by field:

    PYTHONPATH=src python tests/equivalence.py --compare parent.json change.json

The comparison exits 1 at the first difference that matters, naming it:
statuses, iteration counts, zero-pattern hashes, exit codes, the OPF
model, placement and start ids, the `dcprox gen` hashes, the sweep CSVs'
ids, counts and mean iterations, and the names and PASS/FAIL of
`dcprox check` must be equal; objectives, ||x||, rate_r2 and the CSVs'
mean_error and mean_objective must agree to REL_TOL relative.  What
rounding alone moves (between BLAS thread counts, say) is counted and
reported, never failed: the hashes of x and of the trace, best_x, the plan
JSON, the Lyapunov violations, the detail text of `dcprox check`, the
stdout of `dcprox opf-run` and env, whose differing keys are printed with
both values.  A field only the second document has is reported as added;
one it lacks, or one without a rule, fails.

Without --compare it prints one JSON document of hex floats and SHA-256
hashes:
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
bench.results_csv_text, bench.run_opf, bench._solve_cell, bench.CSV_COLUMNS,
bench.LOSS_DEFAULTS, bench.SOLVERS, blas.threads, cs.make_instance,
cs.build_cs_problem, opf.load_network, opf.build_dcopf and cli.main, so it
runs unchanged on both sides of a change that keeps those.
"""

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from dcprox import bench, blas, cli, cs, opf

SWEEPS = {"least-squares": (1, 2, 5, 6), "lorentzian": (1, 5)}
SWEEP_SEEDS = 3
SOLVES = {"least-squares": (1, 2, 3, 5, 6), "lorentzian": (1, 5)}
SOLVE_SEEDS = range(4)
WALL_TIME_COLUMN = bench.CSV_COLUMNS.index("mean_wall_time (nondeterministic)")


def env():
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {key: build.get(key) for key in ("name", "version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpus": len(os.sched_getaffinity(0)),
        "openblas_threads": blas.threads(),
    }


def array_digest(values):
    data = np.ascontiguousarray(values, dtype=float).tobytes()
    return hashlib.sha256(data).hexdigest()


def without_wall_time(lines):
    """The lines of a sweep CSV without its nondeterministic wall-time column."""
    return [",".join(c for k, c in enumerate(line.split(",")) if k != WALL_TIME_COLUMN)
            for line in lines]


def sweep_csvs():
    out = {}
    for loss_kind, cases in SWEEPS.items():
        cfg = bench.SweepConfig(cases=cases, loss_kind=loss_kind,
                                n_seeds=SWEEP_SEEDS)
        text = bench.results_csv_text(bench.run_cs_sweep(cfg).rows)
        out[loss_kind] = without_wall_time(text.splitlines())
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
    out["stdout"] = without_wall_time(out["stdout"])
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


#: relative tolerance of the numbers a comparison does not take exactly
REL_TOL = 1e-12


class Miss(Exception):
    """A field that differs between two fingerprints beyond its rule."""


def as_float(value):
    """A fingerprint number: a hex float string, a decimal one or a number."""
    if isinstance(value, str):
        return float.fromhex(value) if "0x" in value else float(value)
    return float(value)


class Comparison:
    """The rules a comparison applies to each field of two fingerprints.

    exact and close raise Miss naming the field; count only counts, under
    its rule's path, the items that differ and the items seen.
    """

    def __init__(self):
        self.moved = collections.Counter()
        self.seen = collections.Counter()
        self.added = []
        self.env_moves = []

    def exact(self, path, where, a, b):
        if a != b:
            raise Miss("%s: %r != %r" % (where, a, b))

    def close(self, path, where, a, b):
        x, y = as_float(a), as_float(b)
        if not (x == y or (math.isnan(x) and math.isnan(y))
                or (math.isfinite(x - y)
                    and abs(x - y) <= REL_TOL * max(abs(x), abs(y)))):
            raise Miss("%s: %r and %r differ by more than %g relative"
                       % (where, a, b, REL_TOL))

    def count(self, path, where, a, b):
        self.seen[path] += 1
        self.moved[path] += a != b

    def env(self, path, where, a, b):
        """env: counted as one item, each key that differs noted with both
        values, since they say why hashes of x may have moved."""
        self.count(path, where, a, b)
        self.env_moves += ["%s.%s: %r != %r" % (where, key, a.get(key), b.get(key))
                           for key in sorted(a.keys() | b.keys())
                           if a.get(key) != b.get(key)]

    def csv(self, path, where, a, b):
        """Sweep-CSV lines, each column by its rule in CSV_RULES."""
        self.exact(path, where + " line count", len(a), len(b))
        header = a[0].split(",")
        self.exact(path, where + " header", header, b[0].split(","))
        for k, (line_a, line_b) in enumerate(zip(a[1:], b[1:]), 1):
            cells_a, cells_b = line_a.split(","), line_b.split(",")
            self.exact(path, "%s line %d cell count" % (where, k),
                       len(cells_a), len(cells_b))
            for column, x, y in zip(header, cells_a, cells_b):
                rule = CSV_RULES.get(column)
                if rule is None:
                    raise Miss("%s: no rule for column %r" % (where, column))
                getattr(self, rule)("%s %s" % (path, column),
                                    "%s line %d %s" % (where, k, column), x, y)

    def check_lines(self, path, where, a, b):
        """`dcprox check` stdout: each check's name and PASS/FAIL exact, its
        detail counted; the summary line exact."""
        self.exact(path, where + " line count", len(a), len(b))
        for k, (x, y) in enumerate(zip(a, b)):
            mx, my = CHECK_LINE.match(x), CHECK_LINE.match(y)
            if mx is None or my is None:
                self.exact(path, "%s[%d]" % (where, k), x, y)
                continue
            self.exact(path, "%s[%d]" % (where, k), mx.group(1, 2), my.group(1, 2))
            self.count(path + " detail", where, mx.group(3), my.group(3))

    def opf_start(self, path, where, a, b):
        """[solver, start, objective, iterations, Lyapunov violation] of one
        OPF start."""
        self.exact(path, where + " length", len(a), len(b))
        self.exact(path, where + " solver and start", a[:2], b[:2])
        self.close(path, where + " objective", a[2], b[2])
        self.exact(path, where + " iterations", a[3], b[3])
        self.count(path + " lyapunov_violation", where, a[4], b[4])

    def lines(self, path, where, a, b):
        """Stdout lines, each counted."""
        self.exact(path, where + " line count", len(a), len(b))
        for x, y in zip(a, b):
            self.count(path, where, x, y)


#: rule of each sweep-CSV column (the wall-time column is left out)
CSV_RULES = {
    "case": "exact", "solver": "exact", "n_runs": "exact", "n_errors": "exact",
    "mean_iterations": "exact", "mean_error": "close", "mean_objective": "close",
    "max_lyapunov_violation": "count",
}
#: a line of `dcprox check`: name, PASS or FAIL, detail
CHECK_LINE = re.compile(r"^(.*?) +(PASS|FAIL)  (.*)$")
#: rule of each field path; "[]" stands for any list index
RULES = {
    "env": "env",
    "sweep_csvs.least-squares": "csv",
    "sweep_csvs.lorentzian": "csv",
    "opf_model": "exact",
    "opf_run.starts[]": "opf_start",
    "opf_run.best_x": "count",
    "opf_run.placement": "exact",
    "opf_run.rate_r2": "close",
    "opf_run.plan_json": "count",
    "check.exit": "exact",
    "check.stdout": "check_lines",
    "cs_run.exit": "exact",
    "cs_run.stdout": "csv",
    "opf_run_stdout.exit": "exact",
    "opf_run_stdout.stdout": "lines",
    "gen": "exact",
    "solves[].cell": "exact",
    "solves[].status": "exact",
    "solves[].iterations": "exact",
    "solves[].support": "exact",
    "solves[].objective": "close",
    "solves[].norm_x": "close",
    "solves[].x": "count",
    "solves[].trace": "count",
}


def compare_node(cmp, path, where, a, b):
    """Apply the rule of path to a and b, or walk into them: a dict key by
    key, a list item by item."""
    rule = RULES.get(path)
    if rule is not None:
        getattr(cmp, rule)(path, where, a, b)
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in a:
            if key not in b:
                raise Miss("%s: %r missing from the second document" % (where, key))
            compare_node(cmp, path + "." + key if path else key,
                         where + "." + key if where else key, a[key], b[key])
        cmp.added += [where + "." + key if where else key for key in b if key not in a]
    elif isinstance(a, list) and isinstance(b, list):
        cmp.exact(path, where + " length", len(a), len(b))
        for k, (x, y) in enumerate(zip(a, b)):
            label = "%s[%d]" % (where, k)
            if isinstance(x, dict) and "cell" in x:
                label += " (%s)" % " ".join(map(str, x["cell"]))
            compare_node(cmp, path + "[]", label, x, y)
    else:
        raise Miss("%s: no rule for this field" % where)


def compare(a, b):
    """The Comparison of fingerprint b against a; raises Miss at the first
    field that differs beyond its rule."""
    cmp = Comparison()
    compare_node(cmp, "", "", a, b)
    return cmp


def run_compare(path_a, path_b):
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    try:
        cmp = compare(a, b)
    except Miss as miss:
        sys.exit("not equivalent: %s" % miss)
    print("equivalent: exact fields equal, numbers within %g relative" % REL_TOL)
    for path in sorted(cmp.seen):
        print("moved %d of %d: %s" % (cmp.moved[path], cmp.seen[path], path))
    for line in cmp.env_moves:
        print(line)
    for where in cmp.added:
        print("added: %s" % where)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two fingerprints instead of printing one")
    args = parser.parse_args()
    if args.compare:
        return run_compare(*args.compare)
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
