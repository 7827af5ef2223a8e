"""Paired A/B of the solvers on a parent commit's package and the working tree.

Not a pytest module.  From anywhere in the repository,

    python tests/ab.py PARENT [--cases LOSS:CASE ...]

extracts PARENT's src/dcprox with `git archive` into a temporary directory
(or, when PARENT is a directory, such as a checkout or an export of a
commit, copies its src/dcprox there) and imports it as the package
dcprox_parent, beside the working tree's src/dcprox imported as dcprox;
the package's modules import one another only relatively, so the two
trees load side by side in one process.  For each case (by default
Lorentzian cases 1 and 5 and least-squares cases 2 and 3) and each of
SEEDS it builds the instance with each tree's own cs.make_instance and
cs.build_cs_problem, untimed, and runs every solver that both trees'
bench.SOLVERS name from x0 = 0 through each tree's bench._solve_cell, each
tree at its own bench.LOSS_DEFAULTS gamma and cap.  The parent runs first
on even-numbered instances and the working tree on odd ones, since the
second run of a pair tends to be the slower on a small VM.

Each solve is timed with time.perf_counter.  It prints the environment
(equivalence.env(), as tests/equivalence.py records it), one line per
instance and the per-solve time ratio, working tree over parent (median
and quartiles, for all solves and per solver), the wins per side and the
exact two-sided sign-test p-value over the solves that did not tie.  It
exits 1, naming every solve whose x bytes, status or iteration count
differ between the trees, or which raised in one tree or raised
differently in the two (a solve or build that raises is recorded as that
exception's repr and left out of the ratios), and every difference
between the trees' SOLVERS or LOSS_DEFAULTS.

Its last stdout line, whatever the exit code, is one JSON object of the
run: parent, working, cases, seeds, solves (loss, case, seed, solver,
which tree ran first, and the ratio, null where a side raised), ratio
(median, q1, q3 and n per solver and over "all"), wins (per side), ties,
sign_test_p, outputs_equal, mismatches (the lines named above) and
environment.
"""

import argparse
import importlib
import json
import math
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
PARENT_NAME = "dcprox_parent"
DEFAULT_CASES = [("lorentzian", 1), ("lorentzian", 5), ("least-squares", 2), ("least-squares", 3)]
SEEDS = (0, 1, 2, 3)


def load_trees(parent, tmp):
    """(parent, working) as pairs of the (cs, bench) modules of each tree;
    parent is a commit or a directory that holds src/dcprox."""
    if pathlib.Path(parent).is_dir():
        shutil.copytree(pathlib.Path(parent) / "src" / "dcprox", pathlib.Path(tmp) / PARENT_NAME)
    else:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent, "src/dcprox"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        (pathlib.Path(tmp) / "src" / "dcprox").rename(pathlib.Path(tmp) / PARENT_NAME)
    sys.path[:0] = [str(ROOT / "src"), tmp]
    return [tuple(importlib.import_module("%s.%s" % (name, mod)) for mod in ("cs", "bench"))
            for name in (PARENT_NAME, "dcprox")]


def sign_test(wins, losses):
    """Exact two-sided p-value of wins against losses under a fair coin."""
    n, k = wins + losses, min(wins, losses)
    if n == 0:
        return 1.0
    return min(1.0, 2.0 * sum(math.comb(n, i) for i in range(k + 1)) / 2.0**n)


def case_arg(text):
    """(loss, case) of a --cases item LOSS:CASE, such as lorentzian:5."""
    loss, _, case = text.partition(":")
    if not (loss and case.isdigit()):
        raise argparse.ArgumentTypeError(
            "%r is not LOSS:CASE with an integer CASE, e.g. lorentzian:5" % text)
    return loss, int(case)


def quartiles(ratios):
    q1, med, q3 = np.percentile(ratios, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "n": len(ratios)}


def show(q):
    return "%.3f [%.3f, %.3f]" % (q["median"], q["q1"], q["q3"])


def attempt(fn):
    """(fn(), None), or (None, the repr of the exception fn raised)."""
    try:
        return fn(), None
    except Exception as exc:
        return None, repr(exc)


def outcome(rep, error):
    """What the two trees must agree on for one solve: its output, or what it raised."""
    if error is not None:
        return {"exception": error}
    return {"x bytes": rep.x.tobytes(), "status": rep.status, "iterations": rep.iterations}


def describe(rep, error):
    return "raised %s" % error if error is not None else "%s/%d" % (rep.status, rep.iterations)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="the commit, or a directory holding src/dcprox, "
                                   "to compare the working tree with")
    ap.add_argument("--cases", nargs="+", type=case_arg, default=DEFAULT_CASES,
                    metavar="LOSS:CASE", help="loss kind and cs.CASES key, e.g. lorentzian:5")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        trees = load_trees(args.parent, tmp)
        import equivalence  # beside this script; it imports the working tree's dcprox
        environment = equivalence.env()
        if pathlib.Path(args.parent).is_dir():
            source = "directory " + str(pathlib.Path(args.parent).resolve())
        else:
            source = "%s (%s)" % (args.parent, subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
                capture_output=True, text=True, check=True).stdout.strip())
        print("parent %s as %s against the working tree %s" % (source, PARENT_NAME, ROOT))
        print("environment: " + json.dumps(environment))
        solvers = [tuple(getattr(bench, "SOLVERS", ())) for _, bench in trees]
        mismatches = []
        if solvers[0] != solvers[1]:
            mismatches.append("bench.SOLVERS differ: parent %s, working %s" % tuple(solvers))
        common = [s for s in solvers[1] if s in solvers[0]]
        ratios, solves, index = {s: [] for s in common}, [], 0
        for loss, case in args.cases:
            # each tree solves at its own (gamma, max_iter), as it would run alone
            settings = [getattr(bench, "LOSS_DEFAULTS", {}).get(loss) for _, bench in trees]
            if settings[0] != settings[1]:
                mismatches.append("%s: bench.LOSS_DEFAULTS (gamma, max_iter) differ: parent %s, "
                                  "working %s" % (loss, settings[0], settings[1]))
            if None in settings:
                mismatches.append("%s: not in both trees' bench.LOSS_DEFAULTS, not run" % loss)
                continue
            for seed in SEEDS:
                specs = [attempt(lambda: t_cs.build_cs_problem(
                    t_cs.make_instance(case, seed, gamma, loss)))
                    for (t_cs, _), (gamma, _) in zip(trees, settings)]
                order = (0, 1) if index % 2 == 0 else (1, 0)
                line = []
                for solver in common:
                    runs, times = [None, None], [0.0, 0.0]
                    for side in order:
                        spec, error = specs[side]
                        if error is not None:
                            runs[side] = (None, "building the instance: " + error)
                            continue
                        x0 = np.zeros(spec.map_A.dim_in)
                        t0 = time.perf_counter()
                        runs[side] = attempt(lambda: trees[side][1]._solve_cell(
                            spec, x0, solver, settings[side][1]))
                        times[side] = time.perf_counter() - t0
                    old, new = outcome(*runs[0]), outcome(*runs[1])
                    differ = ([k for k in old if old[k] != new[k]] if old.keys() == new.keys()
                              else ["outcomes"])
                    if differ:
                        mismatches.append("%s case %d seed %d %s: %s differ (parent %s, "
                                          "working %s)" % (
                                              loss, case, seed, solver,
                                              ", ".join(differ),
                                              describe(*runs[0]), describe(*runs[1])))
                    ratio = None
                    if runs[0][1] is None and runs[1][1] is None:
                        ratio = times[1] / times[0]
                        ratios[solver].append(ratio)
                        line.append("%s %.3f" % (solver, ratio))
                    else:
                        line.append("%s raised" % solver)
                    solves.append({"loss": loss, "case": case, "seed": seed, "solver": solver,
                                   "first": "parent" if order[0] == 0 else "working",
                                   "ratio": ratio})
                print("%s case %d seed %d (%s first): %s" % (
                    loss, case, seed, "parent" if order[0] == 0 else "working", ", ".join(line)))
                index += 1

    every = [r for rs in ratios.values() for r in rs]
    summary = {solver: quartiles(rs) for solver, rs in ratios.items() if rs}
    if every:
        overall = quartiles(every)
        print("time ratio, working/parent, median [quartiles] over %d solves: %s"
              % (len(every), show(overall)))
        for solver, q in summary.items():
            print("  %s: %s" % (solver, show(q)))
        summary["all"] = overall
    faster, slower = sum(r < 1.0 for r in every), sum(r > 1.0 for r in every)
    ties, p_value = len(every) - faster - slower, sign_test(faster, slower)
    print("working tree faster in %d, parent faster in %d, ties %d; sign test p = %.3g"
          % (faster, slower, ties, p_value))
    if mismatches:
        print("outputs differ:\n  " + "\n  ".join(mismatches))
    else:
        print("x bytes, status and iterations equal on all %d solves" % len(solves))
    print(json.dumps({
        "parent": source, "working": str(ROOT),
        "cases": ["%s:%d" % c for c in args.cases], "seeds": list(SEEDS),
        "solves": solves, "ratio": summary,
        "wins": {"working": faster, "parent": slower}, "ties": ties, "sign_test_p": p_value,
        "outputs_equal": not mismatches, "mismatches": mismatches,
        "environment": environment,
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
