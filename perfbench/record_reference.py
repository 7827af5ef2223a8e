"""Record the reference outputs that run.py checks every solve against.

    python3 perfbench/record_reference.py --workload cs-ls-sweep --seeds 0-31

Runs each instance of the given run seeds once, untimed, and stores status,
iteration count, objective and ground-truth error per (workload, case,
seed, solver) in perfbench/reference.json, merged with what the file holds.
Record only at a commit whose outputs are trusted; a solve that fails its
own checks is not recorded.
"""

import argparse
import json
import sys

import run


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    ap.add_argument("--seeds", required=True, help="run seeds, as FIRST-LAST")
    args = ap.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))
    if not run.import_dcprox():
        return 2
    import layers
    import measure
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    try:
        with open(measure.REFERENCE) as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {"solves": {}}
    ref["recorded_at"] = run._git_commit()
    ref["env"] = {k: v for k, v in run.environment(wl, first, []).items()
                  if k in ("python", "numpy", "scipy", "blas", "nproc")}
    solves = ref["solves"].setdefault(wl.name, {})
    status = 0
    for seed in range(first, last + 1):
        for case, iseed in wl.instances(seed):
            _, outcomes = measure.run_instance(wl, case, iseed, layers.NullTracer(), {})
            for o in outcomes:
                if o["failure"] is not None:
                    print("FAILED %s" % json.dumps(o["failure"]), file=sys.stderr)
                    status = 1
                    continue
                solves[measure.ref_key(case, iseed, o["solver"])] = [
                    o[k] for k in measure.REFERENCE_FIELDS]
        print("%s run seed %d recorded" % (wl.name, seed), flush=True)
        write(ref, measure.REFERENCE)
    return status


def write(ref, path):
    """One solve a line, so that re-recording gives a readable diff."""
    with open(path, "w") as fh:
        fh.write("{\n")
        for key in ("recorded_at", "env"):
            fh.write("%s: %s,\n" % (json.dumps(key), json.dumps(ref[key])))
        fh.write('"solves": {')
        for i, (name, solves) in enumerate(sorted(ref["solves"].items())):
            fh.write("%s\n%s: {" % ("," if i else "", json.dumps(name)))
            fh.write(",".join("\n%s: %s" % (json.dumps(k), json.dumps(v))
                              for k, v in sorted(solves.items())))
            fh.write("\n}")
        fh.write("\n}\n}\n")


if __name__ == "__main__":
    sys.exit(main())
