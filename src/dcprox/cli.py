"""Command-line entry point for the benchmark harness.

Subcommands:
  cs-run  --config FILE   sparse-recovery sweep, results CSV
  opf-run --config FILE   multi-start placement run, plan JSON + table
  check                   cross-module invariant suite (exit 1 on failure)
  gen --case N --seed S --out DIR   write one instance CSV bundle

Config files are flat `key = value` lines (# comments allowed); the keys
are the fields of bench.SweepConfig (cs-run) or bench.OPFConfig (opf-run).
"""

import argparse
import dataclasses
import sys

from . import bench, cs


def parse_config(path):
    """Flat key = value file to a string dict; a repeated key fails."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key = value" % (path, lineno))
            key, value = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise ValueError("%s:%d: repeated key %r" % (path, lineno, key))
            out[key] = value
    return out


def config_from_dict(cls, raw):
    """Config of dataclass cls from string key/values.

    Each value is coerced to the type of its cls field; a tuple field takes
    comma-separated items of its default's item type.  Other keys fail, and
    so does a value that does not coerce, with its key named.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        if key not in fields:
            raise ValueError("unknown config key %r" % key)
        field = fields[key]
        try:
            if field.type is tuple:
                item = type(field.default[0])
                kwargs[key] = tuple(item(v.strip()) for v in value.split(",")
                                    if v.strip())
            else:
                kwargs[key] = field.type(value)
        except ValueError as exc:
            raise ValueError("config key %r has a bad value %r: %s"
                             % (key, value, exc)) from exc
    return cls(**kwargs)


def load_config(cls, path):
    return config_from_dict(cls, parse_config(path)) if path else cls()


def report_failures(records, noun):
    """Print the count of failed bench.RunRecords, then one line each, to
    stderr; return the exit code, 1 if any failed."""
    failed = [r for r in records if r.failure]
    if failed:
        print("%d %s(s) failed" % (len(failed), noun), file=sys.stderr)
    for r in failed:
        print("case %s seed %d solver %s start %d: %s"
              % (r.case, r.seed, r.solver, r.start, r.failure), file=sys.stderr)
    return 1 if failed else 0


def cmd_cs_run(args):
    cfg = load_config(bench.SweepConfig, args.config)
    result = bench.run_cs_sweep(cfg)
    print(bench.results_csv_text(result.rows), end="")
    return report_failures(result.runs, "cell")


def cmd_opf_run(args):
    cfg = load_config(bench.OPFConfig, args.config)
    result = bench.run_opf(cfg)
    for solver, stat in result.stats.items():
        print("%-10s mean obj %.6f  best obj %.6f  mean iters %.1f"
              % (solver, stat["mean_objective"], stat["best_objective"],
                 stat["mean_iterations"]))
    print("step-norm tail fit R^2: %.4f (diagnostic only)" % result.rate_r2)
    if result.best_report is not None:
        print(result.best_report.table())
    return report_failures(result.starts, "start")


def cmd_check(args):
    return 1 if bench.run_checks() else 0


def cmd_gen(args):
    gamma, _ = bench.LOSS_DEFAULTS[args.loss]
    inst = cs.make_instance(args.case, args.seed, gamma, args.loss)
    cs.save_instance(inst, args.out)
    print("wrote case %d seed %d (%d x %d) to %s"
          % (args.case, args.seed, inst.m, inst.d, args.out))
    return 0


def seed(text):
    """A --seed value: a non-negative integer, as numpy's seeding requires."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed is negative: %r" % value)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcprox", description="Difference-of-convex proximal benchmarks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cs-run", help="sparse-recovery sweep")
    p.add_argument("--config", help="flat key=value config file")
    p.set_defaults(func=cmd_cs_run)

    p = sub.add_parser("opf-run", help="multi-start placement benchmark")
    p.add_argument("--config", help="flat key=value config file")
    p.set_defaults(func=cmd_opf_run)

    p = sub.add_parser("check", help="run the invariant suite")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="write one instance bundle")
    p.add_argument("--case", type=int, required=True, choices=sorted(cs.CASES))
    p.add_argument("--seed", type=seed, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--loss", default="least-squares",
                   choices=sorted(bench.LOSS_DEFAULTS))
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
