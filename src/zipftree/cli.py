"""Command-line front end: build an ExperimentSpec from flags (and/or a JSON
config), run the grid, and write/print the regret records."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .harness import (ExperimentSpec, TaskError, format_summary,
                      record_writer, run_experiment, summarize)


def _comma_list(convert):
    """An argparse type: "100,,250" -> [convert("100"), convert("250")]."""
    def entry(text):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
    return lambda text: [entry(t) for t in text.split(",") if t]


def build_parser():
    """Each dest but config, jobs and summary is an ExperimentSpec field."""
    p = argparse.ArgumentParser(
        prog="zipftree", exit_on_error=False,
        description="Run hierarchical-partitioning optimizer experiments and "
                    "emit simple-regret records as CSV.")
    p.add_argument("--config", metavar="PATH",
                   help="JSON file with ExperimentSpec fields; "
                        "flags below override it")
    p.add_argument("--algo", dest="algorithms", action="extend",
                   type=_comma_list(str), metavar="NAME",
                   help="algorithm to run: sequool, stroquool, soo, uniform, "
                        "or doo:NU:RHO (repeatable)")
    p.add_argument("--objective", metavar="NAME",
                   help="benchmark objective: garland or wrapped-sine")
    p.add_argument("--budget", dest="budgets", action="extend",
                   type=_comma_list(int), metavar="N",
                   help="opening budget(s) n; repeatable, commas allowed "
                        "(e.g. --budget 100,1000)")
    p.add_argument("--noise-b", action="extend", type=_comma_list(float),
                   metavar="B",
                   help="noise half-range(s) b >= 0; repeatable, commas allowed")
    p.add_argument("--seeds", type=int, metavar="COUNT",
                   help="number of repeats per grid point (default 20)")
    p.add_argument("--delta", type=float, metavar="D",
                   help="confidence level in (0, 1), only written into the "
                        "records header (default 0.05)")
    p.add_argument("--branching", type=int, metavar="K",
                   help="children per split (default 3)")
    p.add_argument("--out", metavar="PATH",
                   help="CSV output path (default: print records to stdout)")
    p.add_argument("--master-seed", type=int, metavar="SEED",
                   help="root seed for the per-run seed derivation (default 0)")
    p.add_argument("--jobs", type=int, default=1, metavar="J",
                   help="parallel worker processes (default 1)")
    p.add_argument("--summary", action="store_true",
                   help="print a median-regret table after the run")
    return p


def spec_from_args(args) -> ExperimentSpec:
    """The ExperimentSpec of parsed `args`: the flags laid over the --config
    document, a JSON object of ExperimentSpec fields, field by field."""
    names = [f.name for f in dataclasses.fields(ExperimentSpec)]
    fields = {}
    if args.config:
        with open(args.config) as fh:
            fields = json.load(fh)
        if not isinstance(fields, dict):
            raise ValueError(f"--config {args.config}: not a JSON object")
        unknown = fields.keys() - set(names)
        if unknown:
            raise ValueError(f"--config {args.config}: unknown settings: "
                             + ", ".join(sorted(unknown)))
    fields.update((name, getattr(args, name)) for name in names
                  if getattr(args, name) is not None)
    missing = [k for k in ("algorithms", "objective", "budgets") if not fields.get(k)]
    if missing:
        raise ValueError("missing required settings: " + ", ".join(missing)
                         + " (pass --algo/--objective/--budget or --config)")
    return ExperimentSpec(**fields)


def main(argv=None) -> int:
    """Run the CLI and return its exit status: 1, with one `error:` line
    naming it, for a malformed flag value or a rejected setting, before any
    task runs or --out is created; argparse's usage and exit 2 for an
    unknown flag.  A run's fault that is no rejected input raises."""
    try:
        args = build_parser().parse_args(argv)
        spec = spec_from_args(args)
        records = run_experiment(spec, jobs=args.jobs)
        if spec.out is None:
            write = record_writer(sys.stdout, spec)
            for rec in records:
                write(rec)
        if args.summary:
            print(format_summary(summarize(records)))
    except (argparse.ArgumentError, ValueError, OSError, TaskError) as exc:
        if isinstance(exc, TaskError) and not isinstance(exc.cause, ValueError):
            raise  # not a rejected input but a fault: keep the traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
