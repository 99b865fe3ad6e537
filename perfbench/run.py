"""zipftree benchmark.

    python3 perfbench/run.py --workload {deterministic,noisy,cli-sweep,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; zipftree is imported from `src/`.  One
run repeats passes of the workload until `--seconds` have elapsed (at
least one pass), checks every result (golden outputs for seed 0,
invariants otherwise, and equality across passes), prints a table of the
metrics with their units, and prints as its last line a JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics (END_TO_END).  --trace 1 reports
the per-layer metrics (PER_LAYER): it alternates untraced passes with
passes traced by tracer.py and adds `python -X importtime` probes.  See
README.md for what every metric means and which layer moves which metric.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time

import golden
import workloads
from tracer import ALGOS, Tracer
from workloads import CLI_JOBS, CLI_RUNS, HERE, OUT

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("evals_per_s", "1/s"),
    ("runs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
MODULES = ("partition", "objectives", "optimizers", "theory", "harness", "cli")
PER_LAYER = (
    ("partition.open_cell.calls", "count"),
    ("partition.open_cell.self_s", "s"),
    ("partition.add_evaluations.calls", "count"),
    ("partition.add_evaluations.self_s", "s"),
    ("partition.cells", "count"),
    ("partition.zero_width_cells", "count"),
    ("objectives.observe_sum.calls", "count"),
    ("objectives.observe_sum.self_s", "s"),
    ("objectives.eval.calls", "count"),
    ("objectives.eval.self_s", "s"),
    ("objectives.fn.calls", "count"),
    ("objectives.fn_s", "s"),
    ("objectives.distinct_points", "count"),
    ("objectives.distinct_ratio", "ratio"),
    ("objectives.noise.calls", "count"),
    ("objectives.noise.draws", "count"),
    ("objectives.noise_s", "s"),
    *((f"optimizers.{algo}.self_s", "s") for algo in ALGOS),
    ("optimizers.runs", "count"),
    ("optimizers.openings", "count"),
    ("optimizers.evaluations", "count"),
    ("optimizers.units", "count"),
    ("optimizers.units_per_n", "ratio"),
    ("theory.harmonic.calls", "count"),
    ("theory.harmonic_s", "s"),
    ("harness.run_experiment_s", "s"),
    ("harness.summarize_s", "s"),
    ("harness.sum_run_s", "s"),
    ("harness.parallel_efficiency", "ratio"),
    ("cli.self_s", "s"),
    *((f"{module}.import_s", "s") for module in (*MODULES, "scipy")),
    ("runtime.gc_s", "s"),
    ("runtime.gc_collections", "count"),
    ("trace.overhead_s", "s"),
    *((f"{algo}_s", "s") for algo in ALGOS),
)
SETUP_PROBES = 7
IMPORT_PROBES = 3


def medians(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


# -- probes -------------------------------------------------------------------

def probe_setup(workload):
    """Seconds from spawning a fresh interpreter until the workload's set-up
    is done (the probe's `ready` line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload],
                            cwd=workloads.ROOT, env=workloads.child_env(),
                            stdout=subprocess.PIPE, text=True)
    with proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed")
    return elapsed


def parse_importtime(text):
    """`<module>.import_s` and `scipy.import_s` from `-X importtime` output.

    A zipftree module's figure is its cumulative time less the cumulative
    time of zipftree modules imported inside it; scipy's is the cumulative
    time of the outermost scipy imports.
    """
    pending = {}  # nesting level -> finished nodes waiting for their parent
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        level = (len(name) - len(name.lstrip()) - 1) // 2
        node = (name.strip(), int(cumulative) / 1e6, pending.pop(level + 1, []))
        pending.setdefault(level, []).append(node)
    out = {f"{m}.import_s": 0.0 for m in (*MODULES, "scipy")}

    def walk(node, in_scipy):
        name, cumulative, children = node
        key = f"{name[len('zipftree.'):]}.import_s"
        if key in out and name.startswith("zipftree."):
            out[key] += cumulative - sum(nested_zipftree(c) for c in children)
        scipy = name == "scipy" or name.startswith("scipy.")
        if scipy and not in_scipy:
            out["scipy.import_s"] += cumulative
        for c in children:
            walk(c, in_scipy or scipy)

    def nested_zipftree(node):
        name, cumulative, children = node
        if name == "zipftree" or name.startswith("zipftree."):
            return cumulative
        return sum(nested_zipftree(c) for c in children)

    for roots in pending.values():
        for node in roots:
            walk(node, False)
    return out


def import_times():
    samples = []
    for _ in range(IMPORT_PROBES):
        _, rc, _, err = workloads.run_child(
            [sys.executable, "-X", "importtime", "-c", "import zipftree.cli"])
        if rc != 0:
            raise RuntimeError(f"import probe failed:\n{err}")
        samples.append(parse_importtime(err))
    return medians(samples)


# -- correctness ----------------------------------------------------------------

def score(workload, passes, master_seed, objs):
    """(attempted, failed): runs attempted over all passes, and runs that
    raised, differ from golden or break an invariant, or differ from the
    first pass."""
    reference = golden.load(workload, master_seed)
    first = passes[0].records
    runs = CLI_RUNS if workload == "cli-sweep" else len(workloads.LIBRARY[workload])
    attempted = failed = 0
    for p in passes:
        bad = golden.check(workload, p.records, reference, objs, runs)
        bad |= golden.differing(p.records, first)
        attempted += runs
        failed += min(runs, len(bad))
    return attempted, failed


# -- per-layer metrics ------------------------------------------------------------

def layer_metrics(runs, rests, traced_pass):
    """Per-layer metrics of one traced pass from its run summaries and the
    out-of-run totals of each process (see tracer.py)."""
    spans = {}
    for part in [r["spans"] for r in runs] + [r["spans"] for r in rests]:
        for name, (calls, total, own) in part.items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def run_sum(field):
        return sum(r[field] for r in runs)

    run_evals = sum(r["spans"].get("objectives.eval", [0])[0] for r in runs)
    run_n = run_sum("n")
    m = {
        "partition.open_cell.calls": calls("partition.open_cell"),
        "partition.open_cell.self_s": own("partition.open_cell"),
        "partition.add_evaluations.calls": calls("partition.add_evaluations"),
        "partition.add_evaluations.self_s": own("partition.add_evaluations"),
        "partition.cells": run_sum("cells"),
        "partition.zero_width_cells": run_sum("zero_width_cells"),
        "objectives.observe_sum.calls": calls("objectives.observe_sum"),
        "objectives.observe_sum.self_s": own("objectives.observe_sum"),
        "objectives.eval.calls": calls("objectives.eval"),
        "objectives.eval.self_s": own("objectives.eval"),
        "objectives.fn.calls": calls("objectives.fn"),
        "objectives.fn_s": total("objectives.fn"),
        "objectives.distinct_points": run_sum("distinct_points"),
        "objectives.distinct_ratio":
            run_sum("distinct_points") / run_evals if run_evals else 0.0,
        "objectives.noise.calls": calls("objectives.noise"),
        "objectives.noise.draws":
            sum(r["counters"].get("objectives.noise.draws", 0) for r in runs),
        "objectives.noise_s": total("objectives.noise"),
        "optimizers.runs": len(runs),
        "optimizers.openings": run_sum("openings"),
        "optimizers.evaluations": run_sum("evaluations"),
        "optimizers.units": run_sum("units"),
        "optimizers.units_per_n": run_sum("units") / run_n if run_n else 0.0,
        "theory.harmonic.calls": calls("theory.harmonic"),
        "theory.harmonic_s": total("theory.harmonic"),
        "harness.run_experiment_s": total("harness.run_experiment"),
        "harness.summarize_s": total("harness.summarize"),
        "cli.self_s": own("cli.main"),
        "runtime.gc_s": run_sum("gc_s") + sum(r["gc_s"] for r in rests),
        "runtime.gc_collections":
            run_sum("gc_collections") + sum(r["gc_collections"] for r in rests),
    }
    for algo in ALGOS:
        m[f"optimizers.{algo}.self_s"] = own(f"optimizers.{algo}")
    # harness wall_ms column of the traced pass, zero for library workloads
    sum_run = sum(traced_pass.algo_s.values()) if m["harness.run_experiment_s"] else 0.0
    m["harness.sum_run_s"] = sum_run
    m["harness.parallel_efficiency"] = (
        sum_run / (CLI_JOBS * m["harness.run_experiment_s"]) if sum_run else 0.0)
    return m


def read_trace_dir(path):
    """Run summaries and out-of-run totals written by cli_traced.py."""
    runs = []
    for f in sorted(path.glob("trace-*.jsonl")):
        runs.extend(json.loads(line) for line in f.read_text().splitlines())
    main = path / "main.json"
    rests = [json.loads(main.read_text())] if main.exists() else []
    return runs, rests


# -- the two kinds of run -------------------------------------------------------

def run_untraced(workload, seed, seconds):
    objs = workloads.setup(workload)
    passes, setups = [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(workloads.run_pass(workload, objs, seed))
        # probes spread over the run, so a slow spell on the host moves a
        # few of them and not the median
        setups.append(probe_setup(workload))
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(workload))
    # the probes are children too, but import less than the CLI process does
    who = resource.RUSAGE_CHILDREN if workload == "cli-sweep" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "evals_per_s": statistics.median(p.evaluations / p.wall for p in passes),
        "runs_per_s": statistics.median(p.runs / p.wall for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {f"{a}_s": statistics.median(p.algo_s[a] for p in passes)
             for a in ALGOS if any(p.algo_s[a] for p in passes)}
    notes = (f"{len(passes)} passes ({' '.join(f'{p.wall:.3f}' for p in passes)} s), "
             f"{len(setups)} set-up probes ({' '.join(f'{s:.3f}' for s in setups)} s)")
    return passes, objs, metrics, dict(END_TO_END), extra, notes


def run_traced(workload, seed, seconds):
    library = workload != "cli-sweep"
    tracer = Tracer()
    if library:
        tracer.install()  # the harmonic warm-up is traced as set-up
    try:
        objs = workloads.setup(workload)
    finally:
        if library:
            tracer.uninstall()
    trace_dir = OUT / "trace"
    plain, traced, layers = [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        if len(plain) <= len(traced):
            plain.append(workloads.run_pass(workload, objs, seed))
            continue
        if library:
            tracer.install()
            tracer.begin_pass()
            try:
                p = workloads.run_pass(workload, objs, seed)
            finally:
                tracer.uninstall()
            runs, rests = tracer.runs, [tracer.fold_rest()]
        else:
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
            p = workloads.run_pass(workload, objs, seed, trace_dir)
            runs, rests = read_trace_dir(trace_dir)
        traced.append(p)
        layers.append(layer_metrics(runs, rests, p))
    metrics = medians(layers)
    metrics.update(import_times())
    metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                   - statistics.median(p.wall for p in plain))
    for algo in ALGOS:
        metrics[f"{algo}_s"] = statistics.median(p.algo_s[algo] for p in plain)
    notes = (f"{len(plain)} untraced and {len(traced)} traced passes, "
             f"{IMPORT_PROBES} import probes")
    return plain + traced, objs, metrics, dict(PER_LAYER), {}, notes


def run_all(args):
    rc = 0
    for workload in workloads.WORKLOADS:
        rc |= subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)]).returncode
    return rc


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measure passes for this long (at least one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workloads.use_source_tree()
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    run = run_traced if args.trace else run_untraced
    passes, objs, metrics, units, extra, notes = run(args.workload, args.seed, args.seconds)
    attempted, failed = score(args.workload, passes, args.seed, objs)

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace}: {notes}")
    rows = [(k, v, units[k]) for k, v in metrics.items()]
    rows += [(k, v, "s") for k, v in extra.items()]
    rows.append(("error_rate", failed / attempted, f"ratio ({failed} of {attempted} runs)"))
    for name, value, unit in rows:
        print(f"{name:34} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
