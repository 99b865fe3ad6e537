"""The benchmark's workloads and one pass of each.

Every workload is a closed loop: one caller, and each run starts after the
previous one ends.  Inputs depend only on the master seed; per-run noise
seeds come from `harness.derive_seed(master, algo_label, n, b, 0)`, as the
CLI derives them for repeat 0.
"""

from __future__ import annotations

import gc
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import ALGOS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# (algorithm token, objective, n, b), run in this order in every pass
LIBRARY = {
    "deterministic": (
        ("sequool", "garland", 100_000, 0.0),
        ("soo", "garland", 20_000, 0.0),
        ("doo:1:0.6", "garland", 20_000, 0.0),
        ("uniform", "garland", 20_000, 0.0),
    ),
    "noisy": (
        ("stroquool", "garland", 1_000_000, 0.1),
        ("stroquool", "garland", 1_000_000, 1.0),
        ("stroquool", "wrapped-sine", 1_000_000, 0.1),
        ("stroquool", "wrapped-sine", 1_000_000, 1.0),
        ("uniform", "garland", 20_000, 1.0),
    ),
}
CLI_JOBS = 2
CLI_ARGS = ("--algo", "stroquool", "--algo", "uniform", "--objective", "garland",
            "--budget", "100,1000", "--noise-b", "0,0.1,1", "--seeds", "40",
            "--jobs", str(CLI_JOBS), "--summary")
CLI_RUNS = 2 * 2 * 3 * 40
WORKLOADS = (*LIBRARY, "cli-sweep")
TIMEOUT_S = 170


@dataclass
class Pass:
    """One pass of a workload: its wall time, the time in each algorithm's
    runs, the raw evaluations it made, the runs it completed, and its
    results keyed by run."""

    wall: float
    algo_s: dict
    evaluations: int
    runs: int
    records: dict


def use_source_tree():
    """Import zipftree from the checkout's `src/`; exit 2 when it is absent."""
    if not (SRC / "zipftree" / "__init__.py").is_file():
        print(f"error: no zipftree sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env():
    """Environment for child interpreters: zipftree from `src/`, temporary
    files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_child(cmd):
    """Run `cmd` in its own process group to completion; returns
    (seconds, returncode, stdout, stderr).  On timeout the whole group,
    pool workers included, is killed and reaped."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    return time.perf_counter() - t0, proc.returncode, out, err


def setup(workload):
    """What a workload needs before its first run.  Library workloads:
    import, objective construction and the harmonic warm-up at the largest
    n; cli-sweep: `import zipftree.cli`.  Returns the objectives by name."""
    if workload == "cli-sweep":
        import zipftree.cli  # noqa: F401
        return {}
    from zipftree import objectives, theory
    runs = LIBRARY[workload]
    objs = {name: objectives.get_objective(name) for _, name, _, _ in runs}
    theory.harmonic(max(n for _, _, n, _ in runs))
    return objs


def run_key(label, objective, n, b, seed):
    return f"{label}|{objective}|{n}|{b!r}|{seed}"


def _run(optimizers, algo, obj, noise, cfg):
    # optimizers' attributes are looked up per call so a tracer can wrap them
    if algo.name == "sequool":
        return optimizers.sequool_run(obj, cfg)
    if algo.name == "stroquool":
        return optimizers.stroquool_run(obj, noise, cfg)
    if algo.name == "soo":
        return optimizers.soo_run(obj, cfg)
    if algo.name == "doo":
        return optimizers.doo_run(obj, cfg, algo.nu, algo.rho)
    return optimizers.uniform_run(obj, noise, cfg)


def library_pass(workload, objs, master_seed):
    from zipftree import harness, objectives, optimizers
    algo_s = dict.fromkeys(ALGOS, 0.0)
    records = {}
    evaluations = 0
    t_pass = time.perf_counter()
    for token, objective, n, b in LIBRARY[workload]:
        algo = harness.parse_algo(token)
        seed = harness.derive_seed(master_seed, algo.label, n, b, 0)
        cfg = optimizers.RunConfig(budget_n=n, seed=seed)
        noise = objectives.NoiseModel(b, seed=seed)
        t0 = time.perf_counter()
        try:
            res = _run(optimizers, algo, objs[objective], noise, cfg)
        except Exception as exc:  # a failed run is counted, not fatal
            record = {"error": repr(exc)}
        else:
            record = {"recommendation": repr(res.recommendation),
                      "value_estimate": repr(res.recommendation_value_estimate),
                      "openings": res.openings_used,
                      "evaluations": res.evaluations_used,
                      "units": res.budget_units_used,
                      "deepest_depth": res.deepest_depth}
            evaluations += res.evaluations_used
        algo_s[algo.name] += time.perf_counter() - t0
        records[run_key(algo.label, objective, n, b, seed)] = record
    wall = time.perf_counter() - t_pass
    return Pass(wall, algo_s, evaluations, len(records), records)


def cli_command(master_seed, trace_dir=None):
    args = [*CLI_ARGS, "--master-seed", str(master_seed)]
    if trace_dir is None:
        return [sys.executable, "-m", "zipftree.cli", *args]
    return [sys.executable, str(HERE / "cli_traced.py"), str(trace_dir), *args]


def cli_records(stdout):
    """Split CLI stdout into records: the comment header, one entry per CSV
    row with `wall_ms` removed, and the summary table.  Also returns the
    parsed rows."""
    head, rows, summary = [], [], []
    for line in stdout.splitlines():
        if line.startswith("#"):
            head.append(line)
        elif "," in line and not summary:
            rows.append(line.split(","))
        else:
            summary.append(line)
    records = {"head": "\n".join(head), "summary": "\n".join(summary)}
    for i, row in enumerate(rows):
        records["csv-header" if i == 0 else f"row{i - 1:03d}"] = ",".join(row[:-1])
    return records, rows[1:]


def cli_pass(master_seed, trace_dir=None):
    wall, rc, out, err = run_child(cli_command(master_seed, trace_dir))
    if rc != 0:
        print(f"cli-sweep exited with {rc}:\n{err}", file=sys.stderr)
    records, rows = cli_records(out)
    algo_s = dict.fromkeys(ALGOS, 0.0)
    evaluations = 0
    for row in rows:
        if len(row) == 9 and row[0] in algo_s:
            algo_s[row[0]] += float(row[8]) / 1e3
            evaluations += int(row[7])
    return Pass(wall, algo_s, evaluations, len(rows), records)


def run_pass(workload, objs, master_seed, trace_dir=None):
    if workload == "cli-sweep":
        return cli_pass(master_seed, trace_dir)
    # a full collection resets the collector's generation counts, so every
    # pass starts from the same collector state, not one left by earlier passes
    gc.collect()
    return library_pass(workload, objs, master_seed)
