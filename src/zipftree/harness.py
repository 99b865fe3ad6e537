"""Experiment harness: run (algorithm x budget x noise x repeat) grids,
score simple regret against the objective's supremum, and read/write CSV
records.

Determinism contract: the per-run RNG seed is derived by hashing
(master_seed, algorithm label, n, b, repeat index), so any sub-grid of a
spec reproduces exactly the same records wherever it runs -- serially, in a
process pool, or in a later session.  Wall-clock times are the one column
exempt from reproducibility.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .objectives import NoiseModel, get_objective
from .optimizers import (RunConfig, doo_run, sequool_run, soo_run,
                         stroquool_run, uniform_run)
from .theory import BoundInputs, SmoothnessParams, sequool_bound, stroquool_bounds

__all__ = [
    "AlgoSpec", "ExperimentSpec", "RegretRecord", "TaskError", "derive_seed",
    "run_experiment", "summarize", "emit_bound_overlay",
    "write_records", "read_records",
]

CSV_FIELDS = ("algo", "objective", "n", "b", "seed", "regret",
              "openings", "evaluations", "wall_ms")

# name -> (deterministic feedback only, runner(a, obj, noise, cfg)) with a the
# AlgoSpec; runners look the *_run functions up as module globals at call time
_ALGOS = {
    "sequool": (True, lambda a, obj, noise, cfg: sequool_run(obj, cfg)),
    "stroquool": (False, lambda a, obj, noise, cfg: stroquool_run(obj, noise, cfg)),
    "soo": (True, lambda a, obj, noise, cfg: soo_run(obj, cfg)),
    "doo": (True, lambda a, obj, noise, cfg: doo_run(obj, cfg, a.nu, a.rho)),
    "uniform": (False, lambda a, obj, noise, cfg: uniform_run(obj, noise, cfg)),
}


@dataclass(frozen=True)
class AlgoSpec:
    name: str
    nu: float | None = None
    rho: float | None = None

    @property
    def label(self):
        if self.name == "doo":
            return f"doo:nu={self.nu:g}:rho={self.rho:g}"
        return self.name


def parse_algo(token) -> AlgoSpec:
    """"sequool" | "doo:1.0:0.5" | {"name": "doo", "nu": 1, "rho": 0.5}"""
    if isinstance(token, AlgoSpec):
        return token
    if isinstance(token, dict):
        name = token.get("name")
        spec = AlgoSpec(name, token.get("nu"), token.get("rho"))
    else:
        name, *rest = str(token).split(":")
        if name == "doo":
            if len(rest) != 2:
                raise ValueError(
                    f"algorithm token {token!r} invalid: doo needs nu and rho, "
                    "e.g. doo:1.0:0.5")
            spec = AlgoSpec("doo", float(rest[0]), float(rest[1]))
        else:
            if rest:
                raise ValueError(f"algorithm {name!r} takes no parameters")
            spec = AlgoSpec(name)
    if spec.name not in _ALGOS:
        raise ValueError(f"unknown algorithm {spec.name!r} "
                         f"(known: {', '.join(sorted(_ALGOS))})")
    if spec.name == "doo" and (spec.nu is None or spec.rho is None):
        raise ValueError("doo requires nu and rho")
    return spec


@dataclass
class ExperimentSpec:
    """One experimental grid.

    seeds is either an integer repeat count (repeat indices 0..count-1) or an
    explicit list of repeat indices (so a later spec can extend an earlier
    run without recomputing it).
    """

    algorithms: list
    objective: str
    budgets: list
    noise_b: list = None
    seeds: object = 20
    delta: float = 0.05
    branching: int = 3
    out: str | None = None
    master_seed: int = 0

    def __post_init__(self):
        if not self.algorithms:
            raise ValueError("algorithms must be nonempty")
        self.algorithms = [parse_algo(a) for a in self.algorithms]
        self.budgets = [int(n) for n in self.budgets]
        if not self.budgets:
            raise ValueError("budgets must be nonempty")
        if any(b >= a for a, b in zip(self.budgets[1:], self.budgets)):
            raise ValueError("budgets must be strictly increasing")
        self.noise_b = [float(b) for b in (self.noise_b or [0.0])]
        if not self.noise_b:
            raise ValueError("noise_b must be nonempty")
        if any(b < 0 for b in self.noise_b):
            raise ValueError("noise levels must be >= 0")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.branching < 2:
            raise ValueError("branching must be at least 2")

    @property
    def repeat_indices(self):
        if isinstance(self.seeds, int):
            return list(range(self.seeds))
        return [int(s) for s in self.seeds]

    @classmethod
    def from_json(cls, source):
        """Build from a dict or a path to a JSON document."""
        if isinstance(source, (str, bytes)):
            with open(source) as fh:
                source = json.load(fh)
        return cls(**source)


@dataclass
class RegretRecord:
    algo: str
    objective: str
    n: int
    b: float
    seed: int
    regret: float
    openings: int
    evaluations: int
    wall_ms: float


class TaskError(RuntimeError):
    """A grid task's run raised; the message names the task and `cause`,
    also the __cause__, is the original exception.  `cause` survives the
    pickling of a pool worker's error, which replaces __cause__."""

    def __init__(self, message, cause=None):
        super().__init__(message)
        self.cause = cause


def derive_seed(master_seed, algo_label, n, b, rep):
    """Per-run seed: SHA-256 of the identifying tuple, top 8 bytes."""
    msg = f"{master_seed}|{algo_label}|{n}|{b!r}|{rep}".encode()
    return int.from_bytes(hashlib.sha256(msg).digest()[:8], "big")


def _run_one(task):
    (name, nu, rho, objective_name, n, b, rep, branching, master_seed) = task
    algo = AlgoSpec(name, nu, rho)
    obj = get_objective(objective_name)
    seed = derive_seed(master_seed, algo.label, n, b, rep)
    cfg = RunConfig(budget_n=n, seed=seed, branching=branching)
    deterministic, runner = _ALGOS[name]
    if deterministic and b != 0.0:
        raise ValueError(f"{name} is a deterministic-feedback algorithm; "
                         f"run it with b=0 (got b={b})")
    noise = NoiseModel(b, seed=seed)
    t0 = time.perf_counter()
    try:
        res = runner(algo, obj, noise, cfg)
    except Exception as exc:
        raise TaskError(f"task (algo={algo.label}, objective={objective_name}, "
                        f"n={n}, b={b!r}, rep={rep}) failed: {exc!r}",
                        exc) from exc
    wall_ms = (time.perf_counter() - t0) * 1e3
    # regret is always scored on the true objective value at x(n)
    regret = obj.optimum_value - obj.eval(res.recommendation)
    return RegretRecord(algo.label, objective_name, n, b, seed, regret,
                        res.openings_used, res.evaluations_used, wall_ms)


def _tasks(spec: ExperimentSpec):
    return [(a.name, a.nu, a.rho, spec.objective, n, b, rep,
             spec.branching, spec.master_seed)
            for a in spec.algorithms
            for n in spec.budgets
            for b in spec.noise_b
            for rep in spec.repeat_indices]


def run_experiment(spec: ExperimentSpec, jobs: int = 1):
    """Execute the full grid; returns the records in grid order.

    Records are written incrementally to spec.out (CSV) as runs finish;
    jobs > 1 fans the runs over min(jobs, tasks) worker processes (results
    are merged back in grid order, so parallel output equals serial output).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    obj = get_objective(spec.objective)
    if obj.optimum_value is None:
        raise ValueError(f"objective {spec.objective!r} has no optimum_value; "
                         "cannot score regret")
    tasks = _tasks(spec)
    jobs = min(jobs, len(tasks))  # the pool forks every worker up front
    records = []
    with (open(spec.out, "w", newline="") if spec.out else nullcontext()) as fh:
        if fh:
            write = record_writer(fh, spec_comments(spec))
            fh.flush()
        with (ProcessPoolExecutor(max_workers=jobs) if jobs > 1
              else nullcontext()) as pool:
            produced = (pool.map(_run_one, tasks, chunksize=8) if pool
                        else map(_run_one, tasks))
            for rec in produced:
                records.append(rec)
                if fh:
                    write(rec)
                    fh.flush()
    return records


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"  # >= 12 significant digits, round-trip exact
    return str(value)


def spec_comments(spec: ExperimentSpec):
    """Comment lines heading a grid's records: the objective, its optimum
    and the settings that reproduce the grid."""
    obj = get_objective(spec.objective)
    lines = [f"objective={obj.name}", f"optimum_value={obj.optimum_value!r}"]
    if obj.optimum_note:
        lines.append(f"optimum_note={obj.optimum_note}")
    lines.append(f"master_seed={spec.master_seed} "
                 f"branching={spec.branching} delta={spec.delta!r}")
    return lines


def record_writer(fh, comments=()):
    """Write the records header (title, `# comment` lines, CSV field row) to
    the text stream `fh`; returns write(record), which appends one row."""
    fh.write("# zipftree regret records\n")
    for line in comments:
        fh.write(f"# {line}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_FIELDS)

    def write(rec: RegretRecord):
        writer.writerow([rec.algo, rec.objective, rec.n, _fmt(rec.b),
                         rec.seed, _fmt(rec.regret), rec.openings,
                         rec.evaluations, _fmt(rec.wall_ms)])

    return write


def write_records(records, path, meta=None):
    """Plain CSV dump (same schema as run_experiment's incremental writer)."""
    with open(path, "w", newline="") as fh:
        write = record_writer(fh, [f"{k}={v}" for k, v in (meta or {}).items()])
        for rec in records:
            write(rec)


def read_records(path):
    """Parse a records CSV back (comment lines ignored)."""
    records = []
    with open(path, newline="") as fh:
        rows = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(rows, None)
        if header is None:
            return records
        if tuple(header) != CSV_FIELDS:
            raise ValueError(f"unexpected header {header!r}")
        for row in rows:
            records.append(RegretRecord(
                row[0], row[1], int(row[2]), float(row[3]), int(row[4]),
                float(row[5]), int(row[6]), int(row[7]), float(row[8])))
    return records


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def summarize(records, fit_x="n"):
    """Group records by (algo, n, b) and fit log-regret trends.

    Returns {"groups": {(algo, n, b): {median, q10, q90, count}},
             "fits":   {(algo, b): {slope, slope_log2, r2, flat, points,
                                    dropped_nonpositive}}}.

    Fits regress log(median regret) on n (or sqrt(n) with fit_x="sqrt_n")
    per (algo, b).  Constant groups report flat=True with r2=None (the fit
    is degenerate: zero variance).  Nonpositive medians cannot be logged and
    are dropped (counted in dropped_nonpositive).
    """
    if not records:
        raise ValueError("no records")
    if fit_x not in ("n", "sqrt_n"):
        raise ValueError("fit_x must be 'n' or 'sqrt_n'")
    groups = {}
    for rec in records:
        groups.setdefault((rec.algo, rec.n, rec.b), []).append(rec.regret)
    gstats = {}
    for key, vals in groups.items():
        arr = np.asarray(vals, dtype=float)
        gstats[key] = {"median": float(np.median(arr)),
                       "q10": float(np.quantile(arr, 0.10)),
                       "q90": float(np.quantile(arr, 0.90)),
                       "count": len(vals)}

    fits = {}
    series = {}
    for (algo, n, b), stats in gstats.items():
        series.setdefault((algo, b), []).append((n, stats["median"]))
    for key, pts in series.items():
        pts.sort()
        xs = [n for n, r in pts if r > 0]
        ys = [math.log(r) for n, r in pts if r > 0]
        dropped = len(pts) - len(xs)
        if fit_x == "sqrt_n":
            xs = [math.sqrt(x) for x in xs]
        if len(xs) < 2:
            fits[key] = {"slope": None, "slope_log2": None, "r2": None,
                         "flat": None, "points": len(xs),
                         "dropped_nonpositive": dropped}
            continue
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if np.ptp(ys) == 0.0:
            # constant regret: slope 0, R^2 undefined -> flat
            fits[key] = {"slope": 0.0, "slope_log2": 0.0, "r2": None,
                         "flat": True, "points": len(xs),
                         "dropped_nonpositive": dropped}
            continue
        slope, intercept = np.polyfit(xs, ys, 1)
        pred = slope * xs + intercept
        ss_res = float(np.sum((ys - pred) ** 2))
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        fits[key] = {"slope": float(slope),
                     "slope_log2": float(slope) / math.log(2.0),
                     "r2": 1.0 - ss_res / ss_tot,
                     "flat": False, "points": len(xs),
                     "dropped_nonpositive": dropped}
    return {"groups": gstats, "fits": fits}


def format_summary(summary):
    """Plain-text table of the per-(algo, n, b) medians."""
    lines = [f"{'algo':24} {'n':>7} {'b':>6} {'median':>13} {'q10':>13} "
             f"{'q90':>13} {'runs':>5}"]
    for (algo, n, b) in sorted(summary["groups"]):
        g = summary["groups"][(algo, n, b)]
        lines.append(f"{algo:24} {n:>7} {b:>6g} {g['median']:>13.6g} "
                     f"{g['q10']:>13.6g} {g['q90']:>13.6g} {g['count']:>5}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# bound overlays
# ---------------------------------------------------------------------------

def emit_bound_overlay(spec: ExperimentSpec, params: SmoothnessParams, out=None):
    """Theoretical-bound curve for each budget: the deterministic-feedback
    bound plus, per requested noise level, the noise-adaptive bound.  Writes
    CSV to `out` when given (empty field where a bound is undefined)."""
    rows = []
    for n in spec.budgets:
        row = {"n": n, "sequool": sequool_bound(n, params)["theorem"]}
        for b in spec.noise_b:
            try:
                value = stroquool_bounds(BoundInputs(n, b, spec.delta), params)["bound"]
            except ValueError:
                value = None  # n too small for the high-noise bound (its only error)
            row[f"stroquool_b={b:g}"] = value
        rows.append(row)
    if out:
        fields = list(rows[0].keys())
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            for row in rows:
                writer.writerow(["" if row[f] is None else _fmt(row[f])
                                 for f in fields])
    return rows
