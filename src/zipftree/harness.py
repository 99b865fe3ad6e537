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
import functools
import hashlib
import math
import os
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields

import numpy as np

from .objectives import NoiseModel, get_objective
from .optimizers import (RunConfig, doo_run, sequool_run, soo_run,
                         stroquool_run, uniform_run)
from .partition import (checked_delta, checked_integer, checked_range,
                        is_real)
from .theory import (BoundInputs, SmoothnessParams, check_nu_rho, sequool_bound,
                     stroquool_bounds)

__all__ = [
    "AlgoSpec", "ExperimentSpec", "RegretRecord", "TaskError", "derive_seed",
    "run_experiment", "summarize", "emit_bound_overlay", "read_records",
]

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


def _checked_list(values, name, check, *args):
    """[check(v, name, *args) for v in values], which must be nonempty;
    anything else raises ValueError."""
    try:
        checked = [check(v, name, *args) for v in values]
    except TypeError:  # not iterable
        raise ValueError(f"{name} must be a list: {values!r}") from None
    if not checked:
        raise ValueError(f"{name} must be nonempty")
    return checked


def _check_unique(values, name):
    """Raise ValueError at the first entry of `values` equal to an earlier one."""
    seen = set()
    for v in values:
        if v in seen:
            raise ValueError(f"{name} must not repeat: {v!r}")
        seen.add(v)


def parse_algo(token) -> AlgoSpec:
    """"sequool" | "doo:1.0:0.5" | {"name": "doo", "nu": 1, "rho": 0.5}"""
    if isinstance(token, AlgoSpec):
        return token
    if isinstance(token, dict):
        spec = AlgoSpec(token.get("name"), token.get("nu"), token.get("rho"))
        if not (isinstance(spec.name, str) and all(
                v is None or is_real(v) for v in (spec.nu, spec.rho))):
            raise ValueError(f"algorithm {token!r} invalid: name must be a "
                             "string, nu and rho numbers")
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
    if spec.name == "doo":
        if spec.nu is None or spec.rho is None:
            raise ValueError("doo requires nu and rho")
        try:
            check_nu_rho(spec.nu, spec.rho)
        except ValueError as exc:
            raise ValueError(f"algorithm {token!r} invalid: {exc}") from None
    return spec


@dataclass(frozen=True)
class ExperimentSpec:
    """One experimental grid.

    seeds is a repeat count >= 1 (repeat indices 0..count-1) or a nonempty
    list of repeat indices (so a later spec can extend an earlier run
    without recomputing it).  noise_b None means [0.0].  No axis repeats an
    entry (algorithms by label).  The fields cannot be reassigned, but a
    list changed in place is not checked again.
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
        # a --config document can hold any JSON type, so every field is
        # checked for its type before it is used, and put stores it as checked
        put = functools.partial(object.__setattr__, self)
        if not isinstance(self.algorithms, (list, tuple)):
            raise ValueError(f"algorithms must be a list: {self.algorithms!r}")
        if not self.algorithms:
            raise ValueError("algorithms must be nonempty")
        put("algorithms", [parse_algo(a) for a in self.algorithms])
        if not isinstance(self.objective, str):
            raise ValueError(f"objective must be a name: {self.objective!r}")
        put("budgets", _checked_list(self.budgets, "budgets", checked_integer, 1))
        if any(b >= a for a, b in zip(self.budgets[1:], self.budgets)):
            raise ValueError("budgets must be strictly increasing")
        put("noise_b", _checked_list([0.0] if self.noise_b is None
                                     else self.noise_b, "noise_b", checked_range))
        put("delta", checked_delta(self.delta))
        put("branching", checked_integer(self.branching, "branching", 2))
        if not (self.out is None or isinstance(self.out, (str, os.PathLike))):
            raise ValueError(f"out must be a path: {self.out!r}")
        put("master_seed", checked_integer(self.master_seed, "master_seed"))
        try:
            put("seeds", [checked_integer(s, "seeds") for s in self.seeds]
                if isinstance(self.seeds, list)
                else checked_integer(self.seeds, "seeds"))
        except ValueError:
            raise ValueError(
                f"seeds must be an int or a list of ints: {self.seeds!r}") from None
        if not self.repeat_indices:
            raise ValueError("seeds must be a count >= 1 or a nonempty list")
        _check_unique([a.label for a in self.algorithms], "algorithms")
        _check_unique(self.noise_b, "noise_b")
        _check_unique(self.repeat_indices, "seeds")

    @property
    def repeat_indices(self):
        if isinstance(self.seeds, int):
            return list(range(self.seeds))
        return list(self.seeds)


@dataclass
class RegretRecord:
    """One run's row of the records CSV: its fields are the columns."""

    algo: str
    objective: str
    n: int
    b: float
    seed: int
    regret: float
    openings: int
    evaluations: int
    wall_ms: float


CSV_FIELDS = tuple(f.name for f in fields(RegretRecord))


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
    algo, objective_name, n, b, rep, branching, master_seed = task
    obj = get_objective(objective_name)
    seed = derive_seed(master_seed, algo.label, n, b, rep)
    cfg = RunConfig(budget_n=n, seed=seed, branching=branching)
    runner = _ALGOS[algo.name][1]
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
    return [(a, spec.objective, n, b, rep, spec.branching, spec.master_seed)
            for a in spec.algorithms
            for n in spec.budgets
            for b in spec.noise_b
            for rep in spec.repeat_indices]


def run_experiment(spec: ExperimentSpec, jobs: int = 1):
    """Execute the full grid; returns the records in grid order.

    Records are written incrementally to spec.out (CSV) as runs finish;
    jobs > 1 fans the runs over min(jobs, tasks) worker processes (results
    are merged back in grid order, so parallel output equals serial output).
    A grid that pairs a deterministic-feedback algorithm with a noise level
    b != 0 is rejected before spec.out is opened.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    obj = get_objective(spec.objective)
    if obj.optimum_value is None:
        raise ValueError(f"objective {spec.objective!r} has no optimum_value; "
                         "cannot score regret")
    exact = next((a for a in spec.algorithms if _ALGOS[a.name][0]), None)
    if exact and max(spec.noise_b) != 0.0:
        raise ValueError(f"{exact.name} is a deterministic-feedback algorithm; "
                         f"run it with b=0 (got b={max(spec.noise_b)})")
    tasks = _tasks(spec)
    jobs = min(jobs, len(tasks))  # the pool forks every worker up front
    records = []
    with (open(spec.out, "w", newline="") if spec.out else nullcontext()) as fh:
        if fh:
            write = record_writer(fh, spec)
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


def record_writer(fh, spec: ExperimentSpec):
    """Write the records header to the text stream `fh`: a title, `# `
    comment lines naming the objective, its optimum and the settings that
    reproduce `spec`, and the CSV field row.  Returns write(record), which
    appends one row."""
    obj = get_objective(spec.objective)
    comments = ["zipftree regret records", f"objective={obj.name}",
                f"optimum_value={obj.optimum_value!r}"]
    if obj.optimum_note:
        comments.append(f"optimum_note={obj.optimum_note}")
    comments.append(f"master_seed={spec.master_seed} "
                    f"branching={spec.branching} delta={spec.delta!r}")
    fh.writelines(f"# {line}\n" for line in comments)
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_FIELDS)

    def write(rec: RegretRecord):
        writer.writerow([_fmt(getattr(rec, f)) for f in CSV_FIELDS])

    return write


def read_records(path):
    """Parse a records CSV back (comment lines ignored).  A header other
    than CSV_FIELDS, or a row of another width, raises ValueError."""
    types = typing.get_type_hints(RegretRecord)
    with open(path, newline="") as fh:
        rows = [(lineno, row) for lineno, line in enumerate(fh, 1)
                if not line.startswith("#") for row in csv.reader([line])]
    if rows and rows[0][1] != list(CSV_FIELDS):
        raise ValueError(f"unexpected header {rows[0][1]!r}")
    records = []
    for lineno, row in rows[1:]:
        if len(row) != len(CSV_FIELDS):
            raise ValueError(f"{path}, line {lineno}: {len(row)} fields, "
                             f"expected {len(CSV_FIELDS)}")
        records.append(RegretRecord(
            *(types[f](value) for f, value in zip(CSV_FIELDS, row))))
    return records


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def summarize(records):
    """Group records by (algo, n, b) and fit log-regret trends.

    Returns {"groups": {(algo, n, b): {median, q10, q90, count}},
             "fits":   {(algo, b): {slope, slope_log2, r2, flat, points,
                                    dropped_nonpositive}}}.

    Fits regress log(median regret) on n per (algo, b).  Constant groups
    report flat=True with r2=None (the fit is degenerate: zero variance).
    Nonpositive medians cannot be logged and are dropped (counted in
    dropped_nonpositive).
    """
    if not records:
        raise ValueError("no records")
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
        fit = fits[key] = {"slope": None, "slope_log2": None, "r2": None,
                           "flat": None, "points": len(xs),
                           "dropped_nonpositive": len(pts) - len(xs)}
        if len(xs) < 2:
            continue
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if np.ptp(ys) == 0.0:
            # constant regret: slope 0, R^2 undefined -> flat
            fit.update(slope=0.0, slope_log2=0.0, flat=True)
            continue
        slope, intercept = np.polyfit(xs, ys, 1)
        pred = slope * xs + intercept
        ss_res = float(np.sum((ys - pred) ** 2))
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        fit.update(slope=float(slope), slope_log2=float(slope) / math.log(2.0),
                   r2=1.0 - ss_res / ss_tot, flat=False)
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
        columns = list(rows[0].keys())
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow(["" if row[c] is None else _fmt(row[c])
                                 for c in columns])
    return rows
