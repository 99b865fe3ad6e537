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
import os
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields

import numpy as np

from .objectives import NoiseModel, get_objective
from .optimizers import (RunConfig, check_stroquool_budget, doo_run,
                         sequool_run, soo_run, stroquool_run, uniform_run)
from .partition import (checked_delta, checked_integer, checked_range,
                        is_real)
from .theory import check_nu_rho

__all__ = [
    "AlgoSpec", "ExperimentSpec", "RegretRecord", "TaskError", "derive_seed",
    "run_experiment", "summarize", "read_records",
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
            return f"doo:nu={_exact(self.nu)}:rho={_exact(self.rho)}"
        return self.name


def _exact(x):
    """float(x) as `:g` writes it where that reads back as the same float,
    else its repr, so distinct settings keep distinct labels."""
    x = float(x)
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def _checked_axis(values, name, check):
    """tuple(map(check, values)) of a nonempty list or tuple `values`;
    anything else raises ValueError."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be a list: {values!r}")
    if not values:
        raise ValueError(f"{name} must be nonempty")
    return tuple(map(check, values))


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

    algorithms, budgets and noise_b are nonempty lists or tuples, stored as
    tuples of their checked entries; noise_b None means (0.0,).  seeds is
    a repeat count >= 1 or a nonempty list of repeat indices (so a later
    spec can extend an earlier run without recomputing it), stored as the
    tuple of repeat indices: a count c gives 0..c-1.  No axis repeats an
    entry (algorithms by label).  The spec is frozen.
    """

    algorithms: tuple
    objective: str
    budgets: tuple
    noise_b: tuple = None
    seeds: object = 20
    delta: float = 0.05
    branching: int = 3
    out: str | None = None
    master_seed: int = 0

    def __post_init__(self):
        # a --config document can hold any JSON type, so every field is
        # checked for its type before it is used, and put stores it as checked
        put = functools.partial(object.__setattr__, self)
        put("algorithms",
            _checked_axis(self.algorithms, "algorithms", parse_algo))
        if not isinstance(self.objective, str):
            raise ValueError(f"objective must be a name: {self.objective!r}")
        put("budgets", _checked_axis(self.budgets, "budgets",
                                     lambda v: checked_integer(v, "budgets", 1)))
        if any(b >= a for a, b in zip(self.budgets[1:], self.budgets)):
            raise ValueError("budgets must be strictly increasing")
        noise_b = (0.0,) if self.noise_b is None else self.noise_b
        put("noise_b", _checked_axis(noise_b, "noise_b",
                                     lambda v: checked_range(v, "noise_b")))
        put("delta", checked_delta(self.delta))
        put("branching", checked_integer(self.branching, "branching", 2))
        if not (self.out is None or isinstance(self.out, (str, os.PathLike))):
            raise ValueError(f"out must be a path: {self.out!r}")
        put("master_seed", checked_integer(self.master_seed, "master_seed"))
        try:
            put("seeds", tuple(checked_integer(s, "seeds") for s in self.seeds)
                if isinstance(self.seeds, (list, tuple))
                else tuple(range(checked_integer(self.seeds, "seeds"))))
        except ValueError:
            raise ValueError(
                f"seeds must be an int or a list of ints: {self.seeds!r}") from None
        if not self.seeds:
            raise ValueError("seeds must be a count >= 1 or a nonempty list")
        _check_unique([a.label for a in self.algorithms], "algorithms")
        _check_unique(self.noise_b, "noise_b")
        _check_unique(self.seeds, "seeds")


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
            for rep in spec.seeds]


def run_experiment(spec: ExperimentSpec, jobs: int = 1):
    """Execute the full grid; returns the records in grid order.

    Records are written incrementally to spec.out (CSV) as runs finish;
    jobs > 1 fans the runs over min(jobs, tasks) worker processes (results
    are merged back in grid order, so parallel output equals serial output).
    A grid that pairs a deterministic-feedback algorithm with a noise level
    b != 0, or StroquOOL with a budget below 8, is rejected before spec.out
    is opened.
    """
    jobs = checked_integer(jobs, "jobs", 1)
    obj = get_objective(spec.objective)
    if obj.optimum_value is None:
        raise ValueError(f"objective {spec.objective!r} has no optimum_value; "
                         "cannot score regret")
    exact = next((a for a in spec.algorithms if _ALGOS[a.name][0]), None)
    if exact and max(spec.noise_b) != 0.0:
        raise ValueError(f"{exact.name} is a deterministic-feedback algorithm; "
                         f"run it with b=0 (got b={max(spec.noise_b)})")
    if any(a.name == "stroquool" for a in spec.algorithms):
        check_stroquool_budget(spec.budgets[0])  # budgets increase
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
    """Group records by (algo, n, b): returns
    {(algo, n, b): {median, q10, q90, count}} of their regrets."""
    if not records:
        raise ValueError("no records")
    groups = {}
    for rec in records:
        groups.setdefault((rec.algo, rec.n, rec.b), []).append(rec.regret)
    return {key: {"median": float(np.median(vals)),
                  "q10": float(np.quantile(vals, 0.10)),
                  "q90": float(np.quantile(vals, 0.90)),
                  "count": len(vals)}
            for key, vals in groups.items()}


def format_summary(summary):
    """Plain-text table of the per-(algo, n, b) medians."""
    lines = [f"{'algo':24} {'n':>7} {'b':>6} {'median':>13} {'q10':>13} "
             f"{'q90':>13} {'runs':>5}"]
    for (algo, n, b), g in sorted(summary.items()):
        lines.append(f"{algo:24} {n:>7} {b:>6g} {g['median']:>13.6g} "
                     f"{g['q10']:>13.6g} {g['q90']:>13.6g} {g['count']:>5}")
    return "\n".join(lines)
