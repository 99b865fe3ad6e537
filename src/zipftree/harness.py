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
import math
import os
import time
import typing
from contextlib import nullcontext
from dataclasses import dataclass, fields

from .objectives import NoiseModel, checked_noise_range, get_objective
from .optimizers import (RunConfig, check_stroquool_budget, doo_run,
                         sequool_run, soo_run, stroquool_run, uniform_run)
from .partition import checked_delta, checked_integer
from .theory import check_nu_rho

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
    """One algorithm of a grid.  name is one of _ALGOS; doo, and only doo,
    takes nu and rho, which pass check_nu_rho and are stored as floats."""

    name: str
    nu: float | None = None
    rho: float | None = None

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name in _ALGOS):
            raise ValueError(f"unknown algorithm {self.name!r} "
                             f"(known: {', '.join(sorted(_ALGOS))})")
        if self.name == "doo":
            check_nu_rho(self.nu, self.rho)
            object.__setattr__(self, "nu", float(self.nu))
            object.__setattr__(self, "rho", float(self.rho))
        elif self.nu is not None or self.rho is not None:
            raise ValueError(f"{self.name} takes no parameters")

    @property
    def label(self):
        if self.name == "doo":
            return f"doo:nu={_exact(self.nu)}:rho={_exact(self.rho)}"
        return self.name


def _exact(x):
    """The float x as `:g` writes it where that reads back as x, else its
    repr, so distinct settings keep distinct labels."""
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
    """The AlgoSpec of "sequool", "doo:1.0:0.5" or {"name": "doo", "nu": 1,
    "rho": 0.5}; an AlgoSpec passes through.  AlgoSpec checks the setting,
    and its ValueError comes back naming the token."""
    if isinstance(token, AlgoSpec):
        return token
    try:
        if isinstance(token, dict):
            unknown = token.keys() - {"name", "nu", "rho"}
            if unknown:
                raise ValueError("unknown settings: "
                                 + ", ".join(sorted(map(str, unknown))))
            return AlgoSpec(token.get("name"), token.get("nu"), token.get("rho"))
        name, *params = str(token).split(":")
        if len(params) != (2 if name == "doo" else 0):
            raise ValueError("doo needs nu and rho, e.g. doo:1.0:0.5"
                             if name == "doo" else f"{name} takes no parameters")
        return AlgoSpec(name, *map(float, params))
    except ValueError as exc:
        raise ValueError(f"algorithm {token!r} invalid: {exc}") from None


@dataclass(frozen=True)
class ExperimentSpec:
    """One experimental grid.

    algorithms, budgets and noise_b are nonempty lists or tuples, stored as
    tuples of their checked entries (noise_b None means (0.0,), and -0.0 is
    0.0).  seeds is a repeat count >= 1 or a nonempty list of repeat indices
    (so a later spec can extend an earlier run), stored as the tuple of
    repeat indices: a count c gives 0..c-1.  No axis repeats an entry
    (algorithms by label).  out is None (print) or a nonempty path.  The
    objective must be known and have an optimum; sequool, soo and doo run
    only with b = 0, and stroquool only with n >= 8.  delta is only written
    into the records header: no run reads it.  The spec is frozen.
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
        if get_objective(self.objective).optimum_value is None:
            raise ValueError(f"objective {self.objective!r} has no "
                             "optimum_value; cannot score regret")
        put("budgets", _checked_axis(self.budgets, "budgets",
                                     lambda v: checked_integer(v, "budgets", 1)))
        if any(b >= a for a, b in zip(self.budgets[1:], self.budgets)):
            raise ValueError("budgets must be strictly increasing")
        noise_b = (0.0,) if self.noise_b is None else self.noise_b
        put("noise_b", _checked_axis(
            noise_b, "noise_b", lambda v: checked_noise_range(v, "noise_b")))
        put("delta", checked_delta(self.delta))
        put("branching", checked_integer(self.branching, "branching", 2))
        if not (self.out is None or (isinstance(self.out, (str, os.PathLike))
                                     and self.out != "")):
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
        put("noise_b", tuple(b + 0.0 for b in self.noise_b))  # -0.0 labels as 0
        _check_unique(self.seeds, "seeds")
        exact = next((a for a in self.algorithms if _ALGOS[a.name][0]), None)
        if exact and max(self.noise_b) != 0.0:
            raise ValueError(f"{exact.name} is a deterministic-feedback "
                             "algorithm; run it with b=0 "
                             f"(got b={max(self.noise_b)})")
        if any(a.name == "stroquool" for a in self.algorithms):
            check_stroquool_budget(self.budgets[0])  # budgets increase


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
    """Per-run seed: SHA-256 of the identifying tuple, top 8 bytes.

    hashlib is imported here, by the process that runs the task: in a
    pooled grid only the workers derive seeds, so the parent never loads
    hashlib's OpenSSL backend (about 3.6 MB)."""
    import hashlib
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


def ProcessPoolExecutor(max_workers):
    """concurrent.futures' pool, imported only when a grid forks one: the
    import adds about 30 ms and 1.6 MB to a process that never does."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def run_experiment(spec: ExperimentSpec, jobs: int = 1):
    """Execute the full grid; returns the records in grid order.

    Records are written incrementally to spec.out (CSV) as runs finish;
    jobs > 1 fans the runs over min(jobs, tasks) worker processes (results
    are merged back in grid order, so parallel output equals serial output).
    When a pool runs a grid with some b > 0, numpy is imported here, before
    the workers fork, so they share it rather than each importing it; a
    noiseless grid never imports it.  numpy.random stays per worker: only
    the workers draw noise, and importing it before the fork would add
    about 6 MB here to save each worker about 11 ms.  With a pool this
    process loads neither hashlib (only the workers derive seeds) nor
    numpy.ma (summarize needs no numpy).  The spec checked its grid when it
    was built; jobs, an integer >= 1, is checked before spec.out is opened.
    """
    jobs = checked_integer(jobs, "jobs", 1)
    tasks = _tasks(spec)
    jobs = min(jobs, len(tasks))  # the pool forks every worker up front
    if jobs > 1 and max(spec.noise_b) > 0.0:
        __import__("numpy")  # before the fork, so every worker shares it
    records = []
    with (nullcontext() if spec.out is None
          else open(spec.out, "w", newline="")) as fh:
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

def _quantile(ordered, q):
    """np.quantile(ordered, q) of a sorted list without NaN, bit for bit:
    numpy's linear index and fraction, clamped at the last entry, and lerp."""
    vi = (len(ordered) - 1) * q
    i = math.floor(vi) if vi < len(ordered) - 1 else -1
    a, b = ordered[i], ordered[i + 1 if i >= 0 else -1]
    g = vi - i
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def summarize(records):
    """Group records by (algo, n, b): returns {(algo, n, b): {median, q10,
    q90, count}} of their regrets, np.median and np.quantile (linear) bit
    for bit without loading numpy, whose first median or quantile call
    imports numpy.ma (about 2 MB).  numpy's rules: a NaN regret makes all
    three NaN, and the mean of the middle pair adds from 0.0.  Only where
    0.0 and -0.0 tie, as numpy sorts them its own way, can a zero's sign
    differ."""
    if not records:
        raise ValueError("no records")
    groups = {}
    for rec in records:
        groups.setdefault((rec.algo, rec.n, rec.b), []).append(rec.regret)
    out = {}
    for key, vals in groups.items():
        if any(map(math.isnan, vals)):
            median = q10 = q90 = math.nan
        else:
            vals.sort()
            mid = len(vals) // 2
            median = (0.0 + vals[mid] if len(vals) % 2
                      else (0.0 + vals[mid - 1] + vals[mid]) / 2)
            q10, q90 = _quantile(vals, 0.10), _quantile(vals, 0.90)
        out[key] = {"median": median, "q10": q10, "q90": q90,
                    "count": len(vals)}
    return out


def format_summary(summary):
    """Plain-text table of the per-(algo, n, b) medians."""
    lines = [f"{'algo':24} {'n':>7} {'b':>6} {'median':>13} {'q10':>13} "
             f"{'q90':>13} {'runs':>5}"]
    for (algo, n, b), g in sorted(summary.items()):
        lines.append(f"{algo:24} {n:>7} {b:>6g} {g['median']:>13.6g} "
                     f"{g['q10']:>13.6g} {g['q90']:>13.6g} {g['count']:>5}")
    return "\n".join(lines)
