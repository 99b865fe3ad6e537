"""Budgeted tree-search optimizers over a K-ary box partition.

All five optimizers consume a budget of n openings and return the point
x(n) they recommend:

  sequool_run   -- deterministic feedback; harmonic depth budgets
                   (depth h = 1 .. h_max gets floor(h_max / h) openings,
                   h_max = floor(n / H(n)))
  stroquool_run -- noisy feedback; doubling evaluation counts within the
                   harmonic schedule and a cross-validation phase
  soo_run       -- sweep baseline: best cell per depth, down to depth
                   sqrt(t) after t openings (or the shallowest depth with
                   an unopened cell, if deeper), whose value matches the
                   best opened so far in the sweep
  doo_run       -- optimistic baseline that knows the smoothness (nu, rho)
  uniform_run   -- breadth-first openings in cell-id order

Each *_run is only a schedule -- which cell to open next, and with how many
evaluations per child -- over one shared driver, _Run, which opens plain
(lower, upper, centre) cell tuples with partition.split_cell and keeps the
evaluation stream, the optional event trace, the running best, the counts
of openings, budget units and depth, and the RunResult.  SequOOL, StroquOOL
and uniform open a whole depth at a time from lists kept in index order.
No schedule has a tuning option: a run reads the budget n, the branching
K and the trace switch from RunConfig, and DOO also takes the smoothness
(nu, rho) it assumes.

Budgets are counted in openings; StroquOOL charges an opening performed with
m evaluations per child as m budget units (see RunResult.budget_units_used).
Tie-breaking is everywhere by lowest CellId (depth-major, then index) so runs
are exactly reproducible.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .objectives import EvaluationStream, NoiseModel, Objective
from .partition import make_tree, split_cell
from .theory import harmonic, stroquool_h_max

__all__ = [
    "RunConfig", "RunResult",
    "sequool_run", "stroquool_run", "soo_run", "doo_run", "uniform_run",
]


@dataclass
class RunConfig:
    """What every optimizer run takes.

    budget_n     -- opening budget n (>= 1)
    seed         -- the run's seed, recorded by callers; the optimizers do
                    not read it (noise draws are seeded by NoiseModel)
    branching    -- K children per opening
    record_trace -- keep an event log on the RunResult
    """

    budget_n: int
    seed: int = 0
    branching: int = 3
    record_trace: bool = False

    def __post_init__(self):
        if self.budget_n < 1:
            raise ValueError("budget_n must be >= 1")


@dataclass
class RunResult:
    recommendation: tuple
    recommendation_value_estimate: float
    openings_used: int
    evaluations_used: int       # charged observations, not objective calls
    deepest_depth: int          # deepest depth at which a cell was evaluated
    budget_units_used: int      # openings weighted by evaluations per child
    trace: list | None = None


class _Run:
    """Bookkeeping shared by every optimizer run.

    Only the root comes from make_tree, which validates the domain and the
    branching.  Schedules name a child by its depth and a key that orders
    the cells of one depth as their CellId indices do (the index itself, or
    a position in a list kept in index order); the running best keeps the
    highest value, ties going to the lowest (depth, key).

    SequOOL, StroquOOL and uniform key ties on list positions and build
    CellId indices only for a trace, on purpose: a depth-h index is an
    integer below K^h, and SequOOL at n = 1e5 on garland reaches depth
    8,272, where a K = 3 index has 13,111 bits.  Carrying the indices on
    every run cost about 12% more wall time on perfbench's `deterministic`
    workload and 2 MB more peak memory.
    """

    def __init__(self, obj: Objective, noise: NoiseModel | None, cfg: RunConfig):
        tree = make_tree(obj.domain, cfg.branching)
        self.root = (tree.root.lower, tree.root.upper, tree.root.representative)
        # split_cell keeps every child's centre inside its parent, so this
        # one check puts every point the run evaluates inside the domain
        if not tree.domain.contains(self.root[2]):
            raise ValueError(f"point {self.root[2]!r} outside domain of "
                             f"{obj.name}")
        self.K = tree.branching
        self.stream = EvaluationStream(obj, noise)
        self.observe = self.stream.observe_sum
        self.trace = [] if cfg.record_trace else None
        self.openings = self.units = self.deepest = 0
        self.best_value = -math.inf
        self.best_key = self.best_point = None

    def log(self, *event):
        if self.trace is not None:
            self.trace.append(event)

    def open(self, cell, depth, base, evals=1, index=None):
        """Open `cell` at `depth` with `evals` evaluations per child and log
        the opening under its CellId index `index`; returns [(sum of
        evaluations, child)], child j keyed (depth + 1, base + j)."""
        self.log("open", depth, index, evals)
        self.openings += 1
        self.units += evals
        if depth >= self.deepest:
            self.deepest = depth + 1
        observe = self.observe
        out = []
        best = self.best_value
        key = base
        for child in split_cell(cell, depth, self.K):
            total = observe(child[2], evals)
            out.append((total, child))
            mean = total / evals
            if mean >= best and (mean > best or self.best_key is None
                                 or (depth + 1, key) < self.best_key):
                best = self.best_value = mean
                self.best_key = (depth + 1, key)
                self.best_point = child[2]
            key += 1
        return out

    def open_level(self, cells, index, depth, chosen):
        """Open, in the order of `chosen` (position -> evaluations per child),
        cells of one depth, given as (sum, cell) pairs in index order with
        their CellId indices (`index`, None without a trace).  Returns the
        next depth's pairs, evaluation counts and indices in index order."""
        K = self.K
        in_order = sorted(chosen)
        slot = {i: t * K for t, i in enumerate(in_order)}
        nxt = [None] * (K * len(chosen))
        for i, evals in chosen.items():
            nxt[slot[i]:slot[i] + K] = self.open(
                cells[i][1], depth, slot[i], evals,
                None if index is None else index[i])
        counts = [chosen[i] for i in in_order for _ in range(K)]
        if index is not None:
            index = [index[i] * K + j for i in in_order for j in range(K)]
        return nxt, counts, index

    def result(self, point=None, value=None):
        """The RunResult recommending `point` (default: the running best)."""
        if point is None:
            point, value = self.best_point, self.best_value
        return RunResult(point, value, self.openings, self.stream.n_evals,
                         self.deepest, self.units, self.trace)


# ---------------------------------------------------------------------------
# SequOOL
# ---------------------------------------------------------------------------

def sequool_run(obj: Objective, cfg: RunConfig) -> RunResult:
    """Harmonic depth-budget search under deterministic feedback.

    Opens the root, then for h = 1 .. h_max opens the floor(h_max / h) best
    depth-h cells by value (all of them if fewer exist), where h_max =
    floor(n / H(n)).  The recommendation is the best evaluated
    representative.  Total openings obey 1 + sum_h floor(h_max/h) <= n + 1.
    """
    n = cfg.budget_n
    run = _Run(obj, None, cfg)
    h_max = int(n // harmonic(n))

    # the depth-h cells in index order as (value, cell) pairs -- each child
    # holds one evaluation, so its sum is its value -- and, with a trace,
    # their CellId indices
    level = run.open(run.root, 0, 0, index=0)
    index = list(range(run.K)) if run.trace is not None else None

    for h in range(1, h_max + 1):
        # the h_max // h best cells open in order of value, ties to the
        # lowest position (the sort is stable) and NaN last
        values = [v if v == v else -math.inf for v, _ in level]
        best = sorted(range(len(level)), key=values.__getitem__, reverse=True)
        level, _, index = run.open_level(level, index, h,
                                         dict.fromkeys(best[:h_max // h], 1))

    if run.openings > n + 1:
        raise RuntimeError("harmonic budget identity violated")
    return run.result()


# ---------------------------------------------------------------------------
# StroquOOL
# ---------------------------------------------------------------------------

def stroquool_run(obj: Objective, noise: NoiseModel | None, cfg: RunConfig) -> RunResult:
    """Noise-adaptive search: harmonic schedule over (depth, evaluation count).

    Phases: (1) open the root with h_max evaluations per child, h_max =
    max(1, floor(n / (2 (H(n)+1)^2))); (2) for each depth h and m = 1 ..
    floor(h_max/h), open the best unopened depth-h cell evaluated at least
    q = floor(h_max/(h m)) times, with q evaluations per child; (3) for each
    p = 0 .. floor(log2 h_max), nominate the best cell evaluated at least
    2^p times, then give each distinct candidate max(1, floor(h_max/2))
    fresh evaluations and recommend the candidate with the best fresh mean.

    The budget-unit ledger (init h_max + exploration quotas + validation
    evaluations) never exceeds n.
    """
    n = cfg.budget_n
    if n < 8:
        raise ValueError(f"budget n={n} too small: StroquOOL needs n >= 8")
    h_max = stroquool_h_max(n)
    p_max = h_max.bit_length() - 1  # floor(log2 h_max)
    run = _Run(obj, noise, cfg)
    tracing = run.trace is not None

    # levels[h - 1]: depth-h (sum, cell) pairs, counts and indices (see open_level)
    levels = [(run.open(run.root, 0, 0, h_max, 0), [h_max] * run.K,
               list(range(run.K)) if tracing else None)]

    # exploration: a depth's statistics are final before its loop starts, so
    # all its openings are chosen from one ranking by mean (ties to the lowest
    # position, NaN last) before any of them runs
    for h in range(1, h_max + 1):
        cells, counts, index = levels[-1]
        means = [s / count if s == s else -math.inf
                 for (s, _), count in zip(cells, counts)]
        ranked = [(i, counts[i]) for i in sorted(
            range(len(cells)), key=means.__getitem__, reverse=True)]
        chosen = {}  # position -> evaluations per child, in opening order
        for m in range(1, h_max // h + 1):
            if len(chosen) == len(cells):
                break  # every cell is open
            q = h_max // (h * m)  # >= 1 since m <= h_max // h
            for i, count in ranked:
                if count >= q and i not in chosen:
                    chosen[i] = q
                    break
        if not chosen:
            break
        levels.append(run.open_level(cells, index, h, chosen))

    # cross-validation: nominate per doubling threshold, then re-evaluate.
    # Cells rank by mean (NaN last, ties to the lowest (depth, position));
    # each threshold takes the best cell with enough evaluations, found
    # among the best cells of each evaluation count
    top = {}  # evaluation count -> rank key of its best cell
    for h, (cells, counts, _) in enumerate(levels, 1):
        for i, ((s, _), count) in enumerate(zip(cells, counts)):
            key = (-s / count if s == s else math.inf, h, i)
            top[count] = min(top.get(count, key), key)
    candidates = {}  # (depth, position), in nomination order
    for p in range(p_max + 1):
        keys = [key for count, key in top.items() if count >= 1 << p]
        if not keys:
            break  # thresholds only grow, so no later one finds a cell
        _, h, i = min(keys)
        if tracing:
            run.log("candidate", p, h, levels[h - 1][2][i])
        candidates[h, i] = True

    v_evals = max(1, h_max // 2)
    fresh = []
    for h, i in sorted(candidates):
        before, cell = levels[h - 1][0][i]
        after = before + run.observe(cell[2], v_evals)
        mean = (after - before) / v_evals
        fresh.append((-mean if mean == mean else math.inf, h, i, mean, cell[2]))
        run.units += v_evals
        if tracing:
            run.log("validate", h, levels[h - 1][2][i], v_evals)

    _, h, i, value, point = min(fresh)
    if tracing:
        run.log("recommend", h, levels[h - 1][2][i])

    if run.units > n:
        raise RuntimeError("evaluation budget exceeded")
    return run.result(point, value)


# ---------------------------------------------------------------------------
# SOO baseline
# ---------------------------------------------------------------------------

def soo_run(obj: Objective, cfg: RunConfig) -> RunResult:
    """Depth-sweep baseline under deterministic feedback.

    Repeatedly sweeps depths 0 .. min(deepest materialized, max(floor(sqrt(t)),
    shallowest)) with t the openings so far and shallowest the shallowest
    depth holding an unopened cell; at each depth it opens the best unopened
    cell if its value is >= every value opened earlier in the sweep.  Every
    sweep thus reaches an unopened cell, so the whole budget is spent --
    Munos (2011) takes the limit sqrt(t) alone, which with K = 2 leaves the
    sweep short of every unopened cell after 3 openings.  A sweep that still
    opens nothing (an unopened cell whose value is NaN never passes the
    test) ends the run.
    """
    n = cfg.budget_n
    run = _Run(obj, None, cfg)

    # depth -> heap of (-value, index, cell) of unopened leaves; the root has
    # no value, so its key lets it pass the sweep test and leaves vmax at -inf
    heaps = {0: [(math.inf, 0, run.root)]}
    shallowest = 0  # the shallowest depth whose heap holds a leaf

    progressed = True
    while run.units < n and progressed:
        progressed = False
        vmax = -math.inf
        h = 0
        while run.units < n and h <= min(
                run.deepest, max(int(math.sqrt(run.units)), shallowest)):
            heap = heaps.get(h)
            if heap and -heap[0][0] >= vmax:
                negv, index, cell = heapq.heappop(heap)
                vmax = -negv
                base = index * run.K
                nxt = heaps.setdefault(h + 1, [])
                children = run.open(cell, h, base, 1, index)
                for j, (value, child) in enumerate(children):
                    heapq.heappush(nxt, (-value, base + j, child))
                while not heaps[shallowest]:
                    shallowest += 1  # stops at h + 1, which just got children
                progressed = True
            h += 1

    return run.result()


# ---------------------------------------------------------------------------
# DOO baseline
# ---------------------------------------------------------------------------

def doo_run(obj: Objective, cfg: RunConfig, nu: float, rho: float) -> RunResult:
    """Optimistic baseline that knows the smoothness: always opens the leaf
    maximizing value + nu * rho^depth (ties by lowest CellId).  With a huge
    nu the depth term dominates and the order degenerates to breadth-first.
    """
    if not nu > 0:
        raise ValueError("nu must be > 0")
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must be in (0, 1)")
    n = cfg.budget_n
    run = _Run(obj, None, cfg)

    heap = [(0.0, 0, 0, run.root)]  # (-(value + nu rho^depth), depth, index, cell)
    while heap and run.units < n:
        _key, depth, index, cell = heapq.heappop(heap)
        base = index * run.K
        bonus = nu * rho ** (depth + 1)
        children = run.open(cell, depth, base, 1, index)
        for j, (value, child) in enumerate(children):
            heapq.heappush(heap, (-(value + bonus), depth + 1, base + j, child))

    return run.result()


# ---------------------------------------------------------------------------
# uniform baseline
# ---------------------------------------------------------------------------

def uniform_run(obj: Objective, noise: NoiseModel | None, cfg: RunConfig) -> RunResult:
    """Breadth-first openings in CellId order; recommends the best observed
    mean.  The root's representative is observed once up front so depth 0
    participates (n openings cost K*n + 1 observations)."""
    n = cfg.budget_n
    run = _Run(obj, noise, cfg)

    # the root's one observation is the first candidate for the running
    # best; like every added evaluation it is summed onto 0.0 (-0.0 reads
    # 0.0), and a NaN reads -inf, so it loses to every later value
    value = 0.0 + run.observe(run.root[2], 1)
    run.best_value = value if value == value else -math.inf
    run.best_key, run.best_point = (0, 0), run.root[2]
    run.log("evaluate", 0, 0, 1)
    level, index = [(None, run.root)], [0] if run.trace is not None else None
    h = 0
    while run.units < n:
        # every cell of a level, the last level cut to the budget left
        opening = dict.fromkeys(range(min(len(level), n - run.units)), 1)
        level, _, index = run.open_level(level, index, h, opening)
        h += 1

    return run.result()
