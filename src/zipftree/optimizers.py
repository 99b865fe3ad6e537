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
objective and its noise, the optional event trace, the running best, the
counts of openings, charged evaluations, budget units and depth, and the
RunResult.  SequOOL, StroquOOL and uniform open a whole depth at a time
from lists kept in index order, and each keeps only what its next step
reads: uniform the cells its next depth opens with the objective's value
at their centres, StroquOOL the depth it explores plus, per evaluation
count, the best cell made so far, from which cross-validation nominates.
The other four split and observe every cell they open through _Run.open.
uniform, whose schedule reads no values, books a whole depth at once and
observes its children in one loop (see uniform_run).  SOO and DOO hold
their unopened leaves in heaps, where one entry can stand for a run of
consecutive copies of a fixed cell, opened without a split (see soo_run
and doo_run).  An untraced SequOOL run stops opening cells once float64
leaves its level no new point, and adds up the openings it has left (see
sequool_run).

Every schedule hands _Run.open the value of the cell it opens, where it
holds one (not the root's, nor, in SOO, a NaN or -inf one), and a child
that carries its parent's centre object (partition.split_cell) takes that
value instead of a new call.  Noise is still drawn for every observation,
in opening order.

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

from .objectives import NoiseModel, Objective
from .partition import checked_integer, fixed_cell, make_tree, split_cell
from .theory import check_nu_rho, harmonic, stroquool_h_max


@dataclass(frozen=True)
class RunConfig:
    """What every optimizer run takes.

    budget_n     -- opening budget n, an integer >= 1
    seed         -- the run's seed, recorded by callers; the optimizers do
                    not read it (noise draws are seeded by NoiseModel)
    branching    -- K children per opening, an integer >= 2
    record_trace -- keep an event log on the RunResult
    """

    budget_n: int
    seed: int = 0
    branching: int = 3
    record_trace: bool = False

    def __post_init__(self):
        object.__setattr__(self, "budget_n",
                           checked_integer(self.budget_n, "budget_n", 1))
        object.__setattr__(self, "branching",
                           checked_integer(self.branching, "branching", 2))


@dataclass
class RunResult:
    recommendation: tuple
    recommendation_value_estimate: float
    openings_used: int
    evaluations_used: int       # charged observations, not objective calls
    deepest_depth: int          # deepest depth at which a cell was evaluated
    budget_units_used: int      # openings weighted by evaluations per child
    trace: list | None = None


def _rank_key(value):
    """Sort key that puts higher values first and a NaN last, as -inf."""
    return math.inf if value != value else -value


class _Run:
    """Bookkeeping shared by every optimizer run.

    Only the root comes from make_tree, which validates the domain and the
    branching.  Schedules name a child by its depth and a key that orders
    the cells of one depth as their CellId indices do (the index itself, or
    a position in a list kept in index order); the running best keeps the
    highest value, ties going to the lowest (depth, key).

    SequOOL and StroquOOL key ties on list positions and build CellId
    indices only for a trace, on purpose: a depth-h index is an integer
    below K^h, and SequOOL at n = 1e5 on garland reaches depth 8,272, where
    a K = 3 index has 13,111 bits.  Carrying the indices on every run cost
    about 12% more wall time on perfbench's `deterministic` workload and
    2 MB more peak memory.  uniform keeps its own running best, which
    needs no key (see uniform_run).

    SOO and DOO open a run of copies of a fixed cell (partition.fixed_cell)
    through open_copies(depth, index, count), which performs no split and no
    evaluation: it moves the counts as `count` openings would and, with a
    trace, logs one `open` event per copy, so traced and untraced runs take
    the same path and the trace is the one opening each copy would log.

    The run calls the objective's fn unchecked, as its points lie in the
    domain (see __init__), and `evaluations` counts charged observations,
    not calls.  `draw` is the noise model's total, or None when observations
    carry no noise (no model, or b = 0): m observations of a point whose
    value is v sum to m * v, or to m * v + draw(m).
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
        self.fn = obj.fn
        self.draw = (None if noise is None or noise.range_b == 0.0
                     else noise.total)
        self.trace = [] if cfg.record_trace else None
        self.openings = self.units = self.deepest = self.evaluations = 0
        self.best_value = -math.inf
        self.best_key = self.best_point = None

    def log(self, *event):
        if self.trace is not None:
            self.trace.append(event)

    def open(self, cell, depth, base, evals=1, index=None, value=None):
        """Open `cell` at `depth` with `evals` evaluations per child and log
        the opening under its CellId index `index`; returns [(sum of
        evaluations, value, child)], child j keyed (depth + 1, base + j).
        `value` is fn's value at the cell's centre, or None when the caller
        has none; a child that carries that centre object takes it."""
        self.log("open", depth, index, evals)
        self.openings += 1
        self.units += evals
        self.evaluations += self.K * evals
        if depth >= self.deepest:
            self.deepest = depth + 1
        fn, draw = self.fn, self.draw
        centre = None if value is None else cell[2]
        out = []
        best = self.best_value
        key = base
        for child in split_cell(cell, depth, self.K):
            x = child[2]
            v = value if x is centre else float(fn(x))
            total = evals * v if draw is None else evals * v + draw(evals)
            out.append((total, v, child))
            mean = total / evals
            if mean >= best and (mean > best or self.best_key is None
                                 or (depth + 1, key) < self.best_key):
                best = self.best_value = mean
                self.best_key = (depth + 1, key)
                self.best_point = x
            key += 1
        return out

    def open_copies(self, depth, index, count):
        """Open the `count` copies of a fixed cell at `depth` with CellId
        indices index .. index + count - 1 (None without a trace), one
        evaluation per child, without a split or an evaluation.  The running
        best stays, since a copy's children tie with it one depth deeper and
        lose.  uniform_run books each depth through it as well, then makes
        and observes the children itself."""
        if self.trace is not None:
            self.trace += [("open", depth, i, 1)
                           for i in range(index, index + count)]
        self.openings += count
        self.units += count
        self.evaluations += self.K * count
        if depth >= self.deepest:
            self.deepest = depth + 1

    def open_level(self, cells, index, depth, chosen):
        """Open, in the order of `chosen` (position -> evaluations per child),
        cells of one depth, given as (sum, value, cell) triples in index
        order with their CellId indices (`index`, None without a trace).
        Returns the next depth's triples and indices in index order; the
        children of the cell at the t-th lowest chosen position sit at
        t*K .. t*K + K-1."""
        K = self.K
        in_order = sorted(chosen)
        slot = {i: t * K for t, i in enumerate(in_order)}
        nxt = [None] * (K * len(chosen))
        for i, evals in chosen.items():
            _, value, cell = cells[i]
            nxt[slot[i]:slot[i] + K] = self.open(
                cell, depth, slot[i], evals,
                None if index is None else index[i], value)
        if index is not None:
            index = [index[i] * K + j for i in in_order for j in range(K)]
        return nxt, index

    def result(self, point=None, value=None):
        """The RunResult recommending `point` (default: the running best).
        When every value was NaN there is no running best, and the lowest
        CellId evaluated, the root's first child, is recommended at -inf."""
        if point is None:
            point = self.best_point or split_cell(self.root, 0, self.K)[0][2]
            value = self.best_value
        return RunResult(point, value, self.openings, self.evaluations,
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

    Without a trace, the run settles once float64 has no new point left.
    Call depth h closed when every child its openings make is its parent
    object or a fixed cell (partition.fixed_cell).  After dim consecutive
    closed depths, every cell of the level is a fixed cell, or an object
    that split into itself and fixed cells along each axis in turn.
    split_cell depends on the depth only through the axis, so every later
    split of those cells makes children bit-identical to ones already
    evaluated, and as fn is pure no later value is new.  A later tie loses
    on (depth, key), so the running best is final.  How many cells each
    later depth g opens, m = min(len(level), h_max // g), does not depend
    on the cells, and the next level holds K*m of them: the openings,
    budget units, charged evaluations (K per opening) and the deepest
    depth (h_max + 1) that remain are added up instead of performed, through
    _Run.open_copies.  A traced run never settles, so its log stays
    complete.
    """
    n = cfg.budget_n
    run = _Run(obj, None, cfg)
    h_max = int(n // harmonic(n))
    K = run.K
    dim = len(run.root[0])
    tracing = run.trace is not None

    # the depth-h cells in index order as (sum, value, cell) triples -- each
    # child holds one evaluation, so its sum is its value -- and, with a
    # trace, their CellId indices
    level = run.open(run.root, 0, 0, index=0)
    index = list(range(K)) if tracing else None
    closed = 0  # consecutive closed depths, counted without a trace

    for h in range(1, h_max + 1):
        # the h_max // h best cells open in order of value, ties to the
        # lowest position (the sort is stable) and NaN last
        keys = [_rank_key(v) for v, _, _ in level]
        best = sorted(range(len(level)), key=keys.__getitem__)
        chosen = dict.fromkeys(best[:h_max // h], 1)
        # open_level puts the children of the t-th parent in index order
        # at t*K .. t*K + K-1
        parents = [level[i][2] for i in sorted(chosen)]
        level, index = run.open_level(level, index, h, chosen)
        if not tracing and all(child is parents[t // K] or fixed_cell(child)
                               for t, (_, _, child) in enumerate(level)):
            closed += 1
        else:
            closed = 0
        if closed == dim:
            size = len(level)
            for g in range(h + 1, h_max + 1):
                m = min(size, h_max // g)
                run.open_copies(g, None, m)
                size = K * m
            break

    if run.openings > n + 1:
        raise RuntimeError("harmonic budget identity violated")
    return run.result()


# ---------------------------------------------------------------------------
# StroquOOL
# ---------------------------------------------------------------------------

def check_stroquool_budget(n):
    """Raise ValueError unless StroquOOL runs on budget n: n >= 8."""
    if n < 8:
        raise ValueError(f"budget n={n} too small: StroquOOL needs n >= 8")


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
    evaluations) never exceeds n.  h_max uses H(n) where stroquool_bounds'
    M uses log2 n (42 against 24 at n = 1e4); source not recorded.
    """
    n = cfg.budget_n
    check_stroquool_budget(n)
    h_max = stroquool_h_max(n)
    p_max = h_max.bit_length() - 1  # floor(log2 h_max)
    run = _Run(obj, noise, cfg)
    tracing = run.trace is not None

    # the depth-h (sum, value, cell) triples in index order, the evaluations
    # each of them got and, with a trace, their CellId indices (see
    # open_level)
    cells = run.open(run.root, 0, 0, h_max, 0)
    counts = [h_max] * run.K
    index = list(range(run.K)) if tracing else None

    # evaluation count -> ((rank key, depth, position), (sum, value, cell),
    # CellId index) of the best cell with that many evaluations on the
    # depths made so far.  Cross-validation reads nothing else, so each
    # depth is folded in once it is made, and only the depth being explored
    # stays alive
    top = {}

    # exploration: a depth's statistics are final before its loop starts, so
    # all its openings are chosen from one ranking by mean (ties to the lowest
    # position, NaN last) before any of them runs.  Depth h_max + 1 opens
    # nothing and is only folded
    for h in range(1, h_max + 2):
        keys = [_rank_key(s / count)
                for (s, _, _), count in zip(cells, counts)]
        ranked = [(i, counts[i])
                  for i in sorted(range(len(cells)), key=keys.__getitem__)]
        # the first cell of each count in the ranking is the depth's best
        unseen = set(counts)
        for i, count in ranked:
            if count in unseen:
                unseen.discard(count)
                key = (keys[i], h, i)
                if count not in top or key < top[count][0]:
                    top[count] = key, cells[i], index[i] if tracing else None
                if not unseen:
                    break
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
        cells, index = run.open_level(cells, index, h, chosen)
        counts = [chosen[i] for i in sorted(chosen) for _ in range(run.K)]

    # cross-validation: each doubling threshold nominates the best cell with
    # at least that many evaluations, the best of the counts it admits; the
    # distinct candidates are re-evaluated in (depth, position) order.  Rank
    # keys are unique, so no comparison below reaches a cell
    candidates = {}  # (depth, position) -> ((sum, value, cell), CellId index)
    for p in range(p_max + 1):
        admitted = [best for count, best in top.items() if count >= 1 << p]
        if not admitted:
            break  # thresholds only grow, so no later one finds a cell
        (_, h, i), entry, idx = min(admitted)
        run.log("candidate", p, h, idx)
        candidates[h, i] = entry, idx

    # fresh observations of a candidate's centre reuse its value
    v_evals = max(1, h_max // 2)
    draw = run.draw
    fresh = []
    for (h, i), ((before, v, cell), idx) in sorted(candidates.items()):
        total = v_evals * v if draw is None else v_evals * v + draw(v_evals)
        after = before + total
        mean = (after - before) / v_evals
        fresh.append((_rank_key(mean), h, i, idx, mean, cell[2]))
        run.units += v_evals
        run.evaluations += v_evals
        run.log("validate", h, idx, v_evals)

    _, h, _, idx, value, point = min(fresh)
    run.log("recommend", h, idx)

    if run.units > n:
        raise RuntimeError("evaluation budget exceeded")
    # a NaN mean reads -inf, as the other runs' NaN best does
    return run.result(point, value if value == value else -math.inf)


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
    sweep short of every unopened cell after 3 openings.  A NaN value ranks
    below every other, as -inf does.

    A heap entry (key, index, cell, count) stands for `count` copies of a
    fixed cell at indices index .. index + count - 1, and this is exact.  A
    fixed cell splits into K copies of itself with its own value, and the
    children of c copies with consecutive indices are K*c consecutive
    indices one depth down.  No other leaf of the depth can sort between a
    run's copies: an index belongs to one subtree only, so the run's keys
    tie and its indices are its own.  A sweep opens at most one cell per
    depth, so a run gives up one copy per visit (open_copies) and pushes
    one entry of K copies one depth down; the copies' children have the
    copies' value one depth deeper, so they never beat the running best.
    """
    n = cfg.budget_n
    run = _Run(obj, None, cfg)
    K = run.K

    # depth -> heap of (_rank_key(value), index, cell, count) of unopened
    # leaves (count > 1 only for a run of copies); the root has no value, so
    # its key lets it pass the sweep test and leaves vmax at -inf.  The sweep
    # reaches the shallowest leaf with vmax still -inf, so every sweep opens
    # a cell
    heaps = {0: [(math.inf, 0, run.root, 1)]}
    shallowest = 0  # the shallowest depth whose heap holds a leaf

    while run.units < n:
        vmax = -math.inf
        h = 0
        while run.units < n and h <= min(
                run.deepest, max(int(math.sqrt(run.units)), shallowest)):
            heap = heaps.get(h)
            if heap and -heap[0][0] >= vmax:
                key, index, cell, count = heap[0]
                if count > 1:
                    # the sweep opens one copy; the rest stay one entry
                    heapq.heapreplace(heap, (key, index + 1, cell, count - 1))
                else:
                    heapq.heappop(heap)
                vmax = -key
                base = index * K
                nxt = heaps.setdefault(h + 1, [])
                if count > 1 or fixed_cell(cell):
                    run.open_copies(h, index, 1)
                    heapq.heappush(nxt, (key, base, cell, K))
                else:
                    # a finite key is the cell's negated value
                    children = run.open(cell, h, base, 1, index,
                                        None if key == math.inf else -key)
                    for j, (value, _, child) in enumerate(children):
                        heapq.heappush(nxt, (_rank_key(value), base + j,
                                             child, 1))
                while not heaps[shallowest]:
                    shallowest += 1  # stops at h + 1, which just got children
            h += 1

    return run.result()


# ---------------------------------------------------------------------------
# DOO baseline
# ---------------------------------------------------------------------------

def doo_run(obj: Objective, cfg: RunConfig, nu: float, rho: float) -> RunResult:
    """Optimistic baseline that knows the smoothness: always opens the leaf
    maximizing value + nu * rho^depth (ties by lowest CellId).  With a huge
    nu the depth term dominates and the order degenerates to breadth-first.

    A heap entry (key, depth, index, value, cell, count) stands for `count`
    copies of a fixed cell at indices index .. index + count - 1 (the value
    is kept because the key adds the depth bonus), and this is exact.  A
    fixed cell splits into K copies of itself with its own value, and the
    children of c copies with consecutive indices are K*c consecutive
    indices one depth down.  No other leaf can be ordered between a run's
    copies: an index belongs to one subtree only, and a copy's children
    never rank better than the copy, since their value is the same, the
    bonus nu * rho^(depth+1) does not grow, and on equal keys the deeper
    entry loses.  So a popped run opens min(count, n - units) copies at
    once (open_copies) and pushes one entry of K copies per copy opened.
    """
    check_nu_rho(nu, rho)
    n = cfg.budget_n
    run = _Run(obj, None, cfg)
    K = run.K

    # (_rank_key(value + nu rho^depth), depth, index, value, cell, count) of
    # unopened leaves (count > 1 only for a run of copies); the root has no
    # value
    heap = [(0.0, 0, 0, None, run.root, 1)]
    while heap and run.units < n:
        _key, depth, index, value, cell, count = heapq.heappop(heap)
        base = index * K
        bonus = nu * rho ** (depth + 1)
        if count > 1 or fixed_cell(cell):
            m = min(count, n - run.units)
            run.open_copies(depth, index, m)
            heapq.heappush(heap, (_rank_key(value + bonus), depth + 1, base,
                                  value, cell, K * m))
            continue
        children = run.open(cell, depth, base, 1, index, value)
        for j, (value, _, child) in enumerate(children):
            heapq.heappush(heap, (_rank_key(value + bonus), depth + 1,
                                  base + j, value, child, 1))

    return run.result()


# ---------------------------------------------------------------------------
# uniform baseline
# ---------------------------------------------------------------------------

def uniform_run(obj: Objective, noise: NoiseModel | None, cfg: RunConfig) -> RunResult:
    """Breadth-first openings in CellId order; recommends the best observed
    mean.  The root's representative is observed once up front so depth 0
    participates (n openings cost K*n + 1 observations).

    The schedule reads no values, so each depth is one step: open_copies
    books its openings, and one loop splits its cells and observes their
    children in index order, one evaluation each, a child that carries its
    parent's centre object taking the parent's value.  The running best
    takes a mean only if it is strictly higher: the root comes first and
    positions only grow, so that is the lowest-CellId rule.
    """
    n = cfg.budget_n
    run = _Run(obj, noise, cfg)
    K, fn, draw = run.K, run.fn, run.draw

    # the root's one observation is the first candidate for the running
    # best; like every added evaluation it is summed onto 0.0 (-0.0 reads
    # 0.0), and a NaN reads -inf, so it loses to every later value
    point = run.root[2]
    root_value = float(fn(point))
    best = 0.0 + (root_value if draw is None else root_value + draw(1))
    if best != best:
        best = -math.inf
    run.evaluations += 1
    run.log("evaluate", 0, 0, 1)

    # the depth-h cells that will be opened, in index order, so a cell's
    # position is its CellId index, with the objective's value at each
    # centre.  A depth keeps only the `room` children that the budget left
    # after it can open; the rest only compete for the running best
    level, values, h = [run.root], [root_value], 0
    while level:
        room = n - run.units - len(level)
        run.open_copies(h, 0, len(level))
        nxt, nxt_values = [], []
        for cell, parent_value in zip(level, values):
            centre = cell[2]
            for child in split_cell(cell, h, K):
                x = child[2]
                v = parent_value if x is centre else float(fn(x))
                mean = v if draw is None else v + draw(1)
                if mean > best:
                    best, point = mean, x
                if room > 0:
                    room -= 1
                    nxt.append(child)
                    nxt_values.append(v)
        level, values, h = nxt, nxt_values, h + 1

    return run.result(point, best)
