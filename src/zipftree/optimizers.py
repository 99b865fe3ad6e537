"""Budgeted tree-search optimizers over a K-ary box partition.

All five optimizers consume a budget of n openings and return the point
x(n) they recommend:

  sequool_run   -- deterministic feedback; harmonic depth budgets
                   (depth h gets floor(h_max / h) openings, h_max = floor(n / H(n)))
  stroquool_run -- noisy feedback; doubling evaluation counts within the
                   harmonic schedule and a cross-validation phase
  soo_run       -- sweep baseline: best cell per depth whose value matches
                   the best opened so far in the sweep
  doo_run       -- optimistic baseline that knows the smoothness (nu, rho)
  uniform_run   -- breadth-first openings in cell-id order

Each *_run is only a schedule -- which cell to open next, and with how many
evaluations per child -- over one shared driver, _Run, which owns the tree,
the evaluation stream, the optional event trace, the running best, the
deepest depth and the assembly of the RunResult.

Budgets are counted in openings; StroquOOL charges an opening performed with
m evaluations per child as m budget units (see RunResult.budget_units_used).
Tie-breaking is everywhere by lowest CellId (depth-major, then index) so runs
are exactly reproducible.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

from .objectives import EvaluationStream, NoiseModel, Objective
from .partition import CellId, PartitionTree, make_tree
from .theory import harmonic, stroquool_h_max

__all__ = [
    "RunConfig", "RunResult",
    "sequool_run", "stroquool_run", "soo_run", "doo_run", "uniform_run",
]


@dataclass
class RunConfig:
    """Shared optimizer knobs.

    budget_n            -- opening budget n (>= 1)
    seed                -- informational; the harness derives noise seeds from it
    branching           -- K children per opening
    rescale_depth_budget -- stretch SequOOL's depth budget to the largest real
                           H >= h_max whose quota sum still fits the budget
    cap_quota_by_cells  -- cap depth-h quotas at K^h (there are only K^h cells);
                           with the rescale option the freed budget deepens H
    record_trace        -- keep an event log on the RunResult
    """

    budget_n: int
    seed: int = 0
    branching: int = 3
    rescale_depth_budget: bool = False
    cap_quota_by_cells: bool = False
    record_trace: bool = False

    def __post_init__(self):
        if self.budget_n < 1:
            raise ValueError("budget_n must be >= 1")


@dataclass
class RunResult:
    recommendation: tuple
    recommendation_value_estimate: float
    openings_used: int
    evaluations_used: int       # raw objective calls
    deepest_depth: int          # deepest depth at which a cell was evaluated
    budget_units_used: int      # openings weighted by evaluations per child
    trace: list | None = None


class _Run:
    """Bookkeeping shared by every optimizer run.

    Owns the tree, the evaluation stream and the optional trace; tracks the
    budget units spent, the deepest depth evaluated and the running best
    child value (ties go to the lowest CellId).
    """

    def __init__(self, obj: Objective, noise: NoiseModel | None, cfg: RunConfig):
        self.tree = make_tree(obj.domain, cfg.branching)
        self.stream = EvaluationStream(obj, noise)
        self.trace = [] if cfg.record_trace else None
        self.units = 0
        self.deepest = 0
        self.best_value = -math.inf
        self.best_cid = None

    def log(self, *event):
        if self.trace is not None:
            self.trace.append(event)

    def open(self, cid, evals=1):
        """Open `cid` with `evals` evaluations per child; returns the tree's
        [(child id, mean)]."""
        self.log("open", cid.depth, cid.index, evals)
        out = self.tree.open_cell(cid, evals, self.stream)
        self.units += evals
        if cid.depth >= self.deepest:
            self.deepest = cid.depth + 1
        for ccid, mean in out:
            if mean >= self.best_value and (mean > self.best_value or (
                    self.best_cid is None or ccid < self.best_cid)):
                self.best_value = mean
                self.best_cid = ccid
        return out

    def result(self, cid=None, value=None):
        """The RunResult recommending `cid` (default: the running best)."""
        if cid is None:
            cid, value = self.best_cid, self.best_value
        point = None if cid is None else self.tree.cells[cid].representative
        return RunResult(point, value, self.tree.opening_ledger,
                         self.stream.n_evals, self.deepest, self.units,
                         self.trace)


# ---------------------------------------------------------------------------
# SequOOL
# ---------------------------------------------------------------------------

def _depth_budget_cost(H, K, cap):
    """1 (root) + sum over depths of the quota floor(H / h), while nonzero."""
    total = 1
    h = 1
    while True:
        q = int(H // h)
        if q < 1:
            break
        if cap:
            q = min(q, K ** h)
        total += q
        h += 1
    return total


def _rescaled_depth_budget(n, h_max, K, cap):
    """Largest real H >= h_max with 1 + sum_h quota(H, h) <= n + 1.

    The cost is a nondecreasing step function of H, so 100 bisection steps
    on [h_max, n + 1] pin the maximal feasible value.
    """
    lo, hi = float(h_max), float(n + 1)
    if _depth_budget_cost(hi, K, cap) <= n + 1:
        return hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _depth_budget_cost(mid, K, cap) <= n + 1:
            lo = mid
        else:
            hi = mid
    return lo


def sequool_run(obj: Objective, cfg: RunConfig) -> RunResult:
    """Harmonic depth-budget search under deterministic feedback.

    Opens the root, then for h = 1, 2, ... opens the floor(H / h) best
    depth-h cells by value (all of them if fewer exist), where H = h_max =
    floor(n / H(n)) by default.  The recommendation is the best evaluated
    representative.  Total openings obey 1 + sum_h floor(h_max/h) <= n + 1.
    """
    n = cfg.budget_n
    K = cfg.branching
    run = _Run(obj, None, cfg)

    h_max = int(n // harmonic(n))
    H = float(h_max)
    if cfg.rescale_depth_budget:
        H = _rescaled_depth_budget(n, h_max, K, cfg.cap_quota_by_cells)
    h_limit = int(H)

    # depth -> [(cid, mean)] as run.open returns them; each child holds one
    # evaluation, so its mean is the cell's mean
    by_depth = {1: run.open(run.tree.root.id)}

    for h in range(1, h_limit + 1):
        cand = by_depth.pop(h, None)
        if not cand:
            break  # nothing materialized here, so nothing deeper either
        q = int(H // h)
        if cfg.cap_quota_by_cells:
            q = min(q, K ** h)
        cand.sort(key=lambda pair: (-pair[1], pair[0]))
        nxt = by_depth.setdefault(h + 1, [])
        for cid, _ in cand[:q]:
            nxt.extend(run.open(cid))

    if run.tree.opening_ledger > n + 1:
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
    tree = run.tree

    by_depth = {1: [tree.cells[cid] for cid, _ in run.open(tree.root.id, h_max)]}

    # exploration: each depth's statistics are final before its loop starts
    # (cells are created and evaluated by the openings one level up), so one
    # sort per depth suffices
    for h in range(1, h_max + 1):
        cells = by_depth.pop(h, None)
        if not cells:
            break
        cells.sort(key=lambda c: (-c.mean, c.id))
        nxt = by_depth.setdefault(h + 1, [])
        for m in range(1, h_max // h + 1):
            q = h_max // (h * m)  # >= 1 since m <= h_max // h
            for cell in cells:
                if not cell.opened and cell.eval_count >= q:
                    nxt.extend(tree.cells[cid] for cid, _ in run.open(cell.id, q))
                    break

    # cross-validation: nominate per doubling threshold, then re-evaluate
    # rank the evaluated cells once; each threshold takes the first cell
    # in that order with enough evaluations (keys are unique)
    ranked = sorted((c for c in tree.cells.values() if c.eval_count > 0),
                    key=lambda c: (-c.mean, c.id))
    candidates = []
    seen = set()
    for p in range(p_max + 1):
        thr = 1 << p
        c = next((c for c in ranked if c.eval_count >= thr), None)
        if c is None:
            break  # thresholds only grow, so no later one finds a cell
        run.log("candidate", p, c.id.depth, c.id.index)
        if c.id not in seen:
            seen.add(c.id)
            candidates.append(c)

    v_evals = max(1, h_max // 2)
    fresh = {}
    for cell in sorted(candidates, key=lambda c: c.id):
        before = cell.reward_sum
        tree.add_evaluations(cell.id, v_evals, run.stream)
        fresh[cell.id] = (cell.reward_sum - before) / v_evals
        run.units += v_evals
        run.log("validate", cell.id.depth, cell.id.index, v_evals)

    out = min(fresh, key=lambda cid: (-fresh[cid], cid))
    run.log("recommend", out.depth, out.index)

    if run.units > n:
        raise RuntimeError("evaluation budget exceeded")
    return run.result(out, fresh[out])


# ---------------------------------------------------------------------------
# SOO baseline
# ---------------------------------------------------------------------------

def soo_run(obj: Objective, cfg: RunConfig, depth_limit_fn=None) -> RunResult:
    """Depth-sweep baseline under deterministic feedback.

    Repeatedly sweeps depths 0 .. min(deepest materialized, limit(t)); at
    each depth it opens the best unopened cell if its value is >= every
    value opened earlier in the sweep.  limit defaults to sqrt(t) with t the
    openings so far.  The budget can go unspent if the depth limit pins the
    frontier (the sweep then opens nothing and the run stops).
    """
    n = cfg.budget_n
    limit = depth_limit_fn or math.sqrt
    run = _Run(obj, None, cfg)

    # depth -> [(-value, cid)] of unopened leaves; the root has no value, so
    # its key lets it pass the sweep test and leaves vmax at -inf
    heaps = {0: [(math.inf, run.tree.root.id)]}

    progressed = True
    while run.units < n and progressed:
        progressed = False
        vmax = -math.inf
        h = 0
        while run.units < n and h <= min(run.deepest, int(limit(run.units))):
            heap = heaps.get(h)
            if heap and -heap[0][0] >= vmax:
                negv, cid = heapq.heappop(heap)
                vmax = -negv
                nxt = heaps.setdefault(h + 1, [])
                for ccid, mean in run.open(cid):
                    heapq.heappush(nxt, (-mean, ccid))
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

    heap = [(0.0, run.tree.root.id)]  # (-(value + nu rho^depth), cid)
    while heap and run.units < n:
        _key, cid = heapq.heappop(heap)
        for ccid, mean in run.open(cid):
            heapq.heappush(heap, (-(mean + nu * rho ** ccid.depth), ccid))

    return run.result()


# ---------------------------------------------------------------------------
# uniform baseline
# ---------------------------------------------------------------------------

def uniform_run(obj: Objective, noise: NoiseModel | None, cfg: RunConfig) -> RunResult:
    """Breadth-first openings in CellId order; recommends the best observed
    mean.  The root's representative is observed once up front so depth 0
    participates (n openings cost K*n + 1 raw evaluations)."""
    n = cfg.budget_n
    run = _Run(obj, noise, cfg)
    root = run.tree.root.id

    # the root's one observation is the first candidate for the running best
    run.best_value = run.tree.add_evaluations(root, 1, run.stream)
    run.best_cid = root
    run.log("evaluate", 0, 0, 1)
    queue = deque([root])
    while queue and run.units < n:
        queue.extend(cid for cid, _ in run.open(queue.popleft()))

    return run.result()
