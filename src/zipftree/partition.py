"""Axis-aligned K-ary partitioning of a box domain, with the evaluated-tree
bookkeeping shared by every optimizer.

A cell is "opened" by splitting it into K equal-width children along one axis
(axis depth % dim, so the axis cycles with depth) and evaluating each child's
representative point a requested number of times.  Budgets are counted in
openings; the tree keeps a ledger of how many cells have been opened.

A cell stores its bounds and its representative (the centre of its box) as
plain tuples; `Cell.box` builds a `Box` from the bounds on demand.  The split
formula, `split_cell`, works on bare (lower, upper, centre) tuples.

Points are checked against the domain once, not per evaluation: split_cell
raises unless its children's centres lie inside the parent, so when the
root's centre lies in the domain every point of the partition does, and
objectives.EvaluationStream.observe_sum evaluates them unchecked
(Objective.eval stays checked).

Cells stop shrinking once float64 runs out of width (K = 3 on [0, 1] does
at depth 34).  When the split axis has no width left -- hi - lo == 0.0,
lo != 0.0 and centre[axis] == lo == 0.5*(lo + hi) -- the formula would give
K copies of the parent, bit for bit, so split_cell returns the parent
object itself K times, and EvaluationStream.observe_sum, which remembers
the last point object it evaluated, calls the objective once for them.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple


class CellId(NamedTuple):
    """(depth, index) coordinate of a cell; orderable, depth-major.

    index is 0-based and lexicographic by split history: the children of
    (h, i) are (h+1, i*K + j) for j in 0..K-1.
    """

    depth: int
    index: int


class Box:
    """Axis-aligned box { x : lower[i] <= x[i] <= upper[i] }."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower, upper):
        lower = tuple(float(v) for v in lower)
        upper = tuple(float(v) for v in upper)
        if len(lower) != len(upper):
            raise ValueError("lower and upper must have the same length")
        if len(lower) == 0:
            raise ValueError("domain must have at least one dimension")
        for i, (lo, hi) in enumerate(zip(lower, upper)):
            if not lo < hi:
                raise ValueError(f"inverted bounds at dimension {i}")
        self.lower = lower
        self.upper = upper

    @classmethod
    def _unchecked(cls, lower, upper):
        # internal: child boxes may degenerate to zero width at float
        # resolution deep in the tree; only the *domain* box is validated
        box = object.__new__(cls)
        box.lower = tuple(lower)
        box.upper = tuple(upper)
        return box

    @property
    def dim(self):
        return len(self.lower)

    @property
    def center(self):
        return tuple(0.5 * (lo + hi) for lo, hi in zip(self.lower, self.upper))

    @property
    def widths(self):
        return tuple(hi - lo for lo, hi in zip(self.lower, self.upper))

    def contains(self, point):
        return (len(point) == len(self.lower)
                and all(map(operator.le, self.lower, point))
                and all(map(operator.le, point, self.upper)))

    def __eq__(self, other):
        return isinstance(other, Box) and self.lower == other.lower and self.upper == other.upper

    def __hash__(self):
        return hash((self.lower, self.upper))

    def __repr__(self):
        return f"Box({list(self.lower)}, {list(self.upper)})"


class Cell:
    """One cell of the partition with its running evaluation statistics.

    lower / upper are the bounds of the cell's box and representative its
    centre, all tuples of floats.
    """

    __slots__ = ("id", "lower", "upper", "representative", "eval_count",
                 "reward_sum", "opened")

    def __init__(self, cid, lower, upper, representative):
        self.id = cid
        self.lower = lower
        self.upper = upper
        self.representative = representative
        self.eval_count = 0
        self.reward_sum = 0.0
        self.opened = False

    @property
    def box(self):
        """The cell's box, built from its bounds (not validated: deep cells
        may have zero width)."""
        return Box._unchecked(self.lower, self.upper)

    @property
    def mean(self):
        """Empirical mean of the observed values; only defined once evaluated."""
        if self.eval_count == 0:
            raise ValueError(f"cell {self.id} has no evaluations")
        return self.reward_sum / self.eval_count

    def __repr__(self):
        return (f"Cell(id={tuple(self.id)}, T={self.eval_count}, "
                f"opened={self.opened})")


def split_cell(cell, depth, K):
    """The K children of `cell`, a (lower, upper, centre) tuple of float
    tuples at `depth`, in index order, cut along axis depth % dim.

    Edge j is lo + j*w/K (a -0.0 bound gives a +0.0 first edge); the last
    edge snaps to hi.  A child's centre is the parent's with the split
    coordinate set to 0.5*(a+b), which equals Box.center.

    Raises ValueError unless the first and the last child's centre lie in
    the parent's [lo, hi] on the split axis (a NaN fails).  The centres are
    monotone in the child index, so then every child's centre lies in the
    parent, and the children of a cell inside the domain stay inside it:
    EvaluationStream.observe_sum evaluates them unchecked, while
    Objective.eval stays checked.

    A split axis with no width left, where hi - lo == 0.0 (so lo == hi and
    both are finite), lo != 0.0 and centre[axis] == lo == 0.5*(lo + hi),
    returns `[cell] * K`: there every edge and centre the formula computes
    is lo, so its children equal the parent bit for bit and the guard
    passes.  Every other cell takes the formula and its guard: a signed
    zero (lo + 0*w/K turns -0.0 into +0.0), |lo| > DBL_MAX/2 (the centre
    overflows, so the guard raises), an infinite bound (the width is NaN)
    and a centre off its bounds.
    """
    lower, upper, centre = cell
    axis = depth % len(lower)
    lo = lower[axis]
    hi = upper[axis]
    w = hi - lo
    if w == 0.0 and lo != 0.0 and centre[axis] == lo == 0.5 * (lo + hi):
        return [cell] * K
    children = []
    a = lo + 0 * w / K
    # the children differ from the parent only on `axis`
    lo_head, lo_tail = lower[:axis], lower[axis + 1:]
    up_head, up_tail = upper[:axis], upper[axis + 1:]
    c_head, c_tail = centre[:axis], centre[axis + 1:]
    for j in range(1, K + 1):
        b = lo + j * w / K if j < K else hi
        children.append((lo_head + (a,) + lo_tail, up_head + (b,) + up_tail,
                         c_head + (0.5 * (a + b),) + c_tail))
        a = b
    if not (lo <= children[0][2][axis] and children[-1][2][axis] <= hi):
        raise ValueError(f"split of [{lo!r}, {hi!r}] on axis {axis} puts a "
                         f"child's centre outside the cell")
    return children


def _observe_sum(evaluator, point, count):
    """Sum of `count` calls of the plain callable `evaluator` at `point`."""
    return math.fsum(evaluator(point) for _ in range(count))


def _observer(evaluator):
    """`observe(point, count)` returning the sum of `count` observations.

    Evaluators may expose an `observe_sum(point, count)` batch method (see
    objectives.EvaluationStream); plain callables are invoked count times.
    """
    batch = getattr(evaluator, "observe_sum", None)
    if batch is not None:
        return batch
    return functools.partial(_observe_sum, evaluator)


class PartitionTree:
    """The explored part of the infinite K-ary partition of `domain`.

    `cells` holds the root plus every child of an opened cell.  All mutation
    goes through open_cell / add_evaluations, so a tree's state is a
    deterministic function of (domain, K, evaluator stream, call sequence).
    A depth-h cell splits along axis h % dim.  Single-writer; run one
    optimizer per tree.
    """

    def __init__(self, domain: Box, branching: int = 3):
        if branching < 2:
            raise ValueError("branching must be at least 2")
        self.domain = domain
        self.branching = int(branching)
        root = Cell(CellId(0, 0), domain.lower, domain.upper, domain.center)
        self.root = root
        self.cells = {root.id: root}
        self.opening_ledger = 0

    # -- lookups ------------------------------------------------------------

    def cell(self, cid) -> Cell:
        try:
            return self.cells[cid]
        except KeyError:
            raise KeyError(f"unknown cell {cid!r}") from None

    def _split(self, parent: Cell):
        depth, index = parent.id
        base = index * self.branching
        cells = split_cell((parent.lower, parent.upper, parent.representative),
                           depth, self.branching)
        return [Cell(CellId(depth + 1, base + j), *cell)
                for j, cell in enumerate(cells)]

    def children_of(self, cid):
        """The K children of `cid` (fresh objects unless the parent is opened)."""
        parent = self.cell(cid)
        if parent.opened:
            K = self.branching
            base = parent.id.index * K
            return [self.cells[CellId(parent.id.depth + 1, base + j)] for j in range(K)]
        return self._split(parent)

    def open_cell(self, cid, evals_per_child, evaluator):
        """Open `cid`: materialize its K children and evaluate each child's
        representative `evals_per_child` times.  Returns [(child id, mean)].
        Counts as one opening on the ledger."""
        parent = self.cell(cid)
        if parent.opened:
            raise ValueError(f"cell already opened: {cid}")
        if evals_per_child < 1:
            raise ValueError("evals_per_child must be >= 1")
        children = self._split(parent)
        parent.opened = True
        self.opening_ledger += 1
        observe = _observer(evaluator)
        cells = self.cells
        out = []
        for child in children:
            cells[child.id] = child
            child.reward_sum = observe(child.representative, evals_per_child)
            child.eval_count = evals_per_child
            out.append((child.id, child.reward_sum / child.eval_count))
        return out

    def add_evaluations(self, cid, count, evaluator):
        """Evaluate an already-materialized cell `count` more times (no
        opening; the ledger is untouched).  Returns the updated mean."""
        cell = self.cell(cid)
        if count < 1:
            raise ValueError("count must be >= 1")
        cell.reward_sum += _observer(evaluator)(cell.representative, count)
        cell.eval_count += count
        return cell.reward_sum / cell.eval_count

    def cell_containing(self, point, depth):
        """CellId of the depth-`depth` cell containing `point`.

        Slabs are closed-left/open-right (the last slab is closed) so
        membership is a total function on the domain; works for any depth,
        materialized or not.  The descent splits with split_cell, so it
        raises where opening would.
        """
        if not self.domain.contains(point):
            raise ValueError(f"point {point!r} outside the domain")
        K = self.branching
        root = self.root
        cell = (root.lower, root.upper, root.representative)
        index = 0
        for h in range(depth):
            axis = h % len(point)
            children = split_cell(cell, h, K)
            # the last child whose lower edge is at or below the point
            j = K - 1
            while j > 0 and point[axis] < children[j][0][axis]:
                j -= 1
            cell = children[j]
            index = index * K + j
        return CellId(depth, index)


def make_tree(domain: Box, branching: int = 3) -> PartitionTree:
    """Fresh tree over `domain`: a single unopened root whose representative
    is the domain center."""
    if not isinstance(domain, Box):
        domain = Box(*domain)
    return PartitionTree(domain, branching)

