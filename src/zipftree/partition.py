"""Axis-aligned K-ary partitioning of a box domain.

A cell is "opened" by splitting it into K equal-width children along one axis
(axis depth % dim, so the axis cycles with depth) and evaluating each child's
representative point.  The split formula, `split_cell`, works on bare
(lower, upper, centre) tuples of floats, the centre being the cell's
representative; the optimizers open such tuples and take only the root,
with the domain and branching checks, from `make_tree`.
`cell_containing` names the cell of a point at any depth.  `PartitionTree`
keeps the root and any cells opened through it as `Cell` objects, and sums
their observations through objectives.EvaluationStream.observe_sum.

Points are checked against the domain once, not per evaluation: split_cell
raises unless its children's centres lie inside the parent, so when the
root's centre lies in the domain every point of the partition does, and
the optimizers and objectives.EvaluationStream.observe_sum evaluate them
unchecked (Objective.eval stays checked).

Cells stop shrinking once float64 runs out of width (K = 3 on [0, 1] does
at depth 34).  A child that equals its parent bit for bit -- every child of
a split axis with no width left, and the child of a one-ulp cell that
straddles both its bounds -- comes back as the parent object itself.
`fixed_cell` tells a cell with no width left on any axis, which splits into
itself K times at every depth.

A child whose centre alone equals its parent's -- with odd K, the middle
child of nearly every split -- carries the parent's centre object.  So a
caller tells every repeated centre by identity, and the optimizers give
such a child its parent's value instead of calling the objective again.
"""

from __future__ import annotations

import math
import numbers
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
    def center(self):
        return tuple(0.5 * (lo + hi) for lo, hi in zip(self.lower, self.upper))

    def contains(self, point):
        return (len(point) == len(self.lower)
                and all(map(operator.le, self.lower, point))
                and all(map(operator.le, point, self.upper)))

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
    the optimizers evaluate them unchecked, while Objective.eval stays
    checked.

    A child that equals the parent bit for bit is the parent object itself.
    That is a child with edges (a, b) == (lo, hi) and centre 0.5*(a + b) ==
    centre[axis], where none of lo, hi and the centre is 0.0 or -0.0 (so
    equal values are equal bits): the straddling child of a one-ulp cell,
    and every child of a split axis with no width left.  The latter --
    hi - lo == 0.0 (so lo == hi and both are finite), lo != 0.0 and
    centre[axis] == lo == 0.5*(lo + hi) -- returns `[cell] * K` at once:
    there every edge and centre the formula computes is lo, and the guard
    passes.  Every other cell takes the formula and its guard: a signed
    zero (lo + 0*w/K turns -0.0 into +0.0), |lo| > DBL_MAX/2 (the centre
    overflows, so the guard raises), an infinite bound (the width is NaN)
    and a centre off its bounds.

    Any other child whose centre equals the parent's bit for bit
    (0.5*(a + b) == centre[axis] != 0.0) -- the middle child of an odd K,
    as a rule -- gets the parent's centre object, so callers tell the
    repeated point by identity: the optimizers give such a child its
    parent's value instead of calling the objective.
    A 1-D cell's children are built as (a,), (b,) and (mid,) directly, and
    neighbours share their common edge tuple: child j's upper is child
    j+1's lower, the last child's upper is the parent's `upper`, and the
    first child's lower is the parent's `lower` where the first edge equals
    lo and is not 0.0, so their bits match (a +-0.0 or NaN first edge gets
    a new tuple).  The general path splices the split coordinate into
    slices of the parent's tuples, which gives the same bits.
    """
    lower, upper, centre = cell
    axis = depth % len(lower)
    lo = lower[axis]
    hi = upper[axis]
    c = centre[axis]
    w = hi - lo
    # the rule fixed_cell applies on every axis
    if w == 0.0 and lo != 0.0 and c == lo == 0.5 * (lo + hi):
        return [cell] * K
    children = []
    a = lo + 0 * w / K
    if len(lower) == 1:
        # the same children as below, built without slicing the parent
        a_edge = lower if a == lo != 0.0 else (a,)
        for j in range(1, K + 1):
            if j < K:
                b = lo + j * w / K
                b_edge = (b,)
            else:
                b, b_edge = hi, upper
            mid = 0.5 * (a + b)
            if mid != c or c == 0.0:
                children.append((a_edge, b_edge, (mid,)))
            elif a == lo and b == hi and lo != 0.0 and hi != 0.0:
                children.append(cell)
            else:
                children.append((a_edge, b_edge, centre))
            a, a_edge = b, b_edge
    else:
        # the children differ from the parent only on `axis`
        lo_head, lo_tail = lower[:axis], lower[axis + 1:]
        up_head, up_tail = upper[:axis], upper[axis + 1:]
        c_head, c_tail = centre[:axis], centre[axis + 1:]
        for j in range(1, K + 1):
            b = lo + j * w / K if j < K else hi
            mid = 0.5 * (a + b)
            if mid != c or c == 0.0:
                children.append((lo_head + (a,) + lo_tail,
                                 up_head + (b,) + up_tail,
                                 c_head + (mid,) + c_tail))
            elif a == lo and b == hi and lo != 0.0 and hi != 0.0:
                children.append(cell)
            else:
                children.append((lo_head + (a,) + lo_tail,
                                 up_head + (b,) + up_tail, centre))
            a = b
    if not (lo <= children[0][2][axis] and children[-1][2][axis] <= hi):
        raise ValueError(f"split of [{lo!r}, {hi!r}] on axis {axis} puts a "
                         f"child's centre outside the cell")
    return children


def fixed_cell(cell):
    """True when no axis of `cell`, a (lower, upper, centre) tuple, has
    width left: split_cell then returns the cell itself K times at every
    depth, so no split of it makes a new point."""
    lower, upper, centre = cell
    return all(hi - lo == 0.0 and lo != 0.0 and c == lo == 0.5 * (lo + hi)
               for lo, hi, c in zip(lower, upper, centre))


def checked_integer(value, name, minimum=-math.inf) -> int:
    """`value`, an integer >= `minimum`, as an int: anything operator.index
    takes except a bool; anything else raises ValueError."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer: {value!r}")
    value = operator.index(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}: {value!r}")
    return value


def is_real(value) -> bool:
    """True for a real number (numpy's included) other than a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """True for a finite real number (numpy's included) other than a bool."""
    try:
        return is_real(value) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def checked_range(value, name) -> float:
    """`value`, a real number that is finite and >= 0 (a noise range or a
    tolerance), as a float; anything else raises ValueError."""
    if not (is_finite(value) and value >= 0):
        raise ValueError(f"{name} must be >= 0 and finite: {value!r}")
    return float(value)


def checked_delta(delta) -> float:
    """`delta`, a real number in (0, 1), as a float, else ValueError."""
    if not (is_real(delta) and 0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1): {delta!r}")
    return float(delta)


def cell_containing(domain: Box, K: int, point, depth: int) -> CellId:
    """CellId of the depth-`depth` cell of `domain`'s K-ary partition that
    contains `point`.

    Slabs are closed-left/open-right (the last slab is closed) so
    membership is a total function on the domain.  The descent splits with
    split_cell, so it raises where opening would.
    """
    K = checked_integer(K, "K", 2)
    depth = checked_integer(depth, "depth", 0)
    if not domain.contains(point):
        raise ValueError(f"point {point!r} outside the domain")
    cell = (domain.lower, domain.upper, domain.center)
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


class PartitionTree:
    """The root of `domain`'s K-ary partition and the cells opened under it.

    `cells` holds the root plus every child of an opened cell.  All mutation
    goes through open_cell / add_evaluations, which sum observations with
    objectives.EvaluationStream.observe_sum.  A depth-h cell splits along
    axis h % dim.  Single-writer.

    The runs take only the root.  open_cell, add_evaluations, `cells` and
    Cell's box, eval_count and representative stay because perfbench's
    tracer wraps or reads them (ROADMAP item 4).
    """

    def __init__(self, domain: Box, branching: int = 3):
        self.domain = domain
        self.branching = checked_integer(branching, "branching", 2)
        root = Cell(CellId(0, 0), domain.lower, domain.upper, domain.center)
        self.root = root
        self.cells = {root.id: root}

    def open_cell(self, cid, evals_per_child, stream):
        """Open `cid`: materialize its K children and observe each child's
        representative `evals_per_child` times through `stream`, an
        EvaluationStream.  Returns [(child id, mean)]."""
        parent = self.cells[cid]
        if parent.opened:
            raise ValueError(f"cell already opened: {cid}")
        evals_per_child = checked_integer(evals_per_child, "evals_per_child", 1)
        depth, index = parent.id
        K = self.branching
        children = split_cell((parent.lower, parent.upper, parent.representative),
                              depth, K)
        parent.opened = True
        out = []
        for j, (lower, upper, centre) in enumerate(children):
            child = Cell(CellId(depth + 1, index * K + j), lower, upper, centre)
            self.cells[child.id] = child
            child.reward_sum = stream.observe_sum(centre, evals_per_child)
            child.eval_count = evals_per_child
            out.append((child.id, child.reward_sum / evals_per_child))
        return out

    def add_evaluations(self, cid, count, stream):
        """Observe an already-materialized cell `count` more times through
        `stream`.  Returns the updated mean."""
        cell = self.cells[cid]
        count = checked_integer(count, "count", 1)
        cell.reward_sum += stream.observe_sum(cell.representative, count)
        cell.eval_count += count
        return cell.reward_sum / cell.eval_count


def make_tree(domain: Box, branching: int = 3) -> PartitionTree:
    """Fresh tree over `domain`: a single unopened root whose representative
    is the domain center."""
    return PartitionTree(domain, branching)
