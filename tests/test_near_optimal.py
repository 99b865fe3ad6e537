"""theory.count_near_optimal runs over partition.split_cell's own cells.

The depth-h cells it samples must be the ones the optimizers open, bit for
bit, and each cell's grid must hold both of the cell's bounds.  The edges of
the K-ary partition come from the recursion lo + j*w/K.  The closed form
lo + (hi - lo)*i/K^h differs from it at 2,193 of the 6,561 depth-8 lower
edges for K = 3, so a function that takes its value only on such an edge
tells the two apart."""

import math
from array import array

import numpy as np
import pytest

from zipftree.objectives import Objective
from zipftree.partition import Box, make_tree, split_cell
from zipftree.theory import count_near_optimal

UNIT = Box([0.0], [1.0])

# the lower edge of a depth-8 cell of [0, 1] for K = 3 that no closed-form
# edge i/3^8 equals
SPIKE_AT = 0.41533302850175274


def children(cells, depth, K):
    for cell in cells:
        yield from split_cell(cell, depth, K)


def split_cell_bounds(domain, K, h):
    """The lower and upper bounds of the depth-h cells that split_cell makes
    from make_tree's root, in index order, on a 1-D domain."""
    root = make_tree(domain, K).root
    cells = [(root.lower, root.upper, root.representative)]
    for depth in range(h):
        cells = children(cells, depth, K)  # lazy: few cells are held at once
    lows, highs = array("d"), array("d")
    for (lo,), (hi,), _ in cells:
        lows.append(lo)
        highs.append(hi)
    return np.asarray(lows), np.asarray(highs)


def test_spike_on_a_split_cell_edge_is_found():
    lows, highs = split_cell_bounds(UNIT, 3, 8)
    assert SPIKE_AT in lows and SPIKE_AT in highs
    assert SPIKE_AT not in (np.arange(3 ** 8 + 1) / 3 ** 8)
    spike = Objective("spike", UNIT, lambda p: 1.0 if p[0] == SPIKE_AT else 0.0,
                      optimum_value=1.0)
    # the two cells that share the edge
    assert count_near_optimal(spike, 3, 8, 0.5) == 2


@pytest.mark.parametrize("K", [2, 3, 4, 5])
def test_each_cell_is_sampled_between_and_at_its_split_cell_bounds(K):
    # every depth up to 10 with at most 1e5 cells (h <= 8 for K = 4, h <= 7
    # for K = 5): the sweep up to the 1e6 cap takes seconds more
    h_max = max(h for h in range(11) if K ** h <= 10 ** 5)
    # never reaches the threshold, so every grid point of every cell is taken
    recorder = Objective("recorder", UNIT,
                         lambda p: points.append(p[0]) or 0.0,
                         optimum_value=1.0)
    for h in range(h_max + 1):
        lows, highs = split_cell_bounds(UNIT, K, h)
        points = array("d")
        assert count_near_optimal(recorder, K, h, 0.5, points_per_axis=3) == 0
        sampled = np.asarray(points).reshape(K ** h, 3)
        lo, hi = lows[:, None], highs[:, None]
        assert np.all((lo <= sampled) & (sampled <= hi)), (K, h)
        assert np.all((sampled == lo).any(axis=1)), (K, h)
        assert np.all((sampled == hi).any(axis=1)), (K, h)


def test_each_2d_cell_is_sampled_on_the_product_of_its_axis_grids():
    points = []
    recorder = Objective("recorder-2d", Box([-1.0, 0.0], [1.0, 3.0]),
                         lambda p: points.append(p) or 0.0, optimum_value=1.0)
    for h in range(5):
        del points[:]
        assert count_near_optimal(recorder, 3, h, 0.5, points_per_axis=3) == 0
        root = make_tree(recorder.domain, 3).root
        cells = [(root.lower, root.upper, root.representative)]
        for depth in range(h):
            cells = list(children(cells, depth, 3))
        assert len(points) == len(cells) * 9
        for i, (lower, upper, _) in enumerate(cells):
            grid = points[9 * i:9 * i + 9]
            for axis in range(2):
                values = {x[axis] for x in grid}
                assert len(values) == 3
                assert min(values) == lower[axis]
                assert max(values) == upper[axis]


def _const():
    return Objective("const", UNIT, lambda p: 2.5, optimum_value=2.5)


@pytest.mark.parametrize("kwargs,match", [
    (dict(branching=2.5), "branching must be an integer"),
    (dict(branching="3"), "branching must be an integer"),
    (dict(h=2.5), "h must be an integer"),
    (dict(h="2"), "h must be an integer"),
    (dict(points_per_axis=10.0), "points_per_axis must be an integer"),
    (dict(epsilon=math.nan), "epsilon must be >= 0 and finite"),
    (dict(epsilon=math.inf), "epsilon must be >= 0 and finite"),
    (dict(epsilon=-1e-9), "epsilon must be >= 0 and finite"),
    (dict(branching=2, h=20), "exceeds the 1e6 cell cap"),
    (dict(h=10 ** 9), "exceeds the 1e6 cell cap"),
], ids=["float-K", "str-K", "float-h", "str-h", "float-points", "nan-eps",
        "inf-eps", "negative-eps", "cap-K2-h20", "huge-h"])
def test_count_near_optimal_rejects_bad_inputs(kwargs, match):
    args = dict(branching=3, h=2, epsilon=0.1) | kwargs
    with pytest.raises(ValueError, match=match):
        count_near_optimal(_const(), **args)


def test_count_near_optimal_takes_any_integer_type():
    assert count_near_optimal(_const(), np.int64(3), np.int32(2), 0.0,
                              points_per_axis=np.int64(2)) == 9
