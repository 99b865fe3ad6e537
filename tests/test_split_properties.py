"""Property tests of partition.split_cell's domain guard.

Along random descents of at least 60 levels, which go past float64
resolution, every centre split_cell returns lies in the domain, or the
split raises ValueError -- and it raises only when some centre, computed
by the same formula without the guard, falls outside the domain.  A split
axis with no width left returns the parent itself K times; those children
equal the formula's bit for bit, and the split raises exactly when the
formula's guard fails."""

import math
import struct
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from zipftree.partition import Box, split_cell  # noqa: E402


def axis_rule(depth, dim):
    return depth % dim


def unguarded_children(cell, depth, K):
    """split_cell's formula without its check."""
    lower, upper, centre = cell
    axis = axis_rule(depth, len(lower))
    lo, hi = lower[axis], upper[axis]
    w = hi - lo
    edges = [lo + j * w / K for j in range(K)] + [hi]
    return [(lower[:axis] + (edges[j],) + lower[axis + 1:],
             upper[:axis] + (edges[j + 1],) + upper[axis + 1:],
             centre[:axis] + (0.5 * (edges[j] + edges[j + 1]),) + centre[axis + 1:])
            for j in range(K)]


def bits(cells):
    """Every float of a list of cells, as bytes: tells -0.0 from 0.0."""
    flat = [v for cell in cells for part in cell for v in part]
    return struct.pack(f"<{len(flat)}d", *flat)


finite = st.floats(allow_nan=False, allow_infinity=False)
moderate = st.floats(min_value=-1e300, max_value=1e300)
near_1e300 = st.floats(min_value=0.9e300, max_value=1.1e300).flatmap(
    lambda v: st.sampled_from([v, -v]))


@st.composite
def bounds(draw):
    """One dimension's (lo, hi), lo < hi."""
    kind = draw(st.sampled_from(["pair", "neg-zero", "ulp", "near-1e300", "wide"]))
    if kind == "neg-zero":
        return -0.0, draw(st.floats(min_value=5e-324, max_value=1e300))
    if kind == "ulp":
        lo = draw(moderate)
        return lo, math.nextafter(lo, math.inf)
    if kind == "near-1e300":
        a, b = draw(near_1e300), draw(st.one_of(near_1e300, moderate))
    elif kind == "wide":  # anywhere in float64: widths and sums may overflow
        a, b = draw(finite), draw(finite)
    else:
        a, b = draw(moderate), draw(moderate)
    assume(a != b)
    return min(a, b), max(a, b)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(dims=st.lists(bounds(), min_size=1, max_size=3),
       K=st.integers(min_value=2, max_value=7),
       path=st.lists(st.integers(min_value=0, max_value=6), min_size=60,
                     max_size=120))
def test_split_centres_stay_in_the_domain(dims, K, path):
    domain = Box([lo for lo, _ in dims], [hi for _, hi in dims])
    cell = (domain.lower, domain.upper, domain.center)
    # the optimizers check the root's centre before any split
    assume(domain.contains(cell[2]))
    for depth, j in enumerate(path):
        expected = unguarded_children(cell, depth, K)
        inside = all(domain.contains(c) for _, _, c in expected)
        try:
            children = split_cell(cell, depth, K)
        except ValueError:
            assert not inside, (depth, cell)
            return
        assert bits(children) == bits(expected)
        assert inside, (depth, cell)
        cell = children[j % K]


HALF_MAX = sys.float_info.max / 2
subnormal = st.floats(min_value=5e-324, max_value=sys.float_info.min,
                      exclude_max=True)
near_half_max = st.floats(min_value=0.99 * HALF_MAX, max_value=1.01 * HALF_MAX)
near_max = st.floats(min_value=0.9 * sys.float_info.max,
                     max_value=sys.float_info.max)


@st.composite
def zero_width_bound(draw):
    """A split-axis bound lo == hi."""
    kind = draw(st.sampled_from(
        ["zero", "subnormal", "half-max", "max", "ordinary", "infinite"]))
    if kind == "zero":
        return draw(st.sampled_from([0.0, -0.0]))
    v = draw({"subnormal": subnormal, "half-max": near_half_max,
              "max": near_max, "ordinary": moderate,
              "infinite": st.just(math.inf)}[kind])
    return draw(st.sampled_from([v, -v]))


@st.composite
def zero_width_cells(draw):
    """(cell, depth, K): a 1-3-D cell with no width on depth's split axis.
    Its centre there is the bound itself, the formula's 0.5*(lo + hi) (which
    overflows past DBL_MAX/2) or an inconsistent value."""
    dims = draw(st.lists(bounds(), min_size=1, max_size=3))
    depth = draw(st.integers(min_value=0, max_value=5))
    axis = axis_rule(depth, len(dims))
    lo = draw(zero_width_bound())
    c = draw(st.sampled_from(["bound", "formula", "other"]))
    mid = {"bound": lo, "formula": 0.5 * (lo + lo)}.get(c)
    if mid is None:
        mid = draw(st.one_of(finite, st.just(-lo), st.just(math.nan)))
    dims[axis] = (lo, lo)
    centre = [0.5 * (a + b) for a, b in dims]
    centre[axis] = mid
    cell = (tuple(a for a, _ in dims), tuple(b for _, b in dims), tuple(centre))
    return cell, depth, draw(st.integers(min_value=2, max_value=7))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(zero_width_cells())
def test_zero_width_split_is_the_formula_bit_for_bit(drawn):
    cell, depth, K = drawn
    axis = axis_rule(depth, len(cell[0]))
    lo, hi = cell[0][axis], cell[1][axis]
    expected = unguarded_children(cell, depth, K)
    passes = lo <= expected[0][2][axis] and expected[-1][2][axis] <= hi
    try:
        children = split_cell(cell, depth, K)
    except ValueError:
        assert not passes, cell
        return
    assert passes, cell
    assert bits(children) == bits(expected)
    if lo != 0.0 and abs(lo) <= HALF_MAX and cell[2][axis] == lo:
        assert all(child is cell for child in children)
    else:  # a signed zero, or an inconsistent centre that the guard lets by
        assert not any(child is cell for child in children)
