"""Property tests of partition.split_cell's domain guard.

Along random descents of at least 60 levels, which go past float64
resolution, every centre split_cell returns lies in the domain, or the
split raises ValueError -- and it raises only when some centre, computed
by the same formula without the guard, falls outside the domain."""

import math

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
            children = split_cell(cell, depth, K, axis_rule)
        except ValueError:
            assert not inside, (depth, cell)
            return
        assert children == expected
        assert inside, (depth, cell)
        cell = children[j % K]
