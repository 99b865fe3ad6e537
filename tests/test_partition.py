import math

import pytest

from zipftree.objectives import EvaluationStream, NoiseModel, Objective
from zipftree.partition import (Box, CellId, cell_containing, make_tree,
                                split_cell)


def value_fn(point):
    return -abs(point[0] - 0.5)


def stream_of(fn=value_fn, domain=Box([0.0], [1.0]), noise=None):
    """An EvaluationStream of `fn` on `domain`, as the runs observe."""
    return EvaluationStream(Objective("value", domain, fn), noise)


def test_box_validation():
    with pytest.raises(ValueError, match="inverted bounds at dimension 0"):
        Box([1.0], [0.0])
    with pytest.raises(ValueError, match="inverted bounds at dimension 1"):
        Box([0.0, 2.0], [1.0, 2.0])  # zero width counts as inverted
    with pytest.raises(ValueError, match="same length"):
        Box([0.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="at least one dimension"):
        Box([], [])
    box = Box([0.0, -1.0], [1.0, 3.0])
    assert (box.lower, box.upper) == ((0.0, -1.0), (1.0, 3.0))
    assert box.center == (0.5, 1.0)
    assert box.contains((0.0, 3.0))
    assert not box.contains((0.5,))
    assert not box.contains((0.5, 3.5))


def test_make_tree_root():
    tree = make_tree(Box([0.0], [1.0]), branching=3)
    assert tree.root.id == CellId(0, 0)
    assert tree.root.representative == (0.5,)
    assert not tree.root.opened
    assert list(tree.cells) == [CellId(0, 0)]
    with pytest.raises(ValueError, match="branching must be >= 2"):
        make_tree(Box([0.0], [1.0]), branching=1)
    with pytest.raises(KeyError):
        tree.open_cell(CellId(1, 0), 1, stream_of())


def test_root_children_centers_are_thirds():
    root = make_tree(Box([0.0], [1.0]), branching=3).root
    kids = split_cell((root.lower, root.upper, root.representative), 0, 3)
    centers = [centre[0] for _, _, centre in kids]
    assert centers[0] == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert centers[1] == 0.5  # exact: see test_middle_child_center_exact
    assert centers[2] == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_a_middle_child_carries_its_parents_centre_object():
    # with odd K the middle child's centre equals its parent's bit for bit,
    # so split_cell hands back the parent's centre object; no other child,
    # and no child of an even K, shares it
    cell = ((0.0,), (1.0,), (0.5,))
    for K in (3, 5, 7):
        kids = split_cell(cell, 0, K)
        assert [k[2] is cell[2] for k in kids] == [j == K // 2 for j in range(K)]
        assert kids[K // 2] is not cell
    assert not any(k[2] is cell[2] for k in split_cell(cell, 0, 4))
    # in 2-D the whole centre tuple is shared, whichever axis is split
    square = ((0.0, 0.0), (1.0, 2.0), (0.5, 1.0))
    for depth in (0, 1):
        kids = split_cell(square, depth, 3)
        assert [k[2] is square[2] for k in kids] == [False, True, False]
    # a centre of 0.0 is not shared: 0.0 and -0.0 compare equal but differ
    # in bits, so the rule asks for a nonzero centre
    for bound, K in ((1.0, 5), (3.0, 3)):
        zero = ((-bound,), (bound,), (0.0,))
        kids = split_cell(zero, 0, K)
        assert kids[K // 2][2] == (0.0,)
        assert not any(k[2] is zero[2] for k in kids)


def test_one_dimensional_children_share_their_edge_tuples():
    # in 1-D child j's upper is child j+1's lower object, the last child's
    # upper is the parent's, and so is the first child's lower where the
    # first edge has lo's bits
    for cell in (((1.0,), (4.0,), (2.5,)), ((-3.0,), (0.0,), (-1.5,))):
        for K in (2, 3, 5):
            kids = split_cell(cell, 0, K)
            assert all(left[1] is right[0] for left, right in zip(kids, kids[1:]))
            assert kids[0][0] is cell[0] and kids[-1][1] is cell[1]
    # a +-0.0 first edge gets a tuple of its own: -0.0 splits to +0.0
    for lo in (0.0, -0.0):
        cell = ((lo,), (1.0,), (0.5,))
        kids = split_cell(cell, 0, 3)
        assert kids[0][0] is not cell[0] and kids[0][0] == (0.0,)
        assert math.copysign(1.0, kids[0][0][0]) == 1.0
        assert kids[-1][1] is cell[1]


def test_open_cell_bookkeeping():
    tree = make_tree(Box([0.0], [1.0]), branching=3)
    stream = stream_of()
    out = tree.open_cell(CellId(0, 0), 1, stream)
    assert [cid for cid, _ in out] == [CellId(1, 0), CellId(1, 1), CellId(1, 2)]
    for cid, mean in out:
        cell = tree.cells[cid]
        assert cell.id == cid
        assert mean == value_fn(cell.representative)
        assert cell.eval_count == 1
        assert not cell.opened
    assert tree.root.opened
    assert len(tree.cells) == 4
    assert stream.n_evals == 3
    with pytest.raises(ValueError, match="cell already opened"):
        tree.open_cell(CellId(0, 0), 1, stream)
    with pytest.raises(ValueError, match="evals_per_child must be >= 1"):
        tree.open_cell(CellId(1, 0), 0, stream)
    assert stream.n_evals == 3


def test_children_tile_parent_exactly():
    tree = make_tree(Box([0.0], [1.0]), branching=3)
    stream = stream_of()
    cur = tree.root
    for _ in range(6):
        out = tree.open_cell(cur.id, 1, stream)
        kids = [tree.cells[cid] for cid, _ in out]
        assert kids[0].box.lower[0] == cur.box.lower[0]
        assert kids[-1].box.upper[0] == cur.box.upper[0]
        for left, right in zip(kids, kids[1:]):
            assert left.box.upper[0] == right.box.lower[0]
        # descend along the child whose box is widest to vary the path
        cur = max(kids, key=lambda k: (k.box.upper[0] - k.box.lower[0],
                                       -k.id.index))


def test_middle_child_center_exact():
    # the K=3 middle cell at every depth has midpoint exactly 1/2: the child
    # edge arithmetic keeps (lo + hi) == 1.0 exact along the middle spine
    tree = make_tree(Box([0.0], [1.0]), branching=3)
    stream = stream_of()
    cur = tree.root
    for depth in range(1, 13):
        out = tree.open_cell(cur.id, 1, stream)
        mid = tree.cells[out[1][0]]
        assert mid.id == CellId(depth, (3 ** depth - 1) // 2)
        assert mid.representative[0] == 0.5, depth
        assert mid.box.lower[0] + mid.box.upper[0] == 1.0
        cur = mid


def test_add_evaluations_statistics():
    # the sums are the stream's: count * f(x) plus the next count draws
    stream = stream_of(noise=NoiseModel(0.1, seed=4))
    draws = NoiseModel(0.1, seed=4).offsets(5)
    tree = make_tree(Box([0.0], [1.0]), branching=2)
    (cid0, mean0), _ = tree.open_cell(CellId(0, 0), 1, stream)
    f0 = value_fn((0.25,))
    assert mean0 == f0 + draws[0]
    updated = tree.add_evaluations(cid0, 3, stream)
    cell = tree.cells[cid0]
    assert cell.eval_count == 4
    assert cell.reward_sum == mean0 + (3 * f0 + float(draws[2:5].sum()))
    assert updated == cell.reward_sum / 4
    assert stream.n_evals == 5
    with pytest.raises(ValueError, match="count must be >= 1"):
        tree.add_evaluations(cid0, 0, stream)
    assert (cell.eval_count, stream.n_evals) == (4, 5)


def test_cell_containing_boundaries():
    unit = Box([0.0], [1.0])
    assert cell_containing(unit, 3, (0.4,), 0) == CellId(0, 0)
    # slabs are closed-left / open-right; the last slab is closed
    third = 1.0 / 3.0
    assert cell_containing(unit, 3, (third - 1e-12,), 1) == CellId(1, 0)
    assert cell_containing(unit, 3, (third,), 1) == CellId(1, 1)
    assert cell_containing(unit, 3, (1.0,), 1) == CellId(1, 2)
    assert cell_containing(unit, 3, (0.0,), 5) == CellId(5, 0)
    assert cell_containing(unit, 3, (1.0,), 5) == CellId(5, 3 ** 5 - 1)
    with pytest.raises(ValueError, match="outside the domain"):
        cell_containing(unit, 3, (1.5,), 1)


def test_cell_containing_matches_materialized_boxes():
    tree = make_tree(Box([0.0], [1.0]), branching=3)
    stream = stream_of()
    frontier = [tree.root]
    for _ in range(5):
        nxt = []
        for cell in frontier:
            for cid, _ in tree.open_cell(cell.id, 1, stream):
                nxt.append(tree.cells[cid])
        frontier = nxt
    for k in range(101):
        x = k / 100.0
        cid = cell_containing(tree.domain, 3, (x,), 5)
        box = tree.cells[cid].box
        assert box.lower[0] <= x <= box.upper[0]
        # open-right: x on an interior right edge belongs to the next cell
        if x < 1.0 and x == box.upper[0]:
            pytest.fail(f"{x} should fall in the right neighbour")


def test_axis_cycling_in_two_dims():
    tree = make_tree(Box([0.0, 0.0], [1.0, 2.0]), branching=2)
    stream = stream_of(lambda p: p[0] + p[1], tree.domain)
    out0 = tree.open_cell(CellId(0, 0), 1, stream)
    left = tree.cells[out0[0][0]]
    assert (left.box.lower, left.box.upper) == ((0.0, 0.0), (0.5, 2.0))  # axis 0
    out1 = tree.open_cell(left.id, 1, stream)
    bottom = tree.cells[out1[0][0]]
    assert (bottom.box.lower, bottom.box.upper) == ((0.0, 0.0), (0.5, 1.0))  # axis 1
    assert bottom.id == CellId(2, 0)


def test_child_index_arithmetic_deep():
    tree = make_tree(Box([0.0], [1.0]), branching=4)
    stream = stream_of()
    cell = tree.root
    for _ in range(3):
        out = tree.open_cell(cell.id, 1, stream)
        cell = tree.cells[out[-1][0]]  # follow the last child
    assert cell.id == CellId(3, 4 ** 3 - 1)


def test_open_cell_batch_evaluations():
    calls = []

    def recorder(point):
        calls.append(point)
        return 1.0

    tree = make_tree(Box([0.0], [1.0]), branching=3)
    stream = stream_of(recorder)
    out = tree.open_cell(CellId(0, 0), 5, stream)
    # 3 children x 5 charged observations, each child's fn called once
    assert len(calls) == 3
    assert stream.n_evals == 15
    for cid, mean in out:
        assert tree.cells[cid].eval_count == 5
        assert tree.cells[cid].reward_sum == 5.0
        assert mean == 1.0


# ---------------------------------------------------------------------------
# split geometry: cells store bounds and centre, Cell.box is built on demand
# ---------------------------------------------------------------------------

def _materialise(tree, levels, fn=value_fn):
    """Open every cell of the first `levels` depths; returns all opened
    parents in opening order."""
    stream = stream_of(fn, tree.domain)
    opened = []
    frontier = [tree.root]
    for _ in range(levels):
        nxt = []
        for cell in frontier:
            for cid, _ in tree.open_cell(cell.id, 1, stream):
                nxt.append(tree.cells[cid])
            opened.append(cell)
        frontier = nxt
    return opened


def _check_geometry(tree, opened):
    K = tree.branching
    for cell in tree.cells.values():
        box = cell.box
        assert cell.representative == box.center, cell
        assert (box.lower, box.upper) == (cell.lower, cell.upper)
    for parent in opened:
        depth, index = parent.id
        kids = [tree.cells[CellId(depth + 1, index * K + j)] for j in range(K)]
        assert [(k.lower, k.upper, k.representative) for k in kids] == split_cell(
            (parent.lower, parent.upper, parent.representative), depth, K)
        dim = len(parent.lower)
        axis = depth % dim
        assert kids[0].lower[axis] == parent.lower[axis]
        assert kids[-1].upper[axis] == parent.upper[axis]
        for left, right in zip(kids, kids[1:]):
            assert left.upper[axis] == right.lower[axis]
        for kid in kids:
            for i in range(dim):
                if i != axis:
                    assert kid.lower[i] == parent.lower[i]
                    assert kid.upper[i] == parent.upper[i]
        # unopened cells split into fresh children with the same geometry
        for kid in kids:
            if not kid.opened:
                for lower, upper, centre in split_cell(
                        (kid.lower, kid.upper, kid.representative), depth + 1, K):
                    assert centre == Box._unchecked(lower, upper).center


@pytest.mark.parametrize("domain, K, levels", [
    (Box([0.0], [1.0]), 3, 5),
    (Box([0.0, -1.0], [1.0, 2.0]), 2, 7),
    (Box([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]), 3, 4),
    (Box([-1.0], [2.0]), 3, 5),
], ids=["1d-K3", "2d-cycling", "3d", "minus1-to-2"])
def test_split_geometry(domain, K, levels):
    tree = make_tree(domain, branching=K)
    opened = _materialise(tree, levels, lambda p: -sum(abs(v - 0.3) for v in p))
    assert len(tree.cells) == sum(K ** h for h in range(levels + 1))
    _check_geometry(tree, opened)


def test_split_geometry_past_float_resolution():
    # follow the child holding pi/6 well past depth 34, where cells lose all
    # width; bounds and centres stay consistent all the way down
    target = math.pi / 6
    tree = make_tree(Box([0.0, 0.0], [1.0, 1.0]), branching=3)
    stream = stream_of(lambda p: -abs(p[0] - target) - abs(p[1] - target),
                       tree.domain)
    cell, opened = tree.root, []
    for _ in range(90):
        opened.append(cell)
        out = tree.open_cell(cell.id, 1, stream)
        cell = tree.cells[max(out, key=lambda pair: (pair[1], -pair[0].index))[0]]
    assert cell.box.lower == cell.box.upper  # no width left on either axis
    _check_geometry(tree, opened)


def test_split_of_negative_zero_bound_starts_at_positive_zero():
    # the edge formula lo + j*w/K gives 0.0 at j = 0, not the parent's -0.0
    tree = make_tree(Box([-0.0], [1.0]), branching=3)
    assert math.copysign(1.0, tree.root.lower[0]) == -1.0
    out = tree.open_cell(CellId(0, 0), 1, stream_of(domain=tree.domain))
    first = tree.cells[out[0][0]]
    assert first.lower[0] == 0.0 and math.copysign(1.0, first.lower[0]) == 1.0
    assert first.box.lower == (0.0,)
    assert first.representative == first.box.center == (1.0 / 6.0,)


def test_cell_box_is_built_from_bounds():
    tree = make_tree(Box([0.0, 1.0], [2.0, 5.0]))
    root = tree.root
    assert (root.box.lower, root.box.upper) == (tree.domain.lower, tree.domain.upper)
    assert root.box is not root.box  # rebuilt on each read
    assert (root.lower, root.upper, root.representative) == ((0.0, 1.0), (2.0, 5.0), (1.0, 3.0))


def test_box_contains_rejects_nan_and_wrong_length():
    box = Box([0.0, -1.0], [1.0, 3.0])
    assert box.contains((0.0, -1.0)) and box.contains((1.0, 3.0))  # closed
    assert box.contains((-0.0, 0.0))
    assert not box.contains((math.nan, 0.0))
    assert not box.contains((0.5, math.nan))
    assert not box.contains((0.5,))
    assert not box.contains((0.5, 0.0, 0.0))
    assert not box.contains(())
    assert not box.contains((-math.inf, 0.0))
