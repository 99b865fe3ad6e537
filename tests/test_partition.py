import math

import pytest

from zipftree.partition import Box, CellId, PartitionTree, make_tree


def value_fn(point):
    return -abs(point[0] - 0.5)


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
    assert box.dim == 2
    assert box.center == (0.5, 1.0)
    assert box.widths == (1.0, 4.0)
    assert box.contains((0.0, 3.0))
    assert not box.contains((0.5,))
    assert not box.contains((0.5, 3.5))


def test_make_tree_root():
    tree = make_tree(([0.0], [1.0]), branching=3)
    assert tree.root.id == CellId(0, 0)
    assert tree.root.representative == (0.5,)
    assert not tree.root.opened
    assert tree.opening_ledger == 0
    assert list(tree.cells) == [CellId(0, 0)]
    with pytest.raises(ValueError, match="branching must be at least 2"):
        make_tree(Box([0.0], [1.0]), branching=1)
    with pytest.raises(KeyError, match="unknown cell"):
        tree.cell(CellId(1, 0))


def test_root_children_centers_are_thirds():
    tree = make_tree(Box([0.0], [1.0]), branching=3)
    kids = tree.children_of(CellId(0, 0))
    assert [k.id for k in kids] == [CellId(1, 0), CellId(1, 1), CellId(1, 2)]
    centers = [k.representative[0] for k in kids]
    assert centers[0] == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert centers[1] == 0.5  # exact: see test_middle_child_center_exact
    assert centers[2] == pytest.approx(5.0 / 6.0, abs=1e-15)
    # probing children does not materialize them
    assert list(tree.cells) == [CellId(0, 0)]
    assert tree.opening_ledger == 0


def test_open_cell_bookkeeping():
    tree = make_tree(Box([0.0], [1.0]), branching=3)
    out = tree.open_cell(CellId(0, 0), 1, value_fn)
    assert [cid for cid, _ in out] == [CellId(1, 0), CellId(1, 1), CellId(1, 2)]
    for cid, mean in out:
        cell = tree.cell(cid)
        assert mean == value_fn(cell.representative)
        assert cell.eval_count == 1
        assert not cell.opened
    assert tree.root.opened
    assert tree.opening_ledger == 1
    assert len(tree.cells) == 4
    with pytest.raises(ValueError, match="cell already opened"):
        tree.open_cell(CellId(0, 0), 1, value_fn)
    with pytest.raises(ValueError, match="evals_per_child must be >= 1"):
        tree.open_cell(CellId(1, 0), 0, value_fn)
    # children_of on an opened parent returns the registered cells
    kids = tree.children_of(CellId(0, 0))
    assert all(k is tree.cells[k.id] for k in kids)


def test_children_tile_parent_exactly():
    tree = make_tree(Box([0.0], [1.0]), branching=3)
    cur = tree.root
    for _ in range(6):
        out = tree.open_cell(cur.id, 1, value_fn)
        kids = [tree.cell(cid) for cid, _ in out]
        assert kids[0].box.lower[0] == cur.box.lower[0]
        assert kids[-1].box.upper[0] == cur.box.upper[0]
        for left, right in zip(kids, kids[1:]):
            assert left.box.upper[0] == right.box.lower[0]
        # descend along the child whose box is widest to vary the path
        cur = max(kids, key=lambda k: (k.box.widths[0], -k.id.index))


def test_middle_child_center_exact():
    # the K=3 middle cell at every depth has midpoint exactly 1/2: the child
    # edge arithmetic keeps (lo + hi) == 1.0 exact along the middle spine
    tree = make_tree(Box([0.0], [1.0]), branching=3)
    cur = tree.root
    for depth in range(1, 13):
        out = tree.open_cell(cur.id, 1, value_fn)
        mid = tree.cell(out[1][0])
        assert mid.id == CellId(depth, (3 ** depth - 1) // 2)
        assert mid.representative[0] == 0.5, depth
        assert mid.box.lower[0] + mid.box.upper[0] == 1.0
        cur = mid


def test_add_evaluations_statistics():
    draws = iter([0.5, 0.1, 0.2, 0.3, 0.9])

    def noisy(_point):
        return next(draws)

    tree = make_tree(Box([0.0], [1.0]), branching=2)
    (cid0, mean0), _ = tree.open_cell(CellId(0, 0), 1, noisy)
    assert mean0 == 0.5
    updated = tree.add_evaluations(cid0, 3, noisy)
    cell = tree.cell(cid0)
    assert cell.eval_count == 4
    assert cell.reward_sum == pytest.approx(0.5 + 0.2 + 0.3 + 0.9)
    assert updated == cell.mean == cell.reward_sum / 4
    assert tree.opening_ledger == 1  # re-evaluation is not an opening
    with pytest.raises(ValueError, match="count must be >= 1"):
        tree.add_evaluations(cid0, 0, noisy)


def test_mean_requires_evaluations():
    tree = make_tree(Box([0.0], [1.0]))
    with pytest.raises(ValueError, match="no evaluations"):
        _ = tree.root.mean


def test_cell_containing_boundaries():
    tree = make_tree(Box([0.0], [1.0]), branching=3)
    assert tree.cell_containing((0.4,), 0) == CellId(0, 0)
    # slabs are closed-left / open-right; the last slab is closed
    third = 1.0 / 3.0
    assert tree.cell_containing((third - 1e-12,), 1) == CellId(1, 0)
    assert tree.cell_containing((third,), 1) == CellId(1, 1)
    assert tree.cell_containing((1.0,), 1) == CellId(1, 2)
    assert tree.cell_containing((0.0,), 5) == CellId(5, 0)
    assert tree.cell_containing((1.0,), 5) == CellId(5, 3 ** 5 - 1)
    with pytest.raises(ValueError, match="outside the domain"):
        tree.cell_containing((1.5,), 1)


def test_cell_containing_matches_materialized_boxes():
    tree = make_tree(Box([0.0], [1.0]), branching=3)
    frontier = [tree.root]
    for _ in range(5):
        nxt = []
        for cell in frontier:
            for cid, _ in tree.open_cell(cell.id, 1, value_fn):
                nxt.append(tree.cell(cid))
        frontier = nxt
    for k in range(101):
        x = k / 100.0
        cid = tree.cell_containing((x,), 5)
        box = tree.cell(cid).box
        assert box.lower[0] <= x <= box.upper[0]
        # open-right: x on an interior right edge belongs to the next cell
        if x < 1.0 and x == box.upper[0]:
            pytest.fail(f"{x} should fall in the right neighbour")


def test_axis_cycling_in_two_dims():
    tree = make_tree(Box([0.0, 0.0], [1.0, 2.0]), branching=2)
    out0 = tree.open_cell(CellId(0, 0), 1, lambda p: p[0] + p[1])
    left = tree.cell(out0[0][0])
    assert left.box.widths == (0.5, 2.0)      # depth 0 splits axis 0
    out1 = tree.open_cell(left.id, 1, lambda p: p[0] + p[1])
    bottom = tree.cell(out1[0][0])
    assert bottom.box.widths == (0.5, 1.0)    # depth 1 splits axis 1
    assert bottom.id == CellId(2, 0)


def test_child_index_arithmetic_deep():
    tree = make_tree(Box([0.0], [1.0]), branching=4)
    cell = tree.root
    for _ in range(3):
        out = tree.open_cell(cell.id, 1, value_fn)
        cell = tree.cell(out[-1][0])  # follow the last child
    assert cell.id == CellId(3, 4 ** 3 - 1)


def test_open_cell_batch_evaluations():
    calls = []

    def recorder(point):
        calls.append(point)
        return 1.0

    tree = make_tree(Box([0.0], [1.0]), branching=3)
    out = tree.open_cell(CellId(0, 0), 5, recorder)
    assert len(calls) == 15  # 3 children x 5 evaluations
    for cid, mean in out:
        assert tree.cell(cid).eval_count == 5
        assert mean == 1.0
    assert tree.opening_ledger == 1  # still one opening however many evals


# ---------------------------------------------------------------------------
# split geometry: cells store bounds and centre, Cell.box is built on demand
# ---------------------------------------------------------------------------

def _materialise(tree, levels, fn=value_fn):
    """Open every cell of the first `levels` depths; returns all opened
    parents in opening order."""
    opened = []
    frontier = [tree.root]
    for _ in range(levels):
        nxt = []
        for cell in frontier:
            for cid, _ in tree.open_cell(cell.id, 1, fn):
                nxt.append(tree.cell(cid))
            opened.append(cell)
        frontier = nxt
    return opened


def _check_geometry(tree, opened):
    K = tree.branching
    for cell in tree.cells.values():
        box = cell.box
        assert cell.representative == box.center, cell
        assert box == cell.box and hash(box) == hash(cell.box)
        assert (box.lower, box.upper) == (cell.lower, cell.upper)
    for parent in opened:
        depth, index = parent.id
        kids = [tree.cell(CellId(depth + 1, index * K + j)) for j in range(K)]
        assert kids == tree.children_of(parent.id)
        axis = depth % parent.box.dim
        assert kids[0].lower[axis] == parent.lower[axis]
        assert kids[-1].upper[axis] == parent.upper[axis]
        for left, right in zip(kids, kids[1:]):
            assert left.upper[axis] == right.lower[axis]
        for kid in kids:
            for i in range(parent.box.dim):
                if i != axis:
                    assert kid.lower[i] == parent.lower[i]
                    assert kid.upper[i] == parent.upper[i]
        # unopened cells split into fresh children with the same geometry
        for kid in kids:
            if not kid.opened:
                for fresh in tree.children_of(kid.id):
                    assert fresh.representative == fresh.box.center


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
    cell, opened = tree.root, []
    for _ in range(90):
        opened.append(cell)
        out = tree.open_cell(cell.id, 1, lambda p: -abs(p[0] - target) - abs(p[1] - target))
        cell = tree.cell(max(out, key=lambda pair: (pair[1], -pair[0].index))[0])
    assert cell.box.widths == (0.0, 0.0)
    _check_geometry(tree, opened)


def test_split_of_negative_zero_bound_starts_at_positive_zero():
    # the edge formula lo + j*w/K gives 0.0 at j = 0, not the parent's -0.0
    tree = make_tree(Box([-0.0], [1.0]), branching=3)
    assert math.copysign(1.0, tree.root.lower[0]) == -1.0
    out = tree.open_cell(CellId(0, 0), 1, value_fn)
    first = tree.cell(out[0][0])
    assert first.lower[0] == 0.0 and math.copysign(1.0, first.lower[0]) == 1.0
    assert first.box.lower == (0.0,)
    assert first.representative == first.box.center == (1.0 / 6.0,)


def test_cell_box_is_built_from_bounds():
    tree = make_tree(Box([0.0, 1.0], [2.0, 5.0]))
    root = tree.root
    assert root.box == tree.domain
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
