# Tour of the partition the optimizers walk: boxes, cell ids, split_cell on
# bare (lower, upper, centre) tuples, observing centres through an
# EvaluationStream, cells with no width left, and the
# closed-left/open-right membership rule.

import math

from zipftree import Box, CellId, EvaluationStream, garland_objective
from zipftree.partition import cell_containing, fixed_cell, split_cell

K = 3
obj = garland_objective()
domain = obj.domain
stream = EvaluationStream(obj)

# a cell is a (lower, upper, centre) tuple; the root's centre is the domain's
root = (domain.lower, domain.upper, domain.center)
print("domain:", domain, "root centre:", root[2])

# the children of cell (h, i) are (h+1, i*K + j), cut along axis h % dim
print("\nsplitting the root...")
children = split_cell(root, 0, K)
for j, (lower, upper, centre) in enumerate(children):
    value = stream.observe_sum(centre, 1)
    print(f"  child {tuple(CellId(1, j))}: box {Box(lower, upper)} "
          f"centre={centre[0]:.6f} value={value:.6f}")
print("evaluations so far:", stream.n_evals)

# follow the best child down a few levels; a tie goes to the lowest index
cid, cell = CellId(0, 0), root
for depth in range(5):
    kids = split_cell(cell, depth, K)
    sums = [stream.observe_sum(kid[2], 1) for kid in kids]
    j = max(range(K), key=sums.__getitem__)
    cid, cell = CellId(depth + 1, cid.index * K + j), kids[j]
    print(f"depth {cid.depth}: best child {tuple(cid)} "
          f"centre={cell[2][0]:.8f} value={sums[j]:.8f}")

# a sum of m observations without noise is m * f(centre), charged m times
before = stream.n_evals
total = stream.observe_sum(cell[2], 5)
print(f"\n5 observations at {tuple(cid)} sum to {total:.8f}, "
      f"charged {stream.n_evals - before}")

# membership: which depth-6 cell contains a point, without splitting a tree
for x in (0.0, 1 / 3, 0.523598, 1.0):
    print(f"x={x:.6f} lives in depth-6 cell",
          tuple(cell_containing(domain, K, (x,), 6)))

# float64 runs out of width: follow the cell holding pi/6 until a split
# gives the cell itself back, then take its first child, which has no width
x = (math.pi / 6,)
cell, depth = root, 0
while True:
    # the last base-K digit of the index is the child's place in its parent
    j = cell_containing(domain, K, x, depth + 1).index % K
    child = split_cell(cell, depth, K)[j]
    if child is cell:
        break
    cell, depth = child, depth + 1
print(f"\nthe depth-{depth} cell holding pi/6, "
      f"[{cell[0][0]!r}, {cell[1][0]!r}], is its own child")
flat = split_cell(cell, depth, K)[0]
print(f"its first child [{flat[0][0]!r}, {flat[1][0]!r}] has no width left:",
      "fixed_cell", fixed_cell(flat), "and splits into itself",
      all(kid is flat for kid in split_cell(flat, depth + 1, K)))
