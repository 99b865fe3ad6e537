"""Straight-line re-derivations of the two harmonic-schedule optimizers and
of the SOO, DOO and uniform baselines, written over plain dicts and tuples,
independently of the package internals.

The trace-equality tests replay these against the library and require the
event logs to match exactly.  Cell geometry is the shared interface contract
-- the k-th child of cell (h, i) is (h+1, i*K + k), child edges are
a = lo + j*w/K with the last edge snapped to hi, representatives are box
midpoints, and a noiseless batch of m observations contributes m * f(x) to
the running sum -- so those floating-point expressions are reproduced here
verbatim.  Everything about *scheduling* (which cell is opened when, with
how many evaluations, and what gets recommended) is re-derived from scratch.

1-D domains only; deterministic feedback (the b = 0 case), except for
uniform_reference, which adds one noise draw per observation, and
stroquool_reference given a NoiseModel, which adds the sum of m draws to a
batch of m observations, as numpy sums them.
"""

import math


def harmonic_ref(n):
    return math.fsum(1.0 / k for k in range(1, n + 1))


def _observe(f, x, m, noise):
    """The sum of m observations of f at x: m * f(x), plus the sum of the
    next m draws of `noise` (a NoiseModel or None)."""
    total = m * f(x)
    return total if noise is None else total + float(noise.offsets(m).sum())


def _open(cell, m, f, bounds, sums, counts, opened, trace, K, noise=None):
    """Split `cell`, evaluate each child's midpoint m times, in child order."""
    h, i = cell
    opened.add(cell)
    trace.append(("open", h, i, m))
    a, b = bounds[cell]
    w = b - a
    kids = []
    for j in range(K):
        ca = a + j * w / K
        cb = b if j == K - 1 else a + (j + 1) * w / K
        kid = (h + 1, i * K + j)
        bounds[kid] = (ca, cb)
        sums[kid] = _observe(f, 0.5 * (ca + cb), m, noise)
        counts[kid] = m
        kids.append(kid)
    return kids


def sequool_reference(f, n, lo=0.0, hi=1.0, K=3):
    """Returns (trace, recommended point, h_max).

    Depth budget h_max = floor(n / H(n)); depth h opens its floor(h_max/h)
    best-valued cells (every cell ties broken toward the smaller (h, i)).
    """
    h_max = int(n // harmonic_ref(n))
    trace, bounds = [], {(0, 0): (lo, hi)}
    sums, counts, opened = {}, {}, set()
    frontier = {1: _open((0, 0), 1, f, bounds, sums, counts, opened, trace, K)}
    for h in range(1, h_max + 1):
        cells = frontier.get(h)
        if not cells:
            break
        ranked = sorted(cells, key=lambda c: (-sums[c] / counts[c], c))
        grown = []
        for cell in ranked[: h_max // h]:
            grown += _open(cell, 1, f, bounds, sums, counts, opened, trace, K)
        frontier[h + 1] = grown
    rec = min(sums, key=lambda c: (-sums[c] / counts[c], c))
    return trace, (0.5 * (bounds[rec][0] + bounds[rec][1]),), h_max


def stroquool_reference(f, n, lo=0.0, hi=1.0, K=3, noise=None):
    """Returns (trace, recommended point, h_max).

    Phases: open the root at h_max = max(1, floor(n / (2 (H(n)+1)^2)))
    evaluations per child; for each depth h and each m = 1..floor(h_max/h)
    open the best not-yet-opened depth-h cell seen at least
    q = floor(h_max/(h m)) times, at q evaluations per child; nominate the
    best cell at each doubling threshold 2^p, p = 0..floor(log2 h_max);
    re-evaluate each distinct nominee max(1, floor(h_max/2)) times and
    recommend the best fresh mean.  `noise`, a NoiseModel or None, is drawn
    in opening order, child by child, then nominee by nominee.
    """
    if n < 8:
        raise ValueError("n < 8")
    h_max = max(1, int(n // (2.0 * (harmonic_ref(n) + 1.0) ** 2)))
    p_max = h_max.bit_length() - 1
    trace, bounds = [], {(0, 0): (lo, hi)}
    sums, counts, opened = {}, {}, set()

    def mean(c):
        return sums[c] / counts[c]

    frontier = {1: _open((0, 0), h_max, f, bounds, sums, counts, opened,
                         trace, K, noise)}
    for h in range(1, h_max + 1):
        cells = frontier.get(h)
        if not cells:
            break
        ranked = sorted(cells, key=lambda c: (-mean(c), c))
        grown = []
        for m in range(1, h_max // h + 1):
            q = h_max // (h * m)
            pick = next((c for c in ranked
                         if c not in opened and counts[c] >= q), None)
            if pick is not None:
                grown += _open(pick, q, f, bounds, sums, counts, opened,
                               trace, K, noise)
        frontier[h + 1] = grown

    nominees = []
    for p in range(p_max + 1):
        pool = [c for c in counts if counts[c] >= 1 << p]
        if not pool:
            continue
        top = min(pool, key=lambda c: (-mean(c), c))
        trace.append(("candidate", p, top[0], top[1]))
        if top not in nominees:
            nominees.append(top)

    v = max(1, h_max // 2)
    fresh = {}
    for cell in sorted(nominees):
        before = sums[cell]
        x = 0.5 * (bounds[cell][0] + bounds[cell][1])
        sums[cell] = sums[cell] + _observe(f, x, v, noise)
        counts[cell] += v
        fresh[cell] = (sums[cell] - before) / v
        trace.append(("validate", cell[0], cell[1], v))

    rec = min(fresh, key=lambda c: (-fresh[c], c))
    trace.append(("recommend", rec[0], rec[1]))
    return trace, (0.5 * (bounds[rec][0] + bounds[rec][1]),), h_max


def uniform_reference(f, n, lo=0.0, hi=1.0, K=3, noise=None):
    """Returns (trace, recommended point, its value, openings, observations,
    deepest depth, budget units): the trace and the six RunResult fields.

    uniform_run's docstring: breadth-first openings in CellId order, one
    observation per child; the root's midpoint is observed once up front,
    so n openings cost K*n + 1 observations.  The recommendation is the
    best observed value, a NaN reading -inf and ties going to the lowest
    CellId.  `noise`, a NoiseModel or None, adds its next draw to each
    observation, in observation order.
    """
    def observe(x):
        value = f(x)
        if noise is not None:
            value += float(noise.offsets(1)[0])
        return value

    trace = [("evaluate", 0, 0, 1)]
    bounds = {(0, 0): (lo, hi)}
    values = {(0, 0): observe(0.5 * (lo + hi))}
    order = [(0, 0)]  # every cell made so far, in CellId order
    deepest = 0
    for t in range(n):
        h, i = order[t]
        trace.append(("open", h, i, 1))
        deepest = max(deepest, h + 1)
        a, b = bounds[h, i]
        w = b - a
        for j in range(K):
            ca = a + j * w / K
            cb = b if j == K - 1 else a + (j + 1) * w / K
            kid = (h + 1, i * K + j)
            bounds[kid] = (ca, cb)
            values[kid] = observe(0.5 * (ca + cb))
            order.append(kid)

    def read(c):
        return values[c] if values[c] == values[c] else -math.inf

    rec = min(values, key=lambda c: (-read(c), c))
    point = (0.5 * (bounds[rec][0] + bounds[rec][1]),)
    return trace, point, read(rec), n, len(values), deepest, n


def _best(sums):
    """The recommendation of a noiseless run from its evaluated cells: the
    highest value, ties to the lowest CellId, a NaN below every value (-inf
    included) and reading -inf."""
    def read(c):
        return -math.inf if sums[c] != sums[c] else sums[c]

    rec = min(sums, key=lambda c: (-read(c), sums[c] != sums[c], c))
    return rec, read(rec)


def soo_reference(f, n, lo=0.0, hi=1.0, K=3):
    """Returns (trace, recommended point, its value, openings, observations,
    deepest depth, budget units): the trace and the six RunResult fields.

    soo_run's docstring: each sweep visits depths h = 0, 1, ... while
    h <= min(deepest, max(floor(sqrt(t)), shallowest)), with t the
    openings so far, deepest the deepest depth evaluated and shallowest the
    shallowest depth holding an unopened cell; at each depth the best
    unopened cell (ties to the lowest index) is opened, with one evaluation
    per child, if its value is >= every value opened earlier in the sweep.
    A NaN value ranks as -inf, and so does the root, which has no value.
    The run stops after n openings.  A cell with no width left is opened
    like any other, copy by copy.
    """
    trace, bounds = [], {(0, 0): (lo, hi)}
    sums, counts, opened = {}, {}, set()
    # depth -> {index: (negated value, index)} of the unopened cells
    leaves = {0: {0: (math.inf, 0)}}
    t = deepest = 0
    while t < n:
        vmax = -math.inf
        h = 0
        while t < n:
            shallowest = min(d for d, cells in leaves.items() if cells)
            if h > min(deepest, max(math.isqrt(t), shallowest)):
                break
            if leaves.get(h):
                rank, i = min(leaves[h].values())
                if -rank >= vmax:
                    vmax = -rank
                    del leaves[h][i]
                    kids = leaves.setdefault(h + 1, {})
                    for kid in _open((h, i), 1, f, bounds, sums, counts,
                                     opened, trace, K):
                        v = sums[kid]
                        kids[kid[1]] = (math.inf if v != v else -v, kid[1])
                    t += 1
                    deepest = max(deepest, h + 1)
            h += 1

    rec, value = _best(sums)
    point = (0.5 * (bounds[rec][0] + bounds[rec][1]),)
    return trace, point, value, t, K * t, deepest, t


def doo_reference(f, n, nu, rho, lo=0.0, hi=1.0, K=3):
    """Returns (trace, recommended point, its value, openings, observations,
    deepest depth, budget units): the trace and the six RunResult fields.

    doo_run's docstring: open the root, then n - 1 times the unopened cell
    maximizing value + nu * rho^depth, ties to the lowest CellId (depth,
    then index), with one evaluation per child; a NaN score ranks last, as
    -inf does.  A cell with no width left is opened like any other, copy by
    copy.
    """
    trace, bounds = [], {(0, 0): (lo, hi)}
    sums, counts, opened = {}, {}, set()
    leaves = {}  # unopened cell -> (negated score, cell)

    def grow(cell):
        for kid in _open(cell, 1, f, bounds, sums, counts, opened, trace, K):
            score = sums[kid] + nu * rho ** kid[0]
            leaves[kid] = (math.inf if score != score else -score, kid)

    grow((0, 0))
    deepest = 1
    for _ in range(n - 1):
        _, cell = min(leaves.values())
        del leaves[cell]
        grow(cell)
        deepest = max(deepest, cell[0] + 1)

    rec, value = _best(sums)
    point = (0.5 * (bounds[rec][0] + bounds[rec][1]),)
    return trace, point, value, n, K * n, deepest, n


def trace_budget_units(trace):
    """Evaluation-weighted cost implied by a trace (init + openings +
    validations), for cross-checking a run's ledger."""
    return sum(ev[3] for ev in trace if ev[0] in ("open", "validate"))
