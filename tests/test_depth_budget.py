"""SequOOL's capped depth budget: the running power of K that replaces
K ** h per depth gives the costs of the plain formula."""

import time

import pytest

from zipftree.objectives import garland_objective
from zipftree.optimizers import (RunConfig, _depth_budget_cost,
                                 _rescaled_depth_budget, sequool_run)
from zipftree.theory import harmonic


def plain_cost(H, K, cap):
    """_depth_budget_cost as first written: min(q, K ** h) at every depth."""
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


GRID = [*range(0, 40), 63.5, 80.999, 100.0, 243.0, 255.25, 729.0, 1000.0,
        2755.0, 3124.9, 4692.999999999999, 5000.0]


@pytest.mark.parametrize("K", [2, 3, 5])
def test_cost_matches_the_plain_formula(K):
    for H in GRID:
        for cap in (False, True):
            assert _depth_budget_cost(H, K, cap) == plain_cost(H, K, cap), (H, cap)


def test_rescaled_capped_budget_is_frozen():
    n = 30000
    h_max = int(n // harmonic(n))
    assert h_max == 2755
    started = time.perf_counter()
    assert _rescaled_depth_budget(n, h_max, 3, True) == 4692.999999999999
    # 100 bisection steps of about 4,700 depths each: with K ** h computed
    # at every depth this call took 10.6 s on a 2-core host
    assert time.perf_counter() - started < 5.0


def test_capped_quotas_match_the_plain_formula():
    # depth h opens min(floor(H / h), K ** h) cells, or all it has
    n, K = 2000, 3
    cfg = RunConfig(budget_n=n, rescale_depth_budget=True,
                    cap_quota_by_cells=True, record_trace=True)
    result = sequool_run(garland_objective(), cfg)
    H = _rescaled_depth_budget(n, int(n // harmonic(n)), K, True)
    opened = [0] * (int(H) + 1)
    for event in result.trace:
        if event[0] == "open":
            opened[event[1]] += 1
    assert opened[0] == 1
    for h in range(1, int(H) + 1):
        assert opened[h] == min(int(H // h), K ** h, K * opened[h - 1]), h
    assert result.openings_used == sum(opened) <= plain_cost(H, K, True)
