"""An untraced SequOOL run settles once float64 leaves its level no new
point: it adds up the openings, budget units and charged evaluations left
instead of performing them (see optimizers.sequool_run).  A traced run opens
every cell, and every frozen digest is recorded with a trace, so the traced
results are the reference the untraced ones must equal."""

import math

import pytest

from test_frozen_baselines import CUSTOM, FROZEN, FROZEN_EXTRA, digest
from zipftree.objectives import (GARLAND_FLOAT_MAX, Objective,
                                 garland_objective, get_objective)
from zipftree.optimizers import RunConfig, sequool_run
from zipftree.partition import Box
from zipftree.theory import harmonic


def objective(name):
    return CUSTOM[name]() if name in CUSTOM else get_objective(name)


def counted(obj):
    """`obj` with its fn wrapped to count calls; returns (obj, calls)."""
    calls = [0]
    fn = obj.fn

    def wrapped(p):
        calls[0] += 1
        return fn(p)

    obj.fn = wrapped
    return obj, calls


def fields(res):
    """The six RunResult fields that do not depend on the trace."""
    return digest(res)[:6]


@pytest.mark.parametrize("name,n", [(name, n) for name, algo, n in FROZEN
                                    if algo == "sequool"])
def test_untraced_run_matches_the_frozen_digest(name, n):
    res = sequool_run(get_objective(name), RunConfig(budget_n=n))
    assert res.trace is None
    assert fields(res) == FROZEN[(name, "sequool", n)][:6]


@pytest.mark.parametrize("name,K,n", [(name, K, n)
                                      for name, K, algo, n in FROZEN_EXTRA
                                      if algo == "sequool"])
def test_untraced_run_matches_the_frozen_extra_digest(name, K, n):
    res = sequool_run(objective(name), RunConfig(budget_n=n, branching=K))
    assert fields(res) == FROZEN_EXTRA[(name, K, "sequool", n)][:6]


@pytest.mark.parametrize("K", [2, 3, 5])
@pytest.mark.parametrize("name", ["garland", "wrapped-sine", "steps-2d",
                                  "ridge-3d"])
def test_untraced_run_equals_the_traced_run(name, K):
    # every n = 4000 run here settles, after depth 23 to 169 of its 450,
    # and so do garland and wrapped-sine at n = 300 with K = 3 and 5; the
    # other n = 300 runs open every cell
    for n in (300, 4000):
        traced = sequool_run(objective(name),
                             RunConfig(budget_n=n, branching=K,
                                       record_trace=True))
        untraced = sequool_run(objective(name),
                               RunConfig(budget_n=n, branching=K))
        assert fields(untraced) == fields(traced), (name, K, n)


def _wavy_in_y(p):
    return -(p[1] - 0.3) ** 2 + 0.1 * math.sin(40.0 * p[1])


@pytest.mark.parametrize("K", [2, 3, 4, 5])
@pytest.mark.parametrize("width", [1, 2])
def test_a_strip_with_no_width_in_x_does_not_settle_early(width, K):
    # x has no width after a depth or two, so every x-split of the best
    # cells makes only the cells themselves: a closed depth.  y still has
    # new points to give, so one closed depth in 2-D must not settle a run
    hi = 1.0
    for _ in range(width):
        hi = math.nextafter(hi, 2.0)
    strip = Objective("strip", Box([1.0, 0.0], [hi, 1.0]), _wavy_in_y)
    for n in (100, 2000):
        traced = sequool_run(strip, RunConfig(budget_n=n, branching=K,
                                              record_trace=True))
        untraced = sequool_run(strip, RunConfig(budget_n=n, branching=K))
        assert fields(untraced) == fields(traced), n


def test_settled_run_skips_most_objective_calls():
    obj, calls = counted(garland_objective())
    res = sequool_run(obj, RunConfig(budget_n=100_000))
    assert (res.openings_used, res.evaluations_used, res.deepest_depth,
            res.budget_units_used) == (56_717, 170_151, 8_272, 56_717)
    assert res.recommendation == (0.5235987755982989,)
    assert res.recommendation_value_estimate == GARLAND_FLOAT_MAX
    # opening every cell calls the objective 78,383 times; settling after
    # depth 34 leaves 44,404 calls
    assert calls[0] <= 45_000


def test_traced_run_logs_every_opening():
    n = 4000
    h_max = int(n // harmonic(n))
    res = sequool_run(garland_objective(),
                      RunConfig(budget_n=n, record_trace=True))
    opens = [ev for ev in res.trace if ev[0] == "open"]
    assert len(opens) == res.openings_used == 2013
    assert opens[-1][1] == h_max == res.deepest_depth - 1
