"""Replay the baselines against the straight-line reference implementations
in reference_traces.py: the library must open the same cells in the same
order, with the same evaluation counts, and return the same RunResult.

uniform_run is checked for K = 2..7 and budgets up to 2,000, on garland,
wrapped-sine and a plateau, noiseless and with b = 0.1 from the same
NoiseModel seed on both sides.  Neither garland nor wrapped-sine lets the
tie rule decide a recommendation (the root's centre 1/2 is wrapped-sine's
maximum), so the plateau, NaN on [0, 1/4) and flat on [3/4, 1], does."""

import math

import pytest

from reference_traces import uniform_reference
from zipftree.objectives import (NoiseModel, Objective, garland,
                                 garland_objective, wrapped_sine,
                                 wrapped_sine_objective)
from zipftree.optimizers import RunConfig, uniform_run
from zipftree.partition import Box


def plateau(x):
    return math.nan if x < 0.25 else min(x, 0.75)


OBJECTIVES = {
    "garland": (garland_objective, garland),
    "wrapped-sine": (wrapped_sine_objective, wrapped_sine),
    "plateau": (lambda: Objective("plateau", Box([0.0], [1.0]),
                                  lambda p: plateau(p[0])), plateau),
}


@pytest.mark.parametrize("b", [0.0, 0.1])
@pytest.mark.parametrize("name", sorted(OBJECTIVES))
@pytest.mark.parametrize("K", range(2, 8))
def test_uniform_run_matches_its_reference(K, name, b):
    make, f = OBJECTIVES[name]
    obj = make()
    for n in (1, 2, 3, 7, 20, 64, 301, 2000):
        seed = 1000 * K + n
        res = uniform_run(obj, NoiseModel(b, seed=seed),
                          RunConfig(budget_n=n, branching=K, record_trace=True))
        trace, *fields = uniform_reference(f, n, K=K,
                                           noise=NoiseModel(b, seed=seed))
        assert res.trace == trace, n
        assert [res.recommendation, res.recommendation_value_estimate,
                res.openings_used, res.evaluations_used, res.deepest_depth,
                res.budget_units_used] == fields, n
