"""Replay StroquOOL under noise against stroquool_reference given the same
NoiseModel: the library must draw the noise in the reference's order (each
opening's children in child order, then the nominees in (depth, index)
order), so every trace, recommendation and budget-unit count matches.

tests/test_traces.py checks the noiseless path; this is the noisy path's
independent oracle.  Reversing the draws of one opening's children fails
here while the noiseless checks still pass."""

import itertools

import pytest

from reference_traces import stroquool_reference, trace_budget_units
from zipftree.objectives import (NoiseModel, Objective, garland,
                                 garland_objective, wrapped_sine,
                                 wrapped_sine_objective)
from zipftree.optimizers import RunConfig, stroquool_run
from zipftree.partition import Box


def vee(x):
    return -abs(x - 0.5)


OBJECTIVES = {
    "garland": (garland_objective, garland),
    "wrapped-sine": (wrapped_sine_objective, wrapped_sine),
    "vee": (lambda: Objective("vee", Box([0.0], [1.0]), lambda p: vee(p[0])),
            vee),
}


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_noisy_stroquool_matches_its_reference(name):
    make, f = OBJECTIVES[name]
    obj = make()
    for n, b, seed in itertools.product(
            (8, 10, 25, 50, 100, 200, 1000, 5000, 20000), (0.01, 0.1, 1.0),
            range(3)):
        res = stroquool_run(obj, NoiseModel(b, seed=seed),
                            RunConfig(budget_n=n, record_trace=True))
        trace, rec, _h = stroquool_reference(f, n,
                                             noise=NoiseModel(b, seed=seed))
        assert res.trace == trace, (n, b, seed)
        assert res.recommendation == rec, (n, b, seed)
        assert res.budget_units_used == trace_budget_units(trace), (n, b, seed)
