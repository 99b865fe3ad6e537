"""Replay the baselines against the straight-line reference implementations
in reference_traces.py: the library must open the same cells in the same
order, with the same evaluation counts, and return the same RunResult.

Each baseline is checked for K = 2..7 on garland, wrapped-sine and a
plateau.  Neither garland nor wrapped-sine lets the tie rule decide a
recommendation (the root's centre 1/2 is wrapped-sine's maximum), so the
plateau, NaN on [0, 1/4) and flat on [3/4, 1], does.  uniform_run is
checked for budgets up to 2,000, noiseless and with b = 0.1 from the same
NoiseModel seed on both sides.

SOO and DOO open a run of copies of a cell with no width left at once,
where the references open each copy by the split formula.  On [0, 1] SOO
reaches such cells at n = 1,300 for K >= 3, and DOO with (nu, rho) =
(1, 0.6) by n = 301 only on garland with K <= 3.  So both are also checked
at n = 301 on a domain 2^-39 wide, where they reach them for every K."""

import math

import pytest

from reference_traces import doo_reference, soo_reference, uniform_reference
from zipftree.objectives import (GARLAND_ARGMAX, NoiseModel, Objective,
                                 garland, garland_objective, wrapped_sine,
                                 wrapped_sine_objective)
from zipftree.optimizers import RunConfig, doo_run, soo_run, uniform_run
from zipftree.partition import Box


def plateau(x):
    return math.nan if x < 0.25 else min(x, 0.75)


OBJECTIVES = {
    "garland": (garland_objective, garland),
    "wrapped-sine": (wrapped_sine_objective, wrapped_sine),
    "plateau": (lambda: Objective("plateau", Box([0.0], [1.0]),
                                  lambda p: plateau(p[0])), plateau),
}


def fields(res):
    return [res.recommendation, res.recommendation_value_estimate,
            res.openings_used, res.evaluations_used, res.deepest_depth,
            res.budget_units_used]


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
        trace, *want = uniform_reference(f, n, K=K,
                                         noise=NoiseModel(b, seed=seed))
        assert res.trace == trace, n
        assert fields(res) == want, n


# the centre of each objective's narrow domain, 2^-39 wide: garland's cusp,
# wrapped-sine's maximum and the plateau's NaN edge
NARROW = {"garland": GARLAND_ARGMAX, "wrapped-sine": 0.5, "plateau": 0.25}
WIDE = (1, 2, 3, 7, 20, 64, 301)


def narrow(name):
    return NARROW[name] - 2.0 ** -40, NARROW[name] + 2.0 ** -40


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
@pytest.mark.parametrize("K", range(2, 8))
def test_soo_run_matches_its_reference(K, name):
    f = OBJECTIVES[name][1]
    for (lo, hi), budgets in (((0.0, 1.0), WIDE + (1300,)),
                              (narrow(name), (301,))):
        obj = Objective(name, Box([lo], [hi]), lambda p: f(p[0]))
        for n in budgets:
            res = soo_run(obj, RunConfig(budget_n=n, branching=K,
                                         record_trace=True))
            trace, *want = soo_reference(f, n, lo, hi, K)
            assert res.trace == trace, (lo, n)
            assert fields(res) == want, (lo, n)


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
@pytest.mark.parametrize("K", range(2, 8))
def test_doo_run_matches_its_reference(K, name):
    # with nu = 1 the bonus outweighs every difference of value on the
    # narrow domain, and the run stays breadth-first; nu = 1e-15 dives
    f = OBJECTIVES[name][1]
    for (lo, hi), nu, budgets in (((0.0, 1.0), 1.0, WIDE),
                                  (narrow(name), 1e-15, (301,))):
        obj = Objective(name, Box([lo], [hi]), lambda p: f(p[0]))
        for n in budgets:
            res = doo_run(obj, RunConfig(budget_n=n, branching=K,
                                         record_trace=True), nu, 0.6)
            trace, *want = doo_reference(f, n, nu, 0.6, lo, hi, K)
            assert res.trace == trace, (lo, n)
            assert fields(res) == want, (lo, n)
