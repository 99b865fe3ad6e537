"""Runs checked against the regret bound, on objectives whose smoothness
constants are derived by hand.

With K = 3 the depth-h cells of [0, 1] are 3^-h wide, and both objectives
fall off linearly from the optimum x* = pi/10 along x:
- the vee -|x - x*| on [0, 1]: inside the depth-h cell holding x* it stays
  within 3^-h of 0, so nu = 1 and rho = 1/3.  A cell reaches 0 - 3^-h only
  if it lies within 3^-h of x*, which at most 3 cells of width 3^-h do:
  C = 3, d = 0.
- the ridge -|x - x*| on [0, 1]^2, which ignores y: cells cut x and y in
  turn, so a depth-h cell is 3^-ceil(h/2) wide in x, and nu = 1,
  rho = 3^(-1/2).  The near-optimal cells are the y-slabs of the x-columns
  that come within rho^h of x*: at most 3 columns of 3^(h/2) slabs for even
  h, at most 5 of 3^((h-1)/2) for odd h.  As 5 < 3 sqrt(3), both are at most
  3 rho^(-h): C = 3, d = 1.
"""

import math

import pytest

from zipftree.harness import derive_seed
from zipftree.objectives import NoiseModel, Objective
from zipftree.optimizers import RunConfig, sequool_run, stroquool_run
from zipftree.partition import Box
from zipftree.theory import (BoundInputs, SmoothnessParams, count_near_optimal,
                             sequool_bound, stroquool_bounds)

X_STAR = math.pi / 10

VEE = (Objective("vee", Box([0.0], [1.0]), lambda p: -abs(p[0] - X_STAR),
                 optimum_value=0.0),
       SmoothnessParams(nu=1.0, rho=1 / 3, C=3.0, d=0.0), 7)
RIDGE = (Objective("ridge", Box([0.0, 0.0], [1.0, 1.0]),
                   lambda p: -abs(p[0] - X_STAR), optimum_value=0.0),
         SmoothnessParams(nu=1.0, rho=3 ** -0.5, C=3.0, d=1.0), 5)
CASES = pytest.mark.parametrize("obj, params, depth", [VEE, RIDGE],
                                ids=["vee", "ridge"])

# n = 1..300 one by one, then sparser up to 1e4
BUDGETS = list(range(1, 301)) + [500, 10**3, 3 * 10**3, 10**4]


@CASES
def test_near_optimal_counts_stay_within_c_rho_to_the_minus_dh(obj, params, depth):
    # the ridge's count is 27 = C rho^(-4d) at h = 4, which float64 may round
    # either way, hence the 1e-12 relative slack
    for h in range(depth + 1):
        count = count_near_optimal(obj, 3, h, params.nu * params.rho ** h)
        assert count <= params.C * params.rho ** (-params.d * h) * (1 + 1e-12), h


@CASES
def test_sequool_regret_stays_within_its_bound(obj, params, depth):
    # the largest regret / bound ratio over BUDGETS is 0.052 for the vee and
    # 0.172 for the ridge: that is the margin by which the runs hold
    for n in BUDGETS:
        res = sequool_run(obj, RunConfig(budget_n=n))
        regret = obj.optimum_value - obj.fn(res.recommendation)
        assert 0.0 <= regret <= sequool_bound(n, params)["theorem"], n


# StroquOOL's bound holds with probability 1 - delta = 0.95 per run.  Of the
# 16 (objective, n, b) settings with n in {1e3, 1e4} and b in {0, 0.01, 0.1, 1},
# 13 have a bound of at least 0.70, above 1 - x* ~ 0.686, the whole range of
# either objective on its domain, so no run can exceed it there
NOISY_BUDGETS, NOISE_LEVELS = (10**3, 10**4), (0.0, 0.01, 0.1, 1.0)
INFORMATIVE = [("vee", 10**4, 0.0), ("vee", 10**4, 0.01), ("vee", 10**4, 0.1)]
STROQUOOL_SEEDS = 40


def test_stroquool_bound_is_informative_only_in_the_checked_settings():
    informative = [(obj.name, n, b) for obj, params, _ in (VEE, RIDGE)
                   for n in NOISY_BUDGETS for b in NOISE_LEVELS
                   if stroquool_bounds(BoundInputs(n, b), params)["bound"] < 1 - X_STAR]
    assert informative == INFORMATIVE


@pytest.mark.parametrize("b", [b for _, _, b in INFORMATIVE])
def test_stroquool_regret_stays_within_its_bound(b):
    # the bounds are 0.333, 0.0734 and 0.525 and the worst regrets over the
    # 40 seeds 0, 0.0014 and 0.013: no run comes near its bound
    obj, params, _ = VEE
    n = 10**4
    bound = stroquool_bounds(BoundInputs(n, b), params)["bound"]
    over = 0
    for rep in range(STROQUOOL_SEEDS):
        seed = derive_seed(0, "test_bounds_hold:stroquool", n, b, rep)
        res = stroquool_run(obj, NoiseModel(b, seed=seed),
                            RunConfig(budget_n=n, seed=seed))
        regret = obj.optimum_value - obj.fn(res.recommendation)
        assert regret >= 0.0, rep
        over += regret > bound
    assert over <= math.ceil(0.05 * STROQUOOL_SEEDS)
