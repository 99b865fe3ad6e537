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

from zipftree.objectives import Objective
from zipftree.optimizers import RunConfig, sequool_run
from zipftree.partition import Box
from zipftree.theory import SmoothnessParams, count_near_optimal, sequool_bound

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
