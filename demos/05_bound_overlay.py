# Theoretical regret bounds next to measured regret.  The bounds need the
# smoothness pair (nu, rho) and a near-optimality constant C; the algorithms
# themselves never see any of these.
#
# Garland near its optimum drops like a square root, so rho = 3^(-1/2) per
# ternary depth is the honest decay rate and the per-depth count of
# near-optimal cells stays bounded (d = 0).  C is the largest count that the
# profile below prints for depths 0..8: 11, at depth 3.

import math

from zipftree import (BoundInputs, ExperimentSpec, SmoothnessParams,
                      count_near_optimal, garland_objective, run_experiment,
                      sequool_bound, stroquool_bounds, summarize)

params = SmoothnessParams(nu=1.0, rho=3 ** -0.5, C=11.0, d=0.0)
obj = garland_objective()

# empirical sanity check of d = 0: cells within nu*rho^h of the optimum
profile = [count_near_optimal(obj, 3, h, params.nu * params.rho ** h)
           for h in range(9)]
print("near-optimal cells per depth (nu rho^h scale):", profile)
print("counts settle instead of growing geometrically, so d = 0 is the regime;")
print(f"the largest is {max(profile)}, so C = {params.C:g} holds at every depth shown")

budgets = [100, 400, 1600, 6400]
# sequool only accepts noiseless feedback, so the measured runs are split
records = run_experiment(ExperimentSpec(
    algorithms=["sequool"], objective="garland", budgets=budgets, seeds=1))
records += run_experiment(ExperimentSpec(
    algorithms=["stroquool"], objective="garland", budgets=budgets,
    noise_b=[0.1], seeds=5))

print(f"\n{'n':>6} {'seq bound':>11} {'seq regret':>11} "
      f"{'stro bound b=.1':>16} {'stro regret b=.1':>17}")
median = {key: g["median"] for key, g in summarize(records).items()}
for n in budgets:
    try:
        sb = format(stroquool_bounds(BoundInputs(n, 0.1), params)["bound"], ">16.3e")
    except ValueError:
        sb = "n/a"  # n too small for the high-noise bound (its only error)
    print(f"{n:>6} {sequool_bound(n, params)['theorem']:>11.3e} "
          f"{median[('sequool', n, 0.0)]:>11.3e} {sb} "
          f"{median[('stroquool', n, 0.1)]:>17.3e}")

out = stroquool_bounds(BoundInputs(n=6400, b=0.1), params)
print(f"\nat n=6400, b=0.1: {out['regime']}-noise regime, "
      f"crossover depth h~ = {out['h_tilde']:.3f}, "
      f"depth budget M = {out['M']}")
print("bounds are worst case: the stroquool bound at b = 0.1 stays above 1,")
print("garland's whole range, at every n shown, so it says nothing yet.  the")
print("sequool bound sits above the measured regret up to n = 1600 and drops")
print("below it only at n = 6400: the bound lives in exact arithmetic, while the")
print("measured regret is pinned at the 1.2e-8 float64 floor of the cusp.")
