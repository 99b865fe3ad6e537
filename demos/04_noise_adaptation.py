# Noise adaptation without being told the noise level: StroquOOL's doubling
# schedule versus a uniform-grid baseline, across noise ranges b.
#
# The headline effect: StroquOOL's regret tracks b downward (parameter-free
# adaptation), and its cross-validated value estimate stays honest, while the
# uniform baseline's argmax estimate rides the noise ceiling (+~b selection
# bias) even when its recommendation happens to be decent.

import statistics

from zipftree import (ExperimentSpec, NoiseModel, RunConfig, run_experiment,
                      garland_objective, stroquool_run, summarize, uniform_run)

spec = ExperimentSpec(algorithms=["stroquool", "uniform"],
                      objective="garland", budgets=[10000],
                      noise_b=[0.0, 0.05, 0.2, 1.0], seeds=10)
# per (algo, n, b): the median and 90% quantile that --summary prints
summary = summarize(run_experiment(spec))

print(f"{'algo':>10} {'b':>6} {'median regret':>15} {'q90':>12}")
for algo in ("stroquool", "uniform"):
    for b in spec.noise_b:
        g = summary[(algo, 10000, b)]
        print(f"{algo:>10} {b:>6g} {g['median']:>15.3e} {g['q90']:>12.3e}")

obj = garland_objective()
print("\nvalue-estimate bias at b=1 (estimate - true value at the pick):")
for name, runner in (("stroquool", stroquool_run), ("uniform", uniform_run)):
    bias = []
    for seed in range(5):
        res = runner(obj, NoiseModel(1.0, seed=seed),
                     RunConfig(budget_n=10000, seed=seed))
        bias.append(res.recommendation_value_estimate - obj.eval(res.recommendation))
    print(f"  {name:>10}: median {statistics.median(bias):+.3f}")
print("cross-validation pays for itself in calibration, not always in regret.")
