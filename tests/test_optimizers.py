import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_frozen_baselines import CUSTOM
from zipftree import optimizers
from zipftree.objectives import (GARLAND_OPTIMUM, NoiseModel, Objective,
                                 garland_objective)
from zipftree.optimizers import (RunConfig, doo_run, sequool_run, soo_run,
                                 stroquool_run, uniform_run)
from zipftree.partition import Box, CellId, make_tree
from zipftree.theory import harmonic, stroquool_h_max

GARLAND = garland_objective()
REGRET_FLOOR = 1.2035640817309456e-08   # float64 limit at the garland cusp
SECOND_PEAK_GAP = 1.0812033775305929e-03


def regret(obj, result):
    return obj.optimum_value - obj.eval(result.recommendation)


def test_run_config_validation():
    with pytest.raises(ValueError, match="budget_n must be >= 1"):
        RunConfig(budget_n=0)
    # budget_n = 100.5 used to run SequOOL as n = 100, and uniform failed
    # on a slice index
    for n in (100.5, 10.5, "5", None):
        with pytest.raises(ValueError, match="budget_n must be an integer"):
            RunConfig(budget_n=n)
    cfg = RunConfig(budget_n=np.int64(100))
    assert type(cfg.budget_n) is int
    assert sequool_run(GARLAND, cfg) == sequool_run(GARLAND, RunConfig(budget_n=100))


def test_branching_must_be_an_integer():
    # K = 2.5 used to run as K = 2
    for K in (2.5, "3", None):
        with pytest.raises(ValueError, match="branching must be an integer"):
            RunConfig(budget_n=100, branching=K)
        with pytest.raises(ValueError, match="branching must be an integer"):
            make_tree(Box([0.0], [1.0]), branching=K)
    with pytest.raises(ValueError, match="branching must be >= 2"):
        RunConfig(budget_n=100, branching=1)
    # anything operator.index takes is an integer
    cfg = RunConfig(budget_n=100, branching=np.int64(2))
    assert type(cfg.branching) is int
    assert sequool_run(GARLAND, cfg) == sequool_run(
        GARLAND, RunConfig(budget_n=100, branching=2))


# ---------------------------------------------------------------------------
# SequOOL
# ---------------------------------------------------------------------------

def test_sequool_budget_identity():
    for n in (1, 7, 50, 500, 2000):
        res = sequool_run(GARLAND, RunConfig(budget_n=n))
        assert res.openings_used <= n + 1
        assert res.budget_units_used == res.openings_used
        assert res.evaluations_used == 3 * res.openings_used
        # the schedule 1 + sum_h floor(h_max/h) is an upper bound (depths can
        # run short of cells, e.g. only 3 exist at depth 1)
        h_max = int(n // harmonic(n))
        sched = 1 + sum(h_max // h for h in range(1, h_max + 1))
        assert res.openings_used <= min(sched, n + 1)


def test_sequool_is_deterministic_and_seed_free():
    a = sequool_run(GARLAND, RunConfig(budget_n=300, seed=1))
    b = sequool_run(GARLAND, RunConfig(budget_n=300, seed=999))
    assert a.recommendation == b.recommendation
    assert a.recommendation_value_estimate == b.recommendation_value_estimate
    assert a.openings_used == b.openings_used


def test_sequool_exact_feedback_estimate():
    res = sequool_run(GARLAND, RunConfig(budget_n=200))
    assert res.recommendation_value_estimate == GARLAND.eval(res.recommendation)


def test_sequool_hits_float_regret_floor():
    res = sequool_run(GARLAND, RunConfig(budget_n=200))
    assert regret(GARLAND, res) == pytest.approx(REGRET_FLOOR, abs=1e-14)
    # deeper budgets cannot do better than the cusp's float64 floor
    res2 = sequool_run(GARLAND, RunConfig(budget_n=2000))
    assert regret(GARLAND, res2) == pytest.approx(REGRET_FLOOR, abs=1e-14)


def test_sequool_regret_decreases_with_budget():
    regrets = [regret(GARLAND, sequool_run(GARLAND, RunConfig(budget_n=n)))
               for n in (10, 25, 50, 100, 200)]
    assert all(b <= a for a, b in zip(regrets, regrets[1:]))
    assert regrets[0] > 1e-4


def test_sequool_trace_events():
    res = sequool_run(GARLAND, RunConfig(budget_n=30, record_trace=True))
    assert res.trace[0] == ("open", 0, 0, 1)
    assert all(ev[0] == "open" and ev[3] == 1 for ev in res.trace)
    assert len(res.trace) == res.openings_used
    depths = [ev[1] for ev in res.trace]
    assert depths == sorted(depths)  # one depth pass, shallow to deep
    assert sequool_run(GARLAND, RunConfig(budget_n=30)).trace is None


# ---------------------------------------------------------------------------
# StroquOOL
# ---------------------------------------------------------------------------

def test_stroquool_budget_too_small():
    with pytest.raises(ValueError, match="n=7 too small: StroquOOL needs n >= 8"):
        stroquool_run(GARLAND, None, RunConfig(budget_n=7))
    res = stroquool_run(GARLAND, None, RunConfig(budget_n=8))
    assert res.budget_units_used <= 8


def test_stroquool_budget_ledger():
    for n in (8, 100, 1000, 5000):
        res = stroquool_run(GARLAND, None, RunConfig(budget_n=n))
        assert res.budget_units_used <= n
        # openings are cheaper than units; evaluations cost K per unit spent
        # on openings plus the validation phase
        assert res.openings_used <= res.budget_units_used
        h = stroquool_h_max(n)
        assert res.deepest_depth <= h + 1


def test_stroquool_zero_noise_estimate_is_exact():
    # the fresh mean is reconstructed as (sum_after - sum_before) / count, so
    # a last-ulp rounding of the running sum is the only admissible slack
    res = stroquool_run(GARLAND, NoiseModel(0.0, seed=3), RunConfig(budget_n=2000))
    assert res.recommendation_value_estimate == pytest.approx(
        GARLAND.eval(res.recommendation), rel=1e-12)
    none_noise = stroquool_run(GARLAND, None, RunConfig(budget_n=2000))
    assert none_noise.recommendation == res.recommendation


def test_stroquool_reproducible_given_seed():
    a = stroquool_run(GARLAND, NoiseModel(0.3, seed=5), RunConfig(budget_n=3000))
    b = stroquool_run(GARLAND, NoiseModel(0.3, seed=5), RunConfig(budget_n=3000))
    assert a.recommendation == b.recommendation
    assert a.recommendation_value_estimate == b.recommendation_value_estimate
    assert a.evaluations_used == b.evaluations_used


def test_stroquool_noiseless_reaches_floor_at_large_budget():
    res = stroquool_run(GARLAND, None, RunConfig(budget_n=20000))
    assert regret(GARLAND, res) == pytest.approx(REGRET_FLOOR, abs=1e-12)


def test_stroquool_trace_phases():
    res = stroquool_run(GARLAND, NoiseModel(0.2, seed=11),
                        RunConfig(budget_n=1000, record_trace=True))
    kinds = [ev[0] for ev in res.trace]
    h_max = stroquool_h_max(1000)
    assert res.trace[0] == ("open", 0, 0, h_max)      # init at h_max evals
    assert kinds.count("recommend") == 1 and kinds[-1] == "recommend"
    # phases appear in order: opens, then candidates, then validations
    assert kinds.index("candidate") > max(i for i, k in enumerate(kinds) if k == "open")
    assert kinds.index("validate") > kinds.index("candidate")
    p_values = [ev[1] for ev in res.trace if ev[0] == "candidate"]
    assert p_values == sorted(p_values)
    assert p_values[-1] <= h_max.bit_length() - 1
    v = max(1, h_max // 2)
    assert all(ev[3] == v for ev in res.trace if ev[0] == "validate")
    # the recommendation is one of the validated cells
    validated = {(ev[1], ev[2]) for ev in res.trace if ev[0] == "validate"}
    assert (res.trace[-1][1], res.trace[-1][2]) in validated


def test_stroquool_validation_calibrates_estimate():
    # selection bias check at heavy noise: the cross-validation phase
    # re-evaluates candidates afresh, so the reported value stays near the
    # truth, while uniform's argmax-of-noisy-singles rides the noise ceiling
    b = 1.0
    sbias, ubias = [], []
    for rep in range(3):
        nm = NoiseModel(b, seed=100 + rep)
        s = stroquool_run(GARLAND, nm, RunConfig(budget_n=10000))
        sbias.append(s.recommendation_value_estimate - GARLAND.eval(s.recommendation))
        nm = NoiseModel(b, seed=200 + rep)
        u = uniform_run(GARLAND, nm, RunConfig(budget_n=10000))
        ubias.append(u.recommendation_value_estimate - GARLAND.eval(u.recommendation))
    assert statistics.median(ubias) > 0.9 * b
    assert statistics.median(sbias) < 0.5 * b


# ---------------------------------------------------------------------------
# budget invariants raise, so `python -O` keeps them
# ---------------------------------------------------------------------------

# a harmonic number below 1 lifts sequool's h_max past n; an h_max past n
# makes stroquool's root opening alone overspend
_VIOLATIONS = {
    "sequool": ("harmonic", lambda n: 0.5,
                lambda: sequool_run(GARLAND, RunConfig(budget_n=10)),
                "harmonic budget identity violated"),
    "stroquool": ("stroquool_h_max", lambda n: n + 1,
                  lambda: stroquool_run(GARLAND, None, RunConfig(budget_n=8)),
                  "evaluation budget exceeded"),
}


@pytest.mark.parametrize("algo", sorted(_VIOLATIONS))
def test_budget_violation_raises(algo, monkeypatch):
    name, forced, run, message = _VIOLATIONS[algo]
    monkeypatch.setattr(optimizers, name, forced)
    with pytest.raises(RuntimeError, match=message):
        run()


_OPTIMIZED_SCRIPT = """
from zipftree import optimizers
from zipftree.objectives import garland_objective
from zipftree.optimizers import RunConfig

optimizers.harmonic = lambda n: 0.5
optimizers.stroquool_h_max = lambda n: n + 1
obj = garland_objective()
for run in (lambda: optimizers.sequool_run(obj, RunConfig(budget_n=10)),
            lambda: optimizers.stroquool_run(obj, None, RunConfig(budget_n=8))):
    try:
        run()
    except RuntimeError as exc:
        print(exc)
    else:
        print("no error")
print("__debug__", __debug__)
"""


def test_budget_violation_raises_under_python_O():
    src = str(Path(optimizers.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [_VIOLATIONS["sequool"][3],
                                        _VIOLATIONS["stroquool"][3],
                                        "__debug__ False"]


# ---------------------------------------------------------------------------
# SOO
# ---------------------------------------------------------------------------

def test_soo_opening_trace_is_budget_prefix():
    short = soo_run(GARLAND, RunConfig(budget_n=100, record_trace=True))
    long = soo_run(GARLAND, RunConfig(budget_n=300, record_trace=True))
    assert long.trace[:len(short.trace)] == short.trace
    assert short.openings_used == 100 and long.openings_used == 300


def test_soo_respects_depth_limit():
    res = soo_run(GARLAND, RunConfig(budget_n=500, record_trace=True))
    for t, ev in enumerate(res.trace):
        assert ev[1] <= int(math.sqrt(t))


def test_soo_finds_garland_peak():
    res = soo_run(GARLAND, RunConfig(budget_n=2000))
    assert regret(GARLAND, res) < 1e-5


@pytest.mark.parametrize("K", range(2, 8))
@pytest.mark.parametrize("objective", ["garland", "steps-2d"])
def test_soo_spends_its_whole_budget(objective, K):
    # with K = 2, floor(sqrt(t)) stays above no unopened cell once the root
    # and both depth-1 cells are open; the sweep must still reach one
    obj = CUSTOM[objective]() if objective in CUSTOM else GARLAND
    for n in (20, 1500):
        res = soo_run(obj, RunConfig(budget_n=n, branching=K))
        assert res.openings_used == res.budget_units_used == n, (K, n)


# ---------------------------------------------------------------------------
# DOO
# ---------------------------------------------------------------------------

def test_doo_parameter_validation():
    with pytest.raises(ValueError, match="nu must be > 0"):
        doo_run(GARLAND, RunConfig(budget_n=10), nu=0.0, rho=0.5)
    with pytest.raises(ValueError, match=r"rho must be in \(0, 1\)"):
        doo_run(GARLAND, RunConfig(budget_n=10), nu=1.0, rho=1.0)


def test_doo_with_generous_smoothness_hits_floor():
    # rho = 0.6 upper-bounds the sqrt cusp's per-depth decay 3^(-1/2) = 0.577
    res = doo_run(GARLAND, RunConfig(budget_n=500), nu=1.0, rho=0.6)
    assert regret(GARLAND, res) == pytest.approx(REGRET_FLOOR, abs=1e-12)


def test_doo_with_tight_smoothness_stalls_at_second_peak():
    # rho = 1/3 understates the cusp decay, so the optimum's cells lose their
    # optimism bonus and the search camps on the runner-up peak: the regret
    # freezes at the peak gap no matter the budget
    for n in (500, 2000):
        res = doo_run(GARLAND, RunConfig(budget_n=n), nu=1.0, rho=1 / 3)
        assert regret(GARLAND, res) == pytest.approx(SECOND_PEAK_GAP, rel=1e-9)


def test_doo_calls_the_objective_once_per_zero_width_run():
    # past depth 34 DOO keeps opening one cell with no float64 width left:
    # split_cell returns it as its own children and the stream reuses the
    # value of the point object it just evaluated, while every observation
    # is still charged (the result itself is pinned by the frozen baselines)
    calls = []

    def fn(p):
        calls.append(p)
        return GARLAND.fn(p)

    obj = Objective("garland", GARLAND.domain, fn,
                    optimum_value=GARLAND.optimum_value)
    res = doo_run(obj, RunConfig(budget_n=20000), nu=1.0, rho=0.6)
    assert res.evaluations_used == 60000
    assert len(calls) < 1000


def test_doo_huge_nu_degenerates_to_breadth_first():
    flat = Objective("flat", Box([0.0], [1.0]), lambda p: 1.0, optimum_value=1.0)
    res = doo_run(flat, RunConfig(budget_n=13, branching=3, record_trace=True),
                  nu=1e9, rho=0.5)
    ids = [(ev[1], ev[2]) for ev in res.trace]
    assert ids == sorted(ids)  # depth-major then index: breadth-first
    assert ids[:5] == [(0, 0), (1, 0), (1, 1), (1, 2), (2, 0)]


# ---------------------------------------------------------------------------
# uniform
# ---------------------------------------------------------------------------

def test_uniform_evaluation_count_and_grid_equivalence():
    res = uniform_run(GARLAND, None, RunConfig(budget_n=4, record_trace=True))
    assert res.openings_used == 4
    assert res.evaluations_used == 13  # root + 3 children per opening
    assert res.trace[0] == ("evaluate", 0, 0, 1)
    opened = [(ev[1], ev[2]) for ev in res.trace if ev[0] == "open"]
    assert opened == [(0, 0), (1, 0), (1, 1), (1, 2)]


def test_uniform_matches_exhaustive_lattice_argmax():
    # noiseless uniform opening of the full first two levels is exactly a
    # grid search over the materialized representatives
    res = uniform_run(GARLAND, None, RunConfig(budget_n=4))
    lattice = [(0.5,)]
    for depth, m in ((1, 3), (2, 9)):
        lattice += [((2 * i + 1) / (2 * m),) for i in range(m)]
    best = max(lattice, key=lambda p: GARLAND.eval(p))
    assert res.recommendation_value_estimate == pytest.approx(
        GARLAND.eval(best), abs=1e-15)


def test_uniform_noise_reproducible():
    a = uniform_run(GARLAND, NoiseModel(0.2, seed=8), RunConfig(budget_n=50))
    b = uniform_run(GARLAND, NoiseModel(0.2, seed=8), RunConfig(budget_n=50))
    assert a.recommendation == b.recommendation
    c = uniform_run(GARLAND, NoiseModel(0.2, seed=9), RunConfig(budget_n=50))
    assert c.recommendation != a.recommendation or \
        c.recommendation_value_estimate != a.recommendation_value_estimate


# ---------------------------------------------------------------------------
# objectives that return NaN on part of the domain
# ---------------------------------------------------------------------------

def _nan_objectives():
    # NaN on a band that holds cells of every depth, with or without the
    # root's centre (uniform observes the root first); a NaN never compares
    # greater than, or equal to, a value, so it must never become the
    # running best
    def band(p):
        return math.nan if 0.2 <= p[0] < 0.45 else GARLAND.fn(p)

    def centre_band(p):
        return math.nan if 0.4 <= p[0] < 0.6 else GARLAND.fn(p)

    def quadrant(p):
        x, y = p
        if x < 0.5 and y > 0.25:
            return math.nan
        return -abs(x - 0.55) - abs(y - 0.2)

    return [Objective("nan-band", Box([0.0], [1.0]), band),
            Objective("nan-centre", Box([0.0], [1.0]), centre_band),
            Objective("nan-quadrant", Box([0.0, 0.0], [1.0, 1.0]), quadrant)]


_NAN_RUNS = {
    "sequool": lambda obj, cfg: sequool_run(obj, cfg),
    "soo": lambda obj, cfg: soo_run(obj, cfg),
    "doo": lambda obj, cfg: doo_run(obj, cfg, 1.0, 0.6),
    "uniform": lambda obj, cfg: uniform_run(obj, None, cfg),
    "uniform:b=0.3": lambda obj, cfg: uniform_run(
        obj, NoiseModel(0.3, seed=5), cfg),
    "stroquool": lambda obj, cfg: stroquool_run(obj, None, cfg),
    "stroquool:b=0.3": lambda obj, cfg: stroquool_run(
        obj, NoiseModel(0.3, seed=5), cfg),
}


@pytest.mark.parametrize("algo", sorted(_NAN_RUNS))
def test_nan_values_never_become_the_recommendation(algo):
    for obj in _nan_objectives():
        for n in (8, 30, 200, 2000):
            for K in (2, 3):
                res = _NAN_RUNS[algo](obj, RunConfig(budget_n=n, branching=K))
                assert not math.isnan(res.recommendation_value_estimate), (
                    obj.name, n, K)
                assert not math.isnan(obj.fn(res.recommendation)), (
                    obj.name, n, K)


@pytest.mark.parametrize("algo", ["soo", "doo"])
def test_soo_and_doo_rank_a_nan_last(algo):
    # NaN on 0.16 < x < 0.17, inside the centre third of the depth-1 cell
    # [0, 1/3] and far from the optimum.  A NaN ranks last in the heaps, so
    # both runs spend their whole budget and end where they end without it
    def band(p):
        return math.nan if 0.16 < p[0] < 0.17 else GARLAND.fn(p)

    obj = Objective("nan-narrow-band", GARLAND.domain, band)
    for n in (50, 500, 5000):
        cfg = RunConfig(budget_n=n)
        res, clean = (_NAN_RUNS[algo](o, cfg) for o in (obj, GARLAND))
        assert res.openings_used == n
        assert res.recommendation == clean.recommendation
        assert regret(GARLAND, res) == regret(GARLAND, clean)


# ---------------------------------------------------------------------------
# an objective that is NaN everywhere
# ---------------------------------------------------------------------------

import dataclasses  # noqa: E402

from zipftree.partition import split_cell  # noqa: E402

ALL_NAN = Objective("all-nan", Box([0.0], [1.0]), lambda p: math.nan)


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("algo", sorted(_NAN_RUNS))
def test_nan_everywhere_recommends_the_lowest_cell_evaluated(algo, K):
    # with no value to rank, every run recommends the lowest CellId it
    # evaluated at -inf: uniform its root, the others the root's first child
    root = ((0.0,), (1.0,), (0.5,))
    first = root[2] if algo.startswith("uniform") else split_cell(root, 0, K)[0][2]
    for n in (8, 50):
        for trace in (False, True):
            res = _NAN_RUNS[algo](ALL_NAN, RunConfig(budget_n=n, branching=K,
                                                     record_trace=trace))
            assert res.recommendation == first, (n, trace)
            assert res.recommendation_value_estimate == -math.inf


# ---------------------------------------------------------------------------
# SequOOL settles through _Run.open_copies
# ---------------------------------------------------------------------------

def test_sequool_settles_through_open_copies(monkeypatch):
    # the settled depths are opened as counted copies, one call per depth
    # down to h_max; a traced run takes the same loop and never settles
    calls = []
    open_copies = optimizers._Run.open_copies

    def spy(run, depth, index, count):
        calls.append((depth, index, count))
        return open_copies(run, depth, index, count)

    monkeypatch.setattr(optimizers._Run, "open_copies", spy)
    n = 10_000
    h_max = int(n // harmonic(n))
    untraced = sequool_run(GARLAND, RunConfig(budget_n=n))
    depths = [depth for depth, _, _ in calls]
    assert depths == list(range(depths[0], h_max + 1))
    assert all(index is None and count == h_max // depth
               for depth, index, count in calls)
    calls.clear()
    traced = sequool_run(GARLAND, RunConfig(budget_n=n, record_trace=True))
    assert calls == []
    assert untraced == dataclasses.replace(traced, trace=None)
