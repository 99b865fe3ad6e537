"""Each input rule is stated once, in `zipftree.partition`, and every layer
applies it: an integer (`checked_integer`: anything operator.index takes,
a bool excepted), a finite real number (`is_finite`), a finite range >= 0
(`checked_range`) and a confidence level in (0, 1) (`checked_delta`).  A
rejected input raises ValueError, and the message names the setting as the
caller passed it.  A checked bundle cannot be reassigned afterwards."""

import dataclasses
import json
import math
import sys

import numpy as np
import pytest

from zipftree.cli import main
from zipftree.harness import (AlgoSpec, ExperimentSpec, parse_algo,
                              run_experiment)
from zipftree.objectives import (EvaluationStream, NoiseModel, Objective,
                                 garland_objective)
from zipftree.optimizers import RunConfig, doo_run, stroquool_run
from zipftree.partition import (Box, CellId, cell_containing, checked_delta,
                                checked_integer, checked_range, make_tree)
from zipftree.theory import (BoundInputs, SmoothnessParams, count_near_optimal,
                             harmonic, lambert_w, sequool_bound,
                             stroquool_h_max)

UNIT = Box([0.0], [1.0])
PARAMS = SmoothnessParams(1.0, 0.5, 2.0)


def const(optimum=2.5):
    return Objective("const", UNIT, lambda p: 2.5, optimum_value=optimum)


def spec(**overrides):
    fields = dict(algorithms=["uniform"], objective="garland", budgets=[10],
                  seeds=1)
    return ExperimentSpec(**(fields | overrides))


def near(**overrides):
    args = dict(branching=3, h=2, epsilon=0.1) | overrides
    return count_near_optimal(args.pop("obj", const()), **args)


def opened(evals=1, more=1):
    tree = make_tree(UNIT)
    stream = EvaluationStream(Objective("x", UNIT, lambda p: p[0]))
    tree.open_cell(CellId(0, 0), evals, stream)
    return tree.add_evaluations(CellId(1, 0), more, stream)


def partly_read():
    """A noise model with 3 draws of its first block spent."""
    nm = NoiseModel(0.1, seed=1)
    nm.offsets(3)
    return nm


# (id, message regex, call): inputs every layer has long rejected
REJECTED = [
    ("make_tree-float-K", "branching must be an integer", lambda: make_tree(UNIT, 2.5)),
    ("make_tree-str-K", "branching must be an integer", lambda: make_tree(UNIT, "3")),
    ("make_tree-none-K", "branching must be an integer", lambda: make_tree(UNIT, None)),
    ("make_tree-K1", "branching must be >= 2", lambda: make_tree(UNIT, 1)),
    ("make_tree-bool-K", "branching must be", lambda: make_tree(UNIT, True)),
    ("open_cell-evals0", "evals_per_child must be >= 1", lambda: opened(evals=0)),
    ("add_evaluations-count0", "count must be >= 1", lambda: opened(more=0)),
    ("cell_containing-K1", "K must be >= 2",
     lambda: cell_containing(UNIT, 1, (0.5,), 2)),
    ("RunConfig-n0", "budget_n must be >= 1", lambda: RunConfig(budget_n=0)),
    ("RunConfig-negative-n", "budget_n must be >= 1", lambda: RunConfig(budget_n=-1)),
    ("RunConfig-float-n", "budget_n must be an integer", lambda: RunConfig(budget_n=100.5)),
    ("RunConfig-str-n", "budget_n must be an integer", lambda: RunConfig(budget_n="5")),
    ("RunConfig-none-n", "budget_n must be an integer", lambda: RunConfig(budget_n=None)),
    ("RunConfig-float-K", "branching must be an integer",
     lambda: RunConfig(budget_n=10, branching=2.5)),
    ("RunConfig-str-K", "branching must be an integer",
     lambda: RunConfig(budget_n=10, branching="3")),
    ("RunConfig-K1", "branching must be >= 2", lambda: RunConfig(budget_n=10, branching=1)),
    ("NoiseModel-negative", "range_b must be >= 0 and finite", lambda: NoiseModel(-0.1)),
    ("NoiseModel-nan", "range_b must be >= 0 and finite", lambda: NoiseModel(math.nan)),
    ("NoiseModel-inf", "range_b must be >= 0 and finite", lambda: NoiseModel(math.inf)),
    ("NoiseModel-minus-inf", "range_b must be >= 0 and finite", lambda: NoiseModel(-math.inf)),
    ("NoiseModel-negative-seed", "seed must be >= 0", lambda: NoiseModel(0.1, seed=-1)),
    ("BoundInputs-n0", "n must be >= 1", lambda: BoundInputs(0)),
    ("BoundInputs-float-n", "n must be an integer", lambda: BoundInputs(2.5)),
    ("BoundInputs-str-n", "n must be an integer", lambda: BoundInputs("5")),
    ("BoundInputs-negative-b", "b must be >= 0 and finite", lambda: BoundInputs(100, -1.0)),
    ("BoundInputs-nan-b", "b must be >= 0 and finite", lambda: BoundInputs(100, math.nan)),
    ("BoundInputs-inf-b", "b must be >= 0 and finite", lambda: BoundInputs(100, math.inf)),
    ("BoundInputs-delta0", r"delta must be in \(0, 1\)", lambda: BoundInputs(100, 0.1, 0.0)),
    ("BoundInputs-delta1", r"delta must be in \(0, 1\)", lambda: BoundInputs(100, 0.1, 1.0)),
    ("BoundInputs-nan-delta", r"delta must be in \(0, 1\)",
     lambda: BoundInputs(100, 0.1, math.nan)),
    ("BoundInputs-bool-delta", r"delta must be in \(0, 1\)",
     lambda: BoundInputs(100, 0.1, True)),
    ("harmonic-n0", "n must be >= 1", lambda: harmonic(0)),
    ("harmonic-negative-n", "n must be >= 1", lambda: harmonic(-3)),
    ("stroquool_h_max-n0", "n must be >= 1", lambda: stroquool_h_max(0)),
    ("sequool_bound-n0", "n must be >= 1", lambda: sequool_bound(0, PARAMS)),
    ("count_near_optimal-float-K", "branching must be an integer",
     lambda: near(branching=2.5)),
    ("count_near_optimal-K1", "branching must be >= 2", lambda: near(branching=1)),
    ("count_near_optimal-negative-h", "h must be >= 0", lambda: near(h=-1)),
    ("count_near_optimal-float-h", "h must be an integer", lambda: near(h=2.5)),
    ("count_near_optimal-points1", "points_per_axis must be >= 2",
     lambda: near(points_per_axis=1)),
    ("count_near_optimal-float-points", "points_per_axis must be an integer",
     lambda: near(points_per_axis=10.0)),
    ("count_near_optimal-nan-eps", "epsilon must be >= 0 and finite",
     lambda: near(epsilon=math.nan)),
    ("count_near_optimal-inf-eps", "epsilon must be >= 0 and finite",
     lambda: near(epsilon=math.inf)),
    ("count_near_optimal-negative-eps", "epsilon must be >= 0 and finite",
     lambda: near(epsilon=-1e-9)),
    ("count_near_optimal-no-optimum", "no optimum_value", lambda: near(obj=const(None))),
    ("count_near_optimal-cap", "exceeds the 1e6 cell cap", lambda: near(branching=2, h=20)),
    ("lambert_w-negative", "x must be >= 0", lambda: lambert_w(-1.0)),
    ("SmoothnessParams-nu0", "nu must be > 0", lambda: SmoothnessParams(0.0, 0.5, 2.0)),
    ("SmoothnessParams-rho1", r"rho must be in \(0, 1\)",
     lambda: SmoothnessParams(1.0, 1.0, 2.0)),
    ("SmoothnessParams-C", "C must be >= 1", lambda: SmoothnessParams(1.0, 0.5, 0.5)),
    ("SmoothnessParams-d", "d must be >= 0", lambda: SmoothnessParams(1.0, 0.5, 2.0, -1.0)),
    ("parse_algo-doo-nu", "nu must be > 0", lambda: parse_algo("doo:-1:0.5")),
    ("parse_algo-doo-rho", r"rho must be in \(0, 1\)", lambda: parse_algo("doo:1:2")),
    ("parse_algo-str-nu", "nu must be > 0 and finite",
     lambda: parse_algo({"name": "doo", "nu": "1", "rho": 0.5})),
    ("stroquool_run-n7", "StroquOOL needs n >= 8",
     lambda: stroquool_run(const(), None, RunConfig(budget_n=7))),
    ("ExperimentSpec-int-budgets", "budgets must be a list", lambda: spec(budgets=100)),
    ("ExperimentSpec-float-budget", "budgets must be an integer",
     lambda: spec(budgets=[50, 150.5])),
    ("ExperimentSpec-str-budget", "budgets must be an integer", lambda: spec(budgets=["50"])),
    ("ExperimentSpec-bool-budget", "budgets must be an integer", lambda: spec(budgets=[True])),
    ("ExperimentSpec-no-budgets", "budgets must be nonempty", lambda: spec(budgets=[])),
    ("ExperimentSpec-budget-order", "budgets must be strictly increasing",
     lambda: spec(budgets=[100, 50])),
    ("ExperimentSpec-nan-b", "noise_b must be >= 0 and finite",
     lambda: spec(noise_b=[math.nan])),
    ("ExperimentSpec-inf-b", "noise_b must be >= 0 and finite",
     lambda: spec(noise_b=[math.inf])),
    ("ExperimentSpec-negative-b", "noise_b must be >= 0 and finite",
     lambda: spec(noise_b=[-0.1])),
    ("ExperimentSpec-str-b", "noise_b must be >= 0 and finite", lambda: spec(noise_b=["0.1"])),
    ("ExperimentSpec-bool-b", "noise_b must be >= 0 and finite", lambda: spec(noise_b=[True])),
    ("ExperimentSpec-float-noise-b", "noise_b must be a list", lambda: spec(noise_b=0.1)),
    ("ExperimentSpec-no-noise-b", "noise_b must be nonempty", lambda: spec(noise_b=[])),
    ("ExperimentSpec-delta0", r"delta must be in \(0, 1\)", lambda: spec(delta=0.0)),
    ("ExperimentSpec-delta1", r"delta must be in \(0, 1\)", lambda: spec(delta=1.0)),
    ("ExperimentSpec-str-delta", r"delta must be in \(0, 1\)", lambda: spec(delta="x")),
    ("ExperimentSpec-none-delta", r"delta must be in \(0, 1\)", lambda: spec(delta=None)),
    ("ExperimentSpec-bool-delta", r"delta must be in \(0, 1\)", lambda: spec(delta=True)),
    ("ExperimentSpec-K1", "branching must be >= 2", lambda: spec(branching=1)),
    ("ExperimentSpec-float-K", "branching must be an integer", lambda: spec(branching=2.5)),
    ("ExperimentSpec-str-seed", "master_seed must be an integer",
     lambda: spec(master_seed="x")),
    ("ExperimentSpec-float-seed", "master_seed must be an integer",
     lambda: spec(master_seed=1.5)),
    ("ExperimentSpec-bool-seed", "master_seed must be an integer",
     lambda: spec(master_seed=True)),
    ("ExperimentSpec-seeds0", "seeds must be a count >= 1", lambda: spec(seeds=0)),
    ("ExperimentSpec-float-seeds", "seeds must be an int or a list of ints",
     lambda: spec(seeds=2.5)),
    ("run_experiment-noisy-sequool", "deterministic-feedback",
     lambda: run_experiment(spec(algorithms=["sequool"], noise_b=[0.1]))),
    ("run_experiment-noisy-doo", "deterministic-feedback",
     lambda: run_experiment(spec(algorithms=["doo:1:0.5"], noise_b=[0.0, 0.1]))),
]

# (id, message regex, call): inputs that used to run -- truncated to an
# integer, read as 1, or taken at a value they do not have -- or that
# raised TypeError
NOW_REJECTED = [
    ("open_cell-float-evals", "evals_per_child must be an integer: 2.5",
     lambda: opened(evals=2.5)),
    ("add_evaluations-float-count", "count must be an integer: 2.5",
     lambda: opened(more=2.5)),
    ("cell_containing-negative-depth", "depth must be >= 0: -1",
     lambda: cell_containing(UNIT, 3, (0.5,), -1)),
    ("cell_containing-bool-depth", "depth must be an integer: True",
     lambda: cell_containing(UNIT, 3, (0.5,), True)),
    ("cell_containing-float-depth", "depth must be an integer: 2.5",
     lambda: cell_containing(UNIT, 3, (0.5,), 2.5)),
    ("harmonic-float-n", "n must be an integer: 2.5", lambda: harmonic(2.5)),
    ("harmonic-whole-float-n", "n must be an integer: 2.0", lambda: harmonic(2.0)),
    ("harmonic-bool-n", "n must be an integer: True", lambda: harmonic(True)),
    ("stroquool_h_max-float-n", "n must be an integer: 1000.7",
     lambda: stroquool_h_max(1000.7)),
    ("sequool_bound-float-n", "n must be an integer: 100.5",
     lambda: sequool_bound(100.5, PARAMS)),
    ("lambert_w-nan", "x must be >= 0 and finite: nan", lambda: lambert_w(math.nan)),
    ("lambert_w-inf", "x must be >= 0 and finite: inf", lambda: lambert_w(math.inf)),
    ("lambert_w-bool", "x must be >= 0 and finite: True", lambda: lambert_w(True)),
    ("RunConfig-bool-n", "budget_n must be an integer: True",
     lambda: RunConfig(budget_n=True)),
    ("BoundInputs-bool-n", "n must be an integer: True", lambda: BoundInputs(n=True)),
    ("BoundInputs-str-b", "b must be >= 0 and finite: '0.1'",
     lambda: BoundInputs(100, b="0.1")),
    ("BoundInputs-bool-b", "b must be >= 0 and finite: True",
     lambda: BoundInputs(100, b=True)),
    ("ExperimentSpec-zero-budget", "budgets must be >= 1: 0", lambda: spec(budgets=[0, 5])),
    ("ExperimentSpec-negative-budget", "budgets must be >= 1: -5",
     lambda: spec(budgets=[-5, 5])),
    ("NoiseModel-str", "range_b must be >= 0 and finite: '0.1'", lambda: NoiseModel("0.1")),
    ("NoiseModel-bool", "range_b must be >= 0 and finite: True", lambda: NoiseModel(True)),
    ("NoiseModel-float-seed", "seed must be an integer: 2.5",
     lambda: NoiseModel(0.1, seed=2.5)),
    ("count_near_optimal-bool-h", "h must be an integer: True", lambda: near(h=True)),
    ("count_near_optimal-str-eps", "epsilon must be >= 0 and finite: '0.1'",
     lambda: near(epsilon="0.1")),
    ("count_near_optimal-nan-optimum", "non-finite one: nan",
     lambda: near(obj=const(math.nan))),
    ("count_near_optimal-inf-optimum", "non-finite one: inf",
     lambda: near(obj=const(math.inf))),
    ("count_near_optimal-minus-inf-optimum", "non-finite one: -inf",
     lambda: near(obj=const(-math.inf))),
    ("NoiseModel-offsets-float-count", "count must be an integer: 2.5",
     lambda: partly_read().offsets(2.5)),
    ("NoiseModel-total-float-count", "count must be an integer: 2.5",
     lambda: partly_read().total(2.5)),
    ("NoiseModel-total-whole-float-count", "count must be an integer: 8.0",
     lambda: partly_read().total(8.0)),
    ("NoiseModel-offsets-bool-count", "count must be an integer: True",
     lambda: partly_read().offsets(True)),
    ("NoiseModel-total-bool-count", "count must be an integer: True",
     lambda: partly_read().total(True)),
    ("SmoothnessParams-bool-nu", "nu must be > 0 and finite",
     lambda: SmoothnessParams(True, 0.5, 1.0)),
    ("SmoothnessParams-inf-nu", "nu must be > 0 and finite",
     lambda: SmoothnessParams(math.inf, 0.5, 2.0)),
    ("SmoothnessParams-huge-nu", "nu must be > 0 and finite",
     lambda: SmoothnessParams(10**400, 0.5, 2.0)),
    ("SmoothnessParams-str-rho", r"rho must be in \(0, 1\)",
     lambda: SmoothnessParams(1.0, "0.5", 2.0)),
    ("SmoothnessParams-str-C", "C must be >= 1 and finite",
     lambda: SmoothnessParams(1.0, 0.5, "2")),
    ("SmoothnessParams-inf-C", "C must be >= 1 and finite",
     lambda: SmoothnessParams(1.0, 0.5, math.inf)),
    ("SmoothnessParams-inf-d", "d must be >= 0 and finite: inf",
     lambda: SmoothnessParams(1.0, 0.5, 2.0, math.inf)),
    ("SmoothnessParams-str-d", "d must be >= 0 and finite: '0'",
     lambda: SmoothnessParams(1.0, 0.5, 2.0, "0")),
    ("doo_run-bool-nu", "nu must be > 0 and finite",
     lambda: doo_run(garland_objective(), RunConfig(budget_n=50), True, 0.5)),
    ("parse_algo-doo-inf-nu", "nu must be > 0 and finite",
     lambda: parse_algo("doo:inf:0.5")),
    # each used to build, then fail in run_experiment or inside a task
    ("AlgoSpec-unknown", "unknown algorithm 'bogus'", lambda: AlgoSpec("bogus")),
    ("AlgoSpec-doo-bare", "nu must be > 0 and finite", lambda: AlgoSpec("doo")),
    ("AlgoSpec-doo-range", "nu must be > 0 and finite",
     lambda: AlgoSpec("doo", -1.0, 5.0)),
    ("AlgoSpec-uniform-nu", "uniform takes no parameters",
     lambda: AlgoSpec("uniform", 5.0)),
    ("parse_algo-uniform-nu-rho", "invalid: uniform takes no parameters",
     lambda: parse_algo({"name": "uniform", "nu": 5, "rho": 0.5})),
    ("parse_algo-unknown-setting", "invalid: unknown settings: typo_rho",
     lambda: parse_algo({"name": "doo", "nu": 1, "rho": 0.5, "typo_rho": 0.9})),
    # 2b overflowed, and every draw was +-inf
    ("NoiseModel-width-overflow", "range_b must be <= DBL_MAX/2",
     lambda: NoiseModel(1e308)),
    ("ExperimentSpec-width-overflow", "noise_b must be <= DBL_MAX/2",
     lambda: spec(noise_b=[1e308])),
]


@pytest.mark.parametrize("match, call", [row[1:] for row in REJECTED],
                         ids=[row[0] for row in REJECTED])
def test_a_rejected_input_raises_value_error(match, call):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("match, call", [row[1:] for row in NOW_REJECTED],
                         ids=[row[0] for row in NOW_REJECTED])
def test_an_input_that_used_to_run_raises_value_error(match, call):
    with pytest.raises(ValueError, match=match):
        call()


def test_the_checkers_take_numpy_numbers_and_return_python_ones():
    assert checked_integer(np.int64(7), "k", 1) == 7
    assert type(checked_integer(np.int32(-3), "master_seed")) is int
    for value in (0, np.float32(0.5), 2):
        assert type(checked_range(value, "b")) is float
    assert checked_range(np.float32(0.5), "b") == 0.5
    assert type(checked_delta(np.float64(0.05))) is float
    # a numpy n reads as the int it holds
    assert harmonic(np.int64(4)) == harmonic(4) == math.fsum(
        [1, 1 / 2, 1 / 3, 1 / 4])
    assert sequool_bound(np.int64(100), PARAMS) == sequool_bound(100, PARAMS)


@pytest.mark.parametrize("count", [2.5, 8.0, True, "3"])
def test_a_rejected_count_draws_nothing(count):
    # total(2.5) used to move the read position to 5.5 before it raised,
    # and every later draw raised too
    nm, twin = partly_read(), partly_read()
    for draw in (nm.offsets, nm.total):
        with pytest.raises(ValueError, match="count must be"):
            draw(count)
    assert nm.total(5) == twin.total(5)
    assert nm.offsets(9).tobytes() == twin.offsets(9).tobytes()


@pytest.mark.parametrize("value", [10**400, -10**400], ids=["huge", "minus-huge"])
def test_a_range_too_large_for_a_float_raises_value_error(value):
    # math.isfinite raises OverflowError for such an int
    for call in (lambda: checked_range(value, "b"),
                 lambda: NoiseModel(value),
                 lambda: spec(noise_b=[value]),
                 lambda: BoundInputs(100, value)):
        with pytest.raises(ValueError, match="must be >= 0 and finite"):
            call()


def test_the_widest_noise_range_draws_finite_values():
    # 2b is DBL_MAX itself; a bound keeps taking any finite b
    b = sys.float_info.max / 2
    draws = NoiseModel(b, seed=3).offsets(10_000)
    assert np.all(np.isfinite(draws)) and np.all(np.abs(draws) <= b)
    assert BoundInputs(100, 1e308).b == 1e308


@pytest.mark.parametrize("algorithm", [
    {"name": "uniform", "nu": 5, "rho": 0.5},
    {"name": "doo", "nu": 1, "rho": 0.5, "typo_rho": 0.9},
    {"name": "doo", "nu": -1, "rho": 5},
], ids=["uniform-with-nu-rho", "doo-typo", "doo-range"])
def test_a_config_with_a_bad_algorithm_prints_one_error_line(
        tmp_path, capsys, algorithm):
    path, out = tmp_path / "cfg.json", tmp_path / "r.csv"
    path.write_text(json.dumps({"algorithms": [algorithm], "objective": "garland",
                                "budgets": [10], "out": str(out)}))
    assert main(["--config", str(path)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith(f"error: algorithm {algorithm!r} invalid: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_a_config_with_a_range_too_large_for_a_float_prints_one_error_line(
        tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"algorithms": ["uniform"], "objective": "garland", '
                    f'"budgets": [10], "noise_b": [{10**400}]}}')
    assert main(["--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: noise_b must be >= 0 and finite: 1000")
    assert err.count("\n") == 1


def test_seeds_take_numpy_integers():
    assert spec(seeds=np.int64(3)).seeds == (0, 1, 2)
    listed = spec(seeds=[np.int64(4), np.int32(1), 7])
    assert listed.seeds == (4, 1, 7)
    assert all(type(s) is int for s in listed.seeds)
    with pytest.raises(ValueError,
                       match=r"seeds must be an int or a list of ints: np.float64"):
        spec(seeds=np.float64(3.0))
    with pytest.raises(ValueError, match="seeds must be a count >= 1"):
        spec(seeds=np.int64(0))


@pytest.mark.parametrize("bundle", [
    RunConfig(100), SmoothnessParams(1.0, 0.5, 2.0), BoundInputs(100, 0.1),
    spec(), AlgoSpec("doo", 1.0, 0.5)], ids=lambda b: type(b).__name__)
def test_a_checked_bundle_cannot_be_reassigned(bundle):
    # p.nu = math.inf used to make sequool_bound's theorem inf, and
    # cfg.budget_n = 50.5 let SOO run 51 openings
    for field in dataclasses.fields(bundle):
        before = getattr(bundle, field.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(bundle, field.name, math.inf)
        assert getattr(bundle, field.name) is before
