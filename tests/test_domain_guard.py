"""The domain is checked once per opening, not once per evaluation.

partition.split_cell raises unless its children's centres lie inside the
parent, and the optimizers check the root's centre once; so
EvaluationStream.observe_sum evaluates the partition's points unchecked
while Objective.eval stays checked for every other caller."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import zipftree
from zipftree.objectives import (EvaluationStream, NoiseModel, Objective,
                                 garland, garland_objective)
from zipftree.optimizers import (RunConfig, doo_run, sequool_run, soo_run,
                                 stroquool_run, uniform_run)
from zipftree.partition import (Box, CellId, cell_containing, make_tree,
                                split_cell)

RUNNERS = {
    "sequool": lambda obj, n: sequool_run(obj, RunConfig(budget_n=n)),
    "stroquool": lambda obj, n: stroquool_run(
        obj, NoiseModel(0.1, seed=1), RunConfig(budget_n=n)),
    "soo": lambda obj, n: soo_run(obj, RunConfig(budget_n=n)),
    "doo": lambda obj, n: doo_run(obj, RunConfig(budget_n=n), 1.0, 0.5),
    "uniform": lambda obj, n: uniform_run(obj, None, RunConfig(budget_n=n)),
}

# each splits into a NaN or infinite centre: a width that overflows to inf
# (0 * inf is NaN at the first edge), a centre 0.5 * (a + b) whose sum
# overflows, and an infinite width
OVERFLOW_DOMAINS = [
    Box([-1e308], [1e308]),
    Box([1e308], [1.7e308]),
    Box([0.0], [math.inf]),
]


@pytest.mark.parametrize("domain", OVERFLOW_DOMAINS, ids=repr)
@pytest.mark.parametrize("algo", sorted(RUNNERS))
def test_overflowing_domains_are_rejected(algo, domain):
    seen = []
    obj = Objective("probe", domain, lambda p: seen.append(p) or 0.0)
    with pytest.raises(ValueError):
        RUNNERS[algo](obj, 50)
    # fn only ever saw points of the domain
    assert all(domain.contains(p) for p in seen)


@pytest.mark.parametrize("algo", sorted(RUNNERS))
def test_a_run_checks_the_domain_at_most_once(algo, monkeypatch):
    calls = []
    contains = Box.contains

    def counted(self, point):
        calls.append(point)
        return contains(self, point)

    monkeypatch.setattr(Box, "contains", counted)
    result = RUNNERS[algo](garland_objective(), 1000)
    assert len(calls) <= 1 < result.evaluations_used


def _probe():
    seen = []
    return Objective("probe", Box([0.0], [1.0]),
                     lambda p: seen.append(p) or garland(p[0])), seen


@pytest.mark.parametrize("point", [0.25, 1, np.float64(0.25), [0.25],
                                   np.array([0.25]), (0.25,)], ids=repr)
def test_observe_sum_hands_fn_a_tuple_of_floats(point):
    obj, seen = _probe()
    stream = EvaluationStream(obj)
    assert stream.observe_sum(point, 3) == 3 * obj.eval(point)
    assert stream.n_evals == 3
    assert len(seen) == 2
    for p in seen:
        assert type(p) is tuple
        assert all(type(v) is float for v in p)


def test_observe_sum_is_unchecked_and_eval_checked():
    obj, seen = _probe()
    stream = EvaluationStream(obj)
    # fn itself rejects the point: the stream reached it without a check
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        stream.observe_sum((1.25,), 1)
    with pytest.raises(ValueError, match="outside domain of probe"):
        obj.eval((1.25,))
    assert seen == [(1.25,)]


def test_split_rejects_centres_outside_the_parent():
    # the width overflows to inf, so the first edge is 0 * inf = NaN
    huge = (-1e308,), (1e308,), (0.0,)
    with pytest.raises(ValueError, match="outside the cell"):
        split_cell(huge, 0, 3)
    # a + b overflows in the last child's centre but not in the first
    high = (0.5e308,), (1.7e308,), (1.1e308,)
    with pytest.raises(ValueError, match="outside the cell"):
        split_cell(high, 0, 7)
    # the tree's split and its point lookup go through the same check
    for lower, upper, point in [(0.0, math.inf, 1.0), (-1e308, 1e308, 0.0)]:
        tree = make_tree(Box([lower], [upper]))
        stream = EvaluationStream(Objective("x", tree.domain, lambda p: p[0]))
        with pytest.raises(ValueError, match="outside the cell"):
            tree.open_cell(CellId(0, 0), 1, stream)
        assert stream.n_evals == 0 and not tree.root.opened
        with pytest.raises(ValueError, match="outside the cell"):
            cell_containing(tree.domain, 3, (point,), 1)


def test_package_does_not_import_hypothesis():
    # hypothesis is a test dependency only
    package = Path(zipftree.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "hypothesis"]
    assert found == []
