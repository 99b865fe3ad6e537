"""NoiseModel.total sums short draws in Python, one at a time, from
a memoryview of the drawn-ahead block.  These tests hold it to
float(offsets(count).sum()) bit for bit, pin the order numpy's sum adds
fewer than 8 values in, and hold whole noisy runs to the summing path that
took every sum through offsets()."""

import itertools
import struct

import numpy as np
import pytest

from zipftree.objectives import (EvaluationStream, NoiseModel, _as_point,
                                 garland_objective, wrapped_sine_objective)
from zipftree.optimizers import RunConfig, stroquool_run, uniform_run


def bits(x):
    return struct.pack("<d", x)


def sequential_sum(values):
    s = 0.0
    for x in values:
        s += x
    return s


@pytest.mark.parametrize("k", range(1, 10))
def test_total_equals_the_sum_of_offsets_at_every_read_position(k):
    # start shifts 0..k-1 put total(k) at every read position of the first
    # three blocks, so its reads straddle each refill; every fifth step
    # reads through offsets() instead, on both streams
    for shift in range(k):
        nm = NoiseModel(0.7, seed=k)
        ref = NoiseModel(0.7, seed=k)
        assert nm.offsets(shift).tobytes() == ref.offsets(shift).tobytes()
        for step in range(3 * 4096 // k + 1):
            if step % 5 == 4:
                assert nm.offsets(k).tobytes() == ref.offsets(k).tobytes()
            else:
                got = nm.total(k)
                assert type(got) is float
                assert bits(got) == bits(float(ref.offsets(k).sum())), (shift, step)
        assert nm._rng.bit_generator.state == ref._rng.bit_generator.state


def test_total_of_no_draws_and_of_a_negative_count():
    nm = NoiseModel(0.5, seed=3)
    assert bits(nm.total(0)) == bits(0.0)
    with pytest.raises(ValueError, match="count must be >= 0"):
        nm.total(-1)
    ref = NoiseModel(0.5, seed=3)
    assert nm.total(3) == float(ref.offsets(3).sum())
    assert NoiseModel(0.0).total(5) == 0.0


@pytest.mark.parametrize("k", [3, 9])
def test_total_of_a_numpy_count_equals_the_sum_of_offsets(k):
    # total's short path takes an int only; a numpy count goes through offsets
    nm, ref = NoiseModel(0.5, seed=k), NoiseModel(0.5, seed=k)
    assert bits(nm.total(np.int64(k))) == bits(float(ref.offsets(k).sum()))
    assert nm.offsets(4).tobytes() == ref.offsets(4).tobytes()


def test_numpy_sums_fewer_than_8_values_one_at_a_time_from_zero():
    # the order NoiseModel.total relies on; a numpy that sums short arrays
    # in another order fails here rather than in a frozen digest
    rng = np.random.default_rng(2024)
    for _ in range(20_000):
        count = int(rng.integers(1, 8))
        values = rng.uniform(-1.0, 1.0, count) * 10.0 ** rng.integers(-30, 30, count)
        assert bits(sequential_sum(values.tolist())) == bits(float(values.sum()))
    for count in range(1, 8):
        for signs in itertools.product((0.0, -0.0), repeat=count):
            assert bits(sequential_sum(signs)) == bits(float(np.array(signs).sum()))


def total_through_offsets(self, count):
    """NoiseModel.total by its definition."""
    return float(self.offsets(count).sum())


def observe_sum_through_offsets(self, point, count):
    """EvaluationStream.observe_sum as it was before NoiseModel.total."""
    if point is self._last_point:
        v = self._last_value
    else:
        if type(point) is not tuple:
            point = _as_point(point)
        v = float(self._fn(point))
        self._last_point, self._last_value = point, v
    self.n_evals += count
    if self._noise is None:
        return count * v
    eps = self._noise.offsets(count)
    if count == 1:
        return v + float(eps[0])
    return count * v + float(eps.sum())


@pytest.mark.parametrize("run", [stroquool_run, uniform_run])
def test_noisy_runs_equal_the_runs_that_sum_through_offsets(monkeypatch, run):
    objectives = [garland_objective(), wrapped_sine_objective()]
    grid = list(itertools.product(objectives, range(2, 6), (0.1, 1.0),
                                  (8, 150, 2000)))

    def runs():
        out = []
        for obj, k, b, n in grid:
            noise = NoiseModel(b, seed=k * n)
            res = run(obj, noise, RunConfig(budget_n=n, branching=k))
            out.append((repr(res), noise._pos, noise._rng.bit_generator.state))
        return out

    new = runs()
    # uniform's depth step draws through stream.noise.total itself, so the
    # reference path replaces that too
    monkeypatch.setattr(EvaluationStream, "observe_sum", observe_sum_through_offsets)
    monkeypatch.setattr(NoiseModel, "total", total_through_offsets)
    old = runs()
    for (obj, k, b, n), got, want in zip(grid, new, old):
        assert got == want, (obj.name, k, b, n)
