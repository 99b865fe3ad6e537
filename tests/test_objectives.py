import math

import numpy as np
import pytest

from zipftree.objectives import (GARLAND_ARGMAX, GARLAND_FLOAT_MAX,
                                 GARLAND_OPTIMUM, EvaluationStream,
                                 NoiseModel, Objective, garland,
                                 garland_objective, get_objective,
                                 wrapped_sine)
from zipftree.partition import Box


# ---------------------------------------------------------------------------
# garland
# ---------------------------------------------------------------------------

def test_garland_matches_formula_on_grid():
    rng = np.random.default_rng(7)
    for x in rng.uniform(0.0, 1.0, 500):
        expected = 4 * x * (1 - x) * (0.75 + 0.25 * (1 - math.sqrt(abs(math.sin(60 * x)))))
        assert garland(float(x)) == expected


def test_garland_domain_and_endpoints():
    assert garland(0.0) == 0.0
    assert garland(1.0) == 0.0
    for bad in (-1e-12, 1.0000001, 2.0):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            garland(bad)


def test_garland_constants_consistent():
    assert GARLAND_ARGMAX == math.pi / 6
    assert GARLAND_OPTIMUM == 4.0 * GARLAND_ARGMAX * (1.0 - GARLAND_ARGMAX)
    # the sqrt cusp at the argmax keeps float64 values about 1.2e-8 short of
    # the analytic supremum
    gap = GARLAND_OPTIMUM - GARLAND_FLOAT_MAX
    assert gap == pytest.approx(1.2035640817309456e-08, abs=1e-22)
    # the best double need not be fl(pi/6) itself: near the cusp one ulp of
    # argument moves the value by ~sqrt(60 ulp)/4 ~ 2e-8
    v = garland(GARLAND_ARGMAX)
    assert GARLAND_OPTIMUM - 3e-8 <= v <= GARLAND_FLOAT_MAX
    # no float argument in a fine neighbourhood beats the recorded maximum
    for dx in np.linspace(-1e-7, 1e-7, 2001):
        assert garland(GARLAND_ARGMAX + float(dx)) <= GARLAND_FLOAT_MAX


def test_garland_second_peak_gap():
    # runner-up envelope peak (next sine zero at x = 9pi/60); its
    # neighbourhood stays a clear margin below the optimum
    runner_up = max(garland(float(x))
                    for x in np.linspace(3 * math.pi / 20 - 1e-3,
                                         3 * math.pi / 20 + 1e-3, 20001))
    assert 1e-3 < GARLAND_OPTIMUM - runner_up < 1.2e-3


# ---------------------------------------------------------------------------
# wrapped sine
# ---------------------------------------------------------------------------

def test_wrapped_sine_endpoints_and_midpoint():
    assert wrapped_sine(0.0) == -1.0
    assert wrapped_sine(1.0) == -1.0
    assert wrapped_sine(0.5) == 0.0  # defined as the supremum
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        wrapped_sine(-0.1)


def test_wrapped_sine_matches_formula():
    a, b = -math.log(0.8), -math.log(0.3)
    rng = np.random.default_rng(11)
    for x in rng.uniform(0.0, 1.0, 500):
        x = float(x)
        u = 2.0 * abs(x - 0.5)
        if u == 0.0:
            continue
        expected = (0.5 * (math.sin(math.pi * math.log2(u)) + 1.0)
                    * (u ** a - u ** b) - u ** a)
        assert wrapped_sine(x) == expected
        assert wrapped_sine(x) < 0.0


def test_wrapped_sine_symmetry():
    rng = np.random.default_rng(13)
    for x in rng.uniform(0.0, 0.5, 300):
        assert wrapped_sine(float(x)) == pytest.approx(wrapped_sine(float(1.0 - x)),
                                                       abs=1e-9)


# ---------------------------------------------------------------------------
# Objective wrapper
# ---------------------------------------------------------------------------

def test_objective_eval_checks_domain():
    obj = garland_objective()
    assert obj.eval(0.25) == garland(0.25)        # scalars are promoted
    assert obj.eval((0.25,)) == garland(0.25)
    assert obj((0.25,)) == obj.eval((0.25,))
    with pytest.raises(ValueError, match="outside domain of garland"):
        obj.eval((1.25,))
    assert obj.optimum_value == GARLAND_OPTIMUM


def _probe(domain):
    """Objective on `domain` whose fn records the point it is handed."""
    seen = []
    return Objective("probe", domain, lambda p: seen.append(p) or 0.0), seen


def test_objective_eval_rejects_nan_and_wrong_length():
    obj = garland_objective()
    for bad in (math.nan, (math.nan,), (0.5, 0.5), (), [0.25, 0.75],
                np.array([0.5, 0.5]), -1e-300, 1.0 + 2 ** -52):
        with pytest.raises(ValueError, match="outside domain of garland"):
            obj.eval(bad)
    plane, seen = _probe(Box([0.0, -1.0], [1.0, 1.0]))
    for bad in ((0.5,), (0.5, math.nan), (math.nan, 0.0), (0.5, 0.0, 0.0)):
        with pytest.raises(ValueError, match=r"outside domain of probe"):
            plane.eval(bad)
    assert seen == []  # fn is never reached


def test_objective_eval_accepts_domain_edges():
    plane, seen = _probe(Box([0.0, -1.0], [1.0, 1.0]))
    corners = [(0.0, -1.0), (0.0, 1.0), (1.0, -1.0), (1.0, 1.0), (-0.0, 0.0)]
    for corner in corners:
        assert plane.eval(corner) == 0.0
    assert seen == corners
    assert garland_objective().eval(0.0) == 0.0
    assert garland_objective().eval((1.0,)) == 0.0


def test_objective_eval_converts_points_to_float_tuples():
    line, seen = _probe(Box([0.0], [1.0]))
    inputs = [0, 1, True, False, np.float64(0.25), np.array([0.25]),
              [1], (np.float32(0.5),), (0.75,)]
    for x in inputs:
        line.eval(x)
    assert seen == [(0.0,), (1.0,), (1.0,), (0.0,), (0.25,), (0.25,), (1.0,),
                    (0.5,), (0.75,)]
    assert all(type(p) is tuple and type(p[0]) is float for p in seen)
    plane, seen = _probe(Box([0.0, 0.0], [1.0, 1.0]))
    plane.eval(np.array([1, 0]))
    plane.eval([True, 0.5])
    assert seen == [(1.0, 0.0), (1.0, 0.5)]
    assert all(type(v) is float for p in seen for v in p)


def test_objective_eval_accepts_numpy_scalars():
    # numpy registers its scalar types as numbers.Real; np.float64 is also
    # a float, but np.float32 and the integer types are not
    garland_obj = garland_objective()
    assert garland_obj.eval(np.float32(0.25)) == garland(float(np.float32(0.25)))
    assert garland_obj.eval(np.int64(0)) == 0.0
    assert garland_obj.eval(np.uint8(1)) == 0.0
    line, seen = _probe(Box([0.0], [1.0]))
    for x in (np.float32(0.5), np.float16(0.25), np.int32(1), np.float64(0.75)):
        line.eval(x)
    assert seen == [(0.5,), (0.25,), (1.0,), (0.75,)]
    assert all(type(p) is tuple and type(p[0]) is float for p in seen)


def test_observe_sum_accepts_numpy_scalars():
    obj, calls = counting_objective(lambda p: garland(abs(p[0])))
    stream = EvaluationStream(obj)
    assert stream.observe_sum(np.float32(0.5), 2) == 2 * garland(0.5)
    assert stream.observe_sum(np.int64(1), 1) == garland(1.0)
    assert calls == [(0.5,), (1.0,)]
    assert stream.n_evals == 3


def test_objective_registry():
    assert get_objective("garland").name == "garland"
    assert get_objective("wrapped-sine").name == "wrapped-sine"
    with pytest.raises(ValueError, match="unknown objective 'peaks3'"):
        get_objective("peaks3")
    assert get_objective("wrapped-sine").optimum_value == 0.0


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def test_noise_zero_b_is_exact_and_skips_rng():
    nm = NoiseModel(0.0, seed=5)
    assert np.all(nm.offsets(10) == 0.0)
    # the zero-noise path holds no generator, so it has no stream to consume
    assert nm._rng is None


def test_noise_uniform_bounds_and_mean():
    b = 0.7
    nm = NoiseModel(b, seed=42)
    draws = nm.offsets(200_000)
    assert np.all(np.abs(draws) <= b)
    # uniform on [-b, b]: sd of the mean is b / sqrt(3 N)
    assert abs(draws.mean()) < 5 * b / math.sqrt(3 * draws.size)
    assert draws.std() == pytest.approx(b / math.sqrt(3), rel=0.02)


def test_noise_validation_and_reset():
    with pytest.raises(ValueError, match="range_b must be >= 0"):
        NoiseModel(-0.1)
    first = NoiseModel(0.3, seed=21).offsets(8)
    assert np.array_equal(NoiseModel(0.3, seed=21).offsets(8), first)
    assert not np.array_equal(NoiseModel(0.3, seed=22).offsets(8), first)


@pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
def test_noise_rejects_a_non_finite_width(b):
    # NaN passed the old b < 0 check and drew only NaN, as did inf
    with pytest.raises(ValueError, match="range_b must be >= 0 and finite"):
        NoiseModel(b)


class _PerCallNoise:
    """Reference: NoiseModel's draws made one numpy call per offsets()."""

    def __init__(self, range_b, seed):
        self.range_b = range_b
        self._rng = np.random.default_rng(seed)

    def offsets(self, count):
        b = self.range_b
        if b == 0.0:
            return np.zeros(count)
        return self._rng.uniform(-b, b, count)


def _bitwise_equal(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


# counts on both sides of the 4096-draw block, in an order that crosses
# block edges at many offsets
_BLOCK_COUNTS = [1, 2, 7, 8, 9, 4095, 4096, 4097, 9000]
_COUNT_SEQUENCE = _BLOCK_COUNTS + [9, 4097, 1, 4095, 2, 9000, 8, 4096, 7] + [1] * 50


def test_noise_block_equals_per_call_draws():
    nm = NoiseModel(0.4, seed=17)
    ref = _PerCallNoise(0.4, 17)
    for k in _COUNT_SEQUENCE:
        assert _bitwise_equal(nm.offsets(k), ref.offsets(k)), k


def test_observe_sum_equals_per_call_sum():
    obj = garland_objective()
    nm = NoiseModel(0.1, seed=23)
    stream = EvaluationStream(obj, nm)
    ref = _PerCallNoise(0.1, 23)
    points = [0.0, 0.3, GARLAND_ARGMAX, 1.0]
    for step, k in enumerate(_COUNT_SEQUENCE):
        p = points[step % len(points)]
        got = stream.observe_sum(p, k)
        want = k * obj.eval(p) + float(ref.offsets(k).sum())
        assert got == want, (step, k)
        assert math.copysign(1.0, got) == math.copysign(1.0, want), (step, k)
    assert stream.n_evals == sum(_COUNT_SEQUENCE)


def test_noise_rejects_negative_count_and_width():
    # a negative count would move the block's read position backwards
    nm = NoiseModel(0.5, seed=1)
    with pytest.raises(ValueError, match="count must be >= 0"):
        nm.offsets(-1)
    with pytest.raises(ValueError, match="range_b must be >= 0"):
        NoiseModel(-0.5, seed=1)
    want = _PerCallNoise(0.5, 1).offsets(3)
    assert _bitwise_equal(nm.offsets(3), want)


def test_noise_range_is_fixed():
    nm = NoiseModel(0.5, seed=1)
    assert nm.range_b == 0.5
    with pytest.raises(AttributeError):
        nm.range_b = 1.0
    assert nm.range_b == 0.5


def test_observe_reproducible():
    obj = garland_objective()
    stream = EvaluationStream(obj, NoiseModel(0.2, seed=3))
    ys = [stream.observe_sum(0.3, 1) for _ in range(5)]
    stream = EvaluationStream(obj, NoiseModel(0.2, seed=3))
    assert ys == [stream.observe_sum(0.3, 1) for _ in range(5)]
    assert all(abs(y - garland(0.3)) <= 0.2 for y in ys)
    assert EvaluationStream(obj, None).observe_sum(0.3, 1) == garland(0.3)
    assert EvaluationStream(obj, NoiseModel(0.0)).observe_sum(0.3, 1) == garland(0.3)


def counting_objective(fn):
    """An objective on [-1, 1] whose fn records every call."""
    calls = []

    def counted(p):
        calls.append(p)
        return fn(p)

    return Objective("counted", Box([-1.0], [1.0]), counted), calls


def test_observe_sum_reuses_the_value_of_the_same_point_object():
    obj, calls = counting_objective(lambda p: garland(abs(p[0])))
    stream = EvaluationStream(obj)
    p = (0.3,)
    assert stream.observe_sum(p, 1) == garland(0.3)
    assert stream.observe_sum(p, 5) == 5 * garland(0.3)
    assert stream.observe_sum(p, 2) == 2 * garland(0.3)
    assert len(calls) == 1
    assert stream.n_evals == 8


def test_observe_sum_matches_points_by_identity():
    obj, calls = counting_objective(lambda p: math.copysign(1.0, p[0]))
    stream = EvaluationStream(obj)
    p = (0.3,)
    stream.observe_sum(p, 1)
    stream.observe_sum(tuple([0.3]), 1)  # equal, but another object
    assert len(calls) == 2
    # (0.0,) == (-0.0,), yet the two must not share a value
    assert stream.observe_sum((-0.0,), 1) == -1.0
    assert stream.observe_sum((0.0,), 1) == 1.0
    assert len(calls) == 4
    # a point that is not a tuple is converted afresh on every call
    x = [0.3]
    stream.observe_sum(x, 1)
    stream.observe_sum(x, 1)
    assert len(calls) == 6
    assert stream.n_evals == 6


def test_observe_sum_with_reused_values_equals_per_call_sum():
    obj, calls = counting_objective(lambda p: garland(abs(p[0])))
    nm = NoiseModel(0.1, seed=29)
    stream = EvaluationStream(obj, nm)
    ref = _PerCallNoise(0.1, 29)
    points = [(0.3,), (GARLAND_ARGMAX,), (-0.0,), (0.0,)]
    # runs of the same object, as the children of a cell with no width left
    order = [0, 0, 0, 1, 1, 2, 3, 3, 0, 2, 2]
    for step, k in enumerate(_COUNT_SEQUENCE):
        p = points[order[step % len(order)]]
        got = stream.observe_sum(p, k)
        want = k * obj.eval(p) + float(ref.offsets(k).sum())
        assert got.hex() == want.hex(), (step, k)
    assert stream.n_evals == sum(_COUNT_SEQUENCE)
    repeats = sum(order[i % len(order)] == order[(i - 1) % len(order)]
                  for i in range(1, len(_COUNT_SEQUENCE)))
    # obj.eval adds one call per step; the stream skips every repeat
    assert len(calls) == 2 * len(_COUNT_SEQUENCE) - repeats


def test_observe_sum_charges_no_rejected_count():
    # a count the noise model rejects used to be added to n_evals before
    # the draw raised
    stream = EvaluationStream(garland_objective(), NoiseModel(0.1, seed=3))
    twin = EvaluationStream(garland_objective(), NoiseModel(0.1, seed=3))
    for count in (2.5, -1, True):
        with pytest.raises(ValueError, match="count must be"):
            stream.observe_sum((0.5,), count)
        assert stream.n_evals == 0
    assert stream.observe_sum((0.5,), 3) == twin.observe_sum((0.5,), 3)
    assert stream.n_evals == 3


def test_noiseless_observe_sum_charges_no_rejected_count():
    # the noiseless path used to charge any count: 2.5, then -3, then True
    # left n_evals at 2.5, -0.5 and 0.5
    stream = EvaluationStream(garland_objective())
    for count in (2.5, -3, True, 2.0):
        with pytest.raises(ValueError, match="count must be"):
            stream.observe_sum((0.5,), count)
        assert stream.n_evals == 0
    assert stream.observe_sum((0.5,), np.int64(3)) == 3 * garland(0.5)
    assert stream.observe_sum((0.5,), 0) == 0.0
    assert stream.n_evals == 3 and type(stream.n_evals) is int


def test_evaluation_stream_counts_and_batches():
    obj = garland_objective()
    stream = EvaluationStream(obj)  # noiseless
    v = stream.observe_sum((0.3,), 1)
    assert v == garland(0.3)
    assert stream.n_evals == 1
    total = stream.observe_sum((0.3,), 7)
    assert total == 7 * garland(0.3)  # single-multiply fast path
    assert stream.n_evals == 8

    noisy = EvaluationStream(obj, NoiseModel(0.1, seed=1))
    ref = NoiseModel(0.1, seed=1)
    total = noisy.observe_sum((0.3,), 4)
    assert total == pytest.approx(4 * garland(0.3) + ref.offsets(4).sum(), abs=1e-12)
    assert noisy.n_evals == 4
