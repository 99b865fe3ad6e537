"""Benchmark objectives on [0, 1], a generic objective wrapper, and the
bounded zero-mean noise model used for stochastic feedback."""

from __future__ import annotations

import math
import numbers
import sys

from .partition import Box, checked_integer, checked_range

# ---------------------------------------------------------------------------
# garland
# ---------------------------------------------------------------------------

# The garland curve G(x) = 4x(1-x)(3/4 + (1/4)(1 - sqrt|sin 60x|)) attains its
# supremum where the sine factor vanishes with the largest envelope 4x(1-x):
# at x* = pi/6 (60x = 10*pi), giving G = 4*(pi/6)*(1 - pi/6).
GARLAND_ARGMAX = math.pi / 6  # 0.5235987755982988
GARLAND_OPTIMUM = 4.0 * GARLAND_ARGMAX * (1.0 - GARLAND_ARGMAX)  # 0.9977723911610445

# x* sits on a square-root cusp, so float64 arguments cannot get closer than
# ~1.2e-8 to the supremum: the best value of the formula over representable
# doubles (ulp scan around fl(pi/6)) is the constant below.  Simple regret
# measured against GARLAND_OPTIMUM therefore floors at
# GARLAND_OPTIMUM - GARLAND_FLOAT_MAX = 1.2035640817309456e-08.
GARLAND_FLOAT_MAX = 0.9977723791254037


def garland(x):
    """Garland benchmark: many local maxima, global maximum at x = pi/6.

    G(x) = 4x(1-x)(3/4 + (1/4)(1 - sqrt(|sin(60x)|))), angles in radians.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x!r} outside [0, 1]")
    return 4.0 * x * (1.0 - x) * (0.75 + 0.25 * (1.0 - math.sqrt(abs(math.sin(60.0 * x)))))


# ---------------------------------------------------------------------------
# wrapped sine
# ---------------------------------------------------------------------------

_WS_SLOW = -math.log(0.8)  # 0.2231...; exponents use natural logs
_WS_FAST = -math.log(0.3)  # 1.2039...


def wrapped_sine(x):
    """Wrapped-sine benchmark with supremum 0 at the midpoint.

    With u = 2|x - 1/2|:
        S(x) = (sin(pi*log2(u)) + 1)/2 * (u^a - u^b) - u^a,
    a = -ln 0.8, b = -ln 0.3.  The value oscillates at every scale as
    u -> 0 and only approaches 0; S(1/2) is defined as the supremum 0 so
    regret stays well-defined if a representative lands exactly on 1/2
    (which the root center, and every K=3 middle-child center, does).
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x!r} outside [0, 1]")
    u = 2.0 * abs(x - 0.5)
    if u == 0.0:
        return 0.0
    ua = u ** _WS_SLOW
    return 0.5 * (math.sin(math.pi * math.log2(u)) + 1.0) * (ua - u ** _WS_FAST) - ua


# ---------------------------------------------------------------------------
# generic objective + noise
# ---------------------------------------------------------------------------

def _as_point(x):
    # numbers.Real covers numpy's scalars (np.float32, np.int64, ...) too
    if isinstance(x, numbers.Real):
        return (float(x),)
    return tuple(map(float, x))


class Objective:
    """A deterministic scalar field on a box domain.

    fn maps a point (tuple of floats) to a real value; the optimizers,
    eval and theory.count_near_optimal all evaluate one point at a time
    through it.  optimum_value, when known, is the supremum used for regret
    scoring -- it need not be attained at any representable argument (see
    GARLAND_OPTIMUM).
    """

    def __init__(self, name, domain, fn, optimum_value=None, optimum_note=""):
        self.name = name
        self.domain = domain
        self.fn = fn
        self.optimum_value = optimum_value
        self.optimum_note = optimum_note

    def eval(self, point):
        point = _as_point(point)
        if not self.domain.contains(point):
            raise ValueError(f"point {point!r} outside domain of {self.name}")
        return float(self.fn(point))

    __call__ = eval

    def __repr__(self):
        return f"Objective({self.name!r})"


_NOISE_BLOCK = 4096  # draws taken from the generator at a time
np = None  # numpy, imported by the first NoiseModel that draws (b > 0)


def checked_noise_range(value, name) -> float:
    """checked_range(value, name) of a noise range b whose width 2b is
    finite, as numpy's uniform(-b, b) requires: b <= DBL_MAX/2."""
    b = checked_range(value, name)
    if b > sys.float_info.max / 2:
        raise ValueError(f"{name} must be <= DBL_MAX/2, so that its width 2b "
                         f"is finite: {value!r}")
    return b


class NoiseModel:
    """Bounded zero-mean observation noise: y = f(x) + eps with eps uniform
    on [-b, b], b being range_b, a real number >= 0 whose width 2b is
    finite (checked_noise_range), fixed at construction and read-only.
    Each instance owns a private stream, seeded by the integer seed >= 0;
    use one instance per run.

    Draws are read from a block drawn ahead (rng.random, 4096 at a time)
    and scaled as each block is drawn, with the operations numpy's
    uniform(-b, b) applies, so every offsets() call returns the same
    values, bit for bit, as drawing it on its own would.  Only a model with
    b > 0 imports numpy and builds a generator and a block: with b = 0,
    `_rng` is None, and only offsets() (an array of zeros) imports numpy.
    A count that is not an integer >= 0 raises ValueError and draws nothing.

    total(count) is float(offsets(count).sum()) bit for bit.  For an int
    count below 8 it adds the draws from a memoryview of the block one at a
    time, starting from 0.0, which is the order numpy's pairwise sum uses
    below 8 values; that skips the numpy calls a short sum would cost.
    """

    def __init__(self, range_b, seed=0):
        self._range_b = checked_noise_range(range_b, "range_b")
        self.seed = checked_integer(seed, "seed", 0)
        self._rng, self._view, self._pos = None, memoryview(b""), 0
        if self._range_b > 0.0:
            global np
            import numpy as np
            self._rng = np.random.default_rng(self.seed)
            self._block = np.empty(0)  # scaled draws; before _pos are spent
            self._view = memoryview(self._block)  # the block, read as floats

    @property
    def range_b(self):
        return self._range_b

    def offsets(self, count):
        """Array of the next `count` noise draws."""
        count = checked_integer(count, "count", 0)
        b = self._range_b
        if b == 0.0:
            import numpy  # a b = 0 model holds no numpy state
            return numpy.zeros(count)
        pos = self._pos
        if pos + count > len(self._block):
            # keep the unread tail and draw whole blocks after it
            need = count - (len(self._block) - pos)
            size = -(-need // _NOISE_BLOCK) * _NOISE_BLOCK
            fresh = -b + (b - -b) * self._rng.random(size)
            self._block = np.concatenate((self._block[pos:], fresh))
            self._view = memoryview(self._block)
            pos = 0
        self._pos = pos + count
        return self._block[pos:pos + count]

    def total(self, count):
        """Sum of the next `count` noise draws: float(offsets(count).sum())."""
        pos = self._pos
        view = self._view
        if type(count) is int and 0 <= count < 8 and pos + count <= len(view):
            end = self._pos = pos + count
            if count == 1:  # the loop's value, without making a slice
                return 0.0 + view[pos]
            s = 0.0
            for x in view[pos:end]:
                s += x
            return s
        return float(self.offsets(count).sum())


class EvaluationStream:
    """Binds an objective to a noise stream and counts charged observations.

    observe_sum(point, count) returns the sum of `count` observations at
    `point`, each counted in n_evals, and calls fn once.  Whether it adds
    noise is settled once, at construction: with no noise model or b = 0
    the RNG is never consumed and the sum is count * f(point), one
    multiply.  Otherwise every call adds count * f(point) and
    NoiseModel.total(count), the sum of the next `count` draws, which equals
    summing offsets(count) bit for bit.  The optimizers compute the same two
    expressions in optimizers._Run without a stream.  On either path a
    count that is not an integer >= 0 raises ValueError and is not charged.

    observe_sum calls the objective's fn unchecked: it is meant for the
    partition's points, which lie in the domain by construction (see
    partition.split_cell).  A point that is not a tuple -- a sequence of
    numbers or, in 1-D, a real scalar, numpy's included -- is still
    converted to a tuple of floats.  Objective.eval stays checked for other
    callers.
    """

    def __init__(self, objective: Objective, noise: NoiseModel | None = None):
        self._noise = None if noise is None or noise.range_b == 0.0 else noise
        self.n_evals = 0
        self._fn = objective.fn

    def observe_sum(self, point, count):
        if type(point) is not tuple:
            point = _as_point(point)
        v = float(self._fn(point))
        if self._noise is None:
            if type(count) is not int or count < 0:
                count = checked_integer(count, "count", 0)
            self.n_evals += count
            return count * v
        # total raises on a count that is not an integer >= 0, so such a
        # count is never charged
        noise = self._noise.total(count)
        self.n_evals += count
        return count * v + noise


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def garland_objective() -> Objective:
    return Objective(
        "garland",
        Box([0.0], [1.0]),
        lambda p: garland(p[0]),
        optimum_value=GARLAND_OPTIMUM,
        optimum_note=("analytic supremum at the sine-zero cusp x=pi/6; the best "
                      "float64 argument evaluates 1.2035640817309456e-08 lower, "
                      "which is the regret floor"),
    )


def wrapped_sine_objective() -> Objective:
    return Objective(
        "wrapped-sine",
        Box([0.0], [1.0]),
        lambda p: wrapped_sine(p[0]),
        optimum_value=0.0,
        optimum_note="supremum 0, attained by the S(1/2)=0 midpoint convention",
    )


_REGISTRY = {
    "garland": garland_objective,
    "wrapped-sine": wrapped_sine_objective,
}


def get_objective(name: str) -> Objective:
    """Objective by CLI name ("garland", "wrapped-sine")."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown objective {name!r} (known: {known})") from None
    return factory()
