"""Benchmark objectives on [0, 1], a generic objective wrapper, and the
bounded zero-mean noise model used for stochastic feedback."""

from __future__ import annotations

import math

import numpy as np

from .partition import Box

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


def _garland_vec(x):
    return 4.0 * x * (1.0 - x) * (0.75 + 0.25 * (1.0 - np.sqrt(np.abs(np.sin(60.0 * x)))))


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


def _wrapped_sine_vec(x):
    u = 2.0 * np.abs(x - 0.5)
    # log2(0) -> -inf and 0 * inf -> nan at the midpoint, both masked below
    old = np.seterr(divide="ignore", invalid="ignore")
    try:
        ua = u ** _WS_SLOW
        s = 0.5 * (np.sin(np.pi * np.log2(u)) + 1.0) * (ua - u ** _WS_FAST) - ua
    finally:
        np.seterr(**old)
    return np.where(u == 0.0, 0.0, s)


# ---------------------------------------------------------------------------
# generic objective + noise
# ---------------------------------------------------------------------------

def _as_point(x):
    if isinstance(x, (int, float)):
        return (float(x),)
    return tuple(map(float, x))


class Objective:
    """A deterministic scalar field on a box domain.

    fn maps a point (tuple of floats) to a real value.  optimum_value, when
    known, is the supremum used for regret scoring -- it need not be attained
    at any representable argument (see GARLAND_OPTIMUM).  vector_fn, if
    given, evaluates a numpy array of 1-D points in one call.
    """

    def __init__(self, name, domain, fn, optimum_value=None, optimum_point=None,
                 vector_fn=None, optimum_note=""):
        self.name = name
        self.domain = domain
        self.fn = fn
        self.optimum_value = optimum_value
        self.optimum_point = optimum_point
        self.vector_fn = vector_fn
        self.optimum_note = optimum_note

    def eval(self, point):
        point = _as_point(point)
        if not self.domain.contains(point):
            raise ValueError(f"point {point!r} outside domain of {self.name}")
        return float(self.fn(point))

    __call__ = eval

    def eval_many(self, xs):
        """Vectorized evaluation for 1-D objectives (diagnostics only)."""
        xs = np.asarray(xs, dtype=float)
        if self.vector_fn is not None:
            return self.vector_fn(xs)
        return np.array([self.fn((float(v),)) for v in xs.ravel()]).reshape(xs.shape)

    def __repr__(self):
        return f"Objective({self.name!r})"


_NOISE_BLOCK = 4096  # draws taken from the generator at a time


class NoiseModel:
    """Bounded zero-mean observation noise: y = f(x) + eps with |eps| <= b.

    distribution is "uniform" (uniform on [-b, b]) or "truncated-gaussian"
    (N(0, (b/2)^2) with draws outside [-b, b] rejected and redrawn), b being
    range_b; both are fixed at construction.  Each instance owns a private
    seeded stream; use one instance per run.

    Draws are read from a block drawn ahead (rng.random or
    rng.standard_normal, 4096 at a time) and scaled as each block is drawn,
    with the operations numpy's uniform(-b, b) and normal(0, b/2) apply, so
    every offsets() call returns the same values, bit for bit, as drawing it
    on its own would.  With b = 0 the generator is never read.
    """

    def __init__(self, range_b, distribution="uniform", seed=0):
        if range_b < 0:
            raise ValueError("range_b must be >= 0")
        if distribution not in ("uniform", "truncated-gaussian"):
            raise ValueError(f"unknown noise distribution {distribution!r}")
        self._range_b = float(range_b)
        self._distribution = distribution
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._block = np.empty(0)  # scaled draws; those before _pos are spent
        self._pos = 0

    @property
    def range_b(self):
        return self._range_b

    @property
    def distribution(self):
        return self._distribution

    def _draws(self, count):
        """The next `count` draws."""
        pos = self._pos
        if pos + count > len(self._block):
            # keep the unread tail and draw whole blocks after it
            need = count - (len(self._block) - pos)
            size = -(-need // _NOISE_BLOCK) * _NOISE_BLOCK
            b = self._range_b
            if self._distribution == "uniform":
                fresh = -b + (b - -b) * self._rng.random(size)
            else:
                fresh = 0.0 + (0.5 * b) * self._rng.standard_normal(size)
            self._block = np.concatenate((self._block[pos:], fresh))
            pos = 0
        self._pos = pos + count
        return self._block[pos:pos + count]

    def offsets(self, count):
        """Array of `count` noise draws."""
        if count < 0:
            raise ValueError("count must be >= 0")
        b = self._range_b
        if b == 0.0:
            return np.zeros(count)
        out = self._draws(count)
        if self._distribution == "uniform":
            return out
        bad = np.abs(out) > b
        while bad.any():
            out[bad] = self._draws(int(bad.sum()))
            bad = np.abs(out) > b
        return out


_NO_POINT = object()  # matches no point: an EvaluationStream's empty memo


class EvaluationStream:
    """Binds an objective to a noise stream and counts charged observations.

    observe_sum(point, count) returns the sum of `count` observations at
    `point`, each counted in n_evals.  Whether it adds noise is settled
    once, at construction: with no noise model or b = 0 the RNG is never
    consumed and the sum is computed as count * f(point) in a single
    multiply -- the noiseless fast path that makes full budget sweeps cheap.
    Otherwise noise is drawn on every call.

    observe_sum calls the objective's fn unchecked: it is meant for the
    partition's points, which lie in the domain by construction (see
    partition.split_cell).  A point that is not a tuple is still converted
    to a tuple of floats.  Objective.eval stays checked for other callers.

    fn is taken to be pure, so observe_sum keeps the last point object it
    evaluated with its value and reuses the value when the same object comes
    again -- as it does for a cell split with no width left, whose children
    are the parent itself.  The match is on identity, not equality, so
    (0.0,) and (-0.0,) never share a value and a NaN point needs no care.
    """

    def __init__(self, objective: Objective, noise: NoiseModel | None = None):
        self.objective = objective
        self.noise = noise
        self._noise = None if noise is None or noise.range_b == 0.0 else noise
        self.n_evals = 0
        self._fn = objective.fn
        self._last_point, self._last_value = _NO_POINT, None

    def observe_sum(self, point, count):
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


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def garland_objective() -> Objective:
    return Objective(
        "garland",
        Box([0.0], [1.0]),
        lambda p: garland(p[0]),
        optimum_value=GARLAND_OPTIMUM,
        optimum_point=(GARLAND_ARGMAX,),
        vector_fn=_garland_vec,
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
        optimum_point=(0.5,),
        vector_fn=_wrapped_sine_vec,
        optimum_note="supremum 0, attained by the S(1/2)=0 midpoint convention",
    )


_REGISTRY = {
    "garland": garland_objective,
    "wrapped-sine": wrapped_sine_objective,
    "wrapped_sine": wrapped_sine_objective,
}


def get_objective(name: str) -> Objective:
    """Objective by CLI name ("garland", "wrapped-sine")."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(set(_REGISTRY) - {"wrapped_sine"}))
        raise ValueError(f"unknown objective {name!r} (known: {known})") from None
    return factory()
