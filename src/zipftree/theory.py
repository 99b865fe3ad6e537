"""Closed-form machinery: harmonic numbers, Lambert W, simple-regret bound
calculators for the two optimizers, and an empirical near-optimality
profiler.

Conventions shared by the bound calculators: nu, rho describe how fast the
objective can drop inside cells containing an optimum (f >= f* - nu*rho^h at
depth h); C >= 1 and d >= 0 bound the number of near-optimal depth-h cells by
C*rho^(-d*h); b is the noise half-width and delta the failure probability.
Every Lambert W that depends on b takes the log of its argument, so no b > 0
makes it underflow or overflow.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .partition import (checked_delta, checked_integer, checked_range,
                        is_finite, is_real, split_cell)

# ---------------------------------------------------------------------------
# harmonic numbers
# ---------------------------------------------------------------------------

_EXACT_MAX = 2 ** 26   # largest n summed term by term
_EULER_GAMMA = "0.57721566490153286060651209008240243104215933593992"


@functools.lru_cache(maxsize=64, typed=True)
def harmonic(n):
    """Partial harmonic sum H(n) = 1 + 1/2 + ... + 1/n, exact up to 2^26.

    For n <= 2^26 this is the correctly rounded sum of the float64 terms
    1/k: math.fsum of the terms, drawn one at a time, in O(1) memory.

    For n > 2^26, where that sum would take seconds, it is the correctly
    rounded true H(n), from the Euler-Maclaurin series ln n + gamma +
    1/(2n) - 1/(12n^2) + 1/(120n^4) - 1/(252n^6) evaluated to 40 digits;
    that can differ from the sum of the rounded terms by 1 ulp; decimal is
    imported only there.  n is an integer >= 1; the last 64 answers are
    cached per argument type, so 2.0 and True are checked too.
    """
    n = checked_integer(n, "n", 1)
    if n > _EXACT_MAX:
        import decimal
        with decimal.localcontext(decimal.Context(prec=40)):
            x = decimal.Decimal(n)
            y = 1 / (x * x)
            h = (x.ln() + decimal.Decimal(_EULER_GAMMA) + 1 / (2 * x)
                 - y / 12 + y * y / 120 - y * y * y / 252)
        return float(h)
    # each term is 1.0 / float(k), the same bits as 1.0 / k
    return math.fsum(map(operator.truediv, itertools.repeat(1.0),
                         range(1, n + 1)))


def stroquool_h_max(n):
    """StroquOOL's depth budget floor(n / (2 (H(n)+1)^2)), clamped to >= 1.

    n is an integer >= 1.  The unclamped formula is 0 for n < 68; clamping
    keeps small budgets runnable (the ledger stays far below n there).
    """
    n = checked_integer(n, "n", 1)
    return max(1, int(n // (2.0 * (harmonic(n) + 1.0) ** 2)))


# ---------------------------------------------------------------------------
# Lambert W (standard branch, x >= 0)
# ---------------------------------------------------------------------------

def _w_exp(y):
    """W(e^y) for any real y: Newton steps in u = log W on u + e^u = y.

    u + e^u is increasing and convex, so Newton converges from any seed;
    log(y - log y) (W(x) >= log(x / log x) for x >= e) and y (W(x) <= x)
    start it close.  The result inherits the rounding of y, about 6e-14
    relative at y ~ -690, and nothing underflows or overflows.
    """
    u = math.log(y - math.log(y)) if y > 1.0 else y
    for _ in range(50):
        eu = math.exp(u)
        step = (u + eu - y) / (1.0 + eu)
        u -= step
        if abs(step) <= 1e-15 * max(1.0, abs(u)):
            break
    return math.exp(u)


def lambert_w(x):
    """Standard-branch Lambert W: the w >= 0 with w * exp(w) = x, for x a
    real number that is finite and >= 0; anything else raises ValueError.

    The round trip |W(x) e^{W(x)} - x| stays within 1e-10 * max(1, x).
    """
    x = checked_range(x, "x")
    return 0.0 if x == 0.0 else _w_exp(math.log(x))


# ---------------------------------------------------------------------------
# parameter bundles
# ---------------------------------------------------------------------------

def check_nu_rho(nu, rho):
    """Raise ValueError unless nu > 0 and 0 < rho < 1, both finite reals."""
    if not (is_finite(nu) and nu > 0):
        raise ValueError("nu must be > 0 and finite")
    if not (is_real(rho) and 0.0 < rho < 1.0):
        raise ValueError("rho must be in (0, 1)")


@dataclass(frozen=True)
class SmoothnessParams:
    """What the regret bounds assume of the objective: nu > 0 and rho in
    (0, 1) (check_nu_rho), C >= 1 and d >= 0, each a finite real number
    other than a bool; anything else raises ValueError.  Frozen, so a
    checked field cannot be reassigned."""

    nu: float
    rho: float
    C: float
    d: float = 0.0

    def __post_init__(self):
        check_nu_rho(self.nu, self.rho)
        if not (is_finite(self.C) and self.C >= 1.0):
            raise ValueError("C must be >= 1 and finite")
        checked_range(self.d, "d")


@dataclass(frozen=True)
class BoundInputs:
    """What the StroquOOL bounds take: the budget n, an integer >= 1; the
    noise range b, finite and >= 0; the confidence level delta in (0, 1).
    Frozen, so a checked field cannot be reassigned."""

    n: int
    b: float = 0.0
    delta: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "n", checked_integer(self.n, "n", 1))
        object.__setattr__(self, "b", checked_range(self.b, "b"))
        object.__setattr__(self, "delta", checked_delta(self.delta))


# ---------------------------------------------------------------------------
# SequOOL bound (deterministic feedback)
# ---------------------------------------------------------------------------

def _log_product(*factors):
    """log of the positive factors' product, finite where the product is not."""
    return sum(map(math.log, factors))


def _decay(h, nu, rho, C, d):
    """The rate both regret bounds share, at depth budget h:
    nu rho^(h / C) if d = 0, else nu exp(-W(h d log(1/rho) / C) / d).
    Where W's argument overflows (a huge d), W is taken at the sum of its
    factors' logs."""
    if d == 0.0:
        return nu * rho ** (h / C)
    x = h * d * math.log(1.0 / rho) / C
    w = (lambert_w(x) if x < math.inf
         else _w_exp(_log_product(h, d, math.log(1.0 / rho), 1.0 / C)))
    return nu * math.exp(-w / d)


def sequool_bound(n, params: SmoothnessParams):
    """Worst-case simple regret of SequOOL after n openings, n an integer >= 1.

    Returns {"theorem", "h_max"}: the depth budget h_max = floor(n / H(n))
    and the bound at it, theorem = nu rho^(h_max / C) if d = 0, else
    nu exp(-W(h_max d log(1/rho) / C) / d).
    """
    n = checked_integer(n, "n", 1)
    h_max = int(n // harmonic(n))
    return {"theorem": _decay(h_max, params.nu, params.rho, params.C, params.d),
            "h_max": h_max}


# ---------------------------------------------------------------------------
# StroquOOL bounds (noisy feedback, two regimes)
# ---------------------------------------------------------------------------

def _log_n_bar(h, nu, rho, C, d, b, L):
    """log of n_bar = h (d+2) log(1/rho) nu^2 / (4 C b^2 L), formed from
    logs: b^2 underflows below b ~ 1e-162, and n_bar overflows before that.
    x = h (d+2) log(1/rho) / (4 C L) is logged whole unless it is 0 or not
    finite (4 C L overflows for a huge C, and so can the numerator); then
    its log is taken from its factors' logs."""
    x = h * (d + 2.0) * math.log(1.0 / rho) / (4.0 * C * L)
    log_x = (math.log(x) if 0.0 < x < math.inf
             else _log_product(h, d + 2.0, math.log(1.0 / rho))
             - _log_product(4.0, C, L))
    return log_x + 2.0 * (math.log(nu) - math.log(b))


def stroquool_bounds(inputs: BoundInputs, params: SmoothnessParams):
    """Simple-regret bound for StroquOOL, with noise-regime classification.

    The crossover depth h_tilde solves
        (h_max nu^2 rho^(2h)) / (4 h b^2 L) = C rho^(-d h),
    with the algorithm's own (harmonic) depth budget h_max and
    L = log(2 n^2 / delta).  The regime is "high" when
    b >= nu rho^(h_tilde) / sqrt(L), else "low"; b = 0 forces "low"
    (h_tilde = inf).  The returned bound follows the matching display with
    M = floor(n / (2 (log2 n + 1)^2)):

      high: nu * rho^( W(M (d+2) log(1/rho) nu^2 / (4 C b^2 L))
                       / ((d+2) log(1/rho)) ) + 2 b sqrt(L / M)
      low:  three times sequool_bound's theorem at depth budget M / 4 in
            place of h_max, so 3 nu rho^(M / (4C)) when d = 0

    Returns {"regime", "bound", "h_tilde", "M", "L"}.
    """
    n, b, delta = inputs.n, inputs.b, inputs.delta
    nu, rho, C, d = params.nu, params.rho, params.C, params.d
    L = math.log(2.0 * n * n / delta)
    M = int(n // (2.0 * (math.log2(n) + 1.0) ** 2))

    if b == 0.0:
        regime, h_tilde = "low", math.inf
    else:
        # in logs the crossover is A - log h - a h = 0 with a = (d+2) log(1/rho)
        # and A = log(h_max nu^2 / (4 C b^2 L)); the left side is strictly
        # decreasing, so the root is unique.  It is h = W(a e^A) / a, and
        # a e^A is n_bar at h = h_max, so W is taken at log n_bar
        h_tilde = (_w_exp(_log_n_bar(stroquool_h_max(n), nu, rho, C, d, b, L))
                   / ((d + 2.0) * math.log(1.0 / rho)))
        # b >= nu rho^h_tilde / sqrt(L) in logs, as rho^h_tilde can underflow
        log_threshold = math.log(nu) + h_tilde * math.log(rho) - 0.5 * math.log(L)
        regime = "high" if math.log(b) >= log_threshold else "low"

    if regime == "high":
        if M < 1:
            raise ValueError(f"n={n} too small for the high-noise bound: "
                             f"floor(n / (2 (log2 n + 1)^2)) = 0")
        bound = (nu * math.exp(-_w_exp(_log_n_bar(M, nu, rho, C, d, b, L)) / (d + 2.0))
                 + 2.0 * b * math.sqrt(L / M))
    else:
        # dividing M by 4 is exact, so this is 3 nu rho^(M / (4C)) bit for bit
        bound = _decay(M / 4.0, 3.0 * nu, rho, C, d)
    return {"regime": regime, "bound": bound, "h_tilde": h_tilde, "M": M, "L": L}


# ---------------------------------------------------------------------------
# near-optimality profile
# ---------------------------------------------------------------------------

def count_near_optimal(obj, branching, h, epsilon, points_per_axis=100):
    """Number of depth-h cells whose supremum reaches optimum - epsilon.

    The cells are the optimizers' own, bit for bit: partition.split_cell
    splits the domain's root level by level, and the depth-h cells come in
    index order.  A cell's sup is estimated with the scalar obj.fn on the
    product of per-axis grids of p = points_per_axis points lo + k*w/(p - 1),
    the last one hi, so each grid holds both bounds exactly.  The estimate
    lower-bounds the sup (a NaN never counts), so the count can only
    undercount -- a diagnostic profile, not a certificate.

    branching (K >= 2), h >= 0 and points_per_axis >= 2 are integers,
    epsilon is finite and >= 0, K^h <= 1e6 and obj.optimum_value is known
    and finite; anything else raises ValueError.
    """
    K = checked_integer(branching, "branching", 2)
    h = checked_integer(h, "h", 0)
    points_per_axis = checked_integer(points_per_axis, "points_per_axis", 2)
    epsilon = checked_range(epsilon, "epsilon")
    # every K >= 2 passes the cap by h = 20, so no huge K^h is built
    if h >= 20 or K ** h > 10 ** 6:
        raise ValueError(f"K^h = {K}^{h} exceeds the 1e6 cell cap")
    if obj.optimum_value is None or not math.isfinite(obj.optimum_value):
        raise ValueError(f"objective {obj.name!r} has no optimum_value or a "
                         f"non-finite one: {obj.optimum_value!r}")

    dom = obj.domain
    cells = [(dom.lower, dom.upper, dom.center)]
    for depth in range(h):
        # lazy: the cells are split depth first and never all held at once
        cells = itertools.chain.from_iterable(
            map(split_cell, cells, itertools.repeat(depth), itertools.repeat(K)))
    fn = obj.fn
    threshold = obj.optimum_value - epsilon
    last = points_per_axis - 1
    total = 0
    for lower, upper, _ in cells:
        grids = ([lo + k * (hi - lo) / last for k in range(last)] + [hi]
                 for lo, hi in zip(lower, upper))
        for x in itertools.product(*grids):
            if threshold <= fn(x):
                total += 1
                break
    return total
