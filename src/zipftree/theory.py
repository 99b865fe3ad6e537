"""Closed-form machinery: harmonic numbers, Lambert W, simple-regret bound
calculators for the two optimizers, union-bound confidence radii, and an
empirical near-optimality profiler.

Conventions shared by the bound calculators: nu, rho describe how fast the
objective can drop inside cells containing an optimum (f >= f* - nu*rho^h at
depth h); C > 1 and d >= 0 bound the number of near-optimal depth-h cells by
C*rho^(-d*h); b is the noise half-width and delta the failure probability.
Every Lambert W that depends on b takes the log of its argument, so no b > 0
makes it underflow or overflow.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SmoothnessParams", "BoundInputs", "harmonic", "stroquool_h_max",
    "lambert_w", "sequool_bound", "stroquool_bounds", "h_tilde_asymptotic",
    "confidence_radius", "count_near_optimal",
]

_LOG_DBL_MAX = math.log(sys.float_info.max)


# ---------------------------------------------------------------------------
# harmonic numbers
# ---------------------------------------------------------------------------

_hcache = array("d", [0.0])  # _hcache[k] = H(k); extended on demand
_hcomp = [0.0]   # Kahan compensation carried past the last cached entry


def harmonic(n):
    """Partial harmonic sum H(n) = 1 + 1/2 + ... + 1/n (compensated)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    n = int(n)
    if n >= len(_hcache):
        total = _hcache[-1]
        c = _hcomp[0]
        for t in range(len(_hcache), n + 1):
            y = 1.0 / t - c
            s = total + y
            c = (s - total) - y
            total = s
            _hcache.append(total)
        _hcomp[0] = c
    return _hcache[n]


def stroquool_h_max(n):
    """StroquOOL's depth budget floor(n / (2 (H(n)+1)^2)), clamped to >= 1.

    The unclamped formula is 0 for n < 68; clamping keeps small budgets
    runnable (the evaluation ledger stays far below n there).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
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
    """Standard-branch Lambert W: the w >= 0 with w * exp(w) = x, for x >= 0.

    The round trip |W(x) e^{W(x)} - x| stays within 1e-10 * max(1, x).
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    return 0.0 if x == 0.0 else _w_exp(math.log(x))


# ---------------------------------------------------------------------------
# parameter bundles
# ---------------------------------------------------------------------------

@dataclass
class SmoothnessParams:
    nu: float
    rho: float
    C: float
    d: float = 0.0

    def __post_init__(self):
        if not self.nu > 0:
            raise ValueError("nu must be > 0")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must be in (0, 1)")
        if not self.C >= 1.0:
            raise ValueError("C must be >= 1")
        if not self.d >= 0.0:
            raise ValueError("d must be >= 0")


@dataclass
class BoundInputs:
    n: int
    b: float = 0.0
    delta: float = 0.05

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.b < 0:
            raise ValueError("b must be >= 0")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")


# ---------------------------------------------------------------------------
# SequOOL bound (deterministic feedback)
# ---------------------------------------------------------------------------

def sequool_bound(n, params: SmoothnessParams):
    """Worst-case simple regret of SequOOL after n openings.

    Returns a dict with:
      theorem   -- nu * rho^(h_max / C)                       if d = 0,
                   nu * exp(-W(h_max d log(1/rho) / C) / d)   if d > 0,
                   with h_max = floor(n / H(n));
      corollary -- the readable d > 0 form nu * (n~ / log n~)^(-1/d) with
                   n~ = h_max d log(1/rho) / C, or None when inapplicable
                   (d = 0, or n~ <= e -- lower-bounding W needs log n~ > 1);
      n_tilde, h_max -- the intermediate quantities.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    nu, rho, C, d = params.nu, params.rho, params.C, params.d
    h_max = int(n // harmonic(n))
    if d == 0.0:
        return {"theorem": nu * rho ** (h_max / C), "corollary": None,
                "n_tilde": None, "h_max": h_max}
    n_tilde = h_max * d * math.log(1.0 / rho) / C
    theorem = nu * math.exp(-lambert_w(n_tilde) / d)
    corollary = None
    if n_tilde > math.e:
        corollary = nu * (n_tilde / math.log(n_tilde)) ** (-1.0 / d)
    return {"theorem": theorem, "corollary": corollary,
            "n_tilde": n_tilde, "h_max": h_max}


# ---------------------------------------------------------------------------
# StroquOOL bounds (noisy feedback, two regimes)
# ---------------------------------------------------------------------------

def _log_n_bar(h, nu, rho, C, d, b, L):
    """log of n_bar = h (d+2) log(1/rho) nu^2 / (4 C b^2 L), formed from
    logs: b^2 underflows below b ~ 1e-162, and n_bar overflows before that."""
    return (math.log(h * (d + 2.0) * math.log(1.0 / rho) / (4.0 * C * L))
            + 2.0 * (math.log(nu) - math.log(b)))


def _h_tilde_exact(h_max_alg, nu, rho, C, d, b, L):
    """Root of (h_max nu^2 rho^(2h)) / (4 h b^2 L) = C rho^(-d h).

    In logs this is A - log h - a h = 0 with a = (d+2) log(1/rho) and
    A = log(h_max nu^2 / (4 C b^2 L)); the left side is strictly decreasing,
    so the root is unique.  It is h = W(a e^A) / a, and a e^A is n_bar at
    h = h_max, so W is taken at log n_bar.
    """
    return (_w_exp(_log_n_bar(h_max_alg, nu, rho, C, d, b, L))
            / ((d + 2.0) * math.log(1.0 / rho)))


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
      low:  3 nu rho^(M / (4C))                      if d = 0
            3 nu exp(-W(M d log(1/rho) / (4C)) / d)  if d > 0

    Returns {"regime", "bound", "h_tilde", "corollary", "n_readable",
    "M", "L"}; "corollary" is the readable form (None when its n~ <= e or,
    in the low regime, when d = 0); a high-regime "n_readable" past the
    float64 range is inf.
    """
    n, b, delta = inputs.n, inputs.b, inputs.delta
    nu, rho, C, d = params.nu, params.rho, params.C, params.d
    L = math.log(2.0 * n * n / delta)
    M = int(n // (2.0 * (math.log2(n) + 1.0) ** 2))

    if b == 0.0:
        regime, h_tilde = "low", math.inf
    else:
        h_tilde = _h_tilde_exact(stroquool_h_max(n), nu, rho, C, d, b, L)
        # b >= nu rho^h_tilde / sqrt(L) in logs, as rho^h_tilde can underflow
        log_threshold = math.log(nu) + h_tilde * math.log(rho) - 0.5 * math.log(L)
        regime = "high" if math.log(b) >= log_threshold else "low"

    if regime == "high":
        if M < 1:
            raise ValueError(
                f"n={n} too small for the high-noise bound: "
                f"floor(n / (2 (log2 n + 1)^2)) = 0")
        log_n_bar = _log_n_bar(M, nu, rho, C, d, b, L)
        bound = (nu * math.exp(-_w_exp(log_n_bar) / (d + 2.0))
                 + 2.0 * b * math.sqrt(L / M))
        corollary = None
        if log_n_bar > 1.0:
            corollary = (nu * math.exp((math.log(log_n_bar) - log_n_bar) / (d + 2.0))
                         + 2.0 * b * math.sqrt(18.0 * L / (2.0 * M)))
        n_bar = math.exp(log_n_bar) if log_n_bar <= _LOG_DBL_MAX else math.inf
        return {"regime": regime, "bound": bound, "h_tilde": h_tilde,
                "corollary": corollary, "n_readable": n_bar, "M": M, "L": L}

    if d == 0.0:
        bound = 3.0 * nu * rho ** (M / (4.0 * C))
        return {"regime": regime, "bound": bound, "h_tilde": h_tilde,
                "corollary": None, "n_readable": None, "M": M, "L": L}
    n_low = M * d * math.log(1.0 / rho) / (4.0 * C)
    bound = 3.0 * nu * math.exp(-lambert_w(n_low) / d)
    corollary = None
    if n_low > math.e:
        corollary = 3.0 * nu * (math.log(n_low) / n_low) ** (1.0 / d)
    return {"regime": regime, "bound": bound, "h_tilde": h_tilde,
            "corollary": corollary, "n_readable": n_low, "M": M, "L": L}


def h_tilde_asymptotic(inputs: BoundInputs, params: SmoothnessParams):
    """First-order approximation of the crossover depth,
    log(n_bar / log n_bar) / ((d+2) log(1/rho)) with
    n_bar = nu^2 h_max (d+2) log(1/rho) / (4 C b^2 L); exposed for comparison
    against the exact root.  None when n_bar <= e; inf when b = 0.
    """
    n, b, delta = inputs.n, inputs.b, inputs.delta
    if b == 0.0:
        return math.inf
    nu, rho, C, d = params.nu, params.rho, params.C, params.d
    L = math.log(2.0 * n * n / delta)
    log_n_bar = _log_n_bar(stroquool_h_max(n), nu, rho, C, d, b, L)
    if log_n_bar <= 1.0:
        return None
    return (log_n_bar - math.log(log_n_bar)) / ((d + 2.0) * math.log(1.0 / rho))


# ---------------------------------------------------------------------------
# confidence radius
# ---------------------------------------------------------------------------

def confidence_radius(b, n, delta, evals):
    """Half-width of the empirical-mean confidence interval after `evals`
    observations of a cell: b * sqrt(log(2 n^2 / delta) / (2 evals)).

    On the dyadic grid evals = 2^p this is b * sqrt(L / 2^(p+1)).  Any
    evals >= 1 is accepted (validation counts are not powers of two).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if evals < 1:
        raise ValueError("evals must be >= 1")
    if b < 0:
        raise ValueError("b must be >= 0")
    return b * math.sqrt(math.log(2.0 * n * n / delta) / (2.0 * evals))


# ---------------------------------------------------------------------------
# near-optimality profile
# ---------------------------------------------------------------------------

def count_near_optimal(obj, branching, h, epsilon, points_per_axis=100):
    """Number of depth-h cells whose supremum reaches optimum - epsilon.

    The sup over each cell is estimated on an inclusive grid with
    `points_per_axis` points per axis (>= 100 by default), so it is a lower
    bound on the true sup and the count can only undercount -- a diagnostic
    profile, not a certificate.  Cells follow the axis-cycling split
    rule; requires branching^h <= 1e6 and a known optimum_value.
    """
    if branching < 2:
        raise ValueError("branching must be at least 2")
    if h < 0:
        raise ValueError("h must be >= 0")
    if points_per_axis < 2:
        raise ValueError("points_per_axis must be >= 2")
    if branching ** h > 10 ** 6:
        raise ValueError(f"K^h = {branching ** h} exceeds the 1e6 cell cap")
    if obj.optimum_value is None:
        raise ValueError(f"objective {obj.name!r} has no optimum_value")

    dom = obj.domain
    dim = dom.dim
    threshold = obj.optimum_value - epsilon
    # slabs per axis induced by h axis-cycling splits
    counts = [branching ** sum(1 for t in range(h) if t % dim == j)
              for j in range(dim)]

    if dim == 1:
        m = counts[0]
        lo, hi = dom.lower[0], dom.upper[0]
        edges = lo + (hi - lo) * np.arange(m + 1) / m
        frac = np.linspace(0.0, 1.0, points_per_axis)
        total = 0
        step = max(1, 10 ** 6 // points_per_axis)  # bound memory
        for s in range(0, m, step):
            e = min(m, s + step)
            xs = edges[s:e, None] + (edges[s + 1:e + 1] - edges[s:e])[:, None] * frac
            sups = obj.eval_many(xs).max(axis=1)
            total += int((sups >= threshold).sum())
        return total

    axes = [dom.lower[j] + (dom.upper[j] - dom.lower[j]) * np.arange(counts[j] + 1) / counts[j]
            for j in range(dim)]
    total = 0
    for idx in itertools.product(*(range(c) for c in counts)):
        grids = [np.linspace(axes[j][i], axes[j][i + 1], points_per_axis)
                 for j, i in enumerate(idx)]
        mesh = np.meshgrid(*grids, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=1)
        sup = max(obj.fn(tuple(p)) for p in pts)
        if sup >= threshold:
            total += 1
    return total
