import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import zipftree
from zipftree.objectives import Objective, garland_objective, wrapped_sine_objective
from zipftree.partition import Box
from zipftree.theory import (BoundInputs, SmoothnessParams, count_near_optimal,
                             harmonic, lambert_w, sequool_bound,
                             stroquool_bounds, stroquool_h_max)


# ---------------------------------------------------------------------------
# harmonic numbers
# ---------------------------------------------------------------------------

def test_harmonic_against_rationals():
    acc = Fraction(0)
    for n in range(1, 200):
        acc += Fraction(1, n)
        assert harmonic(n) == pytest.approx(float(acc), abs=1e-13)
    assert harmonic(1) == 1.0
    assert harmonic(2) == 1.5
    with pytest.raises(ValueError, match="n must be >= 1"):
        harmonic(0)


# H(n) as float.hex, recorded when the cache was a list of floats
_HARMONIC_HEX = {
    1: "0x1.0000000000000p+0",
    2: "0x1.8000000000000p+0",
    3: "0x1.d555555555555p+0",
    10: "0x1.76e86e86e86e8p+1",
    4097: "0x1.1ca6b0cd81c28p+3",
    10**5: "0x1.82e27a22f3fb0p+3",
    10**6: "0x1.cc9137a1df274p+3",
}


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_harmonic_values_frozen_in_any_order(order):
    # a fresh process per order, so the cache starts empty each time
    ns = sorted(_HARMONIC_HEX)
    if order == "descending":
        ns.reverse()
    elif order == "shuffled":
        ns = [10, 10**6, 2, 4097, 1, 10**5, 3]
    script = ("from zipftree.theory import harmonic\n"
              f"for n in {ns!r}:\n    print(harmonic(n).hex())\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(zipftree.__file__).resolve().parents[1]),
                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [_HARMONIC_HEX[n] for n in ns]


def test_harmonic_cache_consistent():
    # ask out of order; the incremental cache must not drift
    a = harmonic(5000)
    b = harmonic(10)
    c = harmonic(5000)
    assert a == c
    assert b == pytest.approx(2.9289682539682538, abs=1e-15)
    assert harmonic(5001) > a


def test_stroquool_h_max_boundaries():
    # the raw floor n / (2 (H(n)+1)^2) is 0 until n = 68; the clamp keeps
    # small budgets runnable
    for n in (8, 20, 67):
        assert int(n // (2.0 * (harmonic(n) + 1.0) ** 2)) == 0
        assert stroquool_h_max(n) == 1
    assert int(68 // (2.0 * (harmonic(68) + 1.0) ** 2)) == 1
    assert stroquool_h_max(68) == 1
    assert stroquool_h_max(20000) == 75
    values = [stroquool_h_max(n) for n in range(8, 3000)]
    assert all(b - a >= 0 for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        stroquool_h_max(0)


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------

def test_lambert_w_special_values():
    assert lambert_w(0.0) == 0.0
    assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-14)
    assert lambert_w(1.0) == pytest.approx(0.5671432904097838, abs=1e-14)
    assert lambert_w(2.0 * math.exp(2.0)) == pytest.approx(2.0, abs=1e-13)
    with pytest.raises(ValueError, match="x must be >= 0"):
        lambert_w(-0.5)


def test_lambert_w_round_trip():
    for w in np.linspace(0.001, 25.0, 200):
        x = float(w * math.exp(w))
        got = lambert_w(x)
        assert got == pytest.approx(float(w), rel=1e-12)
        assert abs(got * math.exp(got) - x) <= 1e-10 * max(1.0, x)


def test_lambert_w_monotone_and_lower_bound():
    xs = np.logspace(-3, 8, 400)
    ws = [lambert_w(float(x)) for x in xs]
    assert all(b > a for a, b in zip(ws, ws[1:]))
    for x, w in zip(xs, ws):
        if x >= math.e:
            assert w >= math.log(x / math.log(x))  # Hoorfar-Hassani bound


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_parameter_validation():
    with pytest.raises(ValueError, match="nu must be > 0"):
        SmoothnessParams(nu=0.0, rho=0.5, C=2.0)
    with pytest.raises(ValueError, match=r"rho must be in \(0, 1\)"):
        SmoothnessParams(nu=1.0, rho=1.0, C=2.0)
    with pytest.raises(ValueError, match="C must be >= 1"):
        SmoothnessParams(nu=1.0, rho=0.5, C=0.99)
    SmoothnessParams(nu=1.0, rho=0.5, C=1.0)  # the boundary is allowed
    with pytest.raises(ValueError, match="d must be >= 0"):
        SmoothnessParams(nu=1.0, rho=0.5, C=2.0, d=-1.0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        BoundInputs(n=0)
    with pytest.raises(ValueError, match="b must be >= 0"):
        BoundInputs(n=10, b=-0.1)
    with pytest.raises(ValueError, match=r"delta must be in \(0, 1\)"):
        BoundInputs(n=10, delta=1.0)


@pytest.mark.parametrize("n", [1000.5, 1000.0, math.inf, math.nan, "1000"])
def test_bound_inputs_reject_a_non_integer_n(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        BoundInputs(n=n, b=0.1)


def test_bound_inputs_take_any_integer_n():
    assert BoundInputs(n=np.int64(1000), b=0.1).n == 1000
    assert type(BoundInputs(n=np.int64(1000)).n) is int


@pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
def test_bound_inputs_reject_a_non_finite_b(b):
    # a NaN b had given regime "low", bound 1.5 and h_tilde NaN
    with pytest.raises(ValueError, match="b must be >= 0 and finite"):
        BoundInputs(n=1000, b=b)


# ---------------------------------------------------------------------------
# deterministic-feedback bound
# ---------------------------------------------------------------------------

def test_sequool_bound_zero_dim():
    # h_max(100) = floor(100 / H(100)) = 19; with rho = 1/4, C = 2 the bound
    # is (1/4)^(19/2) = 2^-19
    params = SmoothnessParams(nu=1.0, rho=0.25, C=2.0)
    out = sequool_bound(100, params)
    assert out["h_max"] == 19
    assert out["theorem"] == pytest.approx(2.0 ** -19, rel=1e-14)


def test_sequool_bound_positive_dim():
    params = SmoothnessParams(nu=2.0, rho=0.5, C=2.0, d=1.0)
    out = sequool_bound(1000, params)
    h_max = int(1000 // harmonic(1000))
    n_tilde = h_max * 1.0 * math.log(2.0) / 2.0
    assert out["h_max"] == h_max
    assert out["theorem"] == pytest.approx(2.0 * math.exp(-lambert_w(n_tilde)),
                                           rel=1e-13)


def test_sequool_bound_readable_needs_log_margin():
    # pick C so that h_max d log(1/rho) / C lands exactly at e: W(e) = 1
    # gives nu/e
    C = 19.0 * math.log(2.0) / math.e
    params = SmoothnessParams(nu=1.0, rho=0.5, C=C, d=1.0)
    out = sequool_bound(100, params)
    assert out["theorem"] == pytest.approx(math.exp(-1.0), rel=1e-13)


def test_sequool_bound_corollary_dominates_on_sweep():
    params = SmoothnessParams(nu=1.5, rho=1 / 3, C=1.5, d=2.0)
    for n in (50, 100, 1000, 10**4, 10**6):
        out = sequool_bound(n, params)
        assert 0.0 < out["theorem"] <= 1.5
    # bounds shrink with budget
    b1 = sequool_bound(100, params)["theorem"]
    b2 = sequool_bound(10**5, params)["theorem"]
    assert b2 < b1


# ---------------------------------------------------------------------------
# noise-adaptive bounds
# ---------------------------------------------------------------------------

def test_stroquool_bounds_noiseless_is_low_regime():
    params = SmoothnessParams(nu=1.0, rho=0.5, C=2.0)
    out = stroquool_bounds(BoundInputs(n=100, b=0.0), params)
    assert out["regime"] == "low"
    assert out["h_tilde"] == math.inf
    assert out["M"] == 0
    assert out["bound"] == 3.0  # 3 nu rho^0: the d = 0 display with M = 0
    out = stroquool_bounds(BoundInputs(n=1000, b=0.0), params)
    assert out["M"] == 4
    assert out["bound"] == pytest.approx(3.0 * 0.5 ** (4.0 / 8.0), rel=1e-15)


def test_stroquool_bounds_low_regime_with_noise():
    params = SmoothnessParams(nu=1.0, rho=0.5, C=2.0)
    out = stroquool_bounds(BoundInputs(n=1000, b=1e-3), params)
    assert out["regime"] == "low"
    assert math.isfinite(out["h_tilde"])
    # the noise is below the resolution threshold nu rho^h~ / sqrt(L)
    assert 1e-3 < 0.5 ** out["h_tilde"] / math.sqrt(out["L"])
    assert out["bound"] == pytest.approx(3.0 * 0.5 ** (4.0 / 8.0), rel=1e-15)


def test_stroquool_bounds_high_regime_formula():
    params = SmoothnessParams(nu=1.0, rho=0.5, C=2.0)
    n, b, delta = 10**4, 0.1, 0.05
    out = stroquool_bounds(BoundInputs(n, b, delta), params)
    assert out["regime"] == "high"
    L = math.log(2.0 * n * n / delta)
    M = int(n // (2.0 * (math.log2(n) + 1.0) ** 2))
    assert out["M"] == M == 24
    assert out["L"] == pytest.approx(L, rel=1e-15)
    n_bar = M * 2.0 * math.log(2.0) / (4.0 * 2.0 * b * b * L)
    expected = (0.5 ** (lambert_w(n_bar) / (2.0 * math.log(2.0)))
                + 2.0 * b * math.sqrt(L / M))
    assert out["bound"] == pytest.approx(expected, rel=1e-13)


def test_stroquool_bounds_high_regime_needs_budget():
    params = SmoothnessParams(nu=1.0, rho=0.5, C=2.0)
    with pytest.raises(ValueError, match="n=100 too small for the high-noise"):
        stroquool_bounds(BoundInputs(n=100, b=1.0), params)
    # the low regime stays well defined at the same budget
    out = stroquool_bounds(BoundInputs(n=100, b=1e-3), params)
    assert out["regime"] == "low" and out["bound"] == 3.0


def test_stroquool_bounds_positive_dim_low():
    params = SmoothnessParams(nu=1.0, rho=0.5, C=2.0, d=1.0)
    out = stroquool_bounds(BoundInputs(n=10**5, b=0.0), params)
    M = out["M"]
    n_low = M * math.log(2.0) / 8.0
    assert out["bound"] == pytest.approx(3.0 * math.exp(-lambert_w(n_low)),
                                         rel=1e-13)


def test_stroquool_bounds_at_tiny_noise_and_a_large_budget():
    # b = 1e-160 squares to a subnormal, yet its bound is defined at every
    # budget; b = 1 is defined from n = 1e3 (n = 100 is rejected, see
    # test_stroquool_bounds_high_regime_needs_budget)
    params = SmoothnessParams(nu=1.0, rho=0.5, C=2.0)
    for n in (100, 10**3, 10**5):
        assert 0.0 < stroquool_bounds(BoundInputs(n, 1e-160), params)["bound"] < math.inf
    for n in (10**3, 10**5):
        assert stroquool_bounds(BoundInputs(n, 1.0), params)["bound"] > 0.0


def test_bounds_take_a_d_that_overflows_their_w_argument():
    # h d log(1/rho) / C overflows at d = 1e308; W grows like a log and is
    # then divided by d, so the rate is nu and the low-noise bound 3 nu
    params = SmoothnessParams(nu=1.0, rho=0.5, C=1.0, d=1e308)
    assert sequool_bound(100, params)["theorem"] == 1.0
    for b in (0.0, 1e-12, 0.1):
        out = stroquool_bounds(BoundInputs(10**4, b), params)
        assert (out["regime"], out["bound"]) == ("low", 3.0)
    out = stroquool_bounds(BoundInputs(10**4, 1.0), params)
    assert out["regime"] == "high"
    # nu exp(-W / (d + 2)) rounds to nu, leaving 1 + 2 b sqrt(L / M)
    assert out["bound"] == pytest.approx(1.0 + 2.0 * math.sqrt(out["L"] / out["M"]),
                                         rel=1e-15)


def test_bounds_take_a_C_whose_product_with_L_overflows():
    # 4 C L overflows at C = 1e308, so n_bar's x = h (d+2) log(1/rho) / (4 C L)
    # reads 0 and is logged from its factors: the bounds are those of the
    # largest C that does not overflow, and h_tilde keeps scaling as 1 / C
    for nu, b in ((1.0, 0.1), (0.1, 1.0)):
        big = stroquool_bounds(BoundInputs(10**4, b),
                               SmoothnessParams(nu, 0.5, 1e308, 0.0))
        ref = stroquool_bounds(BoundInputs(10**4, b),
                               SmoothnessParams(nu, 0.5, 1e300, 0.0))
        assert (big["regime"], big["bound"]) == (ref["regime"], ref["bound"])
        assert big["h_tilde"] * 1e8 == pytest.approx(ref["h_tilde"], rel=1e-12)
    # the low-noise bound is the noiseless one
    assert stroquool_bounds(BoundInputs(10**4, 0.1),
                            SmoothnessParams(1.0, 0.5, 1e308, 0.0))["bound"] == \
        stroquool_bounds(BoundInputs(10**4, 0.0),
                         SmoothnessParams(1.0, 0.5, 1e308, 0.0))["bound"] == 3.0


def test_h_tilde_exact_matches_closed_form():
    # the crossover depth solves A - log h - a h = 0; the closed form is
    # W(a e^A) / a
    for n, b, rho, C, d in ((10**5, 0.5, 0.5, 2.0, 0.0),
                            (5000, 0.2, 0.5, 2.0, 0.0),
                            (10**6, 1.0, 0.5, 2.0, 0.0),
                            (10**4, 0.05, 1 / 3, 1.5, 1.0)):
        L = math.log(2.0 * n * n / 0.05)
        h_max = stroquool_h_max(n)
        a = (d + 2.0) * math.log(1.0 / rho)
        A = math.log(h_max / (4.0 * C * b * b * L))
        exact = stroquool_bounds(BoundInputs(n, b),
                                 SmoothnessParams(1.0, rho, C, d))["h_tilde"]
        assert exact == pytest.approx(lambert_w(a * math.exp(A)) / a, rel=1e-10)
        assert abs(A - math.log(exact) - a * exact) < 1e-12  # residual


# ---------------------------------------------------------------------------
# frozen bound values
# ---------------------------------------------------------------------------

# (n, b, delta, nu, rho, C, d, sequool theorem, h_max, regime, stroquool bound,
# h_tilde, M), the floats as float.hex; a regime of None marks a budget whose
# M = 0 leaves the high-noise bound undefined
_FROZEN_BOUNDS = [
    (1, 0.0, 0.05, 1.0, 0.5, 2.0, 0.0,
     '0x1.6a09e667f3bcdp-1', 1, 'low', '0x1.8000000000000p+1', 'inf', 0),
    (1000, 0.0, 0.05, 1.0, 0.5, 2.0, 0.0,
     '0x1.6a09e667f3bcdp-67', 133, 'low', '0x1.0f876ccdf6cdap+1', 'inf', 4),
    (1000000000000, 0.0, 0.05, 1.0, 0.5, 2.0, 0.0,
     '0x0.0p+0', 35450638328, 'low', '0x0.0p+0', 'inf', 299437779),
    (10000, 1e-300, 0.05, 1.0, 0.5, 2.0, 0.0,
     '0x1.6a09e667f3bcdp-511', 1021, 'low', '0x1.8000000000000p-2', '0x1.ef4859956e28bp+9', 24),
    (1000000, 0.001, 0.05, 1.0, 0.5, 2.0, 0.0,
     '0x0.0p+0', 69479, 'high', '0x1.d04b3540c8a93p-10', '0x1.3b480e1ad3893p+3', 1141),
    (10000, 0.1, 0.05, 1.0, 0.5, 2.0, 0.0,
     '0x1.6a09e667f3bcdp-511', 1021, 'high', '0x1.0fe6e70f00562p-1', '0x1.d7f2a017e715ep+0', 24),
    (1000000, 1.0, 0.05, 1.0, 0.5, 2.0, 0.0,
     '0x0.0p+0', 69479, 'high', '0x1.a01683204169cp-1', '0x1.54b1fb517983cp+0', 1141),
    (1000000000000, 0.1, 0.05, 1.0, 0.5, 2.0, 0.0,
     '0x0.0p+0', 35450638328, 'high', '0x1.0ae28a79704e2p-11', '0x1.7580e2d74d0b6p+3', 299437779),
    (1, 0.0, 0.05, 1.0, 0.5, 2.0, 1.0,
     '0x1.888846684f698p-1', 1, 'low', '0x1.8000000000000p+1', 'inf', 0),
    (1000, 0.0, 0.05, 1.0, 0.5, 2.0, 1.0,
     '0x1.f1c378a55b377p-5', 133, 'low', '0x1.266634ce3b8f2p+1', 'inf', 4),
    (1000000000000, 0.0, 0.05, 1.0, 0.5, 2.0, 1.0,
     '0x1.c47c75c3ca5d8p-30', 35450638328, 'low', '0x1.bf189f5f37a6bp-20', 'inf', 299437779),
    (10000, 1e-300, 0.05, 1.0, 0.5, 2.0, 1.0,
     '0x1.967f1e0d0d655p-7', 1021, 'low', '0x1.418d0f6ff1f54p+0', '0x1.4a492c6c92aebp+9', 24),
    (1000000, 0.001, 0.05, 1.0, 0.5, 2.0, 1.0,
     '0x1.5cbea7a5b097dp-12', 69479, 'low', '0x1.a3b9307a7f43cp-4', '0x1.b0039265dac91p+2', 1141),
    (10000, 0.1, 0.05, 1.0, 0.5, 2.0, 1.0,
     '0x1.967f1e0d0d655p-7', 1021, 'high', '0x1.44df124fe8798p-1', '0x1.5f0fa28daeda1p+0', 24),
    (1000000, 1.0, 0.05, 1.0, 0.5, 2.0, 1.0,
     '0x1.5cbea7a5b097dp-12', 69479, 'high', '0x1.cb1bcd80ff956p-1', '0x1.0446d45f3e1f1p+0', 1141),
    (1000000000000, 0.1, 0.05, 1.0, 0.5, 2.0, 1.0,
     '0x1.c47c75c3ca5d8p-30', 35450638328, 'high', '0x1.49a7dbb370bbap-8', '0x1.fdc3f30e0bc9ep+2', 299437779),
    (1, 0.0, 0.05, 1.5, 0.3333333333333333, 1.5, 2.0,
     '0x1.0c74799ecbb16p+0', 1, 'low', '0x1.2000000000000p+2', 'inf', 0),
    (1000, 0.0, 0.05, 1.5, 0.3333333333333333, 1.5, 2.0,
     '0x1.b3237f4e28bcfp-3', 133, 'low', '0x1.92aeb66e318a1p+1', 'inf', 4),
    (1000000000000, 0.0, 0.05, 1.5, 0.3333333333333333, 1.5, 2.0,
     '0x1.00a178122a329p-15', 35450638328, 'low', '0x1.bf2710273f8a1p-10', 'inf', 299437779),
    (10000, 1e-300, 0.05, 1.5, 0.3333333333333333, 1.5, 2.0,
     '0x1.779a666c779ddp-4', 1021, 'low', '0x1.f5489bf8ff5f1p+0', '0x1.39002e28efc62p+8', 24),
    (1000000, 0.001, 0.05, 1.5, 0.3333333333333333, 1.5, 2.0,
     '0x1.d5dde4f8be1dep-7', 69479, 'low', '0x1.df8d6f2fc34e1p-2', '0x1.cb4387b987850p+1', 1141),
    (10000, 0.1, 0.05, 1.5, 0.3333333333333333, 1.5, 2.0,
     '0x1.779a666c779ddp-4', 1021, 'low', '0x1.f5489bf8ff5f1p+0', '0x1.f3d5fa0553da0p-1', 24),
    (1000000, 1.0, 0.05, 1.5, 0.3333333333333333, 1.5, 2.0,
     '0x1.d5dde4f8be1dep-7', 69479, 'high', '0x1.0a578d9253b6ap+0', '0x1.93e3a434f5d52p-1', 1141),
    (1000000000000, 0.1, 0.05, 1.5, 0.3333333333333333, 1.5, 2.0,
     '0x1.00a178122a329p-15', 35450638328, 'high', '0x1.29b341255155ap-6', '0x1.0aa825536fbdfp+2', 299437779),
    (1, 0.0, 0.05, 1.0, 0.1, 1.0, 0.0,
     '0x1.999999999999ap-4', 1, 'low', '0x1.8000000000000p+1', 'inf', 0),
    (1000, 0.0, 0.05, 1.0, 0.1, 1.0, 0.0,
     '0x1.22bc490dde67fp-442', 133, 'low', '0x1.3333333333334p-2', 'inf', 4),
    (1000000000000, 0.0, 0.05, 1.0, 0.1, 1.0, 0.0,
     '0x0.0p+0', 35450638328, 'low', '0x0.0p+0', 'inf', 299437779),
    (10000, 1e-300, 0.05, 1.0, 0.1, 1.0, 0.0,
     '0x0.0p+0', 1021, 'low', '0x1.92a737110e456p-19', '0x1.2a99cb59ebedep+8', 24),
    (1000000, 0.001, 0.05, 1.0, 0.1, 1.0, 0.0,
     '0x0.0p+0', 69479, 'high', '0x1.e5bb0e7ed8cdcp-11', '0x1.ace1af2331fd0p+1', 1141),
    (10000, 0.1, 0.05, 1.0, 0.1, 1.0, 0.0,
     '0x0.0p+0', 1021, 'high', '0x1.715dbec266794p-2', '0x1.bcd80a43c4fd6p-1', 24),
    (1000000, 1.0, 0.05, 1.0, 0.1, 1.0, 0.0,
     '0x0.0p+0', 69479, 'high', '0x1.2c50a0e1c6092p-1', '0x1.62c05f46a72fdp-1', 1141),
    (1000000000000, 0.1, 0.05, 1.0, 0.1, 1.0, 0.0,
     '0x0.0p+0', 35450638328, 'high', '0x1.1194cf1b28da2p-12', '0x1.f3769f0733b0dp+1', 299437779),
    (1, 0.0, 0.05, 2.0, 0.9, 11.0, 0.5,
     '0x1.fb2477f17fec6p+0', 1, 'low', '0x1.8000000000000p+2', 'inf', 0),
    (1000, 0.0, 0.05, 2.0, 0.9, 11.0, 0.5,
     '0x1.bb00b2532e8aep-1', 133, 'low', '0x1.7c5b59f51ff14p+2', 'inf', 4),
    (1000000000000, 0.0, 0.05, 2.0, 0.9, 11.0, 0.5,
     '0x1.46b3a1e93ae1ap-46', 35450638328, 'low', '0x1.5de50918e924bp-28', 'inf', 299437779),
    (10000, 1e-300, 0.05, 2.0, 0.9, 11.0, 0.5,
     '0x1.27ce92f167192p-3', 1021, 'low', '0x1.6b20e671d32a0p+2', '0x1.455e30075ff0dp+12', 24),
    (1000000, 0.001, 0.05, 2.0, 0.9, 11.0, 0.5,
     '0x1.64b49b9dafdb6p-12', 69479, 'low', '0x1.84a179499d6f8p+0', '0x1.671b2d83e3742p+5', 1141),
    (10000, 0.1, 0.05, 2.0, 0.9, 11.0, 0.5,
     '0x1.27ce92f167192p-3', 1021, 'low', '0x1.6b20e671d32a0p+2', '0x1.355f801f8d125p+2', 24),
    (1000000, 1.0, 0.05, 2.0, 0.9, 11.0, 0.5,
     '0x1.64b49b9dafdb6p-12', 69479, 'high', '0x1.f4d3e64a63afep+0', '0x1.6fc868b33af73p+1', 1141),
    (1000000000000, 0.1, 0.05, 2.0, 0.9, 11.0, 0.5,
     '0x1.46b3a1e93ae1ap-46', 35450638328, 'high', '0x1.14811ab305884p-7', '0x1.b308aab4b8fd1p+5', 299437779),
    (100, 1.0, 0.05, 1.0, 0.5, 2.0, 0.0,
     '0x1.6a09e667f3bcdp-10', 19, None, None, None, None),
    (100000, 0.5, 0.01, 1.0, 0.5, 2.0, 1.0,
     '0x1.18fd7f0ef8801p-9', 8271, 'high', '0x1.0aa837754478dp+0', '0x1.b828087d6b6f7p-1', 161),
    (100000, 1e-20, 0.01, 1.0, 0.5773502691896257, 3.0, 0.0,
     '0x0.0p+0', 8271, 'low', '0x1.ef6b4b26f794fp-10', '0x1.3ed66ad52b7a5p+6', 161),
]


@pytest.mark.parametrize("row", _FROZEN_BOUNDS, ids=lambda row: "-".join(map(str, row[:7])))
def test_bound_values_frozen(row):
    n, b, delta, nu, rho, C, d, theorem, h_max, regime, bound, h_tilde, M = row
    params = SmoothnessParams(nu, rho, C, d)
    out = sequool_bound(n, params)
    assert (out["theorem"].hex(), out["h_max"]) == (theorem, h_max)
    if regime is None:
        with pytest.raises(ValueError, match="too small for the high-noise bound"):
            stroquool_bounds(BoundInputs(n, b, delta), params)
        return
    out = stroquool_bounds(BoundInputs(n, b, delta), params)
    assert (out["regime"], out["bound"].hex(), out["h_tilde"].hex(), out["M"]) == (
        regime, bound, h_tilde, M)


# ---------------------------------------------------------------------------
# near-optimality profile
# ---------------------------------------------------------------------------

def _constant_objective(dim, c=2.5):
    box = Box([0.0] * dim, [1.0] * dim)
    return Objective("const", box, lambda p: c, optimum_value=c)


def test_count_near_optimal_constant_counts_everything():
    obj = _constant_objective(1)
    for h in range(0, 7):
        assert count_near_optimal(obj, 3, h, 0.5) == 3 ** h
    assert count_near_optimal(obj, 2, 10, 0.5) == 2 ** 10
    obj2 = _constant_objective(2)
    assert count_near_optimal(obj2, 2, 3, 0.5) == 8  # 2 x 1 axis splits -> 4*2
    assert count_near_optimal(obj2, 3, 2, 0.5, points_per_axis=10) == 9


def test_count_near_optimal_validation():
    obj = _constant_objective(1)
    with pytest.raises(ValueError, match="exceeds the 1e6 cell cap"):
        count_near_optimal(obj, 3, 13, 0.1)
    with pytest.raises(ValueError, match="branching"):
        count_near_optimal(obj, 1, 2, 0.1)
    with pytest.raises(ValueError, match="h must be >= 0"):
        count_near_optimal(obj, 3, -1, 0.1)
    with pytest.raises(ValueError, match="points_per_axis"):
        count_near_optimal(obj, 3, 2, 0.1, points_per_axis=1)
    anon = Objective("anon", Box([0.0], [1.0]), lambda p: 0.0)
    with pytest.raises(ValueError, match="no optimum_value"):
        count_near_optimal(anon, 3, 2, 0.1)


def test_count_near_optimal_vee_profile_is_flat():
    # -|x - 1/2| has a single optimum on a K = 3 cell edge pattern that keeps
    # the optimum interior; at scale-matched epsilon = rho^h the number of
    # qualifying cells never grows: the profile is flat (d = 0, C <= 3)
    vee = Objective("vee", Box([0.0], [1.0]), lambda p: -abs(p[0] - 0.5),
                    optimum_value=0.0)
    counts = [count_near_optimal(vee, 3, h, (1 / 3) ** h) for h in range(9)]
    assert counts == [1, 3, 3, 3, 3, 3, 3, 3, 3]


def test_count_near_optimal_garland_profile():
    # scale-matched profile nu rho^h with nu = 1, rho = 1/3; deterministic
    # given the default 100-point grid per cell.  The deep-h zeros are grid
    # undercount at the sqrt cusp (the estimator lower-bounds cell suprema);
    # a finer grid restores the cell around the optimum.
    obj = garland_objective()
    counts = [count_near_optimal(obj, 3, h, (1 / 3) ** h) for h in range(9)]
    assert counts == [1, 3, 3, 2, 2, 0, 0, 0, 0]
    assert count_near_optimal(obj, 3, 5, (1 / 3) ** 5, points_per_axis=3000) >= 1
    # fixed epsilon: the profile stays in the tens through depth 8
    wide = [count_near_optimal(obj, 3, h, 0.05) for h in range(9)]
    assert wide[0] == 1 and max(wide) <= 30
    assert all(c >= 1 for c in wide)


def test_count_near_optimal_wrapped_sine_profile():
    obj = wrapped_sine_objective()
    counts = [count_near_optimal(obj, 3, h, (1 / 3) ** h) for h in range(7)]
    assert counts == [1, 3, 1, 1, 3, 3, 3]
    assert max(counts) <= 3  # flat profile at matched scale
