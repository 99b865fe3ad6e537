"""The noise-adaptive bounds over the whole float64 range of b > 0."""

import math

import numpy as np
import pytest

from zipftree.theory import (BoundInputs, SmoothnessParams, lambert_w,
                             stroquool_bounds)

# b = 10^(k/4) from 1e-300 to 1e3: b^2 underflows below ~1e-162
NOISE = [10.0 ** (k / 4) for k in range(-1200, 13)]
SHAPES = [(0.5, 2.0), (0.1, 1.0)]  # (rho, C)


@pytest.mark.parametrize("n", [10**3, 10**5, 10**6])
@pytest.mark.parametrize("rho, C", SHAPES)
def test_stroquool_bounds_defined_for_every_noise_level(n, rho, C):
    # n >= 1e3 leaves M >= 1, so the high-noise display is always defined
    params = SmoothnessParams(nu=1.0, rho=rho, C=C)
    h_tildes = []
    for b in NOISE:
        out = stroquool_bounds(BoundInputs(n, b), params)
        assert out["regime"] in ("low", "high"), b
        assert math.isfinite(out["h_tilde"]) and out["h_tilde"] > 0.0, b
        assert math.isfinite(out["bound"]), b
        h_tildes.append(out["h_tilde"])
    assert all(b <= a for a, b in zip(h_tildes, h_tildes[1:]))  # b grows


def test_high_regime_at_tiny_noise():
    # with rho = 0.1 and C = 1 the crossover stays in the high-noise display
    # far below the point where b^2 underflows
    params = SmoothnessParams(nu=1.0, rho=0.1, C=1.0)
    for b in (1e-152, 1e-154, 1e-170, 1e-300):
        out = stroquool_bounds(BoundInputs(10**6, b), params)
        assert out["regime"] == "high"
        assert 0.0 < out["bound"] < 10.0 * b


@pytest.mark.parametrize("b, regime", [(0.1, "high"), (1e-20, "low")])
def test_bounds_scale_with_nu_and_b(b, regime):
    # n_bar and the regime test depend on nu / b alone and both displays are
    # linear in (nu, b): scaling the two by s keeps h_tilde and the regime
    # and scales the bound by s, with nu^2 and b^2 far outside float64
    ref = stroquool_bounds(BoundInputs(10**5, b), SmoothnessParams(1.0, 0.5, 2.0))
    assert ref["regime"] == regime
    for k in range(-280, 281, 20):  # s * b stays a normal float64
        s = 10.0 ** k
        out = stroquool_bounds(BoundInputs(10**5, s * b),
                               SmoothnessParams(s, 0.5, 2.0))
        assert out["regime"] == regime, s
        assert out["h_tilde"] == pytest.approx(ref["h_tilde"], rel=1e-12), s
        assert out["bound"] == pytest.approx(s * ref["bound"], rel=1e-12), s


def test_regime_where_rho_to_the_h_tilde_underflows():
    # b / nu = 1e-340: rho^h_tilde underflows float64, yet nu rho^h_tilde /
    # sqrt(L) stays e^1.72 above b (h_tilde and the gap from 40-digit math)
    for nu, b in ((1e300, 1e-40), (1e32, 1e-308)):
        out = stroquool_bounds(BoundInputs(10**5, b), SmoothnessParams(nu, 0.5, 2.0))
        assert 0.5 ** out["h_tilde"] == 0.0
        assert out["h_tilde"] == pytest.approx(1124.6106032377443, rel=1e-12)
        assert out["regime"] == "low"


def test_lambert_w_round_trip_in_logs():
    # log W + W = log x over the whole positive float64 range
    for x in np.logspace(-300.0, 300.0, 1201):
        x = float(x)
        w = lambert_w(x)
        y = math.log(x)
        assert abs(math.log(w) + w - y) <= 1e-15 * max(1.0, abs(y)), x
