# The two benchmark curves, their optima, and why one of them is hostile to
# float64: the garland maximum sits on a square-root cusp.

import numpy as np

from zipftree import (GARLAND_ARGMAX, GARLAND_FLOAT_MAX, GARLAND_OPTIMUM,
                      garland_objective, wrapped_sine_objective)

g = garland_objective()
w = wrapped_sine_objective()

xs = np.linspace(0.0, 1.0, 20001)
gv = np.array([g(x) for x in xs])
wv = np.array([w(x) for x in xs])
off_mid = xs != 0.5  # the grid holds x = 1/2, where S is defined as 0

print("garland:  analytic sup", GARLAND_OPTIMUM, "at x =", GARLAND_ARGMAX)
print("          best float64 value", GARLAND_FLOAT_MAX,
      "->  regret floor", GARLAND_OPTIMUM - GARLAND_FLOAT_MAX)
print("          grid max on 20k points:", gv.max(), "at x ~", xs[gv.argmax()])
print("wrapped-sine: sup", w.optimum_value, "by the S(1/2)=0 convention;",
      "grid max", wv.max(), "at x =", xs[wv.argmax()])
print("              grid max without x = 1/2:", wv[off_mid].max(),
      "(negative: the sup is approached, not attained)")

# zoom on the cusp: one ulp of x moves the value by ~sqrt scale
for k in (0, 1, 2, 5, 10):
    x = GARLAND_ARGMAX + k * np.spacing(GARLAND_ARGMAX)
    print(f"  {k:2d} ulps right of pi/6: G = {g.eval((float(x),)):.16f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(11, 4))
    ax1.plot(xs, gv, lw=0.6)
    ax1.axvline(GARLAND_ARGMAX, color="r", ls=":", lw=0.8)
    ax1.set_title("garland")
    ax2.plot(xs, wv, lw=0.6)
    ax2.set_title("wrapped sine")
    fig.savefig("objectives.png", dpi=120)
    print("wrote objectives.png")
except ImportError:
    print("(matplotlib not installed; skipping the plot)")
