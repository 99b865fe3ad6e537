"""harmonic(n) without a table: the exact fsum up to 2^26, the
rounded Euler-Maclaurin series past it, and the memory each one holds.

Up to 2^26 H(n) must be the correctly rounded sum of the float64 terms
1/k, which is what math.fsum returns; past 2^26 it must be the correctly
rounded true H(n).  The large-n oracles below were computed with mpmath at
40 digits.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import zipftree
from zipftree.theory import SmoothnessParams, harmonic, sequool_bound


def run_fresh(script):
    """Run `script` in a fresh interpreter (so harmonic's cache starts
    empty) and return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(zipftree.__file__).resolve().parents[1]),
                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_harmonic_is_the_fsum_of_the_float_terms():
    # powers of two and their neighbours, 2^21, and random n, asked for in
    # shuffled order
    rng = random.Random(14)
    ns = [65535, 65536, 65537, 131072, 2**21]
    ns += rng.sample(range(1, 2**21), 50)
    rng.shuffle(ns)
    got = json.loads(run_fresh(
        "import json\nfrom zipftree.theory import harmonic\n"
        f"print(json.dumps([harmonic(n).hex() for n in {ns!r}]))\n"))
    terms = [1.0 / k for k in range(1, max(ns) + 1)]
    want = [math.fsum(terms[:n]).hex() for n in ns]
    assert got == want


def test_harmonic_holds_no_table():
    # the Kahan table of H(1..1e6) it replaced kept 8 MB after the call
    out = run_fresh(
        "import tracemalloc\nfrom zipftree.theory import harmonic\n"
        "tracemalloc.start()\nharmonic(10**6)\n"
        "print(*tracemalloc.get_traced_memory())\n")
    retained, peak = (int(v) / 1e6 for v in out.split())
    assert peak <= 4.0, f"harmonic(1e6) peaked at {peak:.2f} MB"
    assert retained < 0.1, f"harmonic(1e6) kept {retained:.3f} MB"


@pytest.mark.parametrize("n, hex_value", [
    (2**26 + 1, "0x1.2995ad76eccc3p+4"),
    (10**9, "0x1.54cec5b11a32ap+4"),
    (10**12, "0x1.c354f01737ddep+4"),
])
def test_harmonic_past_the_exact_range_is_the_rounded_true_value(n, hex_value):
    assert harmonic(n) == float.fromhex(hex_value)


def test_harmonic_past_the_exact_range_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(26)
    ns = [2**26 + 1, 2**26 + 2] + [rng.randrange(2**26 + 1, 2**60)
                                   for _ in range(100)]
    with mpmath.workdps(40):
        want = [float(mpmath.harmonic(n)) for n in ns]
    assert [harmonic(n) for n in ns] == want


@pytest.mark.parametrize("call", [
    lambda: harmonic(10**8),
    lambda: sequool_bound(10**12, SmoothnessParams(1.0, 0.5, 2.0, 1.0)),
], ids=["harmonic-1e8", "sequool_bound-1e12"])
def test_large_n_is_small_and_quick(call):
    harmonic.cache_clear()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        call()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < 50.0, f"peaked at {peak:.2f} MB"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_sequool_bound_at_a_trillion_openings():
    out = sequool_bound(10**12, SmoothnessParams(1.0, 0.5, 2.0, 1.0))
    assert out["h_max"] == int(10**12 // harmonic(10**12))
    assert 0.0 < out["theorem"] < 1e-8
