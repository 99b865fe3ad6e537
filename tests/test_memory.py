"""Peak Python heap of one run of each level-wise schedule that holds many
cells, measured with tracemalloc.

uniform keeps only the cells its next depth opens, and StroquOOL folds each
depth into its per-count bests as soon as the depth is made, so both hold
one depth at a time.  Holding every depth's (sum, cell) pairs instead took
about 19 MB for uniform at n = 2e4 and 7 MB for StroquOOL at n = 1e6; the
bounds below sit between those peaks and today's (about 4.5 and 0.7 MB).
"""

import tracemalloc

from zipftree.objectives import NoiseModel, garland_objective
from zipftree.optimizers import RunConfig, stroquool_run, uniform_run
from zipftree.theory import harmonic

GARLAND = garland_objective()


def peak_mb(run):
    """The tracemalloc peak, in MB, of calling `run`."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_uniform_holds_one_depth():
    peak = peak_mb(lambda: uniform_run(GARLAND, None, RunConfig(budget_n=20_000)))
    assert peak <= 10.0, f"uniform n=2e4 peaked at {peak:.2f} MB"


def test_stroquool_holds_one_depth():
    n = 1_000_000
    harmonic(n)  # cached now, so the peak is the run's, not harmonic's blocks
    peak = peak_mb(lambda: stroquool_run(GARLAND, NoiseModel(1.0, seed=0),
                                         RunConfig(budget_n=n)))
    assert peak <= 3.0, f"stroquool b=1 n=1e6 peaked at {peak:.2f} MB"
