"""zipftree: budget-only hierarchical partitioning optimizers.

Global optimization of a function observed point-by-point (optionally through
bounded noise), using only a recursive partitioning of the domain and the
total opening budget n -- no smoothness parameters, no step sizes.  The
two main algorithms spread openings across tree depths in inverse proportion
to depth; the stochastic variant additionally doubles per-cell evaluation
counts to adapt to the (unknown) noise range.

Layout: `partition` (trees over box domains), `objectives` (benchmark
functions and noise), `optimizers` (the algorithms), `theory` (regret
bounds and the special functions they need), `harness` (experiment grids,
CSV records, summaries), `cli` (command-line front end).
"""

from .partition import Box, Cell, CellId, PartitionTree, make_tree
from .objectives import (GARLAND_ARGMAX, GARLAND_FLOAT_MAX, GARLAND_OPTIMUM,
                         EvaluationStream, NoiseModel, Objective, garland,
                         garland_objective, get_objective, wrapped_sine,
                         wrapped_sine_objective)
from .optimizers import (RunConfig, RunResult, doo_run, sequool_run, soo_run,
                         stroquool_run, uniform_run)
from .theory import (BoundInputs, SmoothnessParams, count_near_optimal,
                     harmonic, lambert_w, sequool_bound, stroquool_bounds,
                     stroquool_h_max)
from .harness import (AlgoSpec, ExperimentSpec, RegretRecord, derive_seed,
                      read_records, run_experiment, summarize)

__version__ = "0.1.0"

__all__ = [
    "Box", "Cell", "CellId", "PartitionTree", "make_tree",
    "GARLAND_ARGMAX", "GARLAND_FLOAT_MAX", "GARLAND_OPTIMUM",
    "Objective", "NoiseModel", "EvaluationStream",
    "garland", "wrapped_sine", "garland_objective", "wrapped_sine_objective",
    "get_objective",
    "RunConfig", "RunResult",
    "sequool_run", "stroquool_run", "soo_run", "doo_run", "uniform_run",
    "SmoothnessParams", "BoundInputs",
    "harmonic", "lambert_w", "stroquool_h_max",
    "sequool_bound", "stroquool_bounds", "count_near_optimal",
    "AlgoSpec", "ExperimentSpec", "RegretRecord", "derive_seed",
    "run_experiment", "summarize", "read_records",
    "__version__",
]
