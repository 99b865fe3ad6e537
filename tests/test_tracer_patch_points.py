"""The benchmark's span tracer (perfbench/tracer.py) wraps names of the
package from outside it: optimizers.make_tree, PartitionTree.open_cell,
the objectives' fn, the *_run entry points and more.  Nothing in
the package imports the tracer, so these tests keep its patch points
present: removing or renaming one makes `install` fail here."""

import gc
import importlib.util
from pathlib import Path

from zipftree import harness, optimizers
from zipftree.objectives import NoiseModel, garland_objective
from zipftree.optimizers import RunConfig

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def untraced_runs():
    obj = garland_objective()
    return [
        optimizers.sequool_run(obj, RunConfig(budget_n=60)),
        optimizers.soo_run(obj, RunConfig(budget_n=30)),
        optimizers.doo_run(obj, RunConfig(budget_n=30), 1.0, 0.6),
        optimizers.uniform_run(obj, NoiseModel(0.3, seed=1), RunConfig(budget_n=20)),
        harness.stroquool_run(obj, NoiseModel(0.3, seed=2), RunConfig(budget_n=200)),
    ]


def test_tracer_installs_traces_and_uninstalls():
    tracer = load_tracer()
    plain = untraced_runs()
    t = tracer.Tracer()
    t.install()
    try:
        patched = list(t._patched)
        assert patched, "install patched nothing"
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
        traced = untraced_runs()
    finally:
        t.uninstall()
    # every wrapped name is the original again, and the collector hook is gone
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
    assert t._on_gc not in gc.callbacks
    assert traced == plain
    assert [r["algo"] for r in t.runs] == list(tracer.ALGOS)
    for summary, res in zip(t.runs, plain):
        assert summary["openings"] == res.openings_used
        assert summary["evaluations"] == res.evaluations_used
        assert summary["units"] == res.budget_units_used
        # every run calls the objective the tracer wraps
        assert summary["spans"]["objectives.fn"][0] > 0
