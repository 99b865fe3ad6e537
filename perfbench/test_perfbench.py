"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py
"""

import copy
import json
import math
import re
import shutil
import subprocess
import sys
from array import array
from types import SimpleNamespace

import pytest

import golden
import run
import tracer as tracer_module
import workloads
from tracer import Tracer, fold_spans

workloads.use_source_tree()

from zipftree import optimizers  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload, keep", [("deterministic", (2, 3)),
                                            ("noisy", (0, 4))])
def test_traced_results_equal_untraced_and_golden(monkeypatch, workload, keep):
    runs = workloads.LIBRARY[workload]
    monkeypatch.setitem(workloads.LIBRARY, workload, tuple(runs[i] for i in keep))
    objs = workloads.setup(workload)
    original = optimizers.uniform_run
    plain = workloads.library_pass(workload, objs, 0).records
    t = Tracer()
    t.install()
    try:
        traced = workloads.library_pass(workload, objs, 0).records
    finally:
        t.uninstall()
    assert optimizers.uniform_run is original
    assert len(t.runs) == len(keep)
    assert traced == plain
    gold = golden.load(workload, 0)
    assert plain == {k: gold[k] for k in plain}


def test_traced_cli_matches_plain_cli_and_collects_worker_runs(tmp_path):
    args = ["--algo", "uniform", "--objective", "garland", "--budget", "50",
            "--noise-b", "0,1", "--seeds", "3", "--jobs", "2", "--summary"]
    _, rc, plain_out, _ = workloads.run_child(
        [sys.executable, "-m", "zipftree.cli", *args])
    assert rc == 0
    _, rc, traced_out, err = workloads.run_child(
        [sys.executable, str(workloads.HERE / "cli_traced.py"), str(tmp_path), *args])
    assert rc == 0, err
    assert workloads.cli_records(traced_out)[0] == workloads.cli_records(plain_out)[0]
    runs, rests = run.read_trace_dir(tmp_path)
    assert len(runs) == 6 and all(r["algo"] == "uniform" for r in runs)
    assert {"cli.main", "harness.run_experiment", "harness.summarize"} <= rests[0]["spans"].keys()


def test_self_time_on_synthetic_span_tree():
    # r0 [0,10] holds a [1,4] (which holds c [2,3]) and b [5,9]; r1 [20,21]
    names = array("H", [0, 1, 2, 1, 0])
    starts = array("d", [0, 1, 2, 5, 20])
    ends = array("d", [10, 4, 3, 9, 21])
    parents = array("l", [-1, 0, 1, 0, -1])
    totals = fold_spans(names, starts, ends, parents, 0, {})
    assert totals[0] == [2, 11.0, (10 - 3 - 4) + 1]
    assert totals[1] == [2, 7.0, (3 - 1) + 4]
    assert totals[2] == [1, 1.0, 1.0]
    # a folded-away child still counts against its parent through `cover`
    assert fold_spans(names, starts, ends, parents, 0, {4: 0.25})[0][2] == 4 - 0.25


def test_run_spans_are_dropped_but_still_cover_their_parent(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracer_module.time, "perf_counter", lambda: float(next(ticks)))
    t = Tracer()
    result = SimpleNamespace(openings_used=1, evaluations_used=3, budget_units_used=1)
    inner = t.span("objectives.eval", lambda: None)

    def fake_run(cfg):
        inner()
        return result

    outer = t.span("harness.run_experiment",
                   lambda: t.run_span("uniform", fake_run)(SimpleNamespace(budget_n=7)))
    outer()  # clock: outer 0, run 1, eval 2..3, run end 4, outer end 5
    (summary,) = t.runs
    assert summary["n"] == 7 and summary["evaluations"] == 3
    assert summary["spans"] == {"optimizers.uniform": [1, 3.0, 2.0],
                                "objectives.eval": [1, 1.0, 1.0]}
    assert len(t.starts) == 1
    assert t.fold_rest()["spans"] == {"harness.run_experiment": [1, 5.0, 2.0]}


def test_golden_check_flags_one_perturbed_record():
    gold = golden.load("noisy", 0)
    bad = copy.deepcopy(gold)
    key = sorted(bad)[1]
    value = float(bad[key]["value_estimate"])
    bad[key]["value_estimate"] = repr(math.nextafter(value, math.inf))
    assert golden.check("noisy", bad, gold, {}, 5) == {key}
    assert golden.check("noisy", gold, gold, {}, 5) == set()


def test_golden_check_flags_one_perturbed_csv_row():
    gold = golden.load("cli-sweep", 0)
    bad = dict(gold)
    fields = bad["row017"].split(",")
    fields[5] = repr(math.nextafter(float(fields[5]), 0.0))
    bad["row017"] = ",".join(fields)
    assert golden.check("cli-sweep", bad, gold, {}, workloads.CLI_RUNS) == {"row017"}


def test_invariants_flag_broken_runs_without_golden():
    objs = workloads.setup("deterministic")
    good = {"recommendation": "(0.5,)", "value_estimate": "0.5",
            "openings": 101, "evaluations": 303, "units": 101, "deepest_depth": 5}
    records = {"sequool|garland|100|0.0|1": good,
               "sequool|garland|100|0.0|2": dict(good, openings=102),
               "uniform|garland|100|0.0|3": {"error": "ValueError()"}}
    assert golden.check("deterministic", records, None, objs, 3) == {
        "sequool|garland|100|0.0|2", "uniform|garland|100|0.0|3"}
    gold = golden.load("cli-sweep", 0)
    rows = {k: v for k, v in gold.items() if k != "row003"}
    fields = rows["row001"].split(",")
    fields[5] = "1e-09"  # below garland's float64 regret floor
    rows["row001"] = ",".join(fields)
    assert golden.check("cli-sweep", rows, None, {}, workloads.CLI_RUNS) == {
        "row001", "row003"}


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     zipftree.partition",
        "import time:        50 |         50 |           scipy",
        "import time:       200 |        250 |         scipy.optimize",
        "import time:       300 |        550 |       zipftree.theory",
        "import time:        10 |        660 |     zipftree.optimizers",
        "import time:        20 |        780 |   zipftree",
        "import time:         5 |        785 | zipftree.cli",
    ])
    out = run.parse_importtime(text)
    assert out["partition.import_s"] == pytest.approx(100e-6)
    assert out["theory.import_s"] == pytest.approx(550e-6)
    assert out["optimizers.import_s"] == pytest.approx(110e-6)
    assert out["cli.import_s"] == pytest.approx(5e-6)
    assert out["scipy.import_s"] == pytest.approx(250e-6)
    assert out["harness.import_s"] == 0.0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == dict(run.END_TO_END)
    assert layer == dict(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for name in [*e2e, *layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name), name
    computed = set(run.layer_metrics([], [], workloads.Pass(1.0, {}, 0, 0, {})))
    computed |= set(run.parse_importtime(""))
    computed |= {"trace.overhead_s", *(f"{a}_s" for a in workloads.ALGOS)}
    assert computed == set(layer)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "noisy", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
