import csv
import math

import pytest

from zipftree import harness
from zipftree.harness import (AlgoSpec, ExperimentSpec, RegretRecord,
                              TaskError, derive_seed, emit_bound_overlay,
                              parse_algo, read_records, run_experiment,
                              summarize, write_records)
from zipftree.theory import BoundInputs, SmoothnessParams, stroquool_bounds


def small_spec(**overrides):
    fields = dict(algorithms=["sequool", "stroquool"], objective="garland",
                  budgets=[50, 150], noise_b=[0.0], seeds=2)
    fields.update(overrides)
    return ExperimentSpec(**fields)


# ---------------------------------------------------------------------------
# spec parsing / validation
# ---------------------------------------------------------------------------

def test_parse_algo_forms():
    assert parse_algo("sequool") == AlgoSpec("sequool")
    doo = parse_algo("doo:1.5:0.5")
    assert doo == AlgoSpec("doo", 1.5, 0.5)
    assert doo.label == "doo:nu=1.5:rho=0.5"
    assert parse_algo({"name": "doo", "nu": 1, "rho": 0.25}).rho == 0.25
    assert parse_algo(doo) is doo
    with pytest.raises(ValueError, match="unknown algorithm 'sooo'"):
        parse_algo("sooo")
    with pytest.raises(ValueError, match="doo needs nu and rho"):
        parse_algo("doo:1.0")
    with pytest.raises(ValueError, match="takes no parameters"):
        parse_algo("soo:1.0")
    with pytest.raises(ValueError, match="doo requires nu and rho"):
        parse_algo({"name": "doo"})


def test_spec_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        small_spec(budgets=[100, 100])
    with pytest.raises(ValueError, match="strictly increasing"):
        small_spec(budgets=[200, 100])
    with pytest.raises(ValueError, match="noise levels must be >= 0"):
        small_spec(noise_b=[-0.1])
    with pytest.raises(ValueError, match="algorithms must be nonempty"):
        small_spec(algorithms=[])
    with pytest.raises(ValueError, match=r"delta must be in \(0, 1\)"):
        small_spec(delta=0.0)
    with pytest.raises(ValueError, match="branching must be at least 2"):
        small_spec(branching=1)
    spec = small_spec(seeds=[4, 9])
    assert spec.repeat_indices == [4, 9]
    assert small_spec(seeds=3).repeat_indices == [0, 1, 2]


def test_spec_rejects_empty_grid_axes():
    assert small_spec(noise_b=None).noise_b == [0.0]
    with pytest.raises(ValueError, match="noise_b must be nonempty"):
        small_spec(noise_b=[])
    for seeds in (0, -2, []):
        with pytest.raises(ValueError, match="seeds must be a count >= 1"):
            small_spec(seeds=seeds)


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------

def test_derive_seed_frozen_values():
    # hash-derived; frozen so grids stay reproducible across releases
    assert derive_seed(0, "sequool", 100, 0.0, 0) == 9114062813714677609
    assert derive_seed(0, "stroquool", 100, 0.1, 3) == 11566558922717324257
    assert derive_seed(7, "doo:nu=1:rho=0.5", 50, 0.0, 1) == 4566769821142711172


def test_derive_seed_sensitivity():
    base = derive_seed(0, "stroquool", 100, 0.1, 0)
    assert derive_seed(1, "stroquool", 100, 0.1, 0) != base
    assert derive_seed(0, "uniform", 100, 0.1, 0) != base
    assert derive_seed(0, "stroquool", 101, 0.1, 0) != base
    assert derive_seed(0, "stroquool", 100, 0.2, 0) != base
    assert derive_seed(0, "stroquool", 100, 0.1, 1) != base
    # b is keyed by repr: 0.1 and 0.10 are the same float, same seed
    assert derive_seed(0, "stroquool", 100, 0.10, 0) == base


# ---------------------------------------------------------------------------
# running grids
# ---------------------------------------------------------------------------

def record_key(rec):
    # everything except wall_ms, which is never reproducible
    return (rec.algo, rec.objective, rec.n, rec.b, rec.seed, rec.regret,
            rec.openings, rec.evaluations)


def test_run_experiment_grid_order_and_rerun_identity():
    spec = small_spec()
    records = run_experiment(spec)
    assert len(records) == 2 * 2 * 1 * 2
    assert [(r.algo, r.n, r.seed % 2 == r.seed % 2) for r in records]
    # grid order: algorithms outermost, then budgets, then noise, then repeat
    assert [r.algo for r in records] == ["sequool"] * 4 + ["stroquool"] * 4
    assert [r.n for r in records[:4]] == [50, 50, 150, 150]
    again = run_experiment(small_spec())
    assert [record_key(r) for r in again] == [record_key(r) for r in records]


def test_run_experiment_parallel_matches_serial():
    spec = small_spec(algorithms=["stroquool", "uniform"], noise_b=[0.0, 0.4])
    serial = run_experiment(spec, jobs=1)
    parallel = run_experiment(small_spec(algorithms=["stroquool", "uniform"],
                                         noise_b=[0.0, 0.4]), jobs=3)
    assert [record_key(r) for r in parallel] == [record_key(r) for r in serial]


def test_run_experiment_caps_the_pool_at_the_task_count(monkeypatch):
    # a process pool forks every worker it is given on the first submit;
    # the stand-in records the size asked for and maps in-process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return None

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    serial = [record_key(r) for r in run_experiment(small_spec())]
    assert [record_key(r) for r in run_experiment(small_spec(), jobs=64)] == serial
    assert sizes == [len(serial)]
    run_experiment(small_spec(algorithms=["sequool"], budgets=[50], seeds=1),
                   jobs=4)
    assert sizes == [len(serial)]  # one task runs in-process, with no pool
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_experiment(small_spec(), jobs=jobs)


def test_run_experiment_subgrid_consistency():
    # a smaller grid is a sub-multiset of a bigger one: seeds depend only on
    # the run's own coordinates
    big = {record_key(r) for r in run_experiment(small_spec(seeds=3))}
    small = {record_key(r) for r in run_experiment(small_spec(seeds=2))}
    assert small < big


def test_deterministic_algorithms_reject_noise():
    spec = small_spec(algorithms=["sequool"], noise_b=[0.1])
    with pytest.raises(ValueError, match="deterministic-feedback"):
        run_experiment(spec)
    spec = small_spec(algorithms=["doo:1.0:0.5"], noise_b=[0.1], budgets=[20])
    with pytest.raises(ValueError, match="deterministic-feedback"):
        run_experiment(spec)


def test_failing_task_is_named_with_its_cause(tmp_path):
    # StroquOOL rejects n < 8, so exactly one task of this grid fails: the
    # error names it and chains the runner's own exception
    out = tmp_path / "grid.csv"
    spec = small_spec(algorithms=["uniform", "stroquool"], budgets=[5, 50],
                      seeds=1, out=str(out))
    with pytest.raises(TaskError) as info:
        run_experiment(spec)
    assert str(info.value).startswith(
        "task (algo=stroquool, objective=garland, n=5, b=0.0, rep=0) failed: ")
    assert isinstance(info.value.__cause__, ValueError)
    assert "StroquOOL needs n >= 8" in str(info.value.__cause__)
    # the rows of the tasks before it stay written
    assert [(r.algo, r.n) for r in read_records(str(out))] == [
        ("uniform", 5), ("uniform", 50)]
    # a pool worker's failure names the same task and keeps its cause
    with pytest.raises(TaskError, match=r"task \(algo=stroquool, objective="
                       r"garland, n=5, b=0\.0, rep=0\) failed") as info:
        run_experiment(small_spec(algorithms=["uniform", "stroquool"],
                                  budgets=[5, 50], seeds=1), jobs=2)
    assert isinstance(info.value.cause, ValueError)


def test_run_experiment_regret_scored_on_true_objective():
    records = run_experiment(small_spec(algorithms=["stroquool"],
                                        noise_b=[0.8], budgets=[100], seeds=4))
    # scored against f, not against noisy estimates: regret is nonnegative
    # even though estimates can exceed the optimum under heavy noise
    assert all(r.regret >= 0.0 for r in records)
    assert all(r.b == 0.8 for r in records)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_csv_schema_and_precision(tmp_path):
    out = tmp_path / "records.csv"
    spec = small_spec(out=str(out))
    records = run_experiment(spec)
    lines = out.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert any("optimum_value=0.9977723911610445" in l for l in comments)
    assert any("master_seed=0" in l for l in comments)
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "algo,objective,n,b,seed,regret,openings,evaluations,wall_ms"
    assert len(body) == 1 + len(records)
    row = body[1].split(",")
    # >= 12 significant digits on the regret column
    digits = row[5].replace("-", "").replace(".", "").split("e")[0].lstrip("0")
    assert len(digits) >= 12
    assert float(row[5]) == records[0].regret  # round-trip exact


def test_read_records_round_trip(tmp_path):
    out = tmp_path / "records.csv"
    records = run_experiment(small_spec(out=str(out)))
    back = read_records(str(out))
    assert [record_key(r) for r in back] == [record_key(r) for r in records]
    assert all(a.wall_ms == b.wall_ms for a, b in zip(back, records))


def test_write_records_helper(tmp_path):
    recs = [RegretRecord("soo", "garland", 10, 0.0, 1, 0.125, 10, 31, 0.5)]
    path = tmp_path / "dump.csv"
    write_records(recs, str(path), meta={"note": "hand-made"})
    text = path.read_text()
    assert "# note=hand-made" in text
    assert read_records(str(path))[0] == recs[0]
    with pytest.raises(ValueError, match="unexpected header"):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        read_records(str(bad))


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def synthetic(algo, n, regret, b=0.0, seed=0):
    return RegretRecord(algo, "garland", n, b, seed, regret, n, 3 * n, 1.0)


def test_summarize_groups_and_quantiles():
    records = [synthetic("soo", 100, r, seed=i)
               for i, r in enumerate((0.1, 0.2, 0.4, 0.8, 1.6))]
    out = summarize(records)
    g = out["groups"][("soo", 100, 0.0)]
    assert g["count"] == 5
    assert g["median"] == 0.4
    assert g["q10"] < g["median"] < g["q90"]


def test_summarize_power_law_slope():
    # regret 2^-n: log-linear in n with slope exactly -log 2
    records = [synthetic("soo", n, 2.0 ** -n) for n in (10, 20, 30, 40)]
    fit = summarize(records)["fits"][("soo", 0.0)]
    assert fit["flat"] is False
    assert fit["slope"] == pytest.approx(-math.log(2.0), abs=1e-12)
    assert fit["slope_log2"] == pytest.approx(-1.0, abs=1e-9)
    assert fit["r2"] == pytest.approx(1.0, abs=1e-12)


def test_summarize_flat_and_dropped():
    records = [synthetic("doo", n, 0.25) for n in (10, 20, 30)]
    fit = summarize(records)["fits"][("doo", 0.0)]
    assert fit == {"slope": 0.0, "slope_log2": 0.0, "r2": None, "flat": True,
                   "points": 3, "dropped_nonpositive": 0}
    # zero regret cannot be logged; it is dropped and counted
    records += [synthetic("doo", 40, 0.0)]
    fit = summarize(records)["fits"][("doo", 0.0)]
    assert fit["dropped_nonpositive"] == 1 and fit["points"] == 3
    single = summarize([synthetic("soo", 10, 0.5)])["fits"][("soo", 0.0)]
    assert single["slope"] is None and single["flat"] is None
    with pytest.raises(ValueError, match="no records"):
        summarize([])


# ---------------------------------------------------------------------------
# bound overlay
# ---------------------------------------------------------------------------

def test_emit_bound_overlay(tmp_path):
    spec = small_spec(budgets=[100, 1000], noise_b=[0.0, 1.0])
    params = SmoothnessParams(nu=1.0, rho=0.5, C=2.0)
    rows = emit_bound_overlay(spec, params)
    assert [row["n"] for row in rows] == [100, 1000]
    assert rows[0]["sequool"] > rows[1]["sequool"]
    assert rows[0]["stroquool_b=0"] == 3.0
    # n = 100 is too small for the heavy-noise display: empty cell
    assert rows[0]["stroquool_b=1"] is None
    assert rows[1]["stroquool_b=1"] > 0.0
    out = tmp_path / "overlay.csv"
    emit_bound_overlay(spec, params, out=str(out))
    with open(out) as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["n", "sequool", "stroquool_b=0", "stroquool_b=1"]
    assert table[1][3] == ""
    assert float(table[2][3]) == rows[1]["stroquool_b=1"]


def test_emit_bound_overlay_fills_tiny_noise_cells():
    # a cell stays blank only where n is too small for the high-noise bound;
    # b = 1e-160 is a valid noise level at every budget
    spec = small_spec(budgets=[100, 10**5], noise_b=[1e-160, 1.0])
    params = SmoothnessParams(nu=1.0, rho=0.5, C=2.0)
    rows = emit_bound_overlay(spec, params)
    for row in rows:
        assert row["stroquool_b=1e-160"] == stroquool_bounds(
            BoundInputs(row["n"], 1e-160, spec.delta), params)["bound"] > 0.0
    assert rows[0]["stroquool_b=1"] is None
    with pytest.raises(ValueError, match="n=100 too small for the high-noise"):
        stroquool_bounds(BoundInputs(100, 1.0, spec.delta), params)
    assert rows[1]["stroquool_b=1"] > 0.0
