import dataclasses
import math
import re

import numpy as np
import pytest

from zipftree import harness
from zipftree.harness import (AlgoSpec, ExperimentSpec, RegretRecord,
                              TaskError, derive_seed, parse_algo,
                              read_records, run_experiment, summarize)


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
    # a label writes the float a setting runs with, digit for digit
    assert parse_algo({"name": "doo", "nu": np.float32(0.6),
                       "rho": 1 / 3}).label == (
        "doo:nu=0.6000000238418579:rho=0.3333333333333333")
    assert parse_algo(doo) is doo
    with pytest.raises(ValueError, match="unknown algorithm 'sooo'"):
        parse_algo("sooo")
    with pytest.raises(ValueError, match="doo needs nu and rho"):
        parse_algo("doo:1.0")
    with pytest.raises(ValueError, match="takes no parameters"):
        parse_algo("soo:1.0")
    with pytest.raises(ValueError, match="doo requires nu and rho"):
        parse_algo({"name": "doo"})
    # DOO's own range checks, before any task of a grid runs
    for token, message in (("doo:-1:0.5", "nu must be > 0"),
                           ("doo:1:2", r"rho must be in \(0, 1\)"),
                           ("doo:1:nan", r"rho must be in \(0, 1\)"),
                           ({"name": "doo", "nu": 0, "rho": 0.5}, "nu must be > 0")):
        with pytest.raises(ValueError, match=f"algorithm .* invalid: {message}"):
            parse_algo(token)
    for token in ({"name": ["doo"]}, {"name": "doo", "nu": "1", "rho": 0.5},
                  {"name": "doo", "nu": 1, "rho": True}):
        with pytest.raises(ValueError, match="name must be a string, nu and "
                           "rho numbers"):
            parse_algo(token)


@pytest.mark.parametrize("b", [math.nan, math.inf])
def test_spec_rejects_a_non_finite_noise_level(b):
    # NaN passed the old b < 0 check, and a NoiseModel of it drew only NaN
    with pytest.raises(ValueError, match="noise_b must be >= 0 and finite"):
        small_spec(noise_b=[0.0, b])


def test_spec_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        small_spec(budgets=[100, 100])
    with pytest.raises(ValueError, match="strictly increasing"):
        small_spec(budgets=[200, 100])
    with pytest.raises(ValueError, match="noise_b must be >= 0"):
        small_spec(noise_b=[-0.1])
    with pytest.raises(ValueError, match="algorithms must be nonempty"):
        small_spec(algorithms=[])
    with pytest.raises(ValueError, match=r"delta must be in \(0, 1\)"):
        small_spec(delta=0.0)
    with pytest.raises(ValueError, match="branching must be >= 2"):
        small_spec(branching=1)
    assert small_spec(seeds=[4, 9]).seeds == (4, 9)
    assert small_spec(seeds=3).seeds == (0, 1, 2)


def test_spec_rejects_empty_grid_axes():
    assert small_spec(noise_b=None).noise_b == (0.0,)
    with pytest.raises(ValueError, match="noise_b must be nonempty"):
        small_spec(noise_b=[])
    for seeds in (0, -2, []):
        with pytest.raises(ValueError, match="seeds must be a count >= 1"):
            small_spec(seeds=seeds)


@pytest.mark.parametrize("field, value, message", [
    ("branching", 2.5, "branching must be an integer: 2.5"),
    ("branching", "3", "branching must be an integer: '3'"),
    ("budgets", 100, "budgets must be a list: 100"),
    ("budgets", "100", "budgets must be a list: '100'"),
    ("budgets", [50, 150.5], "budgets must be an integer: 150.5"),
    ("budgets", ["50"], "budgets must be an integer: '50'"),
    ("noise_b", 0.1, "noise_b must be a list: 0.1"),
    ("noise_b", "0.1", "noise_b must be a list: '0.1'"),
    ("noise_b", ["0.1"], "noise_b must be >= 0 and finite: '0.1'"),
    ("noise_b", [True], "noise_b must be >= 0 and finite: True"),
    ("delta", "x", r"delta must be in \(0, 1\): 'x'"),
    ("delta", None, r"delta must be in \(0, 1\): None"),
    ("master_seed", "x", "master_seed must be an integer: 'x'"),
    ("master_seed", 1.5, "master_seed must be an integer: 1.5"),
    ("objective", ["garland"], "objective must be a name"),
    ("algorithms", 5, "algorithms must be a list: 5"),
    ("out", 1, "out must be a path: 1"),
], ids=["float-branching", "string-branching", "int-budgets",
        "string-budgets", "float-budget", "string-budget", "float-noise-b",
        "string-noise-b-axis", "string-noise-b", "bool-noise-b",
        "string-delta", "none-delta", "string-master-seed",
        "float-master-seed", "list-objective", "int-algorithms", "int-out"])
def test_spec_rejects_a_field_of_another_type(field, value, message):
    with pytest.raises(ValueError, match=message):
        small_spec(**{field: value})


def test_spec_takes_any_integer_type():
    spec = small_spec(budgets=(np.int64(50), 150), branching=np.int64(2),
                      master_seed=np.int32(7), noise_b=[0, np.float32(0.5)])
    assert spec.budgets == (50, 150) and spec.noise_b == (0.0, 0.5)
    assert (type(spec.branching), type(spec.master_seed)) == (int, int)


def test_spec_rejects_seeds_of_another_type():
    # "12" is a repeat count in the wrong type, not the repeat list [1, 2]
    for seeds in ("12", 2.5, [1, 2.0], True, None):
        with pytest.raises(ValueError, match="seeds must be an int or a list "
                           "of ints"):
            small_spec(seeds=seeds)


@pytest.mark.parametrize("overrides, message", [
    (dict(noise_b=[0.1, 0.1]), "noise_b must not repeat: 0.1"),
    (dict(noise_b=[0.0, 0.5, -0.0]), "noise_b must not repeat: -0.0"),
    (dict(seeds=[0, 0]), "seeds must not repeat: 0"),
    (dict(seeds=[3, 1, np.int64(3)]), "seeds must not repeat: 3"),
    (dict(algorithms=["sequool", "soo", "sequool"]),
     "algorithms must not repeat: 'sequool'"),
    (dict(algorithms=["doo:1:0.6", "doo:1.0:0.60"]),
     "algorithms must not repeat: 'doo:nu=1:rho=0.6'"),
    (dict(algorithms=["doo:1:0.6", {"name": "doo", "nu": 1, "rho": 0.6}]),
     "algorithms must not repeat: 'doo:nu=1:rho=0.6'"),
], ids=["noise-b", "signed-zero-noise-b", "seeds", "numpy-seed",
        "algorithm", "doo-same-label", "doo-dict"])
def test_spec_rejects_a_repeated_axis_entry(tmp_path, overrides, message):
    # a repeat used to write duplicate rows (the same label, n, b and rep
    # give the same derived seed) that summarize counted as separate runs
    out = tmp_path / "r.csv"
    with pytest.raises(ValueError, match=re.escape(message)):
        small_spec(out=str(out), **overrides)
    assert not out.exists()


def test_spec_keeps_distinct_axis_entries():
    # a DOO label writes nu and rho exactly, so distinct settings never clash
    spec = small_spec(algorithms=["doo:1:0.6", "doo:1.0000001:0.6",
                                  "doo:1:0.5", "soo"],
                      noise_b=[0.0, 0.1], seeds=[2, 0])
    assert [a.label for a in spec.algorithms] == [
        "doo:nu=1:rho=0.6", "doo:nu=1.0000001:rho=0.6", "doo:nu=1:rho=0.5",
        "soo"]
    assert spec.noise_b == (0.0, 0.1) and spec.seeds == (2, 0)


def test_doo_settings_that_print_alike_write_distinct_rows(tmp_path):
    # both settings used to label as doo:nu=1:rho=0.6, and so derive the
    # same seeds
    rows = []
    for token in ("doo:1:0.6", "doo:1.0000001:0.6"):
        out = tmp_path / "r.csv"
        run_experiment(small_spec(algorithms=[token], budgets=[20], seeds=2,
                                  out=str(out)))
        rows.append(read_records(str(out)))
    assert {r.algo for r in rows[0]} == {"doo:nu=1:rho=0.6"}
    assert {r.algo for r in rows[1]} == {"doo:nu=1.0000001:rho=0.6"}
    assert not {r.seed for r in rows[0]} & {r.seed for r in rows[1]}


def test_spec_axes_are_tuples():
    # a list changed in place used to get past every rule: an appended
    # noise level wrote a second row per run
    spec = small_spec(algorithms=("sequool",), seeds=2)
    assert spec.algorithms == (AlgoSpec("sequool"),)
    assert (spec.budgets, spec.noise_b, spec.seeds) == (
        (50, 150), (0.0,), (0, 1))
    with pytest.raises(AttributeError):
        spec.noise_b.append(0.1)
    # replace builds a new spec, checked again
    grown = dataclasses.replace(spec, budgets=[50, 150, 450])
    assert grown.budgets == (50, 150, 450) and grown.seeds == (0, 1)
    with pytest.raises(ValueError, match="strictly increasing"):
        dataclasses.replace(spec, budgets=[150, 50])


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


def test_run_experiment_takes_an_integer_jobs(tmp_path):
    # jobs=2.5 used to write the header, then fail inside the pool with a
    # TypeError; jobs=True ran serially
    out = tmp_path / "r.csv"
    for jobs in (2.5, True, "2"):
        with pytest.raises(ValueError,
                           match=f"jobs must be an integer: {jobs!r}"):
            run_experiment(small_spec(out=str(out)), jobs=jobs)
        assert not out.exists()
    records = run_experiment(small_spec(), jobs=np.int64(2))
    assert [record_key(r) for r in records] == [
        record_key(r) for r in run_experiment(small_spec())]


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


def refuse_uniform_at(monkeypatch, n):
    """Make harness's uniform runs raise ValueError at budget n; the runners
    look uniform_run up at call time, and forked pool workers inherit it."""
    run = harness.uniform_run

    def refusing(obj, noise, cfg):
        if cfg.budget_n == n:
            raise ValueError(f"refused n={n}")
        return run(obj, noise, cfg)

    monkeypatch.setattr(harness, "uniform_run", refusing)


def test_failing_task_is_named_with_its_cause(tmp_path, monkeypatch):
    # exactly one task of this grid fails: the error names it and chains the
    # runner's own exception
    refuse_uniform_at(monkeypatch, 8)
    out = tmp_path / "grid.csv"
    spec = small_spec(algorithms=["stroquool", "uniform"], budgets=[8, 50],
                      seeds=1, out=str(out))
    with pytest.raises(TaskError) as info:
        run_experiment(spec)
    assert str(info.value).startswith(
        "task (algo=uniform, objective=garland, n=8, b=0.0, rep=0) failed: ")
    assert isinstance(info.value.__cause__, ValueError)
    assert "refused n=8" in str(info.value.__cause__)
    # the rows of the tasks before it stay written
    assert [(r.algo, r.n) for r in read_records(str(out))] == [
        ("stroquool", 8), ("stroquool", 50)]
    # a pool worker's failure names the same task and keeps its cause
    with pytest.raises(TaskError, match=r"task \(algo=uniform, objective="
                       r"garland, n=8, b=0\.0, rep=0\) failed") as info:
        run_experiment(small_spec(algorithms=["stroquool", "uniform"],
                                  budgets=[8, 50], seeds=1), jobs=2)
    assert isinstance(info.value.cause, ValueError)


def test_a_stroquool_grid_below_budget_8_runs_no_task(tmp_path, monkeypatch):
    # StroquOOL's n >= 8 is checked over the whole grid before spec.out is
    # opened and before the first task
    calls = []
    monkeypatch.setattr(harness, "_run_one", calls.append)
    out = tmp_path / "r.csv"
    spec = small_spec(algorithms=["uniform", "stroquool"], budgets=[5, 100],
                      out=str(out))
    with pytest.raises(ValueError, match="budget n=5 too small: StroquOOL "
                                         "needs n >= 8"):
        run_experiment(spec)
    assert calls == [] and not out.exists()
    # the rule holds for StroquOOL only: a uniform grid runs both tasks
    run_experiment(small_spec(algorithms=["uniform"], budgets=[1, 5], seeds=1))
    assert len(calls) == 2


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


def test_read_records_rejects_a_bad_header_or_row_width(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="unexpected header"):
        read_records(str(bad))
    out = tmp_path / "records.csv"
    run_experiment(small_spec(algorithms=["sequool"], budgets=[20], seeds=2,
                              out=str(out)))
    lines = out.read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("sequool"))
    # a row with one field more, or one fewer, names its line (1-based)
    for row in (lines[first].rstrip("\n") + ",7\n",
                lines[first].rsplit(",", 1)[0] + "\n"):
        bad.write_text("".join(lines[:first] + [row] + lines[first + 1:]))
        with pytest.raises(ValueError, match=f"line {first + 1}: "):
            read_records(str(bad))


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def synthetic(algo, n, regret, b=0.0, seed=0):
    return RegretRecord(algo, "garland", n, b, seed, regret, n, 3 * n, 1.0)


def test_summarize_groups_and_quantiles():
    records = [synthetic("soo", 100, r, seed=i)
               for i, r in enumerate((0.1, 0.2, 0.4, 0.8, 1.6))]
    out = summarize(records + [synthetic("soo", 200, 0.05)])
    assert list(out) == [("soo", 100, 0.0), ("soo", 200, 0.0)]
    g = out[("soo", 100, 0.0)]
    assert g["count"] == 5
    assert g["median"] == 0.4
    assert g["q10"] < g["median"] < g["q90"]
    assert out[("soo", 200, 0.0)] == {"median": 0.05, "q10": 0.05,
                                      "q90": 0.05, "count": 1}
    with pytest.raises(ValueError, match="no records"):
        summarize([])


def test_a_noisy_deterministic_grid_runs_no_task(tmp_path, monkeypatch):
    # the feedback rule is checked over the whole grid before spec.out is
    # opened and before the first task, wherever the noise level sits
    calls = []
    monkeypatch.setattr(harness, "_run_one", calls.append)
    out = tmp_path / "r.csv"
    for algorithms in (["stroquool", "sequool"], ["uniform", "doo:1:0.5"]):
        spec = small_spec(algorithms=algorithms, noise_b=[0.0, 0.2],
                          out=str(out))
        with pytest.raises(ValueError, match=r"deterministic-feedback "
                           r"algorithm; run it with b=0 \(got b=0\.2\)"):
            run_experiment(spec)
    assert calls == [] and not out.exists()
