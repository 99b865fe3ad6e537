import collections
import dataclasses
import json
import tempfile

import pytest

from test_harness import refuse_uniform_at
from zipftree import harness
from zipftree.cli import build_parser, main
from zipftree.harness import ExperimentSpec, TaskError, read_records

HEADER = "algo,objective,n,b,seed,regret,openings,evaluations,wall_ms"


def test_cli_streams_csv_to_stdout(capsys):
    rc = main(["--algo", "sequool", "--objective", "garland",
               "--budget", "20,60", "--seeds", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == HEADER
    assert len(lines) == 3
    assert lines[1].startswith("sequool,garland,20,")


def test_cli_writes_out_file(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main(["--algo", "uniform", "--objective", "wrapped-sine",
               "--budget", "10", "--noise-b", "0.2", "--seeds", "2",
               "--master-seed", "5", "--out", str(out)])
    assert rc == 0
    assert HEADER not in capsys.readouterr().out
    records = read_records(str(out))
    assert len(records) == 2
    assert all(r.objective == "wrapped-sine" and r.b == 0.2 for r in records)


def test_cli_repeatable_flags_and_doo(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["--algo", "sequool", "--algo", "doo:1.0:0.5",
               "--objective", "garland", "--budget", "10", "--budget", "30",
               "--seeds", "1", "--out", str(out)])
    assert rc == 0
    records = read_records(str(out))
    assert [r.algo for r in records] == ["sequool", "sequool",
                                         "doo:nu=1:rho=0.5", "doo:nu=1:rho=0.5"]
    assert [r.n for r in records] == [10, 30, 10, 30]


def test_cli_rejects_a_bad_doo_before_any_task_runs(tmp_path, capsys):
    # the grid used to run and write every sequool row, then fail on doo
    out = tmp_path / "r.csv"
    assert main(["--algo", "sequool", "--algo", "doo:1:2",
                 "--objective", "garland", "--budget", "10", "--seeds", "1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: algorithm 'doo:1:2' invalid: rho must be in (0, 1)\n")
    assert not out.exists()


def test_cli_summary_table(capsys):
    rc = main(["--algo", "soo", "--objective", "garland", "--budget", "25",
               "--seeds", "1", "--summary"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "median" in out
    assert "soo" in out.splitlines()[-1]


def test_cli_config_file_with_overrides(tmp_path, capsys):
    cfg = {"algorithms": ["sequool"], "objective": "garland",
           "budgets": [15], "seeds": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["--config", str(path), "--budget", "40"])  # flag wins
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if l.startswith("sequool")]
    assert lines == [lines[0]] and ",40," in lines[0]


def test_cli_error_paths(capsys):
    assert main(["--algo", "bogus", "--objective", "garland",
                 "--budget", "10"]) == 1
    assert "unknown algorithm" in capsys.readouterr().err
    assert main(["--algo", "sequool", "--objective", "nope",
                 "--budget", "10", "--seeds", "1"]) == 1
    assert "unknown objective" in capsys.readouterr().err
    assert main(["--objective", "garland"]) == 1
    assert "missing required settings" in capsys.readouterr().err
    assert main(["--algo", "sequool", "--objective", "garland",
                 "--budget", "10", "--noise-b", "0.1", "--seeds", "1"]) == 1
    assert "deterministic-feedback" in capsys.readouterr().err


@pytest.mark.parametrize("b", ["nan", "inf"])
def test_cli_rejects_a_non_finite_noise_level(tmp_path, capsys, b):
    out = tmp_path / "r.csv"
    assert main(["--algo", "uniform", "--objective", "garland",
                 "--budget", "10", "--noise-b", b, "--seeds", "1",
                 "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error: noise_b must be >= 0 and finite")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_names_a_failing_task(capsys, monkeypatch):
    refuse_uniform_at(monkeypatch, 5)
    assert main(["--algo", "uniform", "--objective", "garland",
                 "--budget", "5,20", "--seeds", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: task (algo=uniform, objective=garland, "
                          "n=5, b=0.0, rep=0) failed: ")
    assert "refused n=5" in err
    # the same from a pool worker
    assert main(["--algo", "uniform", "--objective", "garland",
                 "--budget", "5,20", "--seeds", "1", "--jobs", "2"]) == 1
    assert "refused n=5" in capsys.readouterr().err


def test_cli_rejects_a_small_stroquool_budget_before_opening_out(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["--algo", "stroquool", "--objective", "garland",
                 "--budget", "5,100", "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == "error: budget n=5 too small: StroquOOL needs n >= 8\n"
    assert not out.exists()


def test_cli_rejects_jobs_below_one(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["--algo", "uniform", "--objective", "garland",
                 "--budget", "10", "--seeds", "1", "--jobs", "0",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: jobs must be >= 1: 0\n"
    assert not out.exists()


def test_cli_rejects_seeds_below_one(capsys):
    for argv in (["--seeds", "-2"], ["--seeds", "0", "--summary"]):
        assert main(["--algo", "uniform", "--objective", "garland",
                     "--budget", "10", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: seeds must be a count >= 1 or a nonempty list\n"


def test_cli_raises_a_runner_fault(monkeypatch):
    # an exception that is no rejected input keeps its traceback
    def faulty(algo, obj, noise, cfg):
        raise TypeError("a fault")

    monkeypatch.setitem(harness._ALGOS, "uniform", (False, faulty))
    with pytest.raises(TaskError) as info:
        main(["--algo", "uniform", "--objective", "garland",
              "--budget", "10", "--seeds", "1"])
    assert isinstance(info.value.__cause__, TypeError)


def test_cli_failure_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    assert main(["--algo", "sequool", "--objective", "garland",
                 "--budget", "10", "--noise-b", "0.1", "--seeds", "1"]) == 1
    assert "deterministic-feedback" in capsys.readouterr().err
    assert list(tmp.iterdir()) == []


def test_cli_stdout_equals_out_file(tmp_path, capsys):
    def without_wall_ms(text):
        return [line if line.startswith("#") else line.rsplit(",", 1)[0]
                for line in text.splitlines()]

    args = ["--algo", "stroquool", "--algo", "uniform", "--objective",
            "garland", "--budget", "10,30", "--noise-b", "0,0.5", "--seeds", "2"]
    assert main(args) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "r.csv"
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert without_wall_ms(stdout) == without_wall_ms(out.read_text())
    assert len(without_wall_ms(stdout)) == 5 + 1 + 16


def test_cli_bad_config_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_parallel_jobs(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--algo", "stroquool", "--objective", "garland", "--budget", "60",
            "--noise-b", "0.3", "--seeds", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--jobs", "2"]) == 0
    a = [(r.algo, r.n, r.seed, r.regret) for r in read_records(str(out1))]
    b = [(r.algo, r.n, r.seed, r.regret) for r in read_records(str(out2))]
    assert a == b


@pytest.mark.parametrize("document, message", [
    ('["sequool"]', "not a JSON object"),
    ('{"algorithms": ["sequool"], "objective": "garland", "budgets": [10], '
     '"seed": 3, "budget": 5}', "unknown settings: budget, seed"),
    ('{"algorithms": ["sequool"], "objective": "garland", "budgets": [10], '
     '"seeds": 2.5}', "seeds must be an int or a list of ints: 2.5"),
    ('{"algorithms": ["sequool"], "objective": "garland", "budgets": [10], '
     '"seeds": "12"}', "seeds must be an int or a list of ints: '12'"),
    ('{"algorithms": ["sequool"], "objective": "garland", "budgets": [10], '
     '"branching": 2.5}', "branching must be an integer: 2.5"),
    ('{"algorithms": ["sequool"], "objective": "garland", "budgets": 5}',
     "budgets must be a list: 5"),
    ('{"algorithms": ["sequool"], "objective": "garland", "budgets": "100"}',
     "budgets must be a list: '100'"),
    ('{"algorithms": ["sequool"], "objective": "garland", "budgets": [10], '
     '"noise_b": 0.1}', "noise_b must be a list: 0.1"),
    ('{"algorithms": ["sequool"], "objective": "garland", "budgets": [10], '
     '"noise_b": "0.1"}', "noise_b must be a list: '0.1'"),
    ('{"algorithms": ["sequool"], "objective": "garland", "budgets": [10], '
     '"delta": "x"}', "delta must be in (0, 1): 'x'"),
    ('{"algorithms": ["sequool"], "objective": "garland", "budgets": [10], '
     '"master_seed": "x"}', "master_seed must be an integer: 'x'"),
    ('{"algorithms": ["sequool"], "objective": ["garland"], "budgets": [10]}',
     "objective must be a name: ['garland']"),
    ('{"algorithms": ["sequool"], "objective": "garland", "budgets": [10], '
     '"out": ["a.csv"]}', "out must be a path: ['a.csv']"),
    ('{"algorithms": ["sequool"], "objective": "garland", "budgets": [10], '
     '"out": ""}', "out must be a path: ''"),
], ids=["not-an-object", "unknown-settings", "float-seeds", "string-seeds",
        "float-branching", "int-budgets", "string-budgets", "float-noise-b",
        "string-noise-b", "string-delta",
        "string-master-seed", "list-objective", "list-out", "empty-out"])
def test_cli_rejects_a_bad_config_document(tmp_path, capsys, document, message):
    path = tmp_path / "cfg.json"
    path.write_text(document)
    assert main(["--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_cli_rejects_a_noisy_deterministic_grid_before_any_task_runs(
        tmp_path, capsys):
    # the stroquool rows used to be written before sequool's first task failed
    out = tmp_path / "r.csv"
    assert main(["--algo", "stroquool", "--algo", "sequool",
                 "--objective", "garland", "--budget", "100",
                 "--noise-b", "0.1", "--seeds", "1", "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == ("error: sequool is a deterministic-feedback algorithm; "
                   "run it with b=0 (got b=0.1)\n")
    assert not out.exists()


def test_cli_rejects_a_repeated_noise_level_before_opening_out(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert main(["--algo", "stroquool", "--objective", "garland",
                 "--budget", "100", "--noise-b", "0.1,0.1", "--seeds", "1",
                 "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == "error: noise_b must not repeat: 0.1\n"
    assert not out.exists()


def test_every_spec_field_is_the_dest_of_one_flag():
    # spec_from_args lays every ExperimentSpec field's flag over the config
    dests = collections.Counter(action.dest for action in build_parser()._actions
                                if action.dest != "help")
    fields = [f.name for f in dataclasses.fields(ExperimentSpec)]
    assert dests == collections.Counter([*fields, "config", "jobs", "summary"])


@pytest.mark.parametrize("argv, message", [
    (["--budget", "1e3"], "argument --budget: invalid int value: '1e3'"),
    (["--budget", "10,x"], "argument --budget: invalid int value: 'x'"),
    (["--budget", "100.0"], "argument --budget: invalid int value: '100.0'"),
    (["--noise-b", "x"], "argument --noise-b: invalid float value: 'x'"),
    (["--seeds", "x"], "argument --seeds: invalid int value: 'x'"),
    (["--branching", "2.5"], "argument --branching: invalid int value: '2.5'"),
    (["--delta", "x"], "argument --delta: invalid float value: 'x'"),
    (["--master-seed", "x"], "argument --master-seed: invalid int value: 'x'"),
    (["--jobs", "x"], "argument --jobs: invalid int value: 'x'"),
    (["--budget"], "argument --budget: expected one argument"),
], ids=["float-budget", "bad-budget-entry", "decimal-budget", "string-noise-b",
        "string-seeds", "float-branching", "string-delta", "string-master-seed",
        "string-jobs", "budget-without-value"])
def test_cli_names_the_flag_of_a_malformed_value(tmp_path, capsys, argv,
                                                 message):
    # --budget 1e3 used to print int()'s message, naming no flag, and
    # --branching 2.5 argparse's usage with exit status 2
    out = tmp_path / "r.csv"
    assert main(["--algo", "uniform", "--objective", "garland",
                 "--budget", "10", "--seeds", "1", "--out", str(out),
                 *argv]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_cli_unknown_flag_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--algo", "uniform", "--objective", "garland", "--budget", "10",
              "--bogus", "1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: zipftree")
    assert "unrecognized arguments: --bogus 1" in err


def test_cli_comma_lists_extend_like_a_config_list(tmp_path):
    # empty entries are dropped and repeated flags extend one list
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"algorithms": ["uniform"], "objective": "garland",
                                "budgets": [100, 250, 1000], "seeds": 1}))
    flags, config = tmp_path / "flags.csv", tmp_path / "config.csv"
    assert main(["--algo", "uniform", "--objective", "garland",
                 "--budget", "100,,250", "--budget", "1000", "--seeds", "1",
                 "--out", str(flags)]) == 0
    assert main(["--config", str(path), "--out", str(config)]) == 0

    def records(out):
        return [dataclasses.replace(r, wall_ms=0.0)
                for r in read_records(str(out))]

    assert [r.n for r in records(flags)] == [100, 250, 1000]
    assert records(flags) == records(config)


def test_cli_rejects_an_empty_out_path(capsys):
    # run_experiment read out="" as no file and main as a file, so the
    # records were written nowhere and the exit status was 0
    assert main(["--algo", "uniform", "--objective", "garland",
                 "--budget", "10", "--seeds", "1", "--out", ""]) == 1
    assert capsys.readouterr() == ("", "error: out must be a path: ''\n")


def test_cli_negative_zero_noise_level_is_noise_level_zero(capsys):
    # -0 used to be written as b=-0 and to derive other seeds than 0, so
    # summarize counted two grid points for one setting
    rows = []
    for flag in ("--noise-b=0", "--noise-b=-0"):
        assert main(["--algo", "uniform", "--objective", "garland",
                     "--budget", "10", "--seeds", "2", flag]) == 0
        rows.append([line.rsplit(",", 1)[0] for line in
                     capsys.readouterr().out.splitlines()])
    assert rows[0] == rows[1]
    assert rows[0][-1].startswith("uniform,garland,10,0,")
