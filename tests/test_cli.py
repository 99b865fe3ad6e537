import json
import tempfile

import pytest

from zipftree import harness
from zipftree.cli import main
from zipftree.harness import TaskError, read_records

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


def test_cli_names_a_failing_task(capsys):
    assert main(["--algo", "stroquool", "--objective", "garland",
                 "--budget", "5,20", "--seeds", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: task (algo=stroquool, objective=garland, "
                          "n=5, b=0.0, rep=0) failed: ")
    assert "StroquOOL needs n >= 8" in err
    # the same from a pool worker
    assert main(["--algo", "stroquool", "--objective", "garland",
                 "--budget", "5,20", "--seeds", "1", "--jobs", "2"]) == 1
    assert "StroquOOL needs n >= 8" in capsys.readouterr().err


def test_cli_rejects_jobs_below_one(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["--algo", "uniform", "--objective", "garland",
                 "--budget", "10", "--seeds", "1", "--jobs", "0",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: jobs must be >= 1\n"
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
