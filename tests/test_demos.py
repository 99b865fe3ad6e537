"""Smoke test for the demos: each one runs to completion and prints something.

Each demo runs in its own interpreter with a temporary working directory,
since 02 writes a figure there when matplotlib is installed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import zipftree

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(zipftree.__file__).resolve().parents[1])


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["MPLBACKEND"] = "Agg"
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
