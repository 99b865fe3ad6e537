"""Rules the package's source keeps, checked on its syntax tree."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import zipftree
from zipftree.theory import BoundInputs, SmoothnessParams, stroquool_bounds

PACKAGE = Path(zipftree.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so every check the package
    # relies on must raise an exception instead
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


_IMPORT_SCRIPT = """
import sys
import zipftree, zipftree.cli
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
from zipftree.theory import BoundInputs, SmoothnessParams, stroquool_bounds
print(repr(stroquool_bounds(BoundInputs(1000, 0.1), SmoothnessParams(1, 0.5, 1))["h_tilde"]))
"""


def test_import_does_not_load_scipy():
    # scipy costs about 0.6 s of start-up and is used only by the b > 0
    # branch of stroquool_bounds, which imports it on first use
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    h_tilde = stroquool_bounds(BoundInputs(1000, 0.1),
                               SmoothnessParams(1, 0.5, 1))["h_tilde"]
    assert 0.0 < h_tilde < float("inf")
    assert proc.stdout.splitlines() == ["[]", repr(h_tilde)]
