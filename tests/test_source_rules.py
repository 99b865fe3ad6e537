"""Rules the package's source keeps, checked on its syntax tree."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import zipftree
from zipftree.theory import BoundInputs, SmoothnessParams, stroquool_bounds

PACKAGE = Path(zipftree.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


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


def test_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency; scipy is a test dependency only
    modules = sorted(PACKAGE.rglob("*.py"))
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] != "numpy"
                      and name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


_SCIPY_BLOCKED_SCRIPT = """
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
import zipftree, zipftree.cli
from zipftree.theory import BoundInputs, SmoothnessParams, stroquool_bounds
params = SmoothnessParams(1.0, 0.5, 2.0)
out = stroquool_bounds(BoundInputs(10**4, 0.1), params)
print(out["regime"], repr(out["h_tilde"]), repr(out["bound"]))
"""


def test_import_does_not_load_scipy():
    # the package and the b > 0 bounds run with every scipy import blocked
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_BLOCKED_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    params = SmoothnessParams(1.0, 0.5, 2.0)
    out = stroquool_bounds(BoundInputs(10**4, 0.1), params)
    assert out["regime"] == "high"
    assert 0.0 < out["h_tilde"] < float("inf")
    assert proc.stdout.splitlines() == [f"high {out['h_tilde']!r} {out['bound']!r}"]


_NUMPY_BLOCKED_SCRIPT = """
import contextlib, io, sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
import zipftree, zipftree.cli
from zipftree import (ExperimentSpec, NoiseModel, RunConfig, doo_run,
                      garland_objective, harmonic, run_experiment, sequool_run,
                      soo_run, stroquool_run, uniform_run)
obj, cfg = garland_objective(), RunConfig(budget_n=300)
noise = NoiseModel(0.0, seed=1)
for res in (sequool_run(obj, cfg), soo_run(obj, cfg),
            doo_run(obj, cfg, 1.0, 0.6), stroquool_run(obj, noise, cfg),
            uniform_run(obj, noise, cfg)):
    print(repr(res.recommendation), repr(res.recommendation_value_estimate))
print(harmonic(2**20).hex())
spec = ExperimentSpec(["stroquool", "uniform"], "garland", [50, 200], seeds=5)
print([(r.algo, r.n, r.seed, r.regret) for r in run_experiment(spec)])
for jobs in ("1", "2"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = zipftree.cli.main(["--algo", "stroquool,uniform", "--objective",
                                  "garland", "--budget", "50,200", "--seeds",
                                  "5", "--summary", "--jobs", jobs])
    lines = out.getvalue().splitlines()
    # each row without its last column, wall_ms, then the summary table
    print(code, [line if line.startswith("#") else line.rpartition(",")[0]
                 for line in lines[:-5]], lines[-5:])
"""


def test_noiseless_runs_and_the_cli_do_not_load_numpy():
    # numpy is imported only to draw noise (b > 0); with every numpy import
    # blocked, the five runners at b = 0, harmonic(2^20), a grid and the CLI
    # with --summary, serial and with a pool, give what they give with numpy
    # loaded
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_BLOCKED_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the same script with numpy loaded gives the expected lines
    want = subprocess.run([sys.executable, "-c", _NUMPY_BLOCKED_SCRIPT.replace(
        'sys.modules["numpy"] = None', "import numpy")],
        capture_output=True, text=True, env=env, timeout=120)
    assert want.returncode == 0, want.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 9 and lines[-2:] == [lines[-1]] * 2
    assert lines[-1].startswith("0 ['# zipftree regret records'")
    assert lines[-1].count("'stroquool,garland,") == 10
    assert lines[-1].count("'stroquool ") == 2 and "['algo " in lines[-1]
    assert lines == want.stdout.splitlines()


_POOLED_GRID_SCRIPT = """
import contextlib, io, sys
import zipftree.cli
print(sorted({"hashlib", "decimal", "numpy"} & sys.modules.keys()))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = zipftree.cli.main(["--algo", "stroquool,uniform", "--objective",
                              "garland", "--budget", "50,200", "--noise-b",
                              "0,0.1", "--seeds", "3", "--jobs", "2",
                              "--summary"])
lines = out.getvalue().splitlines()
print(code, len(lines), lines[-9].split())
print(sorted({"numpy", "numpy.ma", "_hashlib", "decimal"} & sys.modules.keys()))
"""


def test_a_pooled_cli_grid_loads_only_what_its_parent_runs():
    # importing the CLI loads neither hashlib nor decimal (harmonic imports
    # it only past 2^26); after a noisy --jobs 2 --summary grid the parent
    # holds numpy, imported before the fork, but not numpy.ma, which
    # np.median would load, nor hashlib's OpenSSL backend: only the workers
    # derive seeds
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _POOLED_GRID_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # 5 comment lines, the field row, 24 records and a 9-line summary
    assert proc.stdout.splitlines() == [
        "[]", "0 39 ['algo', 'n', 'b', 'median', 'q10', 'q90', 'runs']",
        "['numpy']"]


def _names_read(path):
    """The names the module at `path` loads as a variable, reads as an
    attribute or imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield from alias.name.split(".")
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


MODULES = [path for path in sorted(PACKAGE.rglob("*.py"))
           if path.name != "__init__.py"]


def _read_outside_the_tests():
    """The names the package's modules other than __init__.py, the demos
    and perfbench read: __init__.py's imports do not count as a reader."""
    callers = MODULES + sorted((ROOT / "demos").glob("*.py"))
    callers += sorted((ROOT / "perfbench").rglob("*.py"))
    return set().union(*map(_names_read, callers))


def test_every_exported_name_has_a_caller_outside_the_tests():
    # a public name that only tests read is code kept alive for its tests;
    # read_records reads back the CLI's CSV for users, and __version__ is
    # metadata
    unused = sorted(set(zipftree.__all__) - _read_outside_the_tests()
                    - {"read_records", "__version__"})
    assert unused == []


def test_every_definition_has_a_reader_outside_the_tests():
    # a function, class or method that only tests read is code kept alive
    # for its tests; dunders are called by Python itself, and read_records
    # is exempt as in the rule above
    read = _read_outside_the_tests() | {"read_records"}
    unread = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))
                    and node.name not in read):
                unread.append(f"{path.name}:{node.lineno} {node.name}")
    assert unread == []


def test_every_imported_name_is_read_in_its_module():
    # an import that nothing in its module reads is dead code; __init__.py
    # imports to re-export, and `from __future__ import annotations` switches
    # the compiler instead of binding a name
    dead = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                dead += [f"{path.name}:{node.lineno} {name}" for name in
                         (alias.asname or alias.name.split(".")[0]
                          for alias in node.names)
                         if name not in loaded]
    assert dead == []


def _defined_names(tree):
    """The names a module defines: its functions, methods and classes, and
    every variable or attribute it assigns."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr


def test_no_module_reads_another_modules_private_names():
    # x._name where x is not self or cls reads a private name; it must be
    # one its own module defines (partition's Box._unchecked, say), so a
    # module reaches another's state only through its public names
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined = set(_defined_names(tree))
        found += [f"{path.name}:{node.lineno} {node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and node.attr.startswith("_")
                  and not node.attr.endswith("__")
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id in ("self", "cls"))
                  and node.attr not in defined]
    assert found == []


def _integer_rule_uses(tree):
    """Line numbers that state the integer rule: operator.index, `index`
    imported from operator, or the name "__index__"."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "index"
                and isinstance(node.value, ast.Name)
                and node.value.id == "operator"):
            yield node.lineno
        elif (isinstance(node, ast.ImportFrom) and node.module == "operator"
                and any(alias.name == "index" for alias in node.names)):
            yield node.lineno
        elif isinstance(node, ast.Constant) and node.value == "__index__":
            yield node.lineno


def _random_uses(tree):
    """Line numbers that name `random`: an import of the random module or
    of numpy.random, and any attribute or variable called random."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        if any("random" in name.split(".") for name in names):
            yield node.lineno


def _uses_inside_and_outside(uses, filename, name):
    """The lines uses(tree) yields across the package, split into those
    inside the top-level function or class `name` of `filename` and the
    others, as "file:line"."""
    inside, outside = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = [node for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name == name and path.name == filename]
        for line in uses(tree):
            if any(o.lineno <= line <= o.end_lineno for o in owner):
                inside.append(line)
            else:
                outside.append(f"{path.name}:{line}")
    return inside, outside


def test_the_integer_rule_lives_only_in_partition_checked_integer():
    # "n is an integer" is stated once, by partition.checked_integer; a
    # second copy of the rule anywhere in the package fails here
    inside, outside = _uses_inside_and_outside(
        _integer_rule_uses, "partition.py", "checked_integer")
    assert inside and outside == []


def test_random_draws_live_only_in_objectives_noise_model():
    # harness's determinism contract derives one seed per run, and a run's
    # draws reproduce only if they all come from the NoiseModel seeded with
    # it; a second random number generator anywhere in the package fails here
    inside, outside = _uses_inside_and_outside(
        _random_uses, "objectives.py", "NoiseModel")
    assert inside and outside == []


def _is_frozen_dataclass(decorator):
    """True for the decorator `@dataclass(frozen=True)`."""
    return (isinstance(decorator, ast.Call)
            and getattr(decorator.func, "id", None) == "dataclass"
            and any(k.arg == "frozen" and getattr(k.value, "value", False)
                    for k in decorator.keywords))


def test_every_frozen_dataclass_checks_itself():
    # a frozen bundle is checked state: it checks its fields in
    # __post_init__, so no caller has to check them again
    found, unchecked = [], []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ClassDef)
                    and any(map(_is_frozen_dataclass, node.decorator_list))):
                found.append(node.name)
                if not any(isinstance(item, ast.FunctionDef)
                           and item.name == "__post_init__"
                           for item in node.body):
                    unchecked.append(f"{path.name}:{node.lineno} {node.name}")
    assert found and unchecked == []
