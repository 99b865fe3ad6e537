"""README.md is checked here: its code runs, its CLI commands parse, its
Layout table points at names that exist and carry docstrings, and every
number it keeps about a run is asserted below or points at the test that
asserts it."""

import hashlib
import math
import re
import shlex
from pathlib import Path

import pytest

import zipftree
from zipftree import cli
from zipftree.harness import ExperimentSpec, derive_seed
from zipftree.objectives import (GARLAND_ARGMAX, GARLAND_FLOAT_MAX,
                                 GARLAND_OPTIMUM, garland_objective)
from zipftree.optimizers import RunConfig, uniform_run

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def commands():
    """The `zipftree` command lines of README's shell blocks, as argv."""
    out = []
    for lang, body in BLOCKS:
        if lang == "sh":
            for line in body.replace("\\\n", " ").splitlines():
                argv = shlex.split(line, comments=True)
                if argv[:1] == ["zipftree"]:
                    out.append(argv[1:])
    return out


def layout_rows():
    """(module, offered names, names whose docstrings state the rules) of
    each Layout row: the backticked identifiers of its last two cells."""
    rows = []
    for line in section("Layout").splitlines():
        cells = line.split("|")[1:-1]
        module = cells and re.fullmatch(r"\s*`(zipftree\.\w+)`\s*", cells[0])
        if module:
            offers, rules = (re.findall(r"`([A-Za-z_][\w.]*)`", c)
                             for c in cells[1:])
            rows.append((module.group(1), offers, rules))
    return rows


@pytest.mark.parametrize("i", [i for i, (lang, _) in enumerate(BLOCKS)
                               if lang == "python"])
def test_python_blocks_run(i):
    exec(compile(BLOCKS[i][1], f"README.md block {i}", "exec"), {})


def test_cli_commands_parse_into_specs():
    argvs = commands()
    assert len(argvs) == 3
    for argv in argvs:
        args = cli.build_parser().parse_args(argv)
        assert isinstance(cli.spec_from_args(args), ExperimentSpec)


def test_layout_points_at_documented_names():
    rows = layout_rows()
    assert [m for m, _, _ in rows] == [f"zipftree.{m}" for m in (
        "partition", "objectives", "optimizers", "theory", "harness", "cli")]
    listed = set()
    for module, offers, rules in rows:
        for name in offers + rules:
            obj = __import__(module, fromlist=["_"])
            for part in name.split("."):
                obj = getattr(obj, part)
            if name in rules:
                doc = obj.__doc__ or ""
                # a dataclass without a docstring gets its signature
                assert doc and not doc.startswith(f"{obj.__name__}("), name
        listed.update(offers)
    assert set(zipftree.__all__) - {"__version__"} <= listed


def test_uniform_at_n_4_with_k_3_makes_13_observations():
    assert "uniform at `n=4`, `K=3` makes\n  13 of them" in README
    res = uniform_run(garland_objective(), None,
                      RunConfig(budget_n=4, branching=3))
    assert res.evaluations_used == 13


def test_garland_numbers():
    assert "supremum `0.9977723911610445`" in README
    assert "(`x = π/6`)" in README
    assert "`1.2035640817309456e-08` below the supremum" in README
    assert repr(GARLAND_OPTIMUM) == "0.9977723911610445"
    assert GARLAND_ARGMAX == math.pi / 6
    assert repr(GARLAND_OPTIMUM - GARLAND_FLOAT_MAX) == "1.2035640817309456e-08"


def test_seed_derivation_is_the_stated_hash():
    assert ('`sha256(f"{master_seed}|{algo_label}|{n}|{b!r}|{rep}")` (first 8 '
            'bytes,\nbig-endian)') in README
    msg = f"{7}|{'doo:nu=1:rho=0.6'}|{100}|{0.1!r}|{3}".encode()
    assert derive_seed(7, "doo:nu=1:rho=0.6", 100, 0.1, 3) == int.from_bytes(
        hashlib.sha256(msg).digest()[:8], "big")


# README text about a run -> the test that asserts it
POINTERS = {
    "floats at 17 significant digits so round-trips are exact":
        "test_harness.py::test_read_records_round_trip",
    "A second, slightly lower peak\n`1.0812e-3` below the top":
        "test_optimizers.py::test_doo_with_tight_smoothness_stalls_at_second_peak",
    "so every algorithm reaches regret 0":
        "test_acceptance.py::test_criterion_8_wrapped_sine_monotone_regret",
    "`--jobs 8` writes the rows `--jobs 1` writes, `wall_ms` apart":
        "test_harness.py::test_run_experiment_parallel_matches_serial",
    "stated in; always ≤ `n`":
        "test_acceptance.py::test_criterion_1_budget_identities",
    "stops shrinking at depth 34, which SequOOL\nreaches at n = 200":
        "test_acceptance.py::test_criterion_2_sequool_exponential_decay",
}


@pytest.mark.parametrize("text", sorted(POINTERS))
def test_readme_numbers_point_at_their_tests(text):
    assert text in README
    path, name = POINTERS[text].split("::")
    assert re.search(rf"^def {name}\(", (ROOT / "tests" / path).read_text(),
                     re.M)
