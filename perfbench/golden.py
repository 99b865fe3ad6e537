"""Correctness checks: golden outputs for master seed 0, invariants for
every other seed.

Golden files hold, per workload, the records of one pass at the commit
that defined the benchmark (see record_golden.py).  A record is a run's
results (library workloads) or one normalised line group of the CLI
output (cli-sweep); the check returns the keys of the records that are
wrong, so each bad run counts once.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SEED = 0
GARLAND_REGRET_FLOOR = 1.2035640817309456e-08


def golden_path(workload):
    return GOLDEN_DIR / f"{workload}.json"


def load(workload, master_seed):
    """Golden records for `workload`, or None when the seed has none."""
    if master_seed != GOLDEN_SEED:
        return None
    with open(golden_path(workload)) as fh:
        return json.load(fh)


def differing(records, reference):
    """Keys whose record differs from, or is missing in, either side."""
    return {k for k in records.keys() | reference.keys()
            if records.get(k) != reference.get(k)}


def _regret(objs, objective, record):
    point = ast.literal_eval(record["recommendation"])
    obj = objs[objective]
    return obj.optimum_value - obj.eval(point)


def library_violations(records, objs):
    """Keys of library runs that break an invariant: the opening identity
    of SequOOL, the unit budget of StroquOOL, and the regret floors."""
    bad = set()
    for key, rec in records.items():
        label, objective, n, _b, _seed = key.split("|")
        n = int(n)
        if "error" in rec:
            bad.add(key)
            continue
        algo = label.split(":")[0]
        regret = _regret(objs, objective, rec)
        floor = GARLAND_REGRET_FLOOR if objective == "garland" else 0.0
        if (regret < floor
                or (algo == "sequool" and rec["openings"] > n + 1)
                or (algo == "stroquool" and rec["units"] > n)):
            bad.add(key)
    return bad


def cli_violations(records, expected_runs):
    """Keys of CLI rows that break an invariant (garland regret floor,
    openings within budget), plus every row missing from the grid."""
    bad = {f"row{i:03d}" for i in range(expected_runs)} - records.keys()
    for key, line in records.items():
        if not key.startswith("row"):
            continue
        fields = line.split(",")
        try:
            n, regret, openings = int(fields[2]), float(fields[5]), int(fields[6])
        except (IndexError, ValueError):
            bad.add(key)
            continue
        if regret < GARLAND_REGRET_FLOOR or openings > n:
            bad.add(key)
    if not records.get("summary"):
        bad.add("summary")
    return bad


def check(workload, records, golden, objs, expected_runs):
    """Keys of wrong records in one pass: against golden when there is
    one, else against the invariants."""
    if golden is not None:
        return differing(records, golden)
    if workload == "cli-sweep":
        return cli_violations(records, expected_runs)
    return library_violations(records, objs)
