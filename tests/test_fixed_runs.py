"""SOO and DOO open a run of copies of a fixed cell (partition.fixed_cell)
as one heap entry: the copies split into copies of themselves with their own
value, so nothing is split or evaluated, and a trace still logs one `open`
per copy (see optimizers.soo_run and doo_run).  Every frozen digest is
recorded with a trace, so the traced results are the reference the untraced
ones must equal; the ulp-wide domains below reach fixed cells within a few
depths, where runs, ties and NaN keys all occur."""

import hashlib
import math
import struct

import pytest

import zipftree.optimizers as optimizers
from test_frozen_baselines import (CUSTOM, FROZEN, FROZEN_EXTRA, RUNNERS,
                                   digest)
from zipftree.objectives import Objective, garland_objective, get_objective
from zipftree.optimizers import RunConfig, doo_run
from zipftree.partition import Box


def objective(name):
    return CUSTOM[name]() if name in CUSTOM else get_objective(name)


def fields(res):
    """The six RunResult fields that do not depend on the trace."""
    return digest(res)[:6]


@pytest.mark.parametrize("name,algo,n", [key for key in FROZEN
                                         if key[1].startswith(("soo", "doo"))])
def test_untraced_run_matches_the_frozen_digest(name, algo, n):
    res = RUNNERS[algo](get_objective(name), RunConfig(budget_n=n))
    assert res.trace is None
    assert fields(res) == FROZEN[(name, algo, n)][:6]


@pytest.mark.parametrize("name,K,algo,n", [
    key for key in FROZEN_EXTRA if key[2].startswith(("soo", "doo"))])
def test_untraced_run_matches_the_frozen_extra_digest(name, K, algo, n):
    res = RUNNERS[algo](objective(name), RunConfig(budget_n=n, branching=K))
    assert fields(res) == FROZEN_EXTRA[(name, K, algo, n)][:6]


@pytest.mark.parametrize("algo,most", [("soo", 8_100), ("doo(1,0.6)", 200)])
def test_fixed_cells_are_not_split(monkeypatch, algo, most):
    # opening every cell splits 20,000 times; of DOO's openings 19,856 are
    # of fixed cells, of SOO's 11,985
    calls = [0]
    split_cell = optimizers.split_cell

    def counted(*args):
        calls[0] += 1
        return split_cell(*args)

    monkeypatch.setattr(optimizers, "split_cell", counted)
    res = RUNNERS[algo](garland_objective(), RunConfig(budget_n=20_000))
    assert (res.openings_used, res.evaluations_used,
            res.budget_units_used) == (20_000, 60_000, 20_000)
    assert calls[0] <= most


def _low_bit(v):
    return struct.unpack("<Q", struct.pack("<d", v))[0] & 1


ULP_FNS = {
    "constant": lambda p: 1.0,
    "nan": lambda p: math.nan,
    "parity": lambda p: float(sum(map(_low_bit, p)) % 2),
}

ULP_RUNNERS = {
    "soo": RUNNERS["soo"],
    "doo(1,0.6)": RUNNERS["doo(1,0.6)"],
    "doo(1e6,0.5)": lambda obj, cfg: doo_run(obj, cfg, 1e6, 0.5),
}


def ulp_domain(ulps, shape):
    """[1, 1 + ulps ulp], with a second axis [0, 1] ("2-D unit") or the same
    as the first ("2-D narrow")."""
    hi = 1.0
    for _ in range(ulps):
        hi = math.nextafter(hi, 2.0)
    if shape == "1-D":
        return Box([1.0], [hi])
    return Box([1.0, 1.0 if shape == "2-D narrow" else 0.0],
               [hi, hi if shape == "2-D narrow" else 1.0])


def ulp_digest(algo, shape, ulps, fname):
    """The first 16 hex digits of the SHA-256 of the repr of the list of
    traced digests over K in (2, 3, 7), then n in (5, 37, 400); each
    untraced run must equal its traced run on the six fields."""
    traced = []
    for K in (2, 3, 7):
        for n in (5, 37, 400):
            obj = Objective(fname, ulp_domain(ulps, shape), ULP_FNS[fname])
            res = ULP_RUNNERS[algo](obj, RunConfig(budget_n=n, branching=K,
                                                   record_trace=True))
            untraced = ULP_RUNNERS[algo](obj, RunConfig(budget_n=n,
                                                        branching=K))
            assert fields(untraced) == fields(res), (K, n)
            traced.append(digest(res))
    return hashlib.sha256(repr(traced).encode()).hexdigest()[:16]


# (algorithm, shape, ulps, objective) -> ulp_digest, recorded before SOO and
# DOO opened runs of copies.  Cells of the 1-D and "2-D narrow" shapes are
# fixed within a few depths; a "2-D unit" cell keeps width on its second
# axis at these budgets, so its x-splits give the parent object back
# without the cell being fixed, and no run forms
ULP_FROZEN = {
    ('soo', '1-D', 1, 'constant'): '861c1f4848bc871f',
    ('soo', '1-D', 1, 'nan'): 'aa432a5c9f1d39c8',
    ('soo', '1-D', 1, 'parity'): '62e68557f1d94d40',
    ('soo', '1-D', 3, 'constant'): '1a4e9dd03d615fb0',
    ('soo', '1-D', 3, 'nan'): 'a629f875464a2d2e',
    ('soo', '1-D', 3, 'parity'): '63a644fd06efd09e',
    ('soo', '1-D', 7, 'constant'): 'af3c5a469e1b8c9a',
    ('soo', '1-D', 7, 'nan'): 'e1a7f2de1d6a93b1',
    ('soo', '1-D', 7, 'parity'): 'dab7191c9eceeb0f',
    ('soo', '2-D unit', 1, 'constant'): '20b37df2e418d93a',
    ('soo', '2-D unit', 1, 'nan'): '2eb4a5f4329e5da5',
    ('soo', '2-D unit', 1, 'parity'): 'd87ca734d5e8749a',
    ('soo', '2-D unit', 3, 'constant'): 'efbe9930384b03af',
    ('soo', '2-D unit', 3, 'nan'): '2ac50122d1ceef42',
    ('soo', '2-D unit', 3, 'parity'): '3e8c9cc9f48aaf4d',
    ('soo', '2-D unit', 7, 'constant'): 'c82150e0b7be294f',
    ('soo', '2-D unit', 7, 'nan'): 'bd50a07a6d7cd2df',
    ('soo', '2-D unit', 7, 'parity'): 'c04077394111ca6b',
    ('soo', '2-D narrow', 1, 'constant'): '9462d6cbf2b1687c',
    ('soo', '2-D narrow', 1, 'nan'): '43f6325c40f85b4d',
    ('soo', '2-D narrow', 1, 'parity'): '5741155fd5523f68',
    ('soo', '2-D narrow', 3, 'constant'): 'eaa207b6b98adcb7',
    ('soo', '2-D narrow', 3, 'nan'): 'd5f01540810473a3',
    ('soo', '2-D narrow', 3, 'parity'): '81b5233dc3b445f7',
    ('soo', '2-D narrow', 7, 'constant'): '1764c7866469b24a',
    ('soo', '2-D narrow', 7, 'nan'): 'a6a748a87185a79f',
    ('soo', '2-D narrow', 7, 'parity'): '998a2d61d54446ba',
    ('doo(1,0.6)', '1-D', 1, 'constant'): '85f24cd3ff6e7e78',
    ('doo(1,0.6)', '1-D', 1, 'nan'): '7ab81a7732a6151a',
    ('doo(1,0.6)', '1-D', 1, 'parity'): 'cd75b0d333e35631',
    ('doo(1,0.6)', '1-D', 3, 'constant'): '42fa87615f95cefc',
    ('doo(1,0.6)', '1-D', 3, 'nan'): 'd7562305438f2e7a',
    ('doo(1,0.6)', '1-D', 3, 'parity'): '3fc315310724a8cc',
    ('doo(1,0.6)', '1-D', 7, 'constant'): '936b1518c94c27b8',
    ('doo(1,0.6)', '1-D', 7, 'nan'): '68965a4b111f2f41',
    ('doo(1,0.6)', '1-D', 7, 'parity'): 'f5638a69f18f43a0',
    ('doo(1,0.6)', '2-D unit', 1, 'constant'): '06f75940deda5cac',
    ('doo(1,0.6)', '2-D unit', 1, 'nan'): '1ffbfb55182e794c',
    ('doo(1,0.6)', '2-D unit', 1, 'parity'): '04c9cf991ad64ac4',
    ('doo(1,0.6)', '2-D unit', 3, 'constant'): 'e92e89a3e265cd9a',
    ('doo(1,0.6)', '2-D unit', 3, 'nan'): '10a2386a32fdb953',
    ('doo(1,0.6)', '2-D unit', 3, 'parity'): '70ed05af8cfbce95',
    ('doo(1,0.6)', '2-D unit', 7, 'constant'): '916120e1c2248c58',
    ('doo(1,0.6)', '2-D unit', 7, 'nan'): 'c5cf5c67d95f9058',
    ('doo(1,0.6)', '2-D unit', 7, 'parity'): '9eafa35de77613b3',
    ('doo(1,0.6)', '2-D narrow', 1, 'constant'): '11d3fc2d0fc8825c',
    ('doo(1,0.6)', '2-D narrow', 1, 'nan'): '421fc59b0023431f',
    ('doo(1,0.6)', '2-D narrow', 1, 'parity'): '1688242519da77b5',
    ('doo(1,0.6)', '2-D narrow', 3, 'constant'): '09225c05810d9a60',
    ('doo(1,0.6)', '2-D narrow', 3, 'nan'): '80ce28a5f6af8687',
    ('doo(1,0.6)', '2-D narrow', 3, 'parity'): '826f187d8a3f89e2',
    ('doo(1,0.6)', '2-D narrow', 7, 'constant'): '6232e8294db30bfd',
    ('doo(1,0.6)', '2-D narrow', 7, 'nan'): 'fbddd3cd36e0d71f',
    ('doo(1,0.6)', '2-D narrow', 7, 'parity'): 'b29be912a8e0e799',
    ('doo(1e6,0.5)', '1-D', 1, 'constant'): '85f24cd3ff6e7e78',
    ('doo(1e6,0.5)', '1-D', 1, 'nan'): '7ab81a7732a6151a',
    ('doo(1e6,0.5)', '1-D', 1, 'parity'): '8deee36834446308',
    ('doo(1e6,0.5)', '1-D', 3, 'constant'): '42fa87615f95cefc',
    ('doo(1e6,0.5)', '1-D', 3, 'nan'): 'd7562305438f2e7a',
    ('doo(1e6,0.5)', '1-D', 3, 'parity'): '940d97fa7f5f56d3',
    ('doo(1e6,0.5)', '1-D', 7, 'constant'): '936b1518c94c27b8',
    ('doo(1e6,0.5)', '1-D', 7, 'nan'): '68965a4b111f2f41',
    ('doo(1e6,0.5)', '1-D', 7, 'parity'): '99c0ab2f1713d532',
    ('doo(1e6,0.5)', '2-D unit', 1, 'constant'): '06f75940deda5cac',
    ('doo(1e6,0.5)', '2-D unit', 1, 'nan'): '1ffbfb55182e794c',
    ('doo(1e6,0.5)', '2-D unit', 1, 'parity'): '70bfb01ca899404b',
    ('doo(1e6,0.5)', '2-D unit', 3, 'constant'): 'e92e89a3e265cd9a',
    ('doo(1e6,0.5)', '2-D unit', 3, 'nan'): '10a2386a32fdb953',
    ('doo(1e6,0.5)', '2-D unit', 3, 'parity'): '3081a7824c8fed45',
    ('doo(1e6,0.5)', '2-D unit', 7, 'constant'): '916120e1c2248c58',
    ('doo(1e6,0.5)', '2-D unit', 7, 'nan'): 'c5cf5c67d95f9058',
    ('doo(1e6,0.5)', '2-D unit', 7, 'parity'): '7314ab3f2b8805b7',
    ('doo(1e6,0.5)', '2-D narrow', 1, 'constant'): '11d3fc2d0fc8825c',
    ('doo(1e6,0.5)', '2-D narrow', 1, 'nan'): '421fc59b0023431f',
    ('doo(1e6,0.5)', '2-D narrow', 1, 'parity'): '13ac92fb9adc72b4',
    ('doo(1e6,0.5)', '2-D narrow', 3, 'constant'): '09225c05810d9a60',
    ('doo(1e6,0.5)', '2-D narrow', 3, 'nan'): '80ce28a5f6af8687',
    ('doo(1e6,0.5)', '2-D narrow', 3, 'parity'): '43b3154accc183f0',
    ('doo(1e6,0.5)', '2-D narrow', 7, 'constant'): '6232e8294db30bfd',
    ('doo(1e6,0.5)', '2-D narrow', 7, 'nan'): 'fbddd3cd36e0d71f',
    ('doo(1e6,0.5)', '2-D narrow', 7, 'parity'): 'cf3f519d6d37f17a',
}


@pytest.mark.parametrize("algo,shape,ulps,fname", list(ULP_FROZEN))
def test_ulp_wide_domain(algo, shape, ulps, fname):
    assert (ulp_digest(algo, shape, ulps, fname)
            == ULP_FROZEN[(algo, shape, ulps, fname)])
