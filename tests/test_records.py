"""The JSON form of every result record.

The key lists and digests below were taken from the hand-written
``to_dict`` methods that ``Record`` replaced; the records must serialize
exactly as those did.  Digests are kept only for records whose values come
from exact or pure-Python arithmetic, so they do not hinge on the BLAS.
"""

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from abcdwaves.families import ParameterSet, Record, build_s412
from abcdwaves.reduction import verify_termination
from abcdwaves.solver import (build_named_system, multistart, pin_and_square,
                              reproduce_nonexistence)
from abcdwaves.verifier import (limit_m_to_one, ode_residual,
                                periodicity_check)

KEYS = {
    "Branch": ["tau1", "tau2", "pm"],
    "SolutionParams": ["family_tag", "branch", "j", "k", "lambda", "m",
                       "sigma", "origin"],
    "RootRecord": ["values", "classification", "hinf", "hits",
                   "first_seed_index"],
    "BranchSet": ["roots", "pinned", "n_starts", "n_converged", "seed", "stats"],
    "RunStats": ["starts", "converged", "overflow", "stalled", "budget",
                 "residual_floor", "iterations", "solves", "pinv_fallbacks",
                 "candidate_rows", "passes"],
    "NonexistencePoint": ["pins", "n_converged_roots", "roots", "stats"],
    "NonexistenceReport": ["constrained", "value", "delta", "sigma_free",
                           "n_starts", "seed", "total_roots", "upheld",
                           "counterexamples", "points", "stats"],
    "ResidualReport": ["max_abs_eq1", "max_abs_eq2", "scale", "relative",
                       "n_samples", "period"],
    "PeriodicityReport": ["defect", "period", "half_period", "half_defect"],
    "ConvergenceTable": ["kind", "parameter", "values", "diffs", "orders",
                         "monotone", "target"],
    "ChainEvent": ["var", "eq", "move", "detail"],
    "ChainBranch": ["events", "eta_degree", "w_degree"],
    "DegreeResult": ["n", "branches", "realized_degrees", "ok"],
    "TerminationReport": ["case", "shape", "shape_degrees", "passed",
                          "results", "notes"],
}

# SHA-256 of json.dumps(record.to_dict())
DIGESTS = {
    "Branch": "609edeeb3738fd452e75c3b61d325c0702fdae088119aee7ffd9857b9eca46f6",
    "SolutionParams": "77af3a6217190fb528cdf760fa8a55d50a3a26bb4be0ce9b10928bc0bf934099",
    "ConvergenceTable": "7e7b27a222972a3db1ccf9cb4dde3f17b54621e69d83a394208c5f468172c21f",
    "ChainEvent": "b773bbe99beb2c1b565a794e8b5d01a367d501c4a686e22c2e6bc418e7f1cbd7",
    "ChainBranch": "a537fbc977f56d92ffc4c66a39af087eaa33d1d169195a5fd44eee1fccbd1b21",
    "DegreeResult": "7cc1e77798c43db036bcbd0ef48643819f499cc40d7c29bde791314e953d1f6b",
    "TerminationReport": "449aa726783002b278bdc3c60b4022f905c7e4a2f92ef205337b36ab19e0e360",
}


@pytest.fixture(scope="module")
def records():
    p = ParameterSet.make(1, F(-8, 3), 1, 1)
    sol = build_s412(p, 1, 1, F(3, 4), "bottom")
    system, pins = build_named_system("coeffs1", {"a": 1, "b": F(-8, 3),
                                                  "c": 1, "d": 1})
    pins.update(m=F(3, 4), lam=1, sigma=1)
    branch_set = multistart(pin_and_square(system, pins), 40, seed_rng=3)
    resonant = {"a": F(-1, 100), "b": F(1, 6), "d": F(-1, 2), "lam": 1,
                "m": F(1, 2), "sigma": 1}
    nonexistence = reproduce_nonexistence("k1", [resonant], n_starts=60, seed=1)
    termination = verify_termination(case="c_zero", n_min=4, n_max=4)
    degree = termination.results[0]
    return {
        "Branch": sol.branch,
        "SolutionParams": sol,
        "RootRecord": branch_set.roots[0],
        "BranchSet": branch_set,
        "RunStats": branch_set.stats,
        "NonexistencePoint": nonexistence.points[0],
        "NonexistenceReport": nonexistence,
        "ResidualReport": ode_residual(sol, p, 64),
        "PeriodicityReport": periodicity_check(sol),
        "ConvergenceTable": limit_m_to_one("4.1.2", p=p, lam=1, sigma=1, sign="top"),
        "ChainEvent": degree.branches[0].events[0],
        "ChainBranch": degree.branches[0],
        "DegreeResult": degree,
        "TerminationReport": termination,
    }


@pytest.mark.parametrize("name", sorted(KEYS))
def test_record_key_order(records, name):
    record = records[name]
    assert type(record).__name__ == name and isinstance(record, Record)
    assert list(record.to_dict()) == KEYS[name]
    assert record.to_json() == json.dumps(record.to_dict())


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_record_json_unchanged(records, name):
    text = json.dumps(records[name].to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]


def test_records_are_not_empty(records):
    # the digests and key lists above must describe real content
    assert records["BranchSet"].roots and records["NonexistenceReport"].total_roots
    assert records["ChainEvent"].eq == (2, 7)
    # fields held as tuples stay tuples in to_dict and become JSON lists
    assert records["ChainEvent"].to_dict()["eq"] == (2, 7)
    assert json.loads(records["ChainEvent"].to_json())["eq"] == [2, 7]


def test_nested_record_uses_its_own_to_dict(records):
    # a record field is written through that record's to_dict, so a nested
    # SolutionParams keeps its "lambda" key; dicts are passed, not copied
    @dataclass
    class Holder(Record):
        solutions: list
        pins: dict

    sol, pins = records["SolutionParams"], {"m": 0.75}
    data = Holder([sol], pins).to_dict()
    assert data == {"solutions": [sol.to_dict()], "pins": pins}
    assert data["pins"] is pins and "lambda" in data["solutions"][0]
