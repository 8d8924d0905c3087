"""Seeded inputs, calls and output checks of the four benchmark workloads.

The workload seed fixes an endless stream of call blocks; a run takes as many
blocks from its start as fit in its time budget.  Every block has the same
composition, so the seed changes which inputs are drawn but not the mix of
costs, and one block is the workload's fixed set of calls:

- ``rediscover``: one block is one 2000-start ``multistart`` at the S412
  reference pinning (criterion 4), with a seeded ``seed_rng``.
- ``sweep``: one block is eighteen non-existence grid points, six each for
  j1, j3 and k1: two orthogonal Latin rows of the (a, b, d) grid, so every
  level of each factor, the slow ``b = 1/6`` points and the resonant
  ``a = -1/100`` k1 points appear twice.  The points are the same for every
  seed; the seed draws each point's multistart seed and the call order.
  (Seeded point draws made the median call latency spread 16% between
  seeds, because single points differ up to 2.5x in cost.)
- ``termination``: one block is the twelve symbolic chains
  ``case x n = 3..8`` in a seeded order.
- ``verify``: one block is one rejection-sampled valid input per family,
  drawn from the criterion-9 distribution.

Every call is checked against the acceptance-level verdict; a failed check
is counted, never retried.  Only ``run`` is timed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import count
from typing import Any, Callable, Iterator

# Imported as modules so that calls resolve through module attributes, which
# the traced run rebinds.
import abcdwaves.cnexpr as cnexpr
import abcdwaves.families as families
import abcdwaves.reduction as reduction
import abcdwaves.solver as solver
import abcdwaves.verifier as verifier
from abcdwaves.errors import DomainError

REDISCOVER_STARTS = 2000
SWEEP_STARTS = 500
S412_PINS = {"a": 1, "b": F(-8, 3), "c": 1, "d": 1, "lam": 1, "sigma": 1,
             "m": math.sqrt(0.5)}
BRANCH_TOL = 1e-8          # criterion 4
SIGMA_TOL = 1e-10          # criterion 6
RESIDUAL_TOL = 1e-9        # criteria 2 and 9
RESIDUAL_SAMPLES = 1024
MAX_ATTEMPTS = 400         # rejection-sampling budget per verify call

GRID_B = (-1, F(1, 6), 2)
GRID_D = (F(1, 3), 1, F(-1, 2))
GRID_A = {"j1": (1, F(1, 2), -1), "j3": (1, F(1, 2), -1),
          "k1": (1, F(-1, 100), -1)}
GRID_M = {"j1": F(3, 4), "j3": F(3, 4), "k1": F(1, 2)}
# Two orthogonal Latin rows over the 3x3x3 (a, b, d) grid: every level of
# each factor appears twice per variable and no (b, d) pair repeats.
SWEEP_ROWS = ((0, 0), (1, 2))
CASES = ("c_nonzero", "c_zero")
DEGREES = range(3, 9)
FAMILIES = ("S411", "S412", "S421", "S422", "S43")


@dataclass
class Options:
    """Overrides for the smoke tests; the defaults are the benchmark's.

    ``starts`` shrinks the multistarts, ``s412_shift`` moves the expected
    S412 branches so that the rediscover check must fail.
    """

    starts: int | None = None
    s412_shift: float = 0.0


@dataclass
class Call:
    label: str
    spec: Any


@dataclass
class Workload:
    blocks: Callable[[random.Random, Options], Iterator[list[Call]]]
    run: Callable[[Any, Options], Any]
    check: Callable[[Any, Any], bool]
    canonical: Callable[[Any], str]


# ------------------------------------------------------------- rediscover
def _rediscover_blocks(rng, opts):
    p = families.ParameterSet.make(S412_PINS["a"], S412_PINS["b"],
                                   S412_PINS["c"], S412_PINS["d"])
    targets = []
    for sign in ("top", "bottom"):
        coeffs = families.build_s412(p, 1, 1, S412_PINS["m"], sign).coefficient_map()
        targets.append({k: v + opts.s412_shift for k, v in coeffs.items()})
    for block in count():
        yield [Call(f"rediscover#{block}", {"seed_rng": rng.randrange(2 ** 31),
                                            "targets": targets})]


def _rediscover_run(spec, opts):
    system = cnexpr.build_coefficient_system(2, 2)
    sysn = solver.pin_and_square(system, S412_PINS)
    return solver.multistart(sysn, opts.starts or REDISCOVER_STARTS,
                             seed_rng=spec["seed_rng"])


def _rediscover_check(spec, branch_set):
    nontrivial = [r for r in branch_set.roots
                  if r.classification == "non-trivial"]
    return bool(nontrivial) and all(
        min(max(abs(rec.values[u] - target[u]) for u in rec.values)
            for rec in nontrivial) <= BRANCH_TOL
        for target in spec["targets"])


# ------------------------------------------------------------------ sweep
def _sweep_blocks(rng, opts):
    while True:
        block_calls = []
        for var in ("j1", "j3", "k1"):
            for shift_b, shift_d in SWEEP_ROWS:
                for i, a in enumerate(GRID_A[var]):
                    b, d = GRID_B[(i + shift_b) % 3], GRID_D[(i + shift_d) % 3]
                    point = {"a": a, "b": b, "d": d, "lam": 1,
                             "m": GRID_M[var], "sigma": 1}
                    block_calls.append(Call(f"{var} a={a} b={b} d={d}",
                                            {"var": var, "point": point,
                                             "seed": rng.randrange(2 ** 31)}))
        rng.shuffle(block_calls)
        yield block_calls


def _sweep_run(spec, opts):
    return solver.reproduce_nonexistence(spec["var"], [spec["point"]],
                                         n_starts=opts.starts or SWEEP_STARTS,
                                         seed=spec["seed"])


def _sweep_check(spec, report):
    if spec["var"] in ("j1", "j3"):
        return report.total_roots == 0
    return report.upheld and all(abs(r["sigma"]) <= SIGMA_TOL
                                 for pt in report.points for r in pt.roots)


# ------------------------------------------------------------ termination
def _termination_blocks(rng, opts):
    while True:
        order = [(case, n) for case in CASES for n in DEGREES]
        rng.shuffle(order)
        yield [Call(f"{case} n={n}", {"case": case, "n": n}) for case, n in order]


def _termination_run(spec, opts):
    return reduction.verify_termination(case=spec["case"], n_min=spec["n"],
                                        n_max=spec["n"])


def _termination_check(spec, report):
    if not report.passed:
        return False
    if (spec["case"], spec["n"]) == ("c_nonzero", 4):
        first = report.results[0].branches[0].events[0]
        return (first.var, first.eq, first.detail) == ("k4", (2, 7), "4*k4^2")
    return True


# ----------------------------------------------------------------- verify
def _candidate(rng, family):
    """One draw from the criterion-9 input distribution of ``family``."""
    a, b, c, d = (F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(4))
    lam = F(rng.randint(1, 12), rng.randint(1, 6))
    sigma = F(rng.randint(-12, 12), rng.randint(1, 6))
    m = F(rng.randint(5, 99), 100)
    if family == "S411":
        return (a, b, c, d), (m, rng.choice([1, -1]), rng.choice([1, -1]))
    if family == "S412":
        return (a, b, c, d), (lam, sigma, m, rng.choice(["top", "bottom"]))
    if family in ("S421", "S422"):
        return (a, b, 0, d), (lam, sigma, m)
    return (0, 0, c, d), (d, lam, sigma, m)


def _verify_blocks(rng, opts):
    for block in count():
        yield [Call(f"{family}#{block}", {"family": family,
                                          "rng_seed": rng.randrange(2 ** 63)})
               for family in FAMILIES]


def _verify_run(spec, opts):
    """Rejection-sample a valid input, build it and verify it like the CLI."""
    rng = random.Random(spec["rng_seed"])
    family = spec["family"]
    for _ in range(MAX_ATTEMPTS):
        abcd, args = _candidate(rng, family)
        p = families.ParameterSet.make(*abcd)
        try:
            sol = families.build_family(family, *(args if family == "S43" else (p, *args)))
        except DomainError:
            continue
        residual = verifier.ode_residual(sol, p, RESIDUAL_SAMPLES)
        periodicity = verifier.periodicity_check(sol) if sol.m < 1.0 else None
        return sol, residual, periodicity
    return None


def _verify_check(spec, out):
    return out is not None and out[1].relative <= RESIDUAL_TOL


def _verify_canonical(out):
    if out is None:
        return "null"
    sol, residual, periodicity = out
    return json.dumps({"solution": sol.to_dict(), "residual": residual.to_dict(),
                       "periodicity": periodicity and periodicity.to_dict()},
                      sort_keys=True)


def _to_json(out):
    return out.to_json(sort_keys=True)


REGISTRY = {
    "rediscover": Workload(_rediscover_blocks, _rediscover_run,
                           _rediscover_check, _to_json),
    "sweep": Workload(_sweep_blocks, _sweep_run, _sweep_check, _to_json),
    "termination": Workload(_termination_blocks, _termination_run,
                            _termination_check, _to_json),
    "verify": Workload(_verify_blocks, _verify_run, _verify_check,
                       _verify_canonical),
}


def blocks(workload: str, seed: int, opts: Options) -> Iterator[list[Call]]:
    """The seeded block stream of ``workload``; equal seeds give equal streams."""
    return REGISTRY[workload].blocks(random.Random(f"{workload}:{seed}"), opts)
