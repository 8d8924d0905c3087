"""Acceptance suite: one test per release criterion, pass/fail line printed.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Tolerances and runtime budgets are pinned here, not configurable.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from abcdwaves.cnexpr import build_coefficient_system
from abcdwaves.elliptic import complete_k, jacobi_eval
from abcdwaves.families import (ParameterSet, SolutionParams, build_s411,
                                build_s412, build_s421, build_s422, m1_limit)
from abcdwaves.reduction import classify_ansatz, verify_termination
from abcdwaves.solver import multistart, pin_and_square, reproduce_nonexistence
from abcdwaves.verifier import limit_a_to_zero, limit_c_to_zero, ode_residual

from reference_systems import (QUADRATIC_SYSTEM, QUARTIC_H10_AS_PRINTED,
                               QUARTIC_REDUCED_SYSTEM)
from test_families import random_family_inputs
from test_reduction import CLASSIFICATION_GRID


def report(line):
    print(f"\n{line}")


def test_criterion_1_symbolic_system_match():
    t0 = time.perf_counter()
    quadratic = build_coefficient_system(2, 2)
    for key, expected in QUADRATIC_SYSTEM.items():
        assert quadratic.equations[key] == expected, f"quadratic mismatch at {key}"
    for key, poly in quadratic.equations.items():
        if key not in QUADRATIC_SYSTEM:
            assert poly.is_zero(), f"unexpected nonzero equation {key}"

    quartic = build_coefficient_system(4, 2, params={"c": 0})
    reduced = quartic.substitute({"j1": 0, "j3": 0, "k1": 0}).nonzero()
    assert set(reduced) == set(QUARTIC_REDUCED_SYSTEM)
    for key, expected in QUARTIC_REDUCED_SYSTEM.items():
        assert reduced[key] == expected, f"reduced quartic mismatch at {key}"

    generated_h10 = quartic.equations[(1, 0)]
    anomaly = generated_h10 != QUARTIC_H10_AS_PRINTED
    assert anomaly, "expected the printed (1,0) equation to differ"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s over budget"
    report("criterion 1: PASS - symbolic systems match the hand-expanded "
           f"references exactly ({elapsed:.2f}s)")
    report("criterion 1 FLAG: printed (1,0) equation of the quartic c=0 "
           "system ends in sigma*k1^2*k2, which is dimensionally "
           "inconsistent; the generated ground truth is:\n"
           f"  h[1,0] = {generated_h10.to_text()}")


def _figure_cases():
    return [
        ("S411/a", lambda: build_s411(ParameterSet.make(F(-5, 6), 1, F(-5, 6), 1),
                                      F(3, 4), 1, 1),
         ParameterSet.make(F(-5, 6), 1, F(-5, 6), 1)),
        ("S411/b", lambda: build_s411(ParameterSet.make(-7, 2, F(4, 3), 4),
                                      F(1, 4), -1, 1),
         ParameterSet.make(-7, 2, F(4, 3), 4)),
        ("S412/a", lambda: build_s412(ParameterSet.make(1, F(-8, 3), 1, 1),
                                      1, 1, math.sqrt(0.5), "top"),
         ParameterSet.make(1, F(-8, 3), 1, 1)),
        ("S412/b", lambda: build_s412(ParameterSet.make(0, -1, F(-2, 3), 2),
                                      F(1, 2), F(-1, 3), F(1, 4), "bottom"),
         ParameterSet.make(0, -1, F(-2, 3), 2)),
        ("S421/a", lambda: build_s421(ParameterSet.make(1, -1, 0, F(1, 3)),
                                      F(1, 2), -2, F(1, 2)),
         ParameterSet.make(1, -1, 0, F(1, 3))),
        ("S421/b", lambda: build_s421(ParameterSet.make(0, F(1, 6), 0, F(1, 6)),
                                      1, 1, F(9, 10)),
         ParameterSet.make(0, F(1, 6), 0, F(1, 6))),
        ("S422/a", lambda: build_s422(ParameterSet.make(F(-11, 3), 2, 0, 2),
                                      1, -1, math.sqrt(0.5)),
         ParameterSet.make(F(-11, 3), 2, 0, 2)),
        ("S422/b", lambda: build_s422(ParameterSet.make(0, F(-5, 3), 0, 2),
                                      2, F(1, 8), F(3, 4)),
         ParameterSet.make(0, F(-5, 3), 0, 2)),
    ]


def test_criterion_2_closed_form_residuals():
    t0 = time.perf_counter()
    worst = 0.0
    for name, make, p in _figure_cases():
        sol = make()
        rel = ode_residual(sol, p, 1024).relative
        worst = max(worst, rel)
        assert rel <= 1e-9, f"{name}: residual {rel}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"runtime {elapsed:.2f}s over budget"
    report("criterion 2: PASS - all eight published parameter sets give "
           f"relative residual <= 1e-9 (worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_3_elliptic_kernel():
    worst_id = worst_period = worst_sech = 0.0
    moduli = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 1.0]
    for m in moduli:
        for v in np.linspace(-10.0, 10.0, 81):
            pt = jacobi_eval(v, m)
            worst_id = max(worst_id,
                           abs(pt.sn ** 2 + pt.cn ** 2 - 1.0),
                           abs(pt.dn ** 2 - (1 - m * m + (m * pt.cn) ** 2)))
    assert worst_id <= 1e-13
    for m in [m for m in moduli if 0 < m <= 0.99]:
        period = 4.0 * complete_k(m)
        for v in np.linspace(-10.0, 10.0, 41):
            worst_period = max(worst_period,
                               abs(jacobi_eval(v + period, m).cn
                                   - jacobi_eval(v, m).cn))
    assert worst_period <= 1e-10
    for v in np.linspace(-10.0, 10.0, 201):
        worst_sech = max(worst_sech,
                         abs(jacobi_eval(v, 1.0).cn - 1.0 / math.cosh(v)))
    assert worst_sech <= 1e-12
    report("criterion 3: PASS - kernel identities "
           f"{worst_id:.2e} <= 1e-13, periodicity {worst_period:.2e} <= 1e-10, "
           f"sech agreement {worst_sech:.2e} <= 1e-12")


def test_criterion_4_solver_rediscovery():
    t0 = time.perf_counter()
    m = math.sqrt(0.5)
    p = ParameterSet.make(1, F(-8, 3), 1, 1)
    system = build_coefficient_system(2, 2)
    sysn = pin_and_square(system, {"a": 1, "b": F(-8, 3), "c": 1, "d": 1,
                                   "m": m, "lam": 1, "sigma": 1})
    branch_set = multistart(sysn, 2000, seed_rng=42)
    nontrivial = branch_set.nontrivial()
    agreements = {}
    for sign in ("top", "bottom"):
        target = build_s412(p, 1, 1, m, sign).coefficient_map()
        agreements[sign] = min(
            max(abs(rec.values[u] - target[u]) for u in sysn.unknowns)
            for rec in nontrivial)
        assert agreements[sign] <= 1e-8, f"{sign} branch miss: {agreements[sign]}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s over budget"
    report("criterion 4: PASS - 2000-start multistart recovers both sign "
           f"branches (agreement top {agreements['top']:.2e}, "
           f"bottom {agreements['bottom']:.2e}; {elapsed:.1f}s)")


def test_criterion_5_termination_chains():
    t0 = time.perf_counter()
    for case in ("c_nonzero", "c_zero"):
        rep = verify_termination(case=case, n_min=3, n_max=5)
        assert rep.passed, rep.to_json()
    rep = verify_termination(case="c_nonzero", n_min=4, n_max=4)
    first = rep.results[0].branches[0].events[0]
    assert (first.var, first.eq, first.detail) == ("k4", (2, 7), "4*k4^2")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s over budget"
    report("criterion 5: PASS - forced-vanishing chains verified for both "
           f"symbolic shapes at n = 3, 4, 5 ({elapsed:.1f}s)")


def test_criterion_6_nonexistence_sweeps():
    t0 = time.perf_counter()
    grid_j = [{"a": a, "b": b, "d": d, "lam": 1, "m": F(3, 4), "sigma": 1}
              for a in (1, F(1, 2), -1)
              for b in (-1, F(1, 6), 2)
              for d in (F(1, 3), 1, F(-1, 2))]
    rep_j1 = reproduce_nonexistence("j1", grid_j, n_starts=500, seed=0)
    assert rep_j1.total_roots == 0, rep_j1.counterexamples
    rep_j3 = reproduce_nonexistence("j3", grid_j, n_starts=500, seed=100)
    assert rep_j3.total_roots == 0, rep_j3.counterexamples

    # sigma free for the k1 sweep; includes the resonant a = -k1^2/(4 lam^2 m^2)
    grid_k = [{"a": a, "b": b, "d": d, "lam": 1, "m": F(1, 2), "sigma": 1}
              for a in (1, F(-1, 100), -1)
              for b in (-1, F(1, 6), 2)
              for d in (F(1, 3), 1, F(-1, 2))]
    rep_k1 = reproduce_nonexistence("k1", grid_k, n_starts=500, seed=200)
    assert rep_k1.upheld, rep_k1.counterexamples
    sigmas = [abs(r["sigma"]) for pt in rep_k1.points for r in pt.roots]
    assert sigmas, "expected sigma ~ 0 roots at the resonant grid point"
    assert max(sigmas) <= 1e-10
    elapsed = time.perf_counter() - t0
    report("criterion 6: PASS - j1/j3 sweeps find zero roots over the "
           f"3x3x3 grid; k1 sweep finds only |sigma| <= 1e-10 roots "
           f"({len(sigmas)} of them; {elapsed:.0f}s)")


def test_criterion_7_limit_consistency():
    table_c = limit_c_to_zero(a=1, b=2, d=-1, lam=1, sigma=1, m=F(1, 2))
    assert table_c.monotone
    assert table_c.values[-1] == pytest.approx(1e-8)
    assert table_c.diffs[-1] < 1e-8

    table_a = limit_a_to_zero(b=2, d=-1, lam=1, sigma=1, m=F(3, 5))
    assert table_a.diffs[0] <= 1e-12

    m1_cases = [
        ("S412", m1_limit("4.1.2", ParameterSet.make(1, F(-8, 3), 1, 1), 1, 1,
                          sign="top"),
         ParameterSet.make(1, F(-8, 3), 1, 1)),
        ("S421", m1_limit("4.2.1", ParameterSet.make(0, F(1, 6), 0, F(1, 6)),
                          1, 1),
         ParameterSet.make(0, F(1, 6), 0, F(1, 6))),
        ("S422", m1_limit("4.2.2", ParameterSet.make(F(-11, 3), 2, 0, 2),
                          1, -1),
         ParameterSet.make(F(-11, 3), 2, 0, 2)),
        ("S43", m1_limit("4.3", 2, 2, F(1, 8)),
         ParameterSet.make(0, 0, F(1, 2), 2)),
    ]
    for name, sol, p in m1_cases:
        assert sol.m == 1.0
        rel = ode_residual(sol, p, 1024).relative
        assert rel <= 1e-9, f"{name} m=1 residual {rel}"
    # the quartic term survives into the sech^4 profile
    assert m1_cases[1][1].j[4] != 0.0
    report("criterion 7: PASS - c->0 collapse monotone to "
           f"{table_c.diffs[-1]:.2e} at c=1e-8; a->0 exact to "
           f"{table_a.diffs[0]:.1e}; all four m=1 limits are sech-form "
           "solutions with residual <= 1e-9")


def test_criterion_8_classification_table():
    assert len(CLASSIFICATION_GRID) == 20
    for p, shape in CLASSIFICATION_GRID:
        assert classify_ansatz(p) is shape, (p, shape)
    report("criterion 8: PASS - 20-point rational grid classifies exactly "
           "across all four regions")


def test_criterion_9_property_suite():
    t0 = time.perf_counter()
    worst = 0.0
    rng = random.Random(2024)
    for family in ("S411", "S412", "S421", "S422", "S43"):
        for _ in range(200):
            p, sol = random_family_inputs(rng, family)
            rel = ode_residual(sol, p, 256).relative
            worst = max(worst, rel)
            assert rel <= 1e-9, f"{family} residual {rel} at {sol.to_dict()}"

    # Negative tests: a relative 1e-4 bump of a participating coefficient
    # must push the relative residual past 1e-6.  Three structural
    # exclusions apply: trivial instances (constants solve the system for
    # any j0/k0, so those directions are exactly flat), coefficients below
    # 5% of the dominant one (a relative bump of a negligible coefficient
    # is absolutely negligible under the scale-normalized metric), and
    # extreme-scale solutions (lam outside [1/4, 4] or m near 1/sqrt(2),
    # where lam^2-amplified terms dilute low-order sensitivities).
    weakest = math.inf
    for family in ("S411", "S412", "S421", "S422", "S43"):
        used = 0
        while used < 10:
            p, sol = random_family_inputs(rng, family)
            nontrivial = any(v != 0.0 for v in sol.j[1:] + sol.k[1:])
            if not nontrivial or not 0.25 <= sol.lam <= 4.0 \
                    or abs(2 * sol.m ** 2 - 1) < 0.15:
                continue
            used += 1
            coeffs = list(sol.j) + list(sol.k)
            cmax = max(abs(v) for v in coeffs)
            for idx, value in enumerate(coeffs):
                if abs(value) < 0.05 * cmax:
                    continue
                j, k = list(sol.j), list(sol.k)
                if idx < 5:
                    j[idx] *= 1 + 1e-4
                else:
                    k[idx - 5] *= 1 + 1e-4
                bad = SolutionParams(tuple(j), tuple(k), sol.lam, sol.m,
                                     sol.sigma, sol.family_tag, sol.branch)
                rel = ode_residual(bad, p, 256).relative
                weakest = min(weakest, rel)
                assert rel > 1e-6, (f"{family}: perturbing coefficient {idx} "
                                    f"only moved the residual to {rel}")
    elapsed = time.perf_counter() - t0
    report("criterion 9: PASS - 200 randomized accepted inputs per family "
           f"stay <= 1e-9 (worst {worst:.2e}); every single-coefficient "
           f"1e-4 perturbation exceeds 1e-6 (weakest {weakest:.2e}; "
           f"{elapsed:.0f}s)")
