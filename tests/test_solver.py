import logging
import math
from fractions import Fraction as F

import numpy as np
import pytest

from abcdwaves import solver
from abcdwaves.cnexpr import build_coefficient_system
from abcdwaves.errors import DomainError, UnderdeterminedError, UsageError
from abcdwaves.families import ParameterSet, build_s412, build_s421
from abcdwaves.solver import (multistart, pin_and_square, promote_root,
                              reproduce_nonexistence, solve_newton)
from abcdwaves.verifier import ode_residual


@pytest.fixture(scope="module")
def quadratic_system():
    return build_coefficient_system(2, 2)


@pytest.fixture(scope="module")
def reference_pinning(quadratic_system):
    m = math.sqrt(0.5)
    return pin_and_square(quadratic_system,
                          {"a": 1, "b": F(-8, 3), "c": 1, "d": 1,
                           "m": m, "lam": 1, "sigma": 1})


@pytest.fixture(scope="module")
def closed_forms():
    p = ParameterSet.make(1, F(-8, 3), 1, 1)
    m = math.sqrt(0.5)
    return {sign: build_s412(p, 1, 1, m, sign) for sign in ("top", "bottom")}


def seed_vector(sysn, sol):
    return sysn.vector_from_map(sol.coefficient_map())


# -- pinning -----------------------------------------------------------------

def test_pin_counts_full(quadratic_system):
    sysn = pin_and_square(quadratic_system,
                          {"a": 1, "b": F(-8, 3), "c": 1, "d": 1, "m": F(1, 2)})
    assert sysn.n_equations == 8
    assert sysn.n_unknowns == 8
    assert sysn.unknowns == ["lam", "sigma", "j0", "j1", "j2", "k0", "k1", "k2"]


def test_pin_counts_even_subspace(quadratic_system):
    sysn = pin_and_square(quadratic_system,
                          {"a": 1, "b": F(-8, 3), "c": 1, "d": 1, "m": F(1, 2),
                           "lam": 1, "sigma": 1, "j1": 0, "k1": 0})
    assert sysn.n_equations == 4
    assert sysn.n_unknowns == 4
    assert sysn.unknowns == ["j0", "j2", "k0", "k2"]


def test_pin_counts_quartic_reduced():
    system = build_coefficient_system(4, 2, params={"c": 0})
    sysn = pin_and_square(system, {"a": 1, "b": -1, "d": F(1, 3),
                                   "lam": 1, "m": F(1, 2), "sigma": 1,
                                   "j1": 0, "j3": 0, "k1": 0})
    assert sysn.n_equations == 5
    assert sysn.n_unknowns == 5


def test_pin_validation(quadratic_system):
    with pytest.raises(DomainError):
        pin_and_square(quadratic_system, {"lam": -1})
    with pytest.raises(DomainError):
        pin_and_square(quadratic_system, {"m": 2})
    with pytest.raises(DomainError):
        pin_and_square(quadratic_system, {"sigma": 0})
    # a misspelt name is not silently ignored
    with pytest.raises(UsageError, match="lamda"):
        pin_and_square(quadratic_system, {"a": 1, "b": F(-8, 3), "c": 1, "d": 1,
                                          "m": F(1, 2), "lamda": 1, "sigma": 1})


def test_underdetermined_rejected(quadratic_system):
    # nothing pinned: 8 equations against 13 symbols (a..d, lam, m, sigma,
    # j0..j2, k0..k2)
    with pytest.raises(UnderdeterminedError) as err:
        pin_and_square(quadratic_system, {})
    assert err.value.deficit == 5


def test_batch_evaluation_matches_single_rows(reference_pinning):
    # batches above solver._EVAL_ROWS are evaluated in row blocks
    X = np.random.default_rng(3).uniform(-10.0, 10.0, (1100, reference_pinning.n_unknowns))
    H, J = reference_pinning.residual(X), reference_pinning.jacobian(X)
    for i in (0, 511, 512, 1099):
        assert H[i].tobytes() == reference_pinning.residual(X[i]).tobytes()
        assert J[i].tobytes() == reference_pinning.jacobian(X[i]).tobytes()


# -- Newton ------------------------------------------------------------------

def test_exact_seed_is_fixed_point(reference_pinning, closed_forms):
    seed = seed_vector(reference_pinning, closed_forms["top"])
    result = solve_newton(reference_pinning, seed)
    assert result.converged
    assert result.iterations <= 2


def test_perturbed_seed_returns_to_root(reference_pinning, closed_forms):
    seed = seed_vector(reference_pinning, closed_forms["top"])
    result = solve_newton(reference_pinning, seed * 1.01)
    assert result.converged
    assert np.max(np.abs(result.x - seed)) <= 1e-10


def test_zero_seed_is_classified(reference_pinning):
    result = solve_newton(reference_pinning, np.zeros(6))
    assert result.status in ("converged", "diverged", "singular")
    if result.converged:
        values = dict(zip(reference_pinning.unknowns, result.x))
        assert abs(values["j2"]) < 1e-8 and abs(values["k2"]) < 1e-8


def test_quadratic_convergence_signature(reference_pinning, closed_forms):
    root = seed_vector(reference_pinning, closed_forms["top"])
    result = solve_newton(reference_pinning, root * 1.02)
    assert result.converged
    errs = [np.max(np.abs(x - root)) for x in result.trajectory]
    errs = [e for e in errs if e > 1e-14]
    ratios = [errs[i + 1] / errs[i] ** 2 for i in range(len(errs) - 1)]
    assert ratios[-3:], "need at least a few iterations"
    assert all(r < 1e3 for r in ratios[-3:])


def test_seed_shape_validation(reference_pinning):
    with pytest.raises(UsageError):
        solve_newton(reference_pinning, np.zeros(4))


# -- multistart --------------------------------------------------------------

def test_multistart_finds_both_branches(reference_pinning, closed_forms):
    branch_set = multistart(reference_pinning, 400, seed_rng=42)
    nontrivial = branch_set.nontrivial()
    assert len(nontrivial) >= 2
    for sign in ("top", "bottom"):
        target = closed_forms[sign].coefficient_map()
        best = min(
            max(abs(rec.values[u] - target[u]) for u in reference_pinning.unknowns)
            for rec in nontrivial)
        assert best <= 1e-8, f"{sign} branch not recovered"


def test_multistart_determinism(reference_pinning):
    b1 = multistart(reference_pinning, 150, seed_rng=9)
    b2 = multistart(reference_pinning, 150, seed_rng=9)
    assert b1.to_json() == b2.to_json()


def test_multistart_promotion_passes_residual(reference_pinning):
    branch_set = multistart(reference_pinning, 300, seed_rng=5)
    p = ParameterSet.make(1, F(-8, 3), 1, 1)
    for rec in branch_set.nontrivial():
        sol = promote_root(rec, reference_pinning.pinned)
        assert ode_residual(sol, p, 256).relative <= 1e-9


def test_multistart_empty_when_invalid(quadratic_system):
    # 8ac + sigma^2 (b-2d)^2 < 0: no quadratic branch exists
    sysn = pin_and_square(quadratic_system,
                          {"a": -10, "b": 2, "c": 10, "d": 1,
                           "m": F(1, 2), "lam": 1, "sigma": F(1, 10),
                           "j1": 0, "k1": 0})
    branch_set = multistart(sysn, 200, seed_rng=1)
    assert branch_set.nontrivial() == []


def test_multistart_validates_n_starts(reference_pinning):
    with pytest.raises(UsageError):
        multistart(reference_pinning, 0)


def test_multistart_logs_counts(reference_pinning, caplog):
    with caplog.at_level(logging.DEBUG, logger="abcdwaves.solver"):
        branch_set = multistart(reference_pinning, 120, seed_rng=3)
    (record,) = [r for r in caplog.records if r.name == "abcdwaves.solver"]
    assert record.levelno == logging.DEBUG
    assert record.args[:4] == (120, branch_set.n_converged, len(branch_set.roots),
                               len(branch_set.nontrivial()))
    assert all(t >= 0.0 for t in record.args[4:])


# -- dedup ---------------------------------------------------------------------

def _dedup_reference(roots):
    """The pairwise loop: each sorted root against each kept root in turn."""
    roots = sorted(roots, key=lambda t: tuple(np.round(t[0], 12)))
    kept = []
    for x, hinf, seed_idx in roots:
        merged = False
        for entry in kept:
            y = entry[0]
            tol = np.maximum(solver._DEDUP_ABS,
                             solver._DEDUP_REL * np.maximum(np.abs(x), np.abs(y)))
            if np.all(np.abs(x - y) <= tol):
                entry[2] += 1
                if hinf < entry[1]:
                    entry[0], entry[1] = x, hinf
                merged = True
                break
        if not merged:
            kept.append([x, hinf, 1, seed_idx])
    return kept


def assert_same_dedup(roots):
    got, ref = solver._dedup(list(roots)), _dedup_reference(list(roots))
    assert len(got) == len(ref)
    for (x, hinf, hits, idx), (rx, rhinf, rhits, ridx) in zip(got, ref):
        assert x.tobytes() == rx.tobytes()
        assert (hinf, hits, idx) == (rhinf, rhits, ridx)
    return got


def test_dedup_empty():
    assert assert_same_dedup([]) == []


def test_dedup_absolute_floor_at_zero():
    roots = [(np.array([0.0, 1.0]), 1e-13, 0),
             (np.array([5e-10, 1.0]), 1e-14, 1),     # within the 1e-9 floor
             (np.array([2e-9, 1.0]), 1e-13, 2),      # beyond it
             (np.array([-0.0, 0.0]), 1e-13, 3),
             (np.array([0.0, -8e-10]), 1e-13, 4)]
    kept = assert_same_dedup(roots)
    assert [(e[2], e[3]) for e in kept] == [(2, 4), (2, 0), (1, 2)]


def test_dedup_replacement_and_first_match():
    roots = [(np.array([1.0, 0.0]), 1e-12, 0),
             (np.array([1.0 + 0.9e-6, 0.0]), 1e-14, 1),   # better hinf: replaces
             (np.array([1.0 + 1.8e-6, 0.0]), 1e-13, 2),   # matches the replacement only
             (np.array([0.0, 5.0 + 7.5e-6]), 1e-13, 3),
             (np.array([1e-10, 5.0]), 1e-13, 4),
             (np.array([2e-10, 5.0 + 3.75e-6]), 1e-13, 5)]   # matches both rows above
    kept = assert_same_dedup(roots)
    assert [(e[0][0], e[1], e[2], e[3]) for e in kept] == [
        (0.0, 1e-13, 2, 3), (1e-10, 1e-13, 1, 4), (1.0 + 0.9e-6, 1e-14, 3, 0)]


def test_dedup_matches_reference_on_multistart_roots(reference_pinning, monkeypatch):
    seen, dedup = [], solver._dedup

    def spy(roots):
        seen.append(list(roots))
        return dedup(roots)

    monkeypatch.setattr(solver, "_dedup", spy)
    multistart(reference_pinning, 300, seed_rng=11)
    monkeypatch.undo()
    (roots,) = seen
    assert len(roots) > 100
    kept = assert_same_dedup(roots)
    assert sum(e[2] for e in kept) == len(roots)


# -- non-existence sweeps ------------------------------------------------------

def test_nonexistence_j1_smoke():
    grid = [{"a": 1, "b": -1, "d": F(1, 3), "lam": 1, "m": F(3, 4), "sigma": 1}]
    report = reproduce_nonexistence("j1", grid, n_starts=120, seed=0)
    assert report.total_roots == 0
    assert report.upheld
    assert not report.sigma_free


def test_nonexistence_k1_resonant_sigma_zero_roots():
    # a = -k1^2 / (4 lam^2 m^2): the one point where sigma = 0 roots live
    grid = [{"a": F(-1, 100), "b": -1, "d": F(1, 3), "lam": 1, "m": F(1, 2),
             "sigma": 1}]
    report = reproduce_nonexistence("k1", grid, n_starts=150, seed=0)
    assert report.sigma_free
    assert report.total_roots > 0
    assert report.upheld          # every root has |sigma| <= 1e-10
    sigmas = [r["sigma"] for pt in report.points for r in pt.roots]
    assert max(abs(s) for s in sigmas) <= 1e-10


def test_nonexistence_control_finds_quartic_branch():
    # with the odd coefficients pinned to zero instead, the quartic branch
    # must be discoverable at the same machinery
    system = build_coefficient_system(4, 2, params={"c": 0})
    sysn = pin_and_square(system, {"a": 0, "b": F(1, 6), "d": F(1, 6),
                                   "lam": 1, "m": F(9, 10), "sigma": 1,
                                   "j1": 0, "j3": 0, "k1": 0})
    branch_set = multistart(sysn, 300, seed_rng=2)
    target = build_s421(ParameterSet.make(0, F(1, 6), 0, F(1, 6)), 1, 1,
                        F(9, 10)).coefficient_map()
    best = min(
        max(abs(rec.values[u] - target[u]) for u in sysn.unknowns)
        for rec in branch_set.nontrivial())
    assert best <= 1e-8


def test_nonexistence_argument_validation():
    with pytest.raises(UsageError):
        reproduce_nonexistence("j2", [])
    with pytest.raises(UsageError):
        reproduce_nonexistence("j1", [], value=1e-5)
