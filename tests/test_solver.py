import dataclasses
import json
import logging
import math
from fractions import Fraction as F

import numpy as np
import pytest

from abcdwaves import solver
from abcdwaves.cnexpr import build_coefficient_system, build_named_system
from abcdwaves.errors import DomainError, UnderdeterminedError, UsageError
from abcdwaves.families import (FAMILIES, ParameterSet, build_s412, build_s421,
                                build_s422)
from abcdwaves.ratpoly import RationalPoly
from abcdwaves.solver import (multistart, pin_and_square, promote_root,
                              reproduce_nonexistence, solve_newton)
from abcdwaves.verifier import ode_residual


def labels(code):
    """The stop reasons that _newton_batch's int8 stop codes stand for."""
    return np.array(solver._STOP_REASONS, dtype=object)[code]


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
    values = sol.coefficient_map()
    return np.array([values[u] for u in sysn.unknowns])


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
    # a pin that is not a finite rational is a usage error naming the pin
    for pins in ({"m": float("nan")}, {"lam": float("inf")}, {"sigma": "one"},
                 {"a": "1/0"}, {"j0": [1, 2]}):
        with pytest.raises(UsageError, match=f"{next(iter(pins))} = .* is not a rational"):
            pin_and_square(quadratic_system, pins)
    # a pin or a pinned coefficient too large for a float names its value
    with pytest.raises(DomainError, match="j0 is about 1e400, too large"):
        pin_and_square(quadratic_system, {"j0": 10 ** 400})
    with pytest.raises(DomainError, match="coefficient of the pinned system is about"):
        pin_and_square(quadratic_system, {"a": 1, "b": F(-8, 3), "c": 1, "d": 1,
                                          "m": F(1, 2), "lam": 10 ** 200, "sigma": 1})
    x = RationalPoly.var("x")
    with pytest.raises(DomainError, match="c is about -1e400, too large"):
        multistart(solver.HSystemNumeric(["x"], [x - 1], {"c": F(-10 ** 400)}), 5)
    # a misspelt name is not silently ignored
    with pytest.raises(UsageError, match="lamda"):
        pin_and_square(quadratic_system, {"a": 1, "b": F(-8, 3), "c": 1, "d": 1,
                                          "m": F(1, 2), "lamda": 1, "sigma": 1})


@pytest.mark.parametrize("name", ["lam", "m", "sigma"])
def test_pin_that_rounds_to_zero_is_refused(quadratic_system, name):
    # an exact 1e-400 passes the domain rule, but its float would be 0.0
    pins = {"a": 1, "b": F(-8, 3), "c": 1, "d": 1, "m": F(1, 2), "lam": 1, "sigma": 1}
    with pytest.raises(DomainError, match=rf"^{name} rounds to 0\.0, too small for a float$"):
        pin_and_square(quadratic_system, {**pins, name: F(1, 10 ** 400)})
    # a negative one still fails the domain rule first
    if name != "sigma":
        with pytest.raises(DomainError, match=r"-0\.0"):
            pin_and_square(quadratic_system, {**pins, name: F(-1, 10 ** 400)})


def test_underdetermined_rejected(quadratic_system):
    # nothing pinned: 8 equations against 13 symbols (a..d, lam, m, sigma,
    # j0..j2, k0..k2)
    with pytest.raises(UnderdeterminedError) as err:
        pin_and_square(quadratic_system, {})
    assert err.value.deficit == 5


def test_hsystem_with_too_few_equations_rejected():
    # built directly, not through pin_and_square: one equation, two unknowns
    x, y = RationalPoly.var("x"), RationalPoly.var("y")
    with pytest.raises(UnderdeterminedError) as err:
        solve_newton(solver.HSystemNumeric(["x", "y"], [x + y - 2], {}), [0.0, 0.0])
    assert err.value.deficit == 1


def test_hsystem_with_a_foreign_variable_rejected():
    x, y = RationalPoly.var("x"), RationalPoly.var("y")
    with pytest.raises(UsageError, match=r"\['y'\]"):
        solver.HSystemNumeric(["x"], [x + y - 2], {})


def test_hsystem_with_no_unknown_rejected():
    for polys in ([], [RationalPoly.const(1)]):
        with pytest.raises(UsageError, match="no unknown"):
            solver.HSystemNumeric([], polys, {})


def test_pins_leaving_no_unknown_rejected(quadratic_system):
    pins = {"a": 0, "b": 0, "c": 0, "d": 0, "sigma": 1,
            **{name: 1 for name in ("j0", "j1", "j2", "k0", "k1", "k2")}}
    with pytest.raises(UsageError, match="no unknown"):
        pin_and_square(quadratic_system, pins)


def test_batch_evaluation_matches_single_rows(reference_pinning):
    # batches above solver._EVAL_ROWS are evaluated in row blocks
    X = np.random.default_rng(3).uniform(-10.0, 10.0, (1100, reference_pinning.n_unknowns))
    for compiled in (reference_pinning._f, reference_pinning._j):
        rows = solver._eval_polys(compiled, X.T).T
        for i in (0, 511, 512, 1099):
            single = solver._eval_polys(compiled, X[i:i + 1].T).T
            assert rows[i].tobytes() == single[0].tobytes()


# -- evaluation kernel ---------------------------------------------------------

def _eval_reference(polys, unknowns, X):
    """The dense kernel: every monomial gathers the powers of all unknowns,
    each polynomial's terms are summed left to right, and a NaN sum is
    np.nan."""
    index = {name: i for i, name in enumerate(unknowns)}
    coeffs, expts, offsets = [], [], []
    for poly in polys:
        offsets.append(len(coeffs))
        if poly.is_zero():
            coeffs.append(0.0)
            expts.append([0] * len(unknowns))
            continue
        for mono, coef in sorted(poly.terms.items()):
            row = [0] * len(unknowns)
            for name, exp in mono:
                row[index[name]] = exp
            coeffs.append(float(coef))
            expts.append(row)
    expts = np.asarray(expts, dtype=np.int64)
    B, n = X.shape
    powers = np.ones((B, n, int(expts.max(initial=0)) + 1))
    for e in range(1, powers.shape[2]):
        powers[:, :, e] = powers[:, :, e - 1] * X
    factors = powers[:, np.arange(n), expts]
    return _sum_left_to_right(np.asarray(coeffs) * np.prod(factors, axis=2), offsets)


def _sum_left_to_right(terms, offsets):
    """The sum of each segment of the columns of terms, from each offset to
    the next, one column add at a time; a NaN sum is np.nan."""
    ends = list(offsets[1:]) + [terms.shape[1]]
    out = np.empty((terms.shape[0], len(offsets)))
    for p, (lo, hi) in enumerate(zip(offsets, ends)):
        total = terms[:, lo].copy()
        for t in range(lo + 1, hi):
            total = total + terms[:, t]
        out[:, p] = total
    out[np.isnan(out)] = np.nan
    return out


_KERNEL_PINNINGS = {
    "reference": ("coeffs1", {"a": 1, "b": F(-8, 3), "c": 1, "d": 1,
                              "m": math.sqrt(0.5), "lam": 1, "sigma": 1}),
    "lam/sigma-free": ("coeffs1", {"a": 1, "b": F(-8, 3), "c": 1, "d": 1,
                                   "m": F(1, 2)}),
    "criterion-6 j1": ("coeffs2", {"a": 1, "b": -1, "d": F(1, 3), "lam": 1,
                                   "m": F(3, 4), "sigma": 1, "j1": F(1, 10)}),
    "criterion-6 j3": ("coeffs2", {"a": 1, "b": -1, "d": F(1, 3), "lam": 1,
                                   "m": F(3, 4), "sigma": 1, "j3": F(1, 10)}),
    "criterion-6 k1": ("coeffs2", {"a": F(-1, 100), "b": -1, "d": F(1, 3), "lam": 1,
                                   "m": F(1, 2), "k1": F(1, 10)}),
    "coeffs2red": ("coeffs2red", {"a": 1, "b": F(1, 6), "d": F(1, 6), "lam": 1,
                                  "m": F(1, 2), "sigma": 1, "j1": 0, "j3": 0, "k1": 0}),
    # with w = k fixed the residuals are affine in j: a constant Jacobian
    "affine in j": ("coeffs1", {"a": 1, "b": F(-8, 3), "c": 1, "d": 1,
                                "m": math.sqrt(0.5), "lam": 1, "sigma": 1,
                                "k0": 1, "k1": 1, "k2": 1}),
}


@pytest.mark.parametrize("name", list(_KERNEL_PINNINGS))
def test_sparse_kernel_matches_dense_reference(name):
    system_name, pins = _KERNEL_PINNINGS[name]
    system, _ = build_named_system(system_name)
    sysn = pin_and_square(system, pins)
    jac_polys = [p.derivative(u) for p in sysn.polys for u in sysn.unknowns]
    rng = np.random.default_rng(12)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200])
    for rows in (1, 511, 512, 513, 2000):
        X = rng.uniform(-10.0, 10.0, (rows, sysn.n_unknowns))
        mask = rng.random(X.shape) < 0.2
        X[mask] = rng.choice(special, mask.sum())
        with np.errstate(all="ignore"):
            for compiled, polys in ((sysn._f, sysn.polys), (sysn._j, jac_polys)):
                got = solver._eval_polys(compiled, X.T).T
                ref = _eval_reference(polys, sysn.unknowns, X)
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()


def test_left_to_right_sums_of_1_to_300_terms():
    # 300 polynomials of 1..300 terms, each term one unknown (coefficient
    # 1), listed in shuffled order: each sum runs left to right through its
    # terms, whatever the term counts of the other polynomials
    unknowns = [f"x{i:03d}" for i in range(300)]
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200])
    rng = np.random.default_rng(30)
    lengths = rng.permutation(np.arange(1, 301))
    # the kernel takes a polynomial's terms in monomial order
    picks = [np.sort(rng.choice(300, n, replace=False)) for n in lengths]
    polys = [RationalPoly({((unknowns[i], 1),): 1 for i in pick}) for pick in picks]
    compiled = solver._compile(polys, unknowns)
    rows = []
    # terms of one scale round differently in every other order
    for share, decades in ((0.0, 0.0), (0.0, 3.0), (0.0, 20.0), (0.002, 1.0),
                           (0.01, 20.0), (0.1, 1.0), (0.5, 20.0), (1.0, 0.0)):
        X = rng.standard_normal((6, 300)) * 10.0 ** rng.uniform(-decades, decades,
                                                                (6, 300))
        mask = rng.random(X.shape) < share
        X[mask] = rng.choice(special, mask.sum())
        rows.append(X)
    signed_zeros = rng.choice([0.0, -0.0], (6, 300))
    signed_zeros[3:] = -0.0
    X = np.concatenate(rows + [signed_zeros])
    with np.errstate(all="ignore"):
        ref = _sum_left_to_right(X[:, np.concatenate(picks)],
                                 np.cumsum(np.r_[0, lengths[:-1]]))
        got = solver._eval_polys(compiled, X.T).T
        wide = solver._eval_polys(compiled, np.tile(X, (38, 1))[:2000].T).T
        part = solver._eval_polys(compiled, X[35:48].T).T
        single = [solver._eval_polys(compiled, x[:, None]).T for x in X]
    assert got.shape == ref.shape and got.T.flags.c_contiguous
    assert got.tobytes() == ref.tobytes()
    # the rows hold finite sums of every length, NaN sums, and negative zeros
    assert np.isfinite(ref[:18]).all() and np.isnan(ref).any(axis=1).sum() >= 12
    assert np.signbit(ref[-3:]).all() and not np.signbit(ref[-6:-3]).all()
    # each row gets the same bits in a batch of 1, 13, 54 and 2000 rows; in
    # the 13-row batch the NaN-rich rows 43-47 sit past the last full block
    # of numpy's vector loop
    for i, row in enumerate(single):
        assert row[0].tobytes() == got[i].tobytes() == wide[i].tobytes()
    assert part.tobytes() == got[35:48].tobytes()


def test_term_sums_match_reduceat():
    # 300 polynomials of 1..longest terms, each term one unknown
    # (coefficient 1), listed in shuffled order, summed by the compiled
    # residual kernel and by np.add.reduceat, whose order is pairwise.  The two orders give the
    # same NaNs, infinities and signed zeros, the same bits up to two terms,
    # and finite sums within the rounding bound of any order of n terms
    unknowns = [f"x{i:03d}" for i in range(300)]
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200])
    eps = np.finfo(float).eps
    for longest in (300, 8):
        rng = np.random.default_rng(30)
        lengths = (rng.permutation(np.arange(1, 301)) if longest == 300
                   else rng.integers(1, 9, 300))
        picks = [np.sort(rng.choice(300, n, replace=False)) for n in lengths]
        polys = [RationalPoly({((unknowns[i], 1),): 1 for i in pick}) for pick in picks]
        # the residual alone: HSystemNumeric would also compile a 300 x 300
        # Jacobian that this test never evaluates
        compiled = solver._compile(polys, unknowns)
        assert max(lengths) == longest
        rows = []
        for share, decades in ((0.0, 0.0), (0.0, 3.0), (0.0, 20.0), (0.002, 1.0),
                               (0.01, 20.0), (0.1, 1.0), (0.5, 20.0), (1.0, 0.0)):
            X = rng.standard_normal((6, 300)) * 10.0 ** rng.uniform(-decades, decades,
                                                                    (6, 300))
            mask = rng.random(X.shape) < share
            X[mask] = rng.choice(special, mask.sum())
            rows.append(X)
        signed_zeros = rng.choice([0.0, -0.0], (6, 300))
        signed_zeros[3:] = -0.0
        X = np.concatenate(rows + [signed_zeros])
        terms = X[:, np.concatenate(picks)]
        offsets = np.cumsum(np.concatenate([[0], lengths[:-1]]))
        with np.errstate(all="ignore"):
            ref = np.add.reduceat(terms, offsets, axis=1)
            size = np.add.reduceat(np.abs(terms), offsets, axis=1)
            got = np.ascontiguousarray(solver._eval_polys(compiled, X.T).T)
        assert got.shape == ref.shape and got.flags.c_contiguous
        assert np.isnan(ref).any(axis=1).sum() >= 12
        finite = np.isfinite(ref)
        assert (np.isfinite(got) == finite).all()
        assert (np.isnan(got) == np.isnan(ref)).all()
        assert (got[np.isinf(ref)] == ref[np.isinf(ref)]).all()
        # a zero sum is -0.0 only where every term is -0.0, in any order
        zero = (ref == 0) & (got == 0)
        assert zero[-6:].all()
        assert (np.signbit(got[zero]) == np.signbit(ref[zero])).all()
        assert np.signbit(got[-3:]).all() and not np.signbit(got[-6:-3]).all()
        short = np.broadcast_to(lengths <= 2, ref.shape) & finite
        assert got[short].tobytes() == ref[short].tobytes()
        # each order is within (n - 1) u sum|x_i| of the exact sum
        bound = np.broadcast_to(lengths * eps, ref.shape) * size
        assert (np.abs(got[finite] - ref[finite]) <= bound[finite]).all()
        if longest == 300:
            assert (got[finite] != ref[finite]).any()


def test_eight_and_nine_term_sums_run_left_to_right():
    # a longest polynomial of 8 terms and one of 9 are laid out alike, one
    # block per term position, and both give the left-to-right bits
    unknowns = [f"x{i}" for i in range(9)]
    x = [RationalPoly.var(u) for u in unknowns]
    X = np.random.default_rng(8).standard_normal((40, 9)) * 10.0 ** \
        np.random.default_rng(9).uniform(-8.0, 8.0, (40, 9))
    for n_terms in (8, 9):
        polys = [sum(x[1:n_terms], x[0]), x[0] - 3 * x[1], RationalPoly.const(0)]
        compiled = solver._compile(polys, unknowns)
        assert compiled.counts == (3, 2) + (1,) * (n_terms - 2)
        assert solver._eval_polys(compiled, X.T).T.tobytes() == \
            _eval_reference(polys, unknowns, X).tobytes()


def test_sparse_kernel_orders_factors_by_unknown():
    # unknowns listed out of name order, monomials of three factors and
    # powers up to 3: the factors multiply in the order of the unknowns
    x, y, z = (RationalPoly.var(v) for v in ("x", "y", "z"))
    polys = [x * y * z + 3 * z ** 3 * x, F(1, 3) * y ** 2 * x - z, RationalPoly.const(0),
             RationalPoly.const(2)]
    sysn = solver.HSystemNumeric(["z", "x", "y"], polys, {})
    X = np.random.default_rng(2).standard_normal((300, 3)) * 10.0 ** \
        np.random.default_rng(3).uniform(-150.0, 150.0, (300, 3))
    with np.errstate(all="ignore"):
        assert sysn.residual(X).tobytes() == \
            _eval_reference(polys, sysn.unknowns, X).tobytes()


def test_sparse_kernel_affine_residuals():
    # every Jacobian entry is constant, so its power table has no power
    # above x^1 to hold; the residual table still needs the unknowns
    x, y = RationalPoly.var("x"), RationalPoly.var("y")
    polys = [x + y - 1, x - y]
    sysn = solver.HSystemNumeric(["x", "y"], polys, {})
    jac_polys = [p.derivative(u) for p in polys for u in sysn.unknowns]
    X = np.random.default_rng(5).uniform(-10.0, 10.0, (7, 2))
    for compiled, ps in ((sysn._f, polys), (sysn._j, jac_polys)):
        assert solver._eval_polys(compiled, X.T).T.tobytes() == \
            _eval_reference(ps, sysn.unknowns, X).tobytes()
    res = solve_newton(sysn, [3.0, -4.0])
    assert res.converged
    assert np.allclose(res.x, [0.5, 0.5])


def test_affine_pinning_solves(quadratic_system, closed_forms):
    # pinning w = k at a closed-form root leaves residuals affine in j
    sol = closed_forms["top"]
    coeffs = sol.coefficient_map()
    pins = {"a": 1, "b": F(-8, 3), "c": 1, "d": 1, "m": math.sqrt(0.5),
            "lam": 1, "sigma": 1, **{k: coeffs[k] for k in ("k0", "k1", "k2")}}
    sysn = pin_and_square(quadratic_system, pins)
    assert sysn.unknowns == ["j0", "j1", "j2"]
    res = solve_newton(sysn, [0.0, 0.0, 0.0])
    assert res.converged
    assert np.allclose(res.x, [float(coeffs[j]) for j in ("j0", "j1", "j2")],
                       rtol=1e-9, atol=1e-9)


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


def test_escape_radius_scales_with_the_seed(reference_pinning, closed_forms):
    # multistart's rows escape past 1e7; a user seed that starts out there
    # gets a radius of 1e7 * ||seed||_inf and walks back to the root
    root = seed_vector(reference_pinning, closed_forms["top"])
    far = root * 1e8
    _, code, iters, *_ = solver._newton_batch(
        reference_pinning, far[None, :], 200)
    assert (labels(code)[0], iters[0]) == ("overflow", 0)
    result = solve_newton(reference_pinning, far)
    assert result.converged and result.iterations > 0
    assert np.max(np.abs(result.x - root)) <= 1e-8


def test_zero_seed_is_classified(reference_pinning):
    result = solve_newton(reference_pinning, np.zeros(6))
    assert result.status in solver._STOP_REASONS
    if result.converged:
        values = dict(zip(reference_pinning.unknowns, result.x))
        assert abs(values["j2"]) < 1e-8 and abs(values["k2"]) < 1e-8


def test_quadratic_convergence_signature(reference_pinning, closed_forms):
    root = seed_vector(reference_pinning, closed_forms["top"])
    result = solve_newton(reference_pinning, root * 1.02)
    assert result.converged
    # the engine is deterministic: iterate k is the result of a k-step budget
    iterates = [solve_newton(reference_pinning, root * 1.02, max_iter=k).x
                for k in range(result.iterations + 1)]
    errs = [np.max(np.abs(x - root)) for x in iterates]
    errs = [e for e in errs if e > 1e-14]
    ratios = [errs[i + 1] / errs[i] ** 2 for i in range(len(errs) - 1)]
    assert ratios[-3:], "need at least a few iterations"
    assert all(r < 1e3 for r in ratios[-3:])


def test_seed_shape_validation(reference_pinning):
    with pytest.raises(UsageError):
        solve_newton(reference_pinning, np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_seed_is_refused(reference_pinning, bad):
    # its escape radius 1e7 * max|seed| would be NaN or infinite
    seed = np.zeros(reference_pinning.n_unknowns)
    seed[0] = bad
    with pytest.raises(UsageError, match=rf"^seed \[{bad}, 0\.0, .* is not finite$"):
        solve_newton(reference_pinning, seed)
    # a finite seed far out is a start, and overflows
    result = solve_newton(reference_pinning, np.full(reference_pinning.n_unknowns, 1e300))
    assert (result.status, result.iterations) == ("overflow", 0)


@pytest.mark.parametrize("pins", [
    {"m": math.sqrt(0.5), "lam": 1, "sigma": 1},
    {"m": F(1, 2)},             # lam and sigma free: rank-deficient at every root
], ids=["reference", "lam-sigma-free"])
def test_solve_newton_is_one_batch_row(quadratic_system, pins):
    sysn = pin_and_square(quadratic_system,
                          {"a": 1, "b": F(-8, 3), "c": 1, "d": 1, **pins})
    rng = np.random.default_rng(12)
    X0 = 10.0 ** rng.uniform(-3.0, 1.0, (200, sysn.n_unknowns)) \
        * rng.choice([-1.0, 1.0], (200, sysn.n_unknowns))
    X0[0, 0] = np.inf
    # a finite seed far past the escape radius overflows in either
    X0 = np.vstack([X0, np.full(sysn.n_unknowns, 1e300)])
    X, code, iters, hinf, *_ = solver._newton_batch(sysn, X0, 200)
    reason = labels(code)
    for i, x0 in enumerate(X0):
        if i == 0:
            # the batch stops a non-finite start as overflow; solve_newton
            # refuses it as a seed
            assert (reason[i], iters[i]) == ("overflow", 0)
            with pytest.raises(UsageError, match=r"^seed \[inf, .* is not finite$"):
                solve_newton(sysn, x0)
            continue
        result = solve_newton(sysn, x0)
        assert (result.status, result.iterations) == (reason[i], iters[i])
        assert result.x.tobytes() == X[i].tobytes()
        assert np.float64(result.hinf).tobytes() == hinf[i].tobytes()
    assert {"converged", "overflow"} <= set(reason[1:])


@pytest.mark.parametrize("name", ["criterion-4", "j1", "k1"])
def test_splitting_a_batch_changes_no_bit(reference_pinning, name):
    if name == "criterion-4":
        # the criterion-4 starts, sampled as multistart samples them: most
        # rows take QR steps, and those that reach the trivial plane take
        # pinv steps
        sysn, max_iter, sizes = reference_pinning, 200, [1, 2, 3, 500, 1494]
        rng = np.random.default_rng(42)
        X0 = 10.0 ** rng.uniform(np.log10(1e-3), np.log10(10.0), (2000, sysn.n_unknowns)) \
            * rng.choice([-1.0, 1.0], (2000, sysn.n_unknowns))
    else:
        # criterion-6 starts on the sweeps' budget: the j1 rows stall or
        # spend it, the k1 rows converge or spend it, so rows leave the
        # batch after the line search as well as before the step
        sysn, max_iter, sizes = _coeffs2_pinning(name), solver._SWEEP_MAX_ITER, \
            [1, 2, 3, 94, 200]
        X0 = _seeded_starts(sysn, 300, 7)
    X, code, iters, hinf, stats = solver._newton_batch(sysn, X0, max_iter)
    if name == "criterion-4":
        assert stats.solves > stats.pinv_fallbacks > 0
    elif name == "j1":
        assert stats.stalled > 250 and stats.budget > 0 and stats.converged == 0
    else:
        assert stats.converged > 250 and stats.budget > 0
    ends = np.cumsum(sizes)
    parts = [solver._newton_batch(sysn, X0[i:j], max_iter)
             for i, j in zip(np.r_[0, ends[:-1]], ends)]
    assert np.concatenate([p[0] for p in parts]).tobytes() == X.tobytes()
    assert np.concatenate([p[1] for p in parts]).tobytes() == code.tobytes()
    assert np.concatenate([p[2] for p in parts]).tobytes() == iters.tobytes()
    assert np.concatenate([p[3] for p in parts]).tobytes() == hinf.tobytes()
    # every count is one of rows, so the parts add up to the whole, but for
    # the line-search passes, which every part's batches make on their own
    total = solver.RunStats.total([p[4] for p in parts])
    assert dataclasses.replace(total, passes=stats.passes) == stats
    assert total.passes > stats.passes


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


def _spy(monkeypatch, name):
    """Record every return value of solver.<name>."""
    seen, fn = [], getattr(solver, name)

    def spy(*args, **kwargs):
        seen.append(fn(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(solver, name, spy)
    return seen


def _record_built(sysn, n_starts, seed, newton, dedup):
    """The BranchSet JSON as RootRecords wrote it, from the Newton and
    dedup outputs of one multistart, with the roots as RootRecords."""
    X, code, _, hinf, *_ = newton
    rep, hits, first, _ = dedup
    found = np.flatnonzero(labels(code) == "converged")
    rows = found[rep]
    pinned = {k: float(v) for k, v in sysn.pinned.items()}
    kinds = [solver._PATTERNS[c] for c in solver._classify(sysn.unknowns, pinned, X[rows])]
    records = [solver.RootRecord(dict(zip(sysn.unknowns, X[r].tolist())), kind,
                                 float(hinf[r]), int(n), int(found[f]))
               for r, kind, n, f in zip(rows, kinds, hits, first)]
    data = {"roots": [rec.to_dict() for rec in records], "pinned": pinned,
            "n_starts": n_starts, "n_converged": found.size, "seed": seed}
    return records, data


def assert_stats_add_up(branch_set):
    stats = branch_set.stats
    assert stats.starts == branch_set.n_starts
    assert stats.converged + stats.overflow + stats.stalled + stats.budget == stats.starts
    assert stats.converged == branch_set.n_converged
    if stats.converged == stats.starts:
        assert stats.residual_floor is None
    assert stats.pinv_fallbacks <= stats.solves


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_branch_set_json_is_the_record_built_json(reference_pinning, monkeypatch, seed):
    # the criterion-4 run: the arrays write the JSON the RootRecords wrote
    newton, dedup = _spy(monkeypatch, "_newton_batch"), _spy(monkeypatch, "_dedup")
    branch_set = multistart(reference_pinning, 2000, seed_rng=seed)
    records, data = _record_built(reference_pinning, 2000, seed, newton[0], dedup[0])
    got = branch_set.to_dict()
    assert list(got) == [*data, "stats"]
    assert got.pop("stats") == branch_set.stats.to_dict()
    assert json.dumps(got) == json.dumps(data)
    assert branch_set.to_json() == json.dumps(branch_set.to_dict())
    # the records are built once, on demand, and are the record-built ones
    assert branch_set.roots is branch_set.roots and branch_set.roots == records
    assert branch_set.nontrivial() == [r for r in records
                                       if r.classification == "non-trivial"]
    assert len(branch_set.nontrivial()) == 2
    assert_stats_add_up(branch_set)
    assert branch_set.stats.residual_floor is None      # every start converges
    # the stats are the Newton batch's own
    X, code, iters, hinf, stats = newton[0]
    assert branch_set.stats is stats
    assert dataclasses.astuple(stats)[:7] == (
        2000, *(int(np.count_nonzero(labels(code) == r)) for r in solver._STOP_REASONS),
        None, int(iters.sum()))


def test_empty_branch_set(reference_pinning, monkeypatch):
    # no iteration: every start keeps "budget" and no root is kept
    newton, dedup = _spy(monkeypatch, "_newton_batch"), _spy(monkeypatch, "_dedup")
    branch_set = multistart(reference_pinning, 25, seed_rng=4, max_iter=0)
    records, data = _record_built(reference_pinning, 25, 4, newton[0], dedup[0])
    assert records == [] and branch_set.roots == [] and branch_set.nontrivial() == []
    assert branch_set.values.shape == (0, reference_pinning.n_unknowns)
    got = branch_set.to_dict()
    assert got.pop("stats") == {
        "starts": 25, "converged": 0, "overflow": 0, "stalled": 0, "budget": 25,
        "residual_floor": float(np.min(newton[0][3])), "iterations": 0, "solves": 0,
        "pinv_fallbacks": 0, "candidate_rows": 0, "passes": 0}
    assert json.dumps(got) == json.dumps(data)


def test_run_stats_add_up(reference_pinning):
    # runs that end in each of the four ways
    system, _ = build_named_system("coeffs2")
    j1_point = pin_and_square(system, {"a": 1, "b": -1, "d": F(1, 3), "lam": 1,
                                       "m": F(3, 4), "sigma": 1, "j1": F(1, 10)})
    x = RationalPoly.var("x")
    runs = [multistart(j1_point, 60, seed_rng=0, max_iter=80),
            multistart(solver.HSystemNumeric(["x"], [x - 1, x + 1], {}), 20),
            multistart(solver.HSystemNumeric(["x"], [x - 10**8, x - 10**8 - 1], {}), 20),
            multistart(reference_pinning, 40, seed_rng=1, max_iter=3)]
    for branch_set in runs:
        assert_stats_add_up(branch_set)
    assert runs[0].stats.stalled > 0 and runs[0].stats.budget > 0
    assert 0.09 < runs[0].stats.residual_floor < 0.1       # just below j1 = 1/10
    assert runs[1].stats.stalled == 20 and runs[1].stats.residual_floor == 1.0
    assert runs[2].stats.overflow == 20
    assert runs[3].stats.converged > 0 and runs[3].stats.budget > 0


def test_nonexistence_report_is_the_record_built_report():
    # the resonant k1 point: sigma ~ 0 roots, each one entry of the point
    point = {"a": F(-1, 100), "b": F(1, 6), "d": F(-1, 2), "lam": 1, "m": F(1, 2),
             "sigma": 1}
    report = reproduce_nonexistence("k1", [point], n_starts=300, seed=5)
    system, _ = build_named_system("coeffs2")
    pins = {k: v for k, v in point.items() if k != "sigma"}
    branch_set = multistart(pin_and_square(system, {**pins, "k1": 0.1}), 300,
                            seed_rng=5, max_iter=solver._SWEEP_MAX_ITER)
    pinned = branch_set.pinned
    roots = [{"values": r.values, "hinf": r.hinf,
              "sigma": r.values.get("sigma", pinned.get("sigma", 0.0))}
             for r in branch_set.roots]
    counterexamples = [{"pins": pinned, **e} for e in roots
                       if abs(e["sigma"]) > solver._SIGMA_TOL]
    expected = {"constrained": "k1", "value": 0.1, "delta": solver._DELTA,
                "sigma_free": True, "n_starts": 300, "seed": 5,
                "total_roots": len(roots), "upheld": not counterexamples,
                "counterexamples": counterexamples,
                "points": [{"pins": pinned, "n_converged_roots": len(roots),
                            "roots": roots}]}
    got = report.to_dict()
    assert got.pop("stats") == got["points"][0].pop("stats") == branch_set.stats.to_dict()
    assert json.dumps(got) == json.dumps(expected)
    assert roots and report.upheld


def test_nonexistence_stats_are_summed():
    # every start of the resonant point converges, none of the other's
    grid = [{"a": a, "b": -1, "d": F(1, 3), "lam": 1, "m": F(1, 2), "sigma": 1}
            for a in (F(-1, 100), 1)]
    report = reproduce_nonexistence("k1", grid, n_starts=60, seed=0)
    parts = [pt.stats for pt in report.points]
    total = report.stats
    for name in ("starts", "converged", "overflow", "stalled", "budget", "iterations",
                 "solves", "pinv_fallbacks", "candidate_rows", "passes"):
        assert getattr(total, name) == sum(getattr(p, name) for p in parts)
    assert total.starts == 120
    # the floor is the lowest one a point has
    assert parts[0].residual_floor is None
    assert total.residual_floor == parts[1].residual_floor > 0
    assert solver.RunStats.total([]).residual_floor is None


def test_multistart_promotion_passes_residual(reference_pinning):
    branch_set = multistart(reference_pinning, 300, seed_rng=5)
    p = ParameterSet.make(1, F(-8, 3), 1, 1)
    for rec in branch_set.nontrivial():
        sol = promote_root(rec, reference_pinning.pinned)
        assert ode_residual(sol, p, 256).relative <= 1e-9


@pytest.mark.parametrize("label,case", [
    ("4.1.1", "s411_b"), ("4.1.2", "s412_a"), ("4.2.1", "s421_a"),
    ("4.2.2", "s422_a"), ("4.3", "s43"),
])
def test_promote_root_tags_each_family(quadratic_system, reference_cases, label, case):
    # a family's closed form, handed over as a solver root, keeps its tag
    args = reference_cases[case]
    sol = FAMILIES[label](**args)
    p = args["p"] if "p" in args else ParameterSet.make(0, 0, 0, args["d"])
    pins = {"a": p.a, "b": p.b, "c": p.c, "d": p.d,
            "lam": sol.lam, "m": sol.m, "sigma": sol.sigma}
    system = build_coefficient_system(4, 2) if label == "4.2.1" else quadratic_system
    sysn = pin_and_square(system, pins)
    coeffs = sol.coefficient_map()
    rec = solver.RootRecord({u: coeffs[u] for u in sysn.unknowns}, "non-trivial",
                            0.0, 1, 0)
    promoted = promote_root(rec, pins)
    assert promoted.family_tag == sol.family_tag
    assert ode_residual(promoted, p, 256).relative <= 1e-9


def test_promote_root_tags_the_linear_w_shape(quadratic_system):
    # c = b = d = 0, a < 0: the (2, 1) shape, j = (-3/2, 0, -1/2),
    # k = (1, +-1, 0); no family builds it, and it is not S411 (k2 = 0)
    sysn = pin_and_square(quadratic_system, {"a": -1, "b": 0, "c": 0, "d": 0,
                                             "m": F(1, 2), "lam": 1, "sigma": 1})
    branch_set = multistart(sysn, 200, seed_rng=0)
    roots = branch_set.nontrivial()
    assert len(roots) == 2
    for rec in roots:
        sol = promote_root(rec, sysn.pinned)
        assert sol.family_tag == "QuadraticEtaLinearW"
        assert np.allclose(sol.j, (-1.5, 0.0, -0.5, 0.0, 0.0), atol=1e-12)
        assert np.allclose(np.abs(sol.k), (1.0, 1.0, 0.0), atol=1e-12)
        assert ode_residual(sol, ParameterSet.make(-1, 0, 0, 0), 256).relative <= 1e-12


def test_promote_root_tags_the_even_root_s422_at_c_zero(quadratic_system):
    # the zero pattern of S412 and S422 is the same; c tells them apart
    pins = {"a": 1, "b": 2, "c": 0, "d": -1, "lam": 1, "sigma": 1, "m": F(1, 2)}
    sysn = pin_and_square(quadratic_system, pins)
    roots = multistart(sysn, 500, seed_rng=0).nontrivial()
    assert len(roots) == 1
    sol = promote_root(roots[0], sysn.pinned)
    ref = build_s422(ParameterSet.make(1, 2, 0, -1), 1, 1, F(1, 2))
    assert sol.family_tag == ref.family_tag == "S422"
    assert np.allclose(sol.j, ref.j, atol=1e-12)
    assert np.allclose(sol.k, ref.k, atol=1e-12)
    without_c = {k: v for k, v in sysn.pinned.items() if k != "c"}
    with pytest.raises(UsageError):
        promote_root(roots[0], without_c)


def test_coeffs2red_finds_the_s421_root():
    system, pins = build_named_system(
        "coeffs2red", {"a": 1, "b": F(1, 6), "d": F(1, 6)})
    assert pins == {"j1": 0, "j3": 0, "k1": 0}
    sysn = pin_and_square(system, {**pins, "lam": 1, "sigma": 1, "m": F(1, 2)})
    target = build_s421(ParameterSet.make(1, F(1, 6), 0, F(1, 6)),
                        1, 1, F(1, 2)).coefficient_map()
    best = min(max(abs(rec.values[u] - target[u]) for u in sysn.unknowns)
               for rec in multistart(sysn, 300, seed_rng=0).nontrivial())
    assert best <= 1e-8
    with pytest.raises(DomainError):
        build_named_system("coeffs2red", {"c": 1})


def test_unknown_system_name_lists_the_systems():
    with pytest.raises(UsageError, match=r"'coeffs3'.*\['coeffs1', 'coeffs2', 'coeffs2red'\]"):
        build_named_system("coeffs3")


def test_named_system_rejects_params_other_than_abcd():
    with pytest.raises(UsageError, match=r"\['lam', 'x'\]"):
        build_named_system("coeffs1", {"x": 1, "lam": 2})
    with pytest.raises(UsageError, match=r"\['sigma'\]"):
        build_named_system("coeffs2", {"a": 1, "sigma": 1})


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


def test_negative_seed_and_iteration_budget_rejected(reference_pinning):
    sysn = reference_pinning
    with pytest.raises(UsageError, match="seed = -1 "):
        multistart(sysn, 5, seed_rng=-1)
    with pytest.raises(UsageError, match="max_iter = -3 "):
        multistart(sysn, 5, max_iter=-3)
    with pytest.raises(UsageError, match="max_iter = -1 "):
        solve_newton(sysn, np.ones(sysn.n_unknowns), max_iter=-1)
    # a budget of 0 only labels the starts
    assert multistart(sysn, 5, max_iter=0).n_converged == 0
    result = solve_newton(sysn, np.ones(sysn.n_unknowns), max_iter=0)
    assert (result.status, result.iterations) == ("budget", 0)


def test_residual_rejects_rows_of_another_width(reference_pinning):
    with pytest.raises(UsageError, match="rows of 6 values"):
        reference_pinning.residual(np.zeros(5))
    with pytest.raises(UsageError, match="rows of 6 values"):
        reference_pinning.residual(np.zeros((3, 7)))
    assert reference_pinning.residual(np.zeros(6)).shape == (1, reference_pinning.n_equations)


def _multistart_records(caplog, *args, **kwargs):
    """The BranchSet of one multistart and its engine and multistart records."""
    with caplog.at_level(logging.DEBUG, logger="abcdwaves.solver"):
        branch_set = multistart(*args, **kwargs)
    newton, record = [r for r in caplog.records if r.name == "abcdwaves.solver"]
    assert (newton.funcName, record.funcName) == ("_newton_batch", "multistart")
    assert newton.levelno == record.levelno == logging.DEBUG
    assert newton.args[0] is branch_set.stats
    assert all(t >= 0.0 for t in newton.args[1:] + record.args[4:7])
    return branch_set, newton, record


def test_multistart_logs_counts(reference_pinning, caplog):
    branch_set, _, record = _multistart_records(caplog, reference_pinning, 120,
                                                seed_rng=3)
    assert record.args[:4] == (120, branch_set.n_converged, len(branch_set.roots),
                               len(branch_set.nontrivial()))
    assert len(branch_set.roots) > len(branch_set.nontrivial()) > 0
    # every start converges, so no unconverged residual floor
    assert record.args[1] == 120 and branch_set.stats.residual_floor is None
    assert 1 <= record.args[7] <= len(branch_set.roots)


def test_multistart_logs_stop_reasons(caplog, monkeypatch):
    # a criterion-6 point: j1 = 1/10 pinned, no root exists
    system, _ = build_named_system("coeffs2")
    sysn = pin_and_square(system, {"a": 1, "b": -1, "d": F(1, 3), "lam": 1,
                                   "m": F(3, 4), "sigma": 1, "j1": F(1, 10)})
    seen = _spy(monkeypatch, "_newton_batch")
    branch_set, newton, record = _multistart_records(
        caplog, sysn, 120, seed_rng=0, max_iter=80)
    ((_, code, iters, hinf, stats),) = seen
    reason = labels(code)
    counts = tuple(int(np.count_nonzero(reason == r)) for r in solver._STOP_REASONS)
    assert dataclasses.astuple(stats)[:5] == (120, *counts)
    assert sum(counts) == 120 and counts[0] == branch_set.n_converged == 0
    assert counts[2] > 100 and counts[3] > 0          # stalled, budget
    assert record.args[:4] == (120, 0, 0, 0)
    # the residual floor of the unconverged starts sits just below j1 = 1/10
    assert stats.residual_floor == np.nanmin(hinf[reason != "converged"])
    assert 0.09 < stats.residual_floor < 0.1
    # one solve per accepted step and one more for each stalled row
    assert stats.iterations == iters.sum()
    assert stats.solves == iters.sum() + counts[2]
    assert 0 <= stats.pinv_fallbacks <= stats.solves
    assert stats.candidate_rows >= stats.solves >= stats.passes > 0
    # the widest dedup window, at most the kept count
    assert record.args[7] <= len(branch_set.roots)
    # the seconds of the Gauss-Newton steps and the line searches are parts
    # of the newton seconds
    step_s, search_s, batch_iters = newton.args[1:]
    assert 0.0 <= step_s + search_s <= record.args[4]
    # the budget rows keep the batch iterating to the end of the budget; a
    # stalled row's batch ran the step it could not take
    assert batch_iters == max(iters + (code == solver._STALLED)) == 80


def test_multistart_builds_no_debug_arguments_when_silent(reference_pinning, caplog,
                                                          monkeypatch):
    def nontrivial(self):
        raise AssertionError("a silent logger needs no non-trivial count")

    caplog.set_level(logging.INFO, logger="abcdwaves.solver")
    monkeypatch.setattr(solver.BranchSet, "nontrivial", nontrivial)
    branch_set = multistart(reference_pinning, 20, seed_rng=3)
    assert branch_set.n_converged > 0 and not caplog.records


def test_newton_batch_stop_reasons(reference_pinning):
    X0 = np.random.default_rng(4).uniform(-10.0, 10.0,
                                          (200, reference_pinning.n_unknowns))
    X0[0, 0] = np.inf
    _, code, iters, hinf, *_ = solver._newton_batch(reference_pinning, X0, 5)
    assert code.dtype == np.int8
    reason = labels(code)
    assert set(reason) <= set(solver._STOP_REASONS)
    assert reason[0] == "overflow" and iters[0] == 0
    conv = reason == "converged"
    assert np.all(hinf[conv] <= 1e-12) and not np.any(hinf[~conv] <= 1e-12)
    assert {"converged", "budget"} <= set(reason)
    assert np.all(iters <= 5)


def test_escape_on_last_step_is_overflow():
    # h = [x - 1e8, x - 1e8 - 1] from x = 0: the first step lands on
    # x = 1e8 + 1/2, past the 1e7 radius, whether or not it is the last
    x = RationalPoly.var("x")
    sysn = solver.HSystemNumeric(["x"], [x - 10**8, x - 10**8 - 1], {})
    for max_iter in (1, 2):
        result = solve_newton(sysn, [0.0], max_iter)
        assert (result.status, result.iterations) == ("overflow", 1)


def test_root_past_escape_stays_converged():
    # the convergence test wins over the escape test
    x = RationalPoly.var("x")
    sysn = solver.HSystemNumeric(["x"], [x - 10**8], {})
    for max_iter in (1, 2, 5):
        result = solve_newton(sysn, [0.0], max_iter)
        assert (result.status, result.iterations, result.hinf) == ("converged", 1, 0.0)
        assert result.x[0] == 1e8


def test_inconsistent_system_stalls():
    # h = [x - 1, x + 1]: Gauss-Newton lands on x = 0, where ||h||^2 = 2 is
    # the minimum, and no step down to the floor decreases it
    x = RationalPoly.var("x")
    sysn = solver.HSystemNumeric(["x"], [x - 1, x + 1], {})
    X0 = np.random.default_rng(0).uniform(-10.0, 10.0, (50, 1))
    X, code, iters, hinf, *_ = solver._newton_batch(sysn, X0, 200)
    assert list(labels(code)) == ["stalled"] * 50
    assert np.all(iters <= 2) and np.all(np.abs(X) < 1e-8) and np.allclose(hinf, 1.0)
    branch_set = multistart(sysn, 50, seed_rng=0)
    assert branch_set.n_converged == 0 and branch_set.roots == []


def test_stall_exit_keeps_long_steps(quadratic_system, monkeypatch):
    # coeffs1 with lam and sigma free: near the rank-deficient continuum
    # some rows take Gauss-Newton steps of 1e5-1e8 at factors far below
    # 2**-30 that still move x, and converge later; the stall exit keeps
    # them, so multistart matches the search down to solver._MIN_STEP
    sysn = pin_and_square(quadratic_system,
                          {"a": 1, "b": F(-8, 3), "c": 1, "d": 1, "m": F(1, 2)})
    got = multistart(sysn, 300, seed_rng=5)
    monkeypatch.setattr(solver, "_STALL_FLOOR", 0.0)
    deep = multistart(sysn, 300, seed_rng=5)
    # the same roots and stop counts; the deeper search evaluates more candidates
    assert deep.stats.candidate_rows > got.stats.candidate_rows
    same_work = dataclasses.replace(deep.stats, candidate_rows=got.stats.candidate_rows)
    assert got.to_json() == dataclasses.replace(deep, stats=same_work).to_json()
    # a floor on the step factor alone loses some of them
    monkeypatch.setattr(solver, "_STALL_FLOOR", 2.0 ** -30)
    monkeypatch.setattr(solver, "_STALL_MOVE", np.inf)
    assert multistart(sysn, 300, seed_rng=5).n_converged < got.n_converged


# -- Gauss-Newton step ---------------------------------------------------------

def _pinv_step(J, H):
    return -np.einsum("bij,bj->bi", np.linalg.pinv(J, rcond=1e-14), H)


def _step(J, H):
    """_gauss_newton_step on the row-major J (rows, m, n) and H (rows, m)
    of the references, passed row-last; its (n, rows) steps come back as
    (rows, n)."""
    dx, fallbacks = solver._gauss_newton_step(J.transpose(1, 2, 0), H.T)
    return dx.T, fallbacks


def test_gauss_newton_step_matches_pinv_on_well_conditioned_rows():
    # the criterion-6 j1 pinning at 500 multistart-style seeds
    system, _ = build_named_system("coeffs2")
    sysn = pin_and_square(system, {"a": 1, "b": -1, "d": F(1, 3), "lam": 1,
                                   "m": F(3, 4), "sigma": 1, "j1": F(1, 10)})
    rng = np.random.default_rng(0)
    X = 10.0 ** rng.uniform(-3.0, 1.0, (500, sysn.n_unknowns)) \
        * rng.choice([-1.0, 1.0], (500, sysn.n_unknowns))
    J = solver._eval_polys(sysn._j, X.T).T.reshape(500, sysn.n_equations,
                                                   sysn.n_unknowns)
    H = sysn.residual(X)
    dx, fallbacks = _step(J, H)
    assert fallbacks == 0
    ref = _pinv_step(J, H)
    rel = np.linalg.norm(dx - ref, axis=1) / np.linalg.norm(ref, axis=1)
    cond = np.linalg.cond(J)
    well = cond <= 1e3
    assert well.sum() >= 250 and rel[well].max() <= 1e-12
    # least-squares perturbation theory: the two solvers differ by about
    # eps * cond(J)
    assert np.all(rel <= 16 * np.finfo(float).eps * cond)


def test_gauss_newton_step_is_pinv_on_rank_deficient_rows():
    # h = [x + y - 2, 2x + 2y - 4, 3x + 3y - 6]: rank-1 Jacobian, and the
    # minimum-norm step from (0, 0) lands on (1, 1)
    x, y = RationalPoly.var("x"), RationalPoly.var("y")
    sysn = solver.HSystemNumeric(["x", "y"], [x + y - 2, 2 * x + 2 * y - 4,
                                              3 * x + 3 * y - 6], {})
    X = np.zeros((1, 2))
    J_def = solver._eval_polys(sysn._j, X.T).T.reshape(1, 3, 2)
    H_def = sysn.residual(X)
    # batched with a well-conditioned row, which takes the QR step
    J = np.concatenate([J_def, [[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]]])
    H = np.concatenate([H_def, [[1.0, -2.0, 0.5]]])
    dx, fallbacks = _step(J, H)
    ref = _pinv_step(J, H)
    assert fallbacks == 1
    assert dx[0].tobytes() == ref[0].tobytes()
    assert np.allclose(dx[1], ref[1], rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(X[0] + dx[0], [1.0, 1.0], rtol=1e-15)
    result = solve_newton(sysn, [0.0, 0.0])
    assert result.converged and result.iterations == 1
    np.testing.assert_allclose(result.x, [1.0, 1.0], rtol=1e-15)


def test_gauss_newton_step_non_finite_rows():
    good = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    J = np.stack([good, good, good])
    J[0, 1, 0] = np.nan
    J[1, 2, 1] = np.inf
    H = np.array([[1.0, -2.0, 0.5]] * 3)
    with np.errstate(all="ignore"):
        dx, fallbacks = _step(J, H)
    assert fallbacks == 2
    assert not np.isfinite(dx[:2]).any()
    assert np.allclose(dx[2], _pinv_step(J[2:], H[2:])[0], rtol=1e-14, atol=0.0)


def _qr_gate(n):
    """The largest kappa_1(R) of a QR step with n unknowns."""
    return 1 / (2 * n * solver._RCOND)


def _gauss_newton_step_reference(J, H):
    """The LAPACK step: np.linalg.qr and np.linalg.inv, one call per row.

    Returns (dx, fallbacks, kappa), kappa_1(R) per row (inf where the
    factor is not finite or has a zero diagonal).
    """
    n = J.shape[2]
    R = np.linalg.qr(np.concatenate((J, H[:, :, None]), axis=2), mode="r")
    ok = np.flatnonzero(np.isfinite(R).all(axis=(1, 2))
                        & (np.diagonal(R, axis1=1, axis2=2)[:, :n] != 0).all(axis=1))
    Rj = R[ok, :n, :n]
    Rinv = np.linalg.inv(Rj)
    kappa = np.full(J.shape[0], np.inf)
    kappa[ok] = (np.abs(Rj).sum(axis=1).max(axis=1)
                 * np.abs(Rinv).sum(axis=1).max(axis=1))
    rows = np.flatnonzero(kappa <= _qr_gate(n))
    dx = np.full((J.shape[0], n), np.nan)
    dx[rows] = -np.einsum("bij,bj->bi", np.linalg.inv(R[rows, :n, :n]), R[rows, :n, n])
    svd = np.isfinite(J).all(axis=(1, 2))
    svd[rows] = False
    if svd.any():
        dx[svd] = _pinv_step(J[svd], H[svd])
    return dx, J.shape[0] - rows.size, kappa


def _routes(step, J, H):
    """How each row gets its step, "qr", "pinv" or "nan", by one-row calls."""
    return np.array(["nan" if not np.isfinite(j).all() else
                     "pinv" if step(j[None], h[None])[1] else "qr"
                     for j, h in zip(J, H)])


def _relative_error(dx, ref):
    """||dx - ref|| / ||ref|| per row, with no square under- or overflowing."""
    scale = np.abs(ref).max(axis=1, keepdims=True)
    return np.linalg.norm((dx - ref) / scale, axis=1) / np.linalg.norm(ref / scale, axis=1)


def _ls_bound(J, H, ref):
    """16 eps (kappa / cos(theta) + kappa^2 tan(theta)) per row, with
    sin(theta) = ||r|| / ||h|| and r = h + J ref: how far two backward-stable
    least-squares solvers may differ (Golub & Van Loan, Matrix Computations,
    Thm 5.3.1).  On a consistent row (r = 0) it is 16 eps kappa."""
    cond = np.linalg.cond(J)
    Jd = np.einsum("bij,bj->bi", J, ref)
    fit = np.linalg.norm(Jd, axis=1)
    return 16 * np.finfo(float).eps * (
        cond * np.linalg.norm(H, axis=1) / fit
        + cond ** 2 * np.linalg.norm(H + Jd, axis=1) / fit)


def _check_step(J, H):
    """The vectorized step against the LAPACK reference on every row.

    Rows route alike wherever kappa_1(R) is not within 1% of the gate.  A
    row that both take by QR agrees within _ls_bound; a pinv row has pinv's
    step bit for bit; a row with a non-finite J has a NaN step.  Returns
    the routes and the relative error of each row both take by QR (NaN on
    the others).
    """
    with np.errstate(all="ignore"):
        dx, fallbacks = _step(J, H)
        ref, _, kappa = _gauss_newton_step_reference(J, H)
        route = _routes(_step, J, H)
        ref_route = _routes(lambda j, h: _gauss_newton_step_reference(j, h)[:2], J, H)
    near_gate = np.abs(kappa / _qr_gate(J.shape[2]) - 1) <= 0.01
    assert np.array_equal(route[~near_gate], ref_route[~near_gate])
    assert fallbacks == np.count_nonzero(route != "qr")
    qr = np.flatnonzero((route == "qr") & (ref_route == "qr"))
    rel = np.full(J.shape[0], np.nan)
    rel[qr] = _relative_error(dx[qr], ref[qr])
    assert np.all(rel[qr] <= _ls_bound(J[qr], H[qr], ref[qr]))
    pinv = np.flatnonzero(route == "pinv")
    if pinv.size:
        assert dx[pinv].tobytes() == _pinv_step(J[pinv], H[pinv]).tobytes()
    assert np.isnan(dx[route == "nan"]).all()
    return route, rel


def _coeffs2_pinning(var):
    """The j1, j3 and k1 pinnings of the criterion-6 sweeps (k1: sigma free)."""
    system, _ = build_named_system("coeffs2")
    if var == "k1":
        return pin_and_square(system, {"a": F(-1, 100), "b": F(1, 6), "d": 1,
                                       "lam": 1, "m": F(1, 2), "k1": F(1, 10)})
    return pin_and_square(system, {"a": 1, "b": -1, "d": F(1, 3), "lam": 1,
                                   "m": F(3, 4), "sigma": 1, var: F(1, 10)})


def _jacobian_and_residual(sysn, X):
    with np.errstate(all="ignore"):
        J = solver._eval_polys(sysn._j, X.T).T.reshape(X.shape[0], sysn.n_equations,
                                                       sysn.n_unknowns)
        return J, sysn.residual(X)


def _seeded_starts(sysn, rows, seed):
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(-3.0, 1.0, (rows, sysn.n_unknowns)) \
        * rng.choice([-1.0, 1.0], (rows, sysn.n_unknowns))


@pytest.mark.parametrize("name", ["criterion-4", "j1", "j3", "k1"])
def test_gauss_newton_step_matches_the_lapack_reference(reference_pinning, name):
    sysn = reference_pinning if name == "criterion-4" else _coeffs2_pinning(name)
    X0 = _seeded_starts(sysn, 200, 17)
    # the seeded starts, and where 2 and 8 Newton steps take them: near
    # roots, on the rank-deficient trivial plane, and drifting off
    X = np.concatenate([X0] + [solver._newton_batch(sysn, X0, k)[0] for k in (2, 8)])
    J, H = _jacobian_and_residual(sysn, X)
    route, rel = _check_step(J, H)
    assert np.count_nonzero(route == "qr") >= 300
    if name == "criterion-4":       # the trivial plane needs the pseudoinverse
        assert np.count_nonzero(route == "pinv") >= 50
    # at the starts the residual is far from its least-squares floor, and
    # the steps agree within 16 eps cond(J)
    start = np.flatnonzero(route[:200] == "qr")
    assert start.size >= 190
    assert np.all(rel[start] <= 16 * np.finfo(float).eps * np.linalg.cond(J[start]))


def test_gauss_newton_step_edge_cases():
    rng = np.random.default_rng(5)
    J = rng.standard_normal((12, 9, 4))
    H = rng.standard_normal((12, 9))
    J[0, :, 2] = 0.0                  # a zero column
    J[1, 3, 1] = np.nan
    J[2, 0, 0] = np.inf
    J[3, 5, 3] = -np.inf
    H[4, 2] = np.nan                  # a finite J with a NaN residual
    route, _ = _check_step(J, H)
    assert list(route[:5]) == ["pinv", "nan", "nan", "nan", "pinv"]
    assert (route[5:] == "qr").all()
    # a one-row batch: the row of the batch, bit for bit
    dx, _ = _step(J[5:], H[5:])
    one, fallbacks = _step(J[7:8], H[7:8])
    assert fallbacks == 0 and one.tobytes() == dx[2:3].tobytes()
    # a square J and a single unknown
    assert (_check_step(J[5:, :4], H[5:, :4])[0] == "qr").all()
    assert (_check_step(J[5:, :, :1], H[5:])[0] == "qr").all()


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
def test_gauss_newton_step_scaled_columns(scale):
    # the squares of these columns underflow or overflow: the step must
    # match the reference within the bound or take pinv's, never be wrong
    sysn = _coeffs2_pinning("j1")
    J, H = _jacobian_and_residual(sysn, _seeded_starts(sysn, 100, 23))
    bound = _ls_bound(J, H, _pinv_step(J, H))
    for Js, Hs in ((J * scale, H * scale), (J * scale, H), (J, H * scale)):
        with np.errstate(all="ignore"):
            dx, _ = _step(Js, Hs)
            ref, _, _ = _gauss_newton_step_reference(Js, Hs)
            pinv = (dx == _pinv_step(Js, Hs)).all(axis=1)
        assert np.all((_relative_error(dx, ref) <= bound) | pinv)


def test_qr_gate_leaves_pinv_no_singular_value_to_drop():
    # J = U diag(s) V^T at 2-norm condition numbers from 1e6 to 1e16 (at
    # n = 1 a single singular value), half of the rows consistent (h = -J x),
    # half not
    rng = np.random.default_rng(31)
    rows, below_gate = 100, 0
    for n in range(1, 9):
        for m in range(n, n + 4):
            U = np.linalg.qr(rng.standard_normal((rows, m, n)))[0]
            V = np.linalg.qr(rng.standard_normal((rows, n, n)))[0]
            cond = 10.0 ** rng.uniform(6.0, 16.0, (rows, 1))
            powers = np.sort(rng.uniform(0.0, 1.0, (rows, n)), axis=1)
            powers[:, 0], powers[:, -1] = 0.0, 1.0
            s = 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1)) * cond ** -powers
            J = np.einsum("bik,bk,bjk->bij", U, s, V)
            H = rng.standard_normal((rows, m))
            H[::2] = -np.einsum("bij,bj->bi", J[::2], rng.standard_normal((rows, n))[::2])
            route, _ = _check_step(J, H)
            dx, _ = _step(J, H)
            qr = route == "qr"
            sv = np.linalg.svd(J[qr], compute_uv=False)
            assert np.all(sv[:, -1] > solver._RCOND * sv[:, 0])
            ref = _pinv_step(J[qr], H[qr])
            assert np.all(_relative_error(dx[qr], ref) <= _ls_bound(J[qr], H[qr], ref))
            # just below the gate the step is still the QR step
            kappa = _gauss_newton_step_reference(J, H)[2]
            near = (kappa >= _qr_gate(n) / 2) & (kappa <= _qr_gate(n) / 1.01)
            assert qr[near].all()
            below_gate += np.count_nonzero(near)
    assert below_gate >= 40


# -- line search ---------------------------------------------------------------

def _line_search_reference(compiled, Xa, dx, base, armijo, min_step):
    """The sequential loop: every pending row tries alpha, then alpha / 2."""
    alpha = np.ones(Xa.shape[0])
    settled = np.zeros(Xa.shape[0], dtype=bool)
    H = np.full((Xa.shape[0], compiled.sums.size), np.nan)
    pending = np.arange(Xa.shape[0])
    for _ls in range(50):
        Xc = Xa[pending] + alpha[pending, None] * dx[pending]
        with np.errstate(all="ignore"):
            Hc = solver._eval_polys(compiled, Xc.T).T
        good = np.isfinite(Hc).all(axis=1)
        dec = np.zeros_like(good)
        dec[good] = np.einsum("bi,bi->b", Hc[good], Hc[good]) <= \
            (1 - armijo * alpha[pending][good]) * base[pending][good]
        settled[pending[dec]] = True
        H[pending[dec]] = Hc[dec]
        pending = pending[~dec]
        if pending.size == 0:
            break
        alpha[pending] *= 0.5
        if alpha[pending].max(initial=0.0) < min_step:
            break
    return alpha, settled, H


def _search(*args):
    """solver._line_search under the errstate its caller holds."""
    with np.errstate(all="ignore"):
        return solver._line_search(*args)


def _search_batch(sysn, rows=800, seed=5):
    # random directions over eight decades, a base a little above ||h||^2
    # (so steps shrink until the first-order change fits under it), and
    # rows whose candidates overflow or are NaN
    rng = np.random.default_rng(seed)
    Xa = rng.uniform(-3.0, 3.0, (rows, sysn.n_unknowns))
    dx = rng.standard_normal(Xa.shape) * 10.0 ** rng.uniform(-2.0, 6.0, (rows, 1))
    dx[:20] *= 1e200
    dx[20:30, 0] = np.nan
    H = sysn.residual(Xa)
    base = np.einsum("bi,bi->b", H, H) * (1 + 10.0 ** rng.uniform(-12.0, 0.0, rows))
    return Xa, dx, base


@pytest.mark.parametrize("min_step", [1e-14, 1e-3, 0.0])
def test_line_search_matches_reference(reference_pinning, min_step):
    Xa, dx, base = _search_batch(reference_pinning)
    f = reference_pinning._f
    floor = np.full(Xa.shape[0], min_step)
    alpha, *_ = _search(f, Xa.T, dx.T, base, floor, np.ones(Xa.shape[0], dtype=np.intp))
    ref_alpha, ref_settled, _ = _line_search_reference(f, Xa, dx, base, 1e-4, min_step)
    assert np.array_equal(alpha > 0, ref_settled)
    assert alpha[ref_settled].tobytes() == ref_alpha[ref_settled].tobytes()
    # every step down to the floor (at most 50, so every block) is taken
    # by some row, and the batch has non-finite candidates
    steps = -np.log2(alpha[alpha > 0])
    assert set(steps) == {k for k in range(50) if 2.0 ** -k >= min_step}
    assert (~ref_settled).sum() >= 30
    with np.errstate(all="ignore"):
        H1 = reference_pinning.residual(Xa[:30] + dx[:30])
    assert not np.isfinite(H1).all(axis=1).any()


def test_line_search_stops_at_row_floor(reference_pinning):
    # against the search down to solver._MIN_STEP, a row stops at
    # its own floor: rows that need a smaller step stall, every other row
    # takes the same step
    Xa, dx, base = _search_batch(reference_pinning, seed=6)
    f = reference_pinning._f
    floor = 2.0 ** -np.random.default_rng(7).integers(0, 47, Xa.shape[0])
    alpha, *_ = _search(f, Xa.T, dx.T, base, floor, np.ones(Xa.shape[0], dtype=np.intp))
    deep_alpha, deep_settled, _ = _line_search_reference(f, Xa, dx, base, 1e-4, 1e-14)
    past = deep_settled & (deep_alpha < floor)
    assert past.sum() >= 50 and (deep_settled & ~past).sum() >= 300
    assert np.array_equal(alpha > 0, deep_settled & ~past)
    assert alpha[alpha > 0].tobytes() == deep_alpha[alpha > 0].tobytes()


@pytest.mark.parametrize("min_step", [1e-14, 1e-3])
def test_line_search_returns_accepted_residuals(reference_pinning, min_step):
    # _newton_batch keeps these rows as the residual of the next iterate
    Xa, dx, base = _search_batch(reference_pinning, seed=8)
    f = reference_pinning._f
    alpha, H, *_ = _search(f, Xa.T, dx.T, base, np.full(Xa.shape[0], min_step),
                           np.ones(Xa.shape[0], dtype=np.intp))
    H = H.T
    ok = alpha > 0
    assert ok.sum() >= 250 and (~ok).sum() >= 30
    assert H.shape == (Xa.shape[0], reference_pinning.n_equations)
    with np.errstate(all="ignore"):
        fresh = reference_pinning.residual(Xa[ok] + alpha[ok, None] * dx[ok])
    assert H[ok].tobytes() == fresh.tobytes()
    assert np.isnan(H[~ok]).all()


def test_line_search_sums_squares_as_a_row_major_einsum(reference_pinning):
    # base at the knife edge of the full step: the smallest base whose
    # (1 - _ARMIJO) * base reaches the row-major einsum of the squares, so
    # every row takes alpha = 1.  A sum of squares in any other order,
    # which differs in the last bit on some rows, would reject it there.
    Xa, dx, _ = _search_batch(reference_pinning, seed=11)
    Xa, dx = Xa[30:], dx[30:]         # rows whose full step is finite
    H1 = reference_pinning.residual(Xa + dx)
    squares = np.einsum("bi,bi->b", H1, H1)
    factor = 1 - solver._ARMIJO
    base = squares / factor
    for _ in range(4):
        base = np.where(factor * base < squares, np.nextafter(base, np.inf), base)
        lower = np.nextafter(base, -np.inf)
        base = np.where(factor * lower >= squares, lower, base)
    alpha, H, *_ = _search(reference_pinning._f, Xa.T, dx.T, base, np.zeros(Xa.shape[0]),
                           np.ones(Xa.shape[0], dtype=np.intp))
    assert (alpha == 1.0).all() and H.T.tobytes() == H1.tobytes()


@pytest.mark.parametrize("first", ["0", "1", "random", "past the floor", "50"])
def test_line_search_first_block_gives_the_same_steps(reference_pinning, first):
    # the first pass may try any number of steps at once: each row still
    # takes the first step a one-by-one search down to its floor accepts,
    # with the same residual, and no step below its floor is evaluated
    Xa, dx, base = _search_batch(reference_pinning, seed=9)
    # an infinite base passes every sum of squares: the residual itself
    # must be finite (rows 0-29 have none)
    base[:40] = np.inf
    f = reference_pinning._f
    rng = np.random.default_rng(10)
    floor = 2.0 ** -rng.integers(0, 47, Xa.shape[0])
    limit = np.count_nonzero(0.5 ** np.arange(50) >= floor[:, None], axis=1)
    sizes = {"0": np.zeros_like(limit), "1": np.ones_like(limit),
             "random": rng.integers(0, 51, limit.size),
             "past the floor": limit + rng.integers(1, 5, limit.size),
             "50": np.full_like(limit, 50)}[first]
    alpha, H, taken, evaluated, passes = _search(f, Xa.T, dx.T, base, floor, sizes)
    H = H.T
    deep_alpha, deep_settled, deep_H = _line_search_reference(f, Xa, dx, base, 1e-4,
                                                              1e-14)
    ok = deep_settled & (deep_alpha >= floor)
    assert ok.sum() >= 300 and (~ok).sum() >= 80
    assert np.array_equal(alpha > 0, ok)
    assert alpha[ok].tobytes() == deep_alpha[ok].tobytes()
    assert H[ok].tobytes() == deep_H[ok].tobytes() and np.isnan(H[~ok]).all()
    assert np.array_equal(0.5 ** taken[ok], alpha[ok]) and (taken[~ok] == -1).all()
    # the passes of each row: its first block, then 2, 4, 8, ... steps,
    # until one passes or the floor is reached
    want_rows = want_passes = 0
    for n_first, n_steps, k in zip(sizes.tolist(), limit.tolist(), taken.tolist()):
        start, size, row_passes = 0, max(n_first, 1), 0
        while start < n_steps and not 0 <= k < start:
            start, row_passes = start + min(size, n_steps - start), row_passes + 1
            size = 2 ** row_passes
        want_rows, want_passes = want_rows + start, max(want_passes, row_passes)
    assert (evaluated, passes) == (want_rows, want_passes)


# -- the row-major Newton loop -----------------------------------------------

def _newton_batch_reference(sysn, X0, max_iter, escape=solver._ESCAPE):
    """_newton_batch with its state row-major: X (rows, n), H (rows, m)
    and dx (rows, n), every per-row test a reduction along a row; the QR
    step and the line search, which take and return their arrays row-last,
    are transposed at the call.  Returns the first four outputs of
    _newton_batch, then the last four counts of its RunStats."""
    X = X0.astype(float).copy()
    B = X.shape[0]
    active = np.ones(B, dtype=bool)
    reason = np.full(B, "budget", dtype=object)
    iters = np.zeros(B, dtype=np.int64)
    hinf = np.empty(B)
    last = np.zeros(B, dtype=np.intp)
    solves = fallbacks = evaluated = passes = 0
    with np.errstate(all="ignore"):
        H = sysn.residual(X)
    for it in range(max_iter + 1):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        Xa, Ha = X[idx], H[idx]
        ha = np.max(np.abs(Ha), axis=1)
        hinf[idx] = ha
        conv = (ha <= solver._TOL) & np.isfinite(Xa).all(axis=1)
        over = ~conv & ~(np.isfinite(ha) & (np.abs(Xa).max(axis=1) < escape))
        reason[idx[conv]] = "converged"
        reason[idx[over]] = "overflow"
        keep = ~(conv | over)
        active[idx[~keep]] = False
        if it == max_iter or not keep.any():
            break
        idx, Xa, Ha = idx[keep], Xa[keep], Ha[keep]
        J = solver._eval_polys(sysn._j, Xa.T).T.reshape(Xa.shape[0], sysn.n_equations,
                                                        sysn.n_unknowns)
        dx, svd = _step(J, Ha)
        with np.errstate(all="ignore"):
            move = solver._STALL_MOVE * np.maximum(np.abs(Xa).max(axis=1), 1.0) \
                / np.abs(dx).max(axis=1)
        solves, fallbacks = solves + idx.size, fallbacks + svd
        base = np.einsum("bi,bi->b", Ha, Ha)
        floor = np.maximum(solver._MIN_STEP, np.fmin(solver._STALL_FLOOR, move))
        alpha, Hs, taken, rows, n_passes = _search(
            sysn._f, Xa.T, dx.T, base, floor, last[idx] + 1)
        evaluated, passes = evaluated + rows, passes + n_passes
        settled = alpha > 0
        last[idx[settled]] = taken[settled]
        X[idx[settled]] = Xa[settled] + alpha[settled, None] * dx[settled]
        H[idx[settled]] = Hs.T[settled]
        iters[idx[settled]] += 1
        active[idx[~settled]] = False
        reason[idx[~settled]] = "stalled"
    return X, reason, iters, hinf, solves, fallbacks, evaluated, passes


def _assert_same_newton(sysn, X0, max_iter, escape=solver._ESCAPE):
    X, code, iters, hinf, stats = solver._newton_batch(sysn, X0, max_iter, escape)
    ref = _newton_batch_reference(sysn, X0, max_iter, escape)
    assert X.shape == X0.shape and X.tobytes() == ref[0].tobytes()
    reason = labels(code)
    assert list(reason) == list(ref[1])
    assert iters.tobytes() == ref[2].tobytes() and hinf.tobytes() == ref[3].tobytes()
    assert dataclasses.astuple(stats)[-4:] == ref[4:]
    return reason


@pytest.mark.parametrize("name", ["criterion-4", "j1", "j3", "k1"])
def test_newton_batch_matches_the_row_major_reference(reference_pinning, name):
    sysn = reference_pinning if name == "criterion-4" else _coeffs2_pinning(name)
    X0 = _seeded_starts(sysn, 300, 31)
    X0[0, 0] = np.nan
    X0[1, -1] = np.inf
    X0[2, 0] = -np.inf
    X0[3:6] *= 1e7                    # at or past the escape radius
    X0[6] = 1e200                     # a residual past the float range
    with np.errstate(all="ignore"):
        reason = _assert_same_newton(sysn, X0, 80)
        for k in (0, 1, 7):
            _assert_same_newton(sysn, X0, k)
        _assert_same_newton(sysn, X0, 80, escape=50.0)
        for i in (0, 3, 10, 11):      # one-row batches
            _assert_same_newton(sysn, X0[i:i + 1], 80)
    assert "overflow" in reason and len(set(reason)) >= 2


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


def _run_dedup(roots):
    """solver._dedup on (x, hinf, seed index) triples: the kept
    [x, hinf, hits, seed index] lists and the widest window."""
    X = (np.array([x for x, _, _ in roots], dtype=float).reshape(len(roots), -1)
         if roots else np.empty((0, 1)))
    hinf = np.array([h for _, h, _ in roots], dtype=float)
    rep, hits, first, widest = solver._dedup(X, hinf)
    kept = [[X[r], hinf[r], n, roots[f][2]] for r, n, f in zip(rep, hits, first)]
    assert sum(hits) == len(roots) and widest <= len(kept)
    return kept, widest


def assert_same_dedup(roots):
    (got, _), ref = _run_dedup(list(roots)), _dedup_reference(list(roots))
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

    def spy(X, hinf):
        seen.append((X.copy(), hinf.copy()))
        return dedup(X, hinf)

    monkeypatch.setattr(solver, "_dedup", spy)
    multistart(reference_pinning, 300, seed_rng=11)
    monkeypatch.undo()
    ((X, hinf),) = seen
    assert len(X) > 100
    roots = [(x, h, i) for i, (x, h) in enumerate(zip(X, hinf.tolist()))]
    kept = assert_same_dedup(roots)
    assert sum(e[2] for e in kept) == len(roots)


# gaps in units of max(1e-9, 1e-6 |x0|): just inside and just outside the
# tolerance, between the tolerance and the window width W = 2, and beyond W
_GAP_FACTORS = (1 - 1e-7, 1 + 1e-7, 1 - 1e-12, 1.000001, 1.5, 1.999999, 2.000001, 2.5)


def _adversarial_roots(rng, constant_x0):
    """Clusters of roots at magnitudes 1e-12 .. 1e6, both signs and +-0.0:
    pairs at a first-coordinate gap near the tolerance or near W,
    replacement chains that walk a representative along one axis, and
    exact or signed-zero copies.  With constant_x0 every root has the same
    first coordinate."""
    n = int(rng.integers(2 if constant_x0 else 1, 5))
    roots = []

    def coordinate():
        if rng.random() < 0.15:
            return rng.choice([0.0, -0.0])
        return rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, 6.0)

    x0 = coordinate()
    for _ in range(int(rng.integers(2, 7))):
        c = np.array([x0 if constant_x0 else coordinate()]
                     + [coordinate() for _ in range(n - 1)])
        members = [c]
        kind = rng.integers(3)
        if kind == 0 and not constant_x0:         # gap pairs along axis 0
            unit = max(1e-9, 1e-6 * abs(c[0]))
            for _ in range(int(rng.integers(1, 4))):
                x = members[-1].copy()
                x[0] += rng.choice([-1.0, 1.0]) * rng.choice(_GAP_FACTORS) * unit
                members.append(x)
        elif kind == 1:                           # a chain along one axis
            axis = int(rng.integers(1 if constant_x0 else 0, n))
            step = 0.9 * max(1e-9, 1e-6 * abs(c[axis]))
            for t in range(1, int(rng.integers(2, 6))):
                x = c.copy()
                x[axis] += t * step
                members.append(x)
        else:                                     # copies, zeros of either sign
            for _ in range(int(rng.integers(1, 4))):
                x = c.copy()
                x[x == 0.0] *= -1.0
                members.append(x)
        for x in members:
            # other axes: inside the tolerance, or sometimes just outside
            for i in range(1, n):
                if rng.random() < 0.3:
                    x[i] += (rng.choice([0.4, 0.9, 1.1])
                             * max(1e-9, 1e-6 * abs(x[i])))
            roots.append(x)
    # hinf ties and strict decreases; the order of equal keys is the input order
    hinf = rng.choice([1e-14, 5e-14, 1e-13, 1e-12], size=len(roots))
    if rng.random() < 0.5:
        hinf = np.sort(hinf)[::-1]
    order = rng.permutation(len(roots))
    return [(roots[k], float(hinf[j]), j) for j, k in enumerate(order)]


def test_dedup_matches_reference_on_adversarial_sets():
    rng = np.random.default_rng(20)
    merged = retired = 0
    for trial in range(240):
        constant_x0 = trial % 4 == 3
        roots = _adversarial_roots(rng, constant_x0)
        kept = assert_same_dedup(roots)
        _, widest = _run_dedup(roots)
        if constant_x0:
            assert widest == len(kept)            # nothing retires
        merged += len(roots) > len(kept)
        retired += widest < len(kept)
    assert merged >= 100 and retired >= 50


def test_dedup_window_keeps_representatives_within_w_and_margin():
    # a representative at x0 = 1 stays in the window of a later root at b0
    # while 1 >= b0 - 2e-6 b0 - (1e-12 + 1e-15 b0), and leaves it below
    for excess, widest in ((0.5e-12, 2), (1.5e-12, 1)):
        b0 = (1 + excess) / (1 - 2e-6)
        kept, got = _run_dedup([(np.array([1.0, 0.0]), 1e-13, 0),
                                (np.array([b0, 1.0]), 1e-13, 1)])
        assert (len(kept), got) == (2, widest)
    # far apart roots retire each other, equal first coordinates never do
    far = [(np.array([float(t), 0.0]), 1e-13, t) for t in range(5)]
    assert _run_dedup(far)[1] == 1
    level = [(np.array([0.5, float(t)]), 1e-13, t) for t in range(5)]
    assert _run_dedup(level)[1] == 5


def _lo(x0):
    """The smallest first coordinate a representative of a root at x0
    needs to stay in the dedup window, computed as _dedup computes it."""
    return x0 - 2 * max(solver._DEDUP_ABS, solver._DEDUP_REL * abs(x0)) \
        - (1e-12 + 1e-15 * abs(x0))


def test_dedup_run_boundary_where_top_equals_lo():
    # an earlier first coordinate exactly at the later root's lo keeps it
    # in reach; one ulp below, the later root starts a new window
    b0 = 1.0 + 2.0 ** -40
    for a0, widest in ((_lo(b0), 2), (np.nextafter(_lo(b0), -np.inf), 1)):
        roots = [(np.array([b0, 1.0]), 1e-13, 0), (np.array([a0, 0.0]), 1e-13, 1)]
        assert len(assert_same_dedup(roots)) == 2
        assert _run_dedup(roots)[1] == widest


def test_dedup_keys_past_the_float_range():
    # np.round takes these first coordinates to +-inf: the keys tie, the
    # rows are in reach of every earlier one, and 1e300 and 1e300 (1 + 5e-7)
    # still merge
    roots = [(np.array([x0, x1]), h, i) for i, (x0, x1, h) in enumerate([
        (1e300, 1.0, 1e-13), (-1e300, 1.0, 1e-13), (2e300, 0.5, 1e-13),
        (5.0, 1.0, 1e-13), (1e300 * (1 + 5e-7), 1.0, 1e-14), (1e300, 0.25, 1e-13),
        (-1e300, 1.0 + 1e-7, 1e-14), (5.0 + 1e-7, 1.0, 1e-13)])]
    with np.errstate(over="ignore"):
        kept = assert_same_dedup(roots)
        assert _run_dedup(roots)[1] == 4
    assert sorted(e[2] for e in kept) == [1, 1, 2, 2, 2]


def test_dedup_lone_root_between_two_long_runs():
    # two runs of 40 roots within reach of each other, around 1 and 20, and
    # a root at 10 that nothing reaches: each run starts a window of its own
    rng = np.random.default_rng(41)
    roots = []
    for center in (1.0, 20.0):
        x0 = center + np.cumsum(rng.uniform(0.0, 1.5e-6 * center, 40))
        x1 = rng.choice([0.0, 0.5, 0.5 + 4e-7, 1.0], 40)
        roots += [np.array([a, b]) for a, b in zip(x0, x1)]
    roots.insert(40, np.array([10.0, 0.5]))
    order = rng.permutation(len(roots))
    hinf = rng.choice([1e-14, 1e-13, 1e-12], len(roots))
    roots = [(roots[k], float(hinf[j]), j) for j, k in enumerate(order)]
    kept = assert_same_dedup(roots)
    assert len(kept) < len(roots) and _run_dedup(roots)[1] >= 2
    assert [e[2] for e in kept if e[0][0] == 10.0] == [1]


def _classify_reference(values):
    """The per-root rule: the zero pattern of the j_r, k_r with 1 <= r <= 8."""
    eta_live = any(abs(values.get(f"j{r}", 0.0)) > solver._ZERO_TOL for r in range(1, 9))
    w_live = any(abs(values.get(f"k{r}", 0.0)) > solver._ZERO_TOL for r in range(1, 9))
    if eta_live and w_live:
        return "non-trivial"
    if eta_live or w_live:
        return "semi-trivial"
    return "trivial"


ALL_PATTERNS = {"trivial", "semi-trivial", "non-trivial"}


@pytest.mark.parametrize("pinned, patterns", [
    ({}, ALL_PATTERNS),
    ({"j1": 0.1}, {"semi-trivial", "non-trivial"}),
    ({"k1": -0.1}, {"semi-trivial", "non-trivial"}),
    ({"j1": 1e-8}, ALL_PATTERNS),                 # at the threshold: not live
    ({"k1": 2e-8, "lam": 1.0, "sigma": 1.0}, {"semi-trivial", "non-trivial"}),
])
def test_classify_matches_per_root_rule(pinned, patterns):
    # the sweeps pin j1 or k1; j9, j10 and k12 lie above the rule's r <= 8
    unknowns = [u for u in ("j0", "j1", "j2", "j4", "j9", "j10", "k0", "k1", "k2",
                            "k8", "k12", "sigma") if u not in pinned]
    rng = np.random.default_rng(len(pinned))
    values = np.array([0.0, -0.0, 1e-8, -1e-8, 1.0000001e-8, -2e-8, 0.7, -3.0])
    weights = np.array([8, 4, 2, 2, 1, 1, 1, 1]) / 20
    roots = rng.choice(values, p=weights, size=(600, len(unknowns)))
    got = [solver._PATTERNS[c] for c in solver._classify(unknowns, pinned, roots)]
    ref = [_classify_reference({**pinned, **dict(zip(unknowns, row))})
           for row in roots.tolist()]
    assert got == ref and set(got) == patterns
    # the columns above 8 alone never make a profile live
    high = np.zeros((1, len(unknowns)))
    high[0, [unknowns.index(u) for u in ("j9", "j10", "k12")]] = 5.0
    (code,) = solver._classify(unknowns, pinned, high)
    assert solver._PATTERNS[code] == _classify_reference(pinned)


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


def test_nonexistence_logs_summary(caplog, monkeypatch):
    # with the sigma tolerance below zero every resonant root counts as a
    # counterexample, so the record's two counts differ from zero
    grid = [{"a": a, "b": -1, "d": F(1, 3), "lam": 1, "m": F(1, 2), "sigma": 1}
            for a in (F(-1, 100), 1)]
    monkeypatch.setattr(solver, "_SIGMA_TOL", -1.0)
    with caplog.at_level(logging.DEBUG, logger="abcdwaves.solver"):
        report = reproduce_nonexistence("k1", grid, n_starts=100, seed=0)
    records = [r for r in caplog.records if r.funcName == "reproduce_nonexistence"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    assert len([r for r in caplog.records if r.funcName == "multistart"]) == 2
    args = records[0].args
    assert args[:5] == ("k1", 2, 100, report.total_roots, len(report.counterexamples))
    assert report.total_roots == len(report.counterexamples) > 0
    assert args[5] >= 0.0


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
    with pytest.raises(UsageError, match="seed = -2 "):
        reproduce_nonexistence("j1", [{"a": 1, "b": F(1, 6), "d": F(-1, 2), "lam": 1,
                                       "m": F(3, 4), "sigma": 1}], seed=-2)
    # an incomplete grid point is named with its missing keys; sigma is
    # needed only where it stays pinned
    point = {"a": 1, "b": F(1, 6), "d": F(-1, 2), "lam": 1, "m": F(3, 4), "sigma": 1}
    with pytest.raises(UsageError, match=r"grid point 0 \(\{'a': 1\}\) lacks "
                                         r"\['b', 'd', 'lam', 'm', 'sigma'\]$"):
        reproduce_nonexistence("j1", [{"a": 1}])
    # a point is named by its index in the grid
    without_sigma = {k: v for k, v in point.items() if k != "sigma"}
    with pytest.raises(UsageError, match=r"grid point 1 .* lacks \['sigma'\]$"):
        reproduce_nonexistence("j3", [point, without_sigma])
    with pytest.raises(UsageError, match=r"grid point 0 .* lacks \['b', 'd', 'lam', 'm'\]$"):
        reproduce_nonexistence("k1", [{"a": 1}])
    # an empty grid gives no verdict, not a vacuous "upheld"
    for var in ("j1", "j3", "k1"):
        with pytest.raises(UsageError, match="^the grid has no point$"):
            reproduce_nonexistence(var, [])
