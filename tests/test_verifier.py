import math
from fractions import Fraction as F

import pytest

from abcdwaves.elliptic import complete_k, eval_cn_series, jacobi_eval
from abcdwaves.errors import DomainError, UsageError
from abcdwaves.families import (Branch, ParameterSet, SolutionParams,
                                build_s43, build_s411, build_s412, build_s421,
                                build_s422)
from abcdwaves.verifier import (bbm_reduction_check, limit_a_to_zero,
                                limit_c_to_zero, limit_m_to_one, ode_residual,
                                periodicity_check)


def make_constant(eta, w, lam=1.0, m=0.5, sigma=1.0):
    return SolutionParams((eta, 0, 0, 0, 0), (w, 0, 0), lam, m, sigma,
                          "S412", Branch())


def test_constant_pair_residual_is_exactly_zero():
    p = ParameterSet.make(F(1, 3), F(-1, 7), 2, F(5, 2))
    report = ode_residual(make_constant(0.37, -2.2), p, 128)
    assert report.max_abs_eq1 == 0.0
    assert report.max_abs_eq2 == 0.0
    assert report.relative == 0.0


def test_sample_count_validation():
    p = ParameterSet.make(0, 0, 1, 1)
    with pytest.raises(UsageError):
        ode_residual(make_constant(1, 1), p, 32)


@pytest.mark.parametrize("build, p", [
    (lambda p: build_s412(p, 1, 1, F(1, 2)), ParameterSet.make(10 ** 300, 1, 1, 1)),
    (lambda p: build_s411(p, F(3, 4)), ParameterSet.make(-10 ** 300, 1, F(-5, 6), 1)),
], ids=["s412", "s411"])
def test_residual_that_overflows_is_a_domain_error(build, p):
    # the coefficients are finite floats; the term a w''' and its sum are not
    sol = build(p)
    assert all(map(math.isfinite, sol.j + sol.k))
    with pytest.raises(DomainError, match="residual terms overflow a float"):
        ode_residual(sol, p, 128)


def test_residual_of_a_parameter_too_large_for_a_float():
    p = ParameterSet.make(10 ** 400, 0, 1, 1)
    with pytest.raises(DomainError, match="^a is about 1e400, too large"):
        ode_residual(make_constant(1, 1), p, 128)


def cn_power_derivative(r, order, lam, m, xi):
    return eval_cn_series((0.0,) * r + (1.0,), jacobi_eval(lam * xi, m), lam, order)


def loop_residual(sol, p, n_samples):
    """Per-point reference for ode_residual at m < 1: scalar kernel calls,
    libm powers and running maxima, as before the grid was vectorized."""
    a, b, c, d = (float(v) for v in (p.a, p.b, p.c, p.d))
    quarter = complete_k(sol.m) / sol.lam
    xs = [4.0 * quarter * i / n_samples for i in range(n_samples)]
    xs += [quarter * i for i in range(4)]
    max1 = max2 = scale = 0.0
    for xi in xs:
        cn = jacobi_eval(sol.lam * xi, sol.m).cn

        def series(coeffs, order):
            return sum(cr * (cn_power_derivative(r, order, sol.lam, sol.m, xi)
                             if order else cn ** r)
                       for r, cr in enumerate(coeffs) if cr and (r or not order))

        eta, d1_eta, d3_eta = (series(sol.j, k) for k in (0, 1, 3))
        w, d1_w, d3_w = (series(sol.k, k) for k in (0, 1, 3))
        terms1 = (-sol.sigma * d1_eta, d1_w, d1_eta * w + eta * d1_w, a * d3_w,
                  b * sol.sigma * d3_eta)
        terms2 = (-sol.sigma * d1_w, d1_eta, w * d1_w, c * d3_eta,
                  d * sol.sigma * d3_w)
        max1 = max(max1, abs(sum(terms1)))
        max2 = max(max2, abs(sum(terms2)))
        scale = max(scale, *map(abs, terms1 + terms2))
    return max1, max2, scale


@pytest.mark.parametrize("key", ["s411_b", "s421_a"])
def test_residual_matches_per_point_loop(reference_cases, key):
    case = reference_cases[key]
    if key == "s411_b":
        sol = build_s411(case["p"], case["m"], case["tau1"], case["tau2"])
    else:
        sol = build_s421(case["p"], case["lam"], case["sigma"], case["m"])
    sol = SolutionParams(sol.j, sol.k, sol.lam, sol.m, sol.sigma * 1.01,
                         sol.family_tag)   # detuned: residuals well above rounding
    report = ode_residual(sol, case["p"], 128)
    max1, max2, scale = loop_residual(sol, case["p"], 128)
    assert report.scale == pytest.approx(scale, rel=1e-13)
    assert report.max_abs_eq1 == pytest.approx(max1, rel=1e-12)
    assert report.max_abs_eq2 == pytest.approx(max2, rel=1e-12)
    assert report.relative > 1e-4


def test_report_serialization(reference_cases):
    case = reference_cases["s412_a"]
    sol = build_s412(case["p"], 1, 1, case["m"], "top")
    report = ode_residual(sol, case["p"], 128)
    data = report.to_dict()
    assert data["relative"] <= 1e-9
    assert data["period"] == pytest.approx(4 * 1.854074677 / 1.0, rel=1e-6)
    assert data["n_samples"] == 132   # samples plus the four quarter points


def test_detector_sensitivity(reference_cases):
    # a relative 1e-4 bump on any nonzero coefficient must be seen
    case = reference_cases["s411_b"]
    sol = build_s411(case["p"], case["m"], case["tau1"], case["tau2"])
    coeffs = list(sol.j) + list(sol.k)
    for idx, value in enumerate(coeffs):
        if value == 0.0:
            continue
        j, k = list(sol.j), list(sol.k)
        if idx < 5:
            j[idx] *= 1 + 1e-4
        else:
            k[idx - 5] *= 1 + 1e-4
        bad = SolutionParams(tuple(j), tuple(k), sol.lam, sol.m, sol.sigma,
                             sol.family_tag, sol.branch)
        assert ode_residual(bad, case["p"], 256).relative > 1e-6


def test_periodicity_full_and_half(reference_cases):
    case = reference_cases["s43"]
    sol = build_s43(case["d"], case["lam"], case["sigma"], case["m"])
    rep = periodicity_check(sol)
    assert rep.defect <= 1e-10
    assert rep.half_period       # only cn^2 present

    mixed_case = reference_cases["s411_b"]
    mixed = build_s411(mixed_case["p"], mixed_case["m"],
                       mixed_case["tau1"], mixed_case["tau2"])
    rep2 = periodicity_check(mixed)
    assert rep2.defect <= 1e-10
    assert not rep2.half_period  # j1, k1 nonzero


def test_periodicity_rejects_m1(reference_cases):
    sol = build_s43(2, 1, 1, 1)
    with pytest.raises(DomainError):
        periodicity_check(sol)


def test_bbm_reduction(reference_cases):
    case = reference_cases["s43"]
    sol = build_s43(case["d"], case["lam"], case["sigma"], case["m"])
    rep = bbm_reduction_check(sol, case["d"])
    assert rep.relative <= 1e-10
    # the probe dispersion coefficient is inert: eta''' vanishes identically
    rep2 = bbm_reduction_check(sol, case["d"], c_probe=F(-311, 7))
    assert rep2.relative <= 1e-10


def test_bbm_reduction_constant_w():
    sol = build_s43(0, 1, 1, F(1, 2))
    rep = bbm_reduction_check(sol, 0)
    assert rep.max_abs_eq1 == 0.0 and rep.max_abs_eq2 == 0.0


def test_bbm_reduction_m1_solitary():
    sol = build_s43(2, 1, 1, 1)
    rep = bbm_reduction_check(sol, 2)
    assert rep.relative <= 1e-9


def test_bbm_reduction_rejects_wrong_shape(reference_cases):
    case = reference_cases["s412_a"]
    sol = build_s412(case["p"], 1, 1, case["m"], "top")
    with pytest.raises(UsageError):
        bbm_reduction_check(sol, 1)


def test_limit_c_to_zero_monotone():
    table = limit_c_to_zero(a=1, b=2, d=-1, lam=1, sigma=1, m=F(1, 2))
    assert table.monotone
    assert table.diffs[-1] < 1e-8
    # first-order collapse
    assert table.orders[-1] == pytest.approx(1.0, abs=0.05)


def test_limit_c_to_zero_side_condition():
    with pytest.raises(DomainError, match="side condition"):
        limit_c_to_zero(a=1, b=2, d=2, lam=1, sigma=1, m=0.5)


def test_limit_a_to_zero_exact():
    table = limit_a_to_zero(b=2, d=-1, lam=1, sigma=1, m=0.6)
    assert table.diffs[0] <= 1e-12


def test_limit_m_to_one(reference_cases):
    case = reference_cases["s412_a"]
    table = limit_m_to_one("4.1.2", p=case["p"], lam=1, sigma=1, sign="top")
    assert table.monotone
    assert table.diffs[-1] < 1e-5
    target = table.target
    assert target["m"] == 1.0


def test_m1_window_residual(reference_cases):
    # at m = 1 the verifier samples a wide window instead of a period
    case = reference_cases["s422_a"]
    sol = build_s422(case["p"], case["lam"], case["sigma"], 1)
    rep = ode_residual(sol, case["p"], 256)
    assert rep.period is None
    assert rep.relative <= 1e-9
