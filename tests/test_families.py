import hashlib
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from abcdwaves.cnexpr import build_coefficient_system
from abcdwaves.errors import ConstraintError, DomainError, UsageError
from abcdwaves.families import (Branch, ParameterSet, SolutionParams, build_family, build_s43,
                                build_s411, build_s412, build_s421, build_s422,
                                check_physical_constraint, m1_limit, s43_formula,
                                s411_formula, s412_formula, s421_formula, s422_formula)
from abcdwaves.ratpoly import RationalPoly
from abcdwaves.reduction import classify_ansatz
from abcdwaves.solver import pin_and_square
from abcdwaves.verifier import ode_residual


def residual_of(case, builder):
    kwargs = dict(case)
    p = kwargs.pop("p", None)
    if p is None:
        sol = builder(**kwargs)
        p = ParameterSet.make(0, 0, F(1, 2), kwargs["d"])
    else:
        sol = builder(p, **kwargs)
    return sol, ode_residual(sol, p, 256).relative


# -- physical constraint ---------------------------------------------------

def test_constraint_reference_point():
    theta = check_physical_constraint(ParameterSet.make(F(-5, 6), 1, F(-5, 6), 1))
    assert theta == pytest.approx(math.sqrt(2 / 3), abs=1e-15)


def test_constraint_second_point():
    theta = check_physical_constraint(ParameterSet.make(0, F(1, 6), 0, F(1, 6)))
    assert theta == pytest.approx(math.sqrt(2 / 3), abs=1e-15)


def test_constraint_violation():
    with pytest.raises(ConstraintError) as err:
        check_physical_constraint(ParameterSet.make(1, 1, 1, 1))
    assert any("1/3" in v for v in err.value.violations)


def test_constraint_violation_of_c_plus_d():
    with pytest.raises(ConstraintError) as err:
        check_physical_constraint(ParameterSet.make(F(1, 3), F(1, 3), F(-1, 6), F(-1, 6)))
    assert err.value.violations == ["c+d = -1/3 < 0 violates c+d >= 0"]


def test_constraint_boundary_theta_zero():
    # c + d = 1/2 gives theta^2 = 0, the edge of theta in [0, 1]
    assert check_physical_constraint(ParameterSet.make(F(-1, 6), 0, F(1, 2), 0)) == 0.0


# -- reference parameter sets ----------------------------------------------

@pytest.mark.parametrize("key,builder", [
    ("s411_a", build_s411), ("s411_b", build_s411),
    ("s412_a", build_s412), ("s412_b", build_s412),
    ("s421_a", build_s421), ("s421_b", build_s421),
    ("s422_a", build_s422), ("s422_b", build_s422),
    ("s43", build_s43),
])
def test_reference_cases_satisfy_ode(reference_cases, key, builder):
    sol, rel = residual_of(reference_cases[key], builder)
    assert rel <= 1e-9
    # profiles on an array equal the scalar calls, bit for bit
    xs = np.linspace(-3.0, 7.0, 41)
    etas, ws = sol.profiles(xs)
    assert list(zip(etas, ws)) == [sol.profiles(x) for x in xs]


def test_s411_lambda_sigma_are_outputs(reference_cases):
    case = reference_cases["s411_a"]
    sol = build_s411(case["p"], case["m"], case["tau1"], case["tau2"])
    assert sol.lam == pytest.approx(2 * math.sqrt(6), rel=1e-14)
    assert sol.sigma == pytest.approx(-2 * math.sqrt(10) / 3, rel=1e-14)
    # b = d makes the odd terms vanish exactly
    assert sol.j[1] == 0.0 and sol.k[1] == 0.0


def test_s411_rejects_half_sqrt2_modulus(reference_cases):
    with pytest.raises(DomainError, match="2m\\^2-1"):
        build_s411(reference_cases["s411_a"]["p"], math.sqrt(0.5))


def test_s411_rejects_violated_sign_condition():
    # a*c*(b-6d)*(3b-2d) > 0 here
    with pytest.raises(DomainError, match="validity"):
        build_s411(ParameterSet.make(F(5, 6), 1, F(-5, 6), 1), F(3, 4))


def test_m_zero_excluded_everywhere(reference_cases):
    with pytest.raises(DomainError, match="m = 0"):
        build_s411(reference_cases["s411_a"]["p"], 0)
    with pytest.raises(DomainError, match="m = 0"):
        build_s43(2, 1, 1, 0)


def test_negative_m_names_its_value():
    with pytest.raises(DomainError, match=r"m = -0\.5 outside \(0, 1\]"):
        build_s43(2, 1, 1, F(-1, 2))


HUGE = F(10) ** 400


@pytest.mark.parametrize("build, name", [
    (lambda: build_s422(ParameterSet.make(HUGE, 2, 0, -1), 1, 1, F(1, 2)), "j0"),
    (lambda: build_s412(ParameterSet.make(1, F(-8, 3), 1, 1), HUGE, 1, F(1, 2)), "k2"),
    (lambda: build_s412(ParameterSet.make(1, F(-8, 3), 1, 1), -HUGE, 1, F(1, 2)), "lam"),
    (lambda: build_s421(ParameterSet.make(0, HUGE, 0, 1), 1, 1, F(1, 2)), "j0"),
    (lambda: build_s43(HUGE, 1, 1, F(1, 2)), "k0"),
    (lambda: build_s43(2, 1, 1, HUGE), "m"),
    (lambda: build_s411(ParameterSet.make(-HUGE, 1, F(-5, 6), 1), F(3, 4)), "j0"),
], ids=["s422-a", "s412-lam", "s412-negative-lam", "s421-b", "s43-d", "m", "s411-a"])
def test_rational_too_large_for_a_float_is_a_domain_error(build, name):
    # the exact input is accepted; the float it turns into is named
    with pytest.raises(DomainError, match=f"^{name} is about -?1e[0-9]+, too large"):
        build()


TINY = F(1, 10 ** 400)


@pytest.mark.parametrize("build, name", [
    # S411's lam and sigma are outputs: a huge c gives a tiny lam, a tiny a a tiny sigma
    (lambda: build_s411(ParameterSet.make(F(-5, 6) / HUGE ** 2, 1, F(-5, 6) * HUGE ** 2, 1),
                        F(3, 4)), "lam"),
    (lambda: build_s411(ParameterSet.make(F(5, 6), 1, F(5, 6), 1), TINY), "m"),
    (lambda: build_s411(ParameterSet.make(F(-5, 6) * TINY ** 2, 1, F(-5, 6), 1), F(3, 4)),
     "sigma"),
    (lambda: build_s412(ParameterSet.make(1, F(-8, 3), 1, 1), TINY, 1, F(1, 2)), "lam"),
    (lambda: build_s412(ParameterSet.make(1, F(-8, 3), 1, 1), 1, TINY, F(1, 2)), "sigma"),
    (lambda: build_s421(ParameterSet.make(1, -1, 0, F(1, 3)), 1, 1, TINY), "m"),
    (lambda: build_s422(ParameterSet.make(1, 2, 0, -1), TINY, 1, F(1, 2)), "lam"),
    (lambda: build_s43(2, 1, TINY, F(1, 2)), "sigma"),
], ids=["s411-lam", "s411-m", "s411-sigma", "s412-lam", "s412-sigma", "s421-m", "s422-lam",
        "s43-sigma"])
def test_output_that_rounds_to_zero_is_a_domain_error(build, name):
    # the exact value is positive or nonzero, but its float would be 0.0
    with pytest.raises(DomainError, match=f"^{name} rounds to 0.0, too small for a float$"):
        build()


def test_s411_builds_at_a_tiny_c():
    # the quotients by 2c(3b-2d)(b-6d) are exact, so a tiny c is no pole
    p = ParameterSet.make(F(-5, 6), 1, F(-5, 6) / 10 ** 20, 1)
    sol = build_s411(p, F(3, 4))
    assert sol.j[0] == -1.25e21
    assert ode_residual(sol, p, 256).relative <= 1e-9


def test_s411_huge_a_builds_and_its_residual_overflows():
    p = ParameterSet.make(-10 ** 300, 1, F(-5, 6), 1)
    sol = build_s411(p, F(3, 4))
    assert sol.j[0] == -1.5e301 and all(map(math.isfinite, sol.j + sol.k))
    with pytest.raises(DomainError, match="overflow a float"):
        ode_residual(sol, p, 256)


@pytest.mark.parametrize("tau", [True, 1.0], ids=["true", "float"])
def test_s411_takes_only_integer_signs(reference_cases, tau):
    # Branch refuses them, for a build as for a stored branch
    with pytest.raises(UsageError, match="tau1 and tau2"):
        build_s411(reference_cases["s411_a"]["p"], F(3, 4), tau, 1)
    with pytest.raises(UsageError, match="tau1 and tau2"):
        build_s411(reference_cases["s411_a"]["p"], F(3, 4), 1, tau)


@pytest.mark.parametrize("value", [float("inf"), float("nan"), "1/0", "one", [1], True, False],
                         ids=["inf", "nan", "zero-denominator", "word", "list", "true", "false"])
def test_parameter_set_rejects_non_rationals(value):
    with pytest.raises(UsageError, match="a = .* is not a rational"):
        ParameterSet.make(value, 0, 0, 0)


def test_parameter_set_is_exact_however_it_is_built():
    # the raw constructor converts each field as make does
    raw, made = ParameterSet(0.1, 0, 1, 0), ParameterSet.make(0.1, 0, 1, 0)
    assert raw == made and raw.a == F(0.1) and type(raw.a) is F
    assert build_s412(raw, 1, 1, 0.5) == build_s412(made, 1, 1, 0.5)
    assert (classify_ansatz(ParameterSet("1", 0, 0, 0))
            is classify_ansatz(ParameterSet.make(1, 0, 0, 0)))
    for value in ("x", True):
        with pytest.raises(UsageError, match="a = .* is not a rational"):
            ParameterSet(value, 0, 0, 0)


@pytest.mark.parametrize("kwargs", [{"tau1": 0}, {"tau1": True}, {"tau2": 1.0},
                                    {"pm": "left"}], ids=["zero", "true", "float", "left"])
def test_branch_refuses_a_selector_no_builder_takes(kwargs):
    with pytest.raises(UsageError, match="needs tau1 and tau2 of \\+1 or -1 and pm of top"):
        Branch(**kwargs)


def test_wave_inputs_are_checked_m_first():
    p = ParameterSet.make(1, 2, 0, -1)
    # m is checked before lam is converted
    with pytest.raises(DomainError, match="m = 0 is excluded"):
        build_s422(p, "x", 1, 0)
    # lam and sigma are both converted before lam is checked
    with pytest.raises(UsageError, match="sigma = 'y' is not a rational"):
        build_s422(p, -1, "y", F(1, 2))


def test_booleans_are_not_rationals_anywhere():
    # Fraction(True) is 1, but no entry point reads true as 1
    p = ParameterSet.make(1, -1, 0, F(1, 3))
    with pytest.raises(UsageError, match="lam = True is not a rational"):
        build_s421(p, True, 1, F(1, 2))
    with pytest.raises(UsageError, match="m = False is not a rational"):
        build_s422(p, 1, 1, False)
    with pytest.raises(UsageError, match="c = False is not a rational"):
        build_coefficient_system(2, 2, params={"c": False})
    with pytest.raises(UsageError, match="sigma = True is not a rational"):
        pin_and_square(build_coefficient_system(2, 2), {"m": F(1, 2), "lam": 1, "sigma": True})


def test_s412_negative_radicand():
    p = ParameterSet.make(-10, 2, 10, 1)   # 8ac < 0, b = 2d
    with pytest.raises(DomainError, match="8ac"):
        build_s412(p, 1, F(1, 10), F(1, 2), "top")


def test_s412_zero_radicand():
    p = ParameterSet.make(F(-1, 8), 1, 1, 0)   # 8ac + sigma^2 (b-2d)^2 = -1 + 1 = 0
    with pytest.raises(DomainError, match="8ac"):
        build_s412(p, 1, 1, F(1, 2))


def test_s412_bottom_branch_is_semi_trivial_at_a0(reference_cases):
    case = reference_cases["s412_b"]
    sol = build_s412(case["p"], case["lam"], case["sigma"], case["m"], "bottom")
    assert sol.j[0] == pytest.approx(-1.0, abs=1e-14)
    assert sol.j[2] == pytest.approx(0.0, abs=1e-14)
    ref = build_s43(case["p"].d, case["lam"], case["sigma"], case["m"])
    for x, y in zip(sol.j + sol.k, ref.j + ref.k):
        assert x == pytest.approx(y, abs=1e-14)


def test_s412_sign_validation(reference_cases):
    case = reference_cases["s412_a"]
    with pytest.raises(UsageError):
        build_s412(case["p"], 1, 1, 0.5, "middle")


# (a, b, c, d), lam, sigma, m with ac = b d sigma^2: j0 and k0 written as
# quotients of two elements of Q(sqrt(disc)) divide by an element of norm zero
# there, but the coefficients themselves have no pole
ON_AC_EQUAL_BD_SIGMA2 = [
    ((0, F(1, 12), F(1, 4), 0), 1, 1, F(1, 2)),
    ((2, 1, 1, 2), F(1, 2), 1, F(3, 4)),
    ((F(-3, 2), F(3, 4), 2, -1), 1, 2, F(2, 5)),
]


@pytest.mark.parametrize("abcd, lam, sigma, m", ON_AC_EQUAL_BD_SIGMA2,
                         ids=["a-d-zero", "a-d-two", "a-d-negative"])
def test_s412_on_ac_equal_bd_sigma2(abcd, lam, sigma, m):
    p = ParameterSet.make(*abcd)
    assert p.a * p.c == p.b * p.d * F(sigma) ** 2
    sols = [build_s412(p, lam, sigma, m, sign) for sign in ("top", "bottom")]
    for sol in sols:
        assert ode_residual(sol, p, 256).relative <= 1e-9
    # one branch is a cnoidal wave, the other collapses to a constant state
    wave, constant = sorted(sols, key=lambda sol: sol.k[2] == 0)
    assert wave.k[2] != 0
    assert constant.j[2] == constant.k[2] == 0


# sha256 of s412_golden_lines() joined by newlines: every S412 output bit and
# every DomainError text on the grid
S412_SHA256 = "86b696c14bcf07224f047b563630204c5d77a58576ce99a415aec06bd5b59406"


def s412_golden_lines():
    """``build_s412`` on a seeded grid, both branches, off ac = b d sigma^2:
    each build's JSON, or the text of the DomainError it raises."""
    rng = random.Random(412)
    small_c = [10.0 ** -k for k in range(3, 9)]   # the c of limit_c_to_zero
    moduli = [math.sqrt(0.5), 0.70710678, 1]
    lines = []
    for _ in range(300):
        a, b, c, d = (F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in "abcd")
        if rng.random() < 0.2:
            c = rng.choice(small_c)
        lam = F(rng.randint(1, 12), rng.randint(1, 6))
        sigma = F(rng.randint(-12, 12), rng.randint(1, 6))
        m = rng.choice(moduli) if rng.random() < 0.3 else F(rng.randint(5, 99), 100)
        p = ParameterSet.make(a, b, c, d)
        if p.a * p.c == p.b * p.d * sigma ** 2:
            continue
        for sign in ("top", "bottom"):
            try:
                lines.append(build_s412(p, lam, sigma, m, sign).to_json())
            except DomainError as exc:
                lines.append(f"DomainError: {exc}")
    return lines


def test_s412_golden():
    lines = s412_golden_lines()
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == S412_SHA256


# sha256 of golden_lines(family) joined by newlines, as S412_SHA256.  The
# builders round exact rationals once, so no digest depends on the box.
GOLDEN_SHA256 = {
    "S411": "b668d3df5af9cd202617b60d1e4c2418c36cc3bd37a49ef34d5697e206cc3199",
    "S421": "2ca3cfbff5867f5365637eda9acad627687c3c11af5a920a810271f887cdc1a8",
    "S422": "2b0f3e6891395b688657e4a64fa3eb12abe1556c1fd84403f51f290869c398a8",
    "S43": "0e759c4af5dca855491ed53ac298522c68f073f19a3844bfb252f8770402e871",
}


def golden_lines(family):
    """The family's builder on 300 seeded criterion-9 draws, S411 on all four
    sign branches, a fifth of the others with the c (S421, S422) or a (S43)
    they refuse: each build's JSON, or the text of the DomainError it raises."""
    rng = random.Random(family)
    lines = []
    for _ in range(300):
        a, b, c, d = (F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in "abcd")
        lam = F(rng.randint(1, 12), rng.randint(1, 6))
        sigma = F(rng.randint(-12, 12), rng.randint(1, 6))
        m = F(rng.randint(5, 100), 100)
        if family != "S411" and rng.random() < 0.8:
            a, c = (0, c) if family == "S43" else (a, 0)
        p = ParameterSet.make(a, b, c, d)
        calls = {"S411": [((p, m, tau1, tau2), {}) for tau1 in (1, -1) for tau2 in (1, -1)],
                 "S43": [((d, lam, sigma, m), {"a": a})]}.get(family, [((p, lam, sigma, m), {})])
        for args, kwargs in calls:
            try:
                lines.append(build_family(family, *args, **kwargs).to_json())
            except DomainError as exc:
                lines.append(f"DomainError: {exc}")
    return lines


@pytest.mark.parametrize("family", sorted(GOLDEN_SHA256))
def test_family_golden(family):
    lines = golden_lines(family)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_SHA256[family]


def test_s421_degenerate_denominator():
    with pytest.raises(DomainError, match="4b - d"):
        build_s421(ParameterSet.make(1, F(1, 4), 0, 1), 1, 1, F(1, 2))


def test_s421_requires_c_zero():
    with pytest.raises(DomainError, match="c = 0"):
        build_s421(ParameterSet.make(1, -1, 1, F(1, 3)), 1, 1, F(1, 2))


def test_s422_requires_c_zero():
    with pytest.raises(DomainError, match="^family S422 requires c = 0$"):
        build_s422(ParameterSet.make(1, 2, 1, -1), 1, 1, F(1, 2))


def test_s422_degenerate_denominator():
    with pytest.raises(DomainError, match="b - 2d"):
        build_s422(ParameterSet.make(1, 2, 0, 1), 1, 1, F(1, 2))


def test_s422_at_a0_equals_s43(reference_cases):
    case = reference_cases["s422_b"]
    sol = build_s422(case["p"], case["lam"], case["sigma"], case["m"])
    assert sol.j[2] == 0.0
    ref = build_s43(2, case["lam"], case["sigma"], case["m"])
    for x, y in zip(sol.j + sol.k, ref.j + ref.k):
        assert x == pytest.approx(y, abs=1e-12)


def test_s43_reference_values():
    sol = build_s43(2, 2, F(1, 8), F(3, 4))
    assert sol.j[0] == -1.0
    assert sol.k[0] == pytest.approx(-0.375, abs=1e-15)
    assert sol.k[2] == pytest.approx(6.75, abs=1e-15)


def test_s43_constant_w_at_d0():
    sol = build_s43(0, 1.3, F(2, 3), F(1, 2))
    assert sol.k[2] == 0.0
    assert sol.k[0] == pytest.approx(2 / 3, rel=1e-15)


def test_s43_needs_a_zero():
    # at eta = -1 the first equation's residual is exactly a*w''', so any
    # a != 0 fails; b and c multiply derivatives of eta and play no part
    with pytest.raises(DomainError, match="a = 0"):
        build_s43(2, 2, F(1, 8), F(3, 4), a=1)
    sol = build_s43(2, 2, F(1, 8), F(3, 4), a=0)
    assert sol == build_s43(2, 2, F(1, 8), F(3, 4))
    assert ode_residual(sol, ParameterSet.make(1, 0, 0, 2), 256).relative > 1e-2
    for b, c in ((0, 0), (5, 0), (5, F(-7, 3))):
        p = ParameterSet.make(0, b, c, 2)
        assert ode_residual(sol, p, 256).relative <= 1e-14


def test_sigma_zero_rejected():
    with pytest.raises(DomainError, match="sigma"):
        build_s43(1, 1, 0, F(1, 2))


def test_family_dispatch_labels(reference_cases):
    case = reference_cases["s412_a"]
    by_label = build_family("4.1.2", case["p"], 1, 1, case["m"], "top")
    by_tag = build_family("S412", case["p"], 1, 1, case["m"], "top")
    assert by_label.to_dict() == by_tag.to_dict()
    with pytest.raises(UsageError):
        build_family("4.9", case["p"], 1, 1, case["m"])


def test_json_round_trip(reference_cases):
    case = reference_cases["s411_b"]
    sol = build_s411(case["p"], case["m"], case["tau1"], case["tau2"])
    back = SolutionParams.from_dict(sol.to_dict())
    assert back == sol


def test_json_round_trip_below_unit_lambda():
    sol = build_s412(ParameterSet.make(1, F(-8, 3), 1, 1), F(1, 2), 1, F(1, 2))
    assert sol.lam == 0.5
    assert SolutionParams.from_dict(sol.to_dict()) == sol


@pytest.mark.parametrize("tau1", [1, -1])
@pytest.mark.parametrize("tau2", [1, -1])
def test_s411_all_four_sign_branches_are_solutions(reference_cases, tau1, tau2):
    # sigma carries tau1 only, so the four (tau1, tau2) combinations come
    # in direction-flipped pairs; all four satisfy the equations
    for key in ("s411_a", "s411_b"):
        case = reference_cases[key]
        sol = build_s411(case["p"], case["m"], tau1, tau2)
        assert ode_residual(sol, case["p"], 256).relative <= 1e-9
        assert sol.sigma * tau1 * build_s411(case["p"], case["m"], 1, 1).sigma > 0


# -- the formula functions as exact identities ---------------------------------
#
# Each builder rounds the values of its family's formula function once.  Here
# those values make every equation of build_coefficient_system vanish, and a
# perturbed value per family (the negative control) does not.  Inputs that a
# formula only multiplies by stay symbolic, so one check covers every value of
# them; the ones it divides by take a few rational values (sigma of both signs).

A, B, D, LAM, M, SIGMA, R = (RationalPoly.var(name)
                             for name in ("a", "b", "d", "lam", "m", "sigma", "r"))


def reduce_radicals(poly, squares):
    """``poly`` with each power v^e of a radical v written as (v^2)^(e // 2)
    v^(e % 2), v^2 taken from ``squares`` (a rational or a polynomial)."""
    out = RationalPoly.const(0)
    for mono, coef in poly.terms.items():
        kept = []
        for name, exp in mono:
            if name in squares:
                coef *= squares[name] ** (exp // 2)
                exp %= 2
            if exp:
                kept.append((name, exp))
        out = out + coef * RationalPoly.monomial(1, kept)
    return out


def assert_rounded_once(sol, exact):
    """Each output of ``sol`` is the float of its value in ``exact``, and each
    j and k that ``exact`` leaves out is +0.0."""
    for name, value in sol.coefficient_map().items():
        assert value.hex() == float(exact.get(name, 0)).hex(), (sol.family_tag, name, exact)


def s411_draws():
    """Seeded valid S411 inputs from the criterion-9 distribution, ten per
    sign branch, then the b = d reference point on every branch."""
    rng = random.Random(411)
    draws = []
    for tau1 in (1, -1):
        for tau2 in (1, -1):
            wanted = len(draws) + 10
            while len(draws) < wanted:
                p = ParameterSet.make(*(F(rng.randint(-12, 12), rng.randint(1, 4))
                                        for _ in "abcd"))
                m = F(rng.randint(5, 99), 100)
                try:
                    build_s411(p, m, tau1, tau2)
                except DomainError:
                    continue
                draws.append((p, m, tau1, tau2))
    reference = ParameterSet.make(F(-5, 6), 1, F(-5, 6), 1)
    draws += [(reference, F(3, 4), tau1, tau2) for tau1 in (1, -1) for tau2 in (1, -1)]
    return draws


def s411_equations(p, m, tau1, tau2, flip_k1=1):
    """Every h[p, q] of the quadratic system at the S411 values, with the
    radicals reduced; ``flip_k1`` = -1 flips tau2 in k1 alone."""
    values, squares = s411_formula(p, m, tau1, tau2)
    subs = {"a": p.a, "b": p.b, "c": p.c, "d": p.d, "m": m}
    for name, (q, radicals) in values.items():
        if name != "lam":    # lam enters the system as lam^2 only
            subs[name] = RationalPoly.monomial(q, [(v, 1) for v in radicals])
    subs["k1"] = subs["k1"] * flip_k1
    system = build_coefficient_system(2, 2)
    return [reduce_radicals(poly.substitute(subs), squares)
            for poly in system.equations.values()]


def test_s411_is_an_exact_solution():
    for p, m, tau1, tau2 in s411_draws():
        assert all(eq.is_zero() for eq in s411_equations(p, m, tau1, tau2)), (p, m, tau1, tau2)
        # negative control: tau2 flipped in k1 alone is no solution unless
        # b = d, where k1 = 0
        if p.b != p.d:
            assert not all(eq.is_zero() for eq in s411_equations(p, m, tau1, tau2, -1))


def test_s411_outputs_are_rounded_once():
    # each output is the float of its exact value, the root taken to 4000 bits
    for p, m, tau1, tau2 in s411_draws():
        values, squares = s411_formula(p, m, tau1, tau2)
        exact = {"m": m}
        for name, (q, radicals) in values.items():
            x = math.prod((squares[v] for v in radicals), start=F(1))
            root = F(math.isqrt((x.numerator * x.denominator) << 8000),
                     x.denominator << 4000)
            exact[name] = math.copysign(float(q * root), q)    # a zero keeps the sign of q
        assert_rounded_once(build_s411(p, m, tau1, tau2), exact)


def s412_equations(c, s, incoherent=False):
    """Every h[p, q] of the quadratic system at the S412 values, with a, b, d,
    lam, m and sigma symbolic, root = s r and r^2 = disc reduced.
    ``incoherent`` flips the root's sign in j0 and k0 only."""
    values = {**s412_formula(A, B, c, D, LAM, SIGMA, M, s * R), "j1": 0, "k1": 0}
    if incoherent:
        flipped = s412_formula(A, B, c, D, LAM, SIGMA, M, -s * R)
        values.update(j0=flipped["j0"], k0=flipped["k0"])
    disc = 8 * A * c + SIGMA * SIGMA * (B - 2 * D) ** 2
    system = build_coefficient_system(2, 2, params={"c": c})
    return [reduce_radicals(poly.substitute(values), {"r": disc})
            for poly in system.equations.values()]


@pytest.mark.parametrize("c", [1, F(-2, 3), F(1, 1000)])
def test_s412_is_an_exact_solution(c):
    for s in (1, -1):
        assert all(eq.is_zero() for eq in s412_equations(c, s)), (c, s)
        # negative control: incoherent signs are no solution
        assert not all(eq.is_zero() for eq in s412_equations(c, s, incoherent=True)), (c, s)


def quartic_draws(seed, family_ok):
    """Seeded rational (b, d, sigma) with sigma of both signs, where
    ``family_ok(b, d)`` holds."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < 6:
        b, d = (F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in "bd")
        sigma = (-1) ** len(draws) * F(rng.randint(1, 12), rng.randint(1, 6))
        if family_ok(b, d):
            draws.append((b, d, sigma))
    return draws


S421_DRAWS = quartic_draws(421, lambda b, d: 4 * b != d)
S422_DRAWS = quartic_draws(422, lambda b, d: b != 2 * d)


def vanishes(values, n_eta, params):
    """Whether ``values``, with the j and k they leave out zero, make every
    equation of the (n_eta, 2) system vanish."""
    zeros = {f"{v}{r}": 0 for v, n in (("j", n_eta), ("k", 2)) for r in range(n + 1)}
    system = build_coefficient_system(n_eta, 2, params=params)
    return all(poly.substitute({**zeros, **values}).is_zero()
               for poly in system.equations.values())


def test_s421_is_an_exact_solution():
    # a, lam and m symbolic; sigma, b and d drawn
    for b, d, sigma in S421_DRAWS:
        params = {"b": b, "c": 0, "d": d}
        values = {**s421_formula(A, b, d, LAM, sigma, M), "sigma": sigma}
        assert vanishes(values, 4, params), (b, d, sigma)
        # negative control: -32 for the leading -8 of j0
        values["j0"] += (-F(8, 3) * b * LAM ** 4 * sigma ** 2 * (5 * b - 3 * d)
                         * (11 * M ** 4 - 11 * M ** 2 - 4))
        assert not vanishes(values, 4, params), (b, d, sigma)


def test_s422_is_an_exact_solution():
    for b, d, sigma in S422_DRAWS:
        params = {"b": b, "c": 0, "d": d}
        values = {**s422_formula(A, b, d, LAM, sigma, M), "sigma": sigma}
        assert vanishes(values, 2, params), (b, d, sigma)
        # negative controls: j0 + 1, and k2 doubled
        for bad in ({"j0": values["j0"] + 1}, {"k2": 2 * values["k2"]}):
            assert not vanishes({**values, **bad}, 2, params), (b, d, sigma, bad)


def test_s43_is_an_exact_solution():
    # b, c, d, lam, m and sigma all symbolic; a = 0
    values = s43_formula(D, LAM, SIGMA, M)
    assert vanishes(values, 2, {"a": 0})
    for bad in ({"j0": values["j0"] + 1}, {"k2": 2 * values["k2"]}):   # negative controls
        assert not vanishes({**values, **bad}, 2, {"a": 0}), bad


def test_s421_s422_s43_outputs_are_rounded_once():
    rng = random.Random(4243)
    for (b, d, sigma), formula, builder in [
            *((draw, s421_formula, build_s421) for draw in S421_DRAWS),
            *((draw, s422_formula, build_s422) for draw in S422_DRAWS)]:
        a, lam = F(rng.randint(-12, 12), rng.randint(1, 4)), F(rng.randint(1, 12), rng.randint(1, 6))
        m = F(rng.randint(5, 100), 100)
        free = {"lam": lam, "m": m, "sigma": sigma}
        assert_rounded_once(builder(ParameterSet.make(a, b, 0, d), lam, sigma, m),
                            {**formula(a, b, d, lam, sigma, m), **free})
        assert_rounded_once(build_s43(d, lam, sigma, m), {**s43_formula(d, lam, sigma, m), **free})


# -- m -> 1 solitary limits --------------------------------------------------

def test_m1_limit_s412(reference_cases):
    case = reference_cases["s412_a"]
    sol = m1_limit("4.1.2", case["p"], 1, 1, sign="top")
    assert sol.m == 1.0 and sol.family_tag == "SolitaryLimit"
    assert sol.origin == "S412"
    assert ode_residual(sol, case["p"], 256).relative <= 1e-9


def test_m1_limit_s421_has_quartic_term(reference_cases):
    case = reference_cases["s421_b"]
    sol = m1_limit("4.2.1", case["p"], 1, 1)
    assert sol.j[4] != 0.0
    assert ode_residual(sol, case["p"], 256).relative <= 1e-9


def test_m1_limit_s411_mixed_terms():
    p = ParameterSet.make(F(-5, 6), 1, F(-1, 6), F(1, 3))
    sol = m1_limit("4.1.1", p, tau1=1, tau2=-1)
    assert sol.j[1] != 0.0 and sol.k[1] != 0.0
    assert ode_residual(sol, p, 256).relative <= 1e-9


def test_m1_limit_propagates_domain_error():
    # at m = 1 the sign condition c(2m^2-1)(b+2d)(3b+2d) < 0 fails here
    p = ParameterSet.make(F(-5, 6), 1, F(5, 6), 1)
    with pytest.raises(DomainError):
        m1_limit("4.1.1", p, tau1=1, tau2=1)


# -- randomized property checks ----------------------------------------------

def random_family_inputs(rng, family):
    """Rejection-sample inputs until the family's validity predicate holds."""
    for _ in range(400):
        a = F(rng.randint(-12, 12), rng.randint(1, 4))
        b = F(rng.randint(-12, 12), rng.randint(1, 4))
        c = F(rng.randint(-12, 12), rng.randint(1, 4))
        d = F(rng.randint(-12, 12), rng.randint(1, 4))
        lam = F(rng.randint(1, 12), rng.randint(1, 6))
        sigma = F(rng.randint(-12, 12), rng.randint(1, 6))
        m = F(rng.randint(5, 99), 100)
        try:
            if family == "S411":
                p = ParameterSet.make(a, b, c, d)
                tau1, tau2 = rng.choice([1, -1]), rng.choice([1, -1])
                sol = build_s411(p, m, tau1, tau2)
            elif family == "S412":
                p = ParameterSet.make(a, b, c, d)
                sol = build_s412(p, lam, sigma, m, rng.choice(["top", "bottom"]))
            elif family == "S421":
                p = ParameterSet.make(a, b, 0, d)
                sol = build_s421(p, lam, sigma, m)
            elif family == "S422":
                p = ParameterSet.make(a, b, 0, d)
                sol = build_s422(p, lam, sigma, m)
            else:
                p = ParameterSet.make(0, 0, c, d)
                sol = build_s43(d, lam, sigma, m)
            return p, sol
        except DomainError:
            continue
    raise AssertionError(f"could not sample valid inputs for {family}")


@pytest.mark.parametrize("family", ["S411", "S412", "S421", "S422", "S43"])
def test_randomized_inputs_pass_residual(family):
    rng = random.Random(family)
    for _ in range(25):
        p, sol = random_family_inputs(rng, family)
        rel = ode_residual(sol, p, 256).relative
        assert rel <= 1e-9, f"{family}: residual {rel} at {p}, {sol.to_dict()}"


def test_perturbed_coefficient_detected(reference_cases):
    case = reference_cases["s412_a"]
    sol = build_s412(case["p"], case["lam"], case["sigma"], case["m"], "top")
    j = list(sol.j)
    j[2] *= 1 + 1e-3
    bad = SolutionParams(tuple(j), sol.k, sol.lam, sol.m, sol.sigma,
                         sol.family_tag, sol.branch)
    assert ode_residual(bad, case["p"], 256).relative >= 1e-5
