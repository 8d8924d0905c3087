import math
import random
from fractions import Fraction

import pytest

from abcdwaves.cnexpr import build_coefficient_system
from abcdwaves.elliptic import eval_cn_series, jacobi_eval
from abcdwaves.errors import UsageError
from abcdwaves.ratpoly import RationalPoly

from reference_systems import (QUADRATIC_SYSTEM, QUARTIC_H10_AS_PRINTED,
                               QUARTIC_H10_EXPECTED_DIFF,
                               QUARTIC_REDUCED_SYSTEM, convolve, poly_from_terms,
                               reference_coefficient_system, second_derivative,
                               series, weighted_sum)

ZERO, ONE = RationalPoly.const(0), RationalPoly.const(1)


def _top(coeffs) -> int:
    """Highest cn power with a nonzero coefficient (-1 for zero).

    Applied to coeffs[1:] it gives the top cn power of the xi-derivative
    after its -lam*sn*dn factor, whose cn^q coefficient is (q+1)*coeffs[q+1].
    """
    return max((q for q, c in enumerate(coeffs) if not c.is_zero()), default=-1)


def _value(poly: RationalPoly) -> float:
    assert poly.is_constant()
    return float(poly.terms.get((), 0))


def cn_power_derivative(r, order, lam, m, xi):
    return eval_cn_series((0.0,) * r + (1.0,), jacobi_eval(lam * xi, m), lam, order)


def test_series_shapes():
    e0 = series(0, "j")
    assert e0 == [RationalPoly.var("j0")]

    e2 = series(2, "j")
    assert [p.to_text() for p in e2] == ["j0", "j1", "j2"]

    w4 = series(4, "k")
    assert len(w4) == 5 and w4[4] == RationalPoly.var("k4")


def test_derivative_of_constant_is_zero():
    assert all(c.is_zero() for c in second_derivative([RationalPoly.var("j0")]))


@pytest.mark.parametrize("r", range(1, 7))
def test_second_derivative_closed_form(r):
    # -r lam^2 [(r+1) m^2 cn^{r+2} + r(1-2m^2) cn^r + (r-1)(m^2-1) cn^{r-2}]
    got = second_derivative([ZERO] * r + [ONE])
    lam2 = poly_from_terms([(1, {"lam": 2})])
    m2 = poly_from_terms([(1, {"m": 2})])
    expected = [ZERO] * (r + 3)
    expected[r + 2] = -r * lam2 * (r + 1) * m2
    expected[r] = -r * lam2 * r * (ONE - 2 * m2)
    if r >= 2:
        expected[r - 2] = -r * lam2 * (r - 1) * (m2 - ONE)
    assert got == expected
    # independently: a central difference of the kernel's first derivative
    lam, m, step = Fraction(13, 10), Fraction(3, 5), 1e-4
    coeffs = [_value(c.substitute({"lam": lam, "m": m})) for c in got]
    for xi in (0.37, 1.9):
        cn = jacobi_eval(float(lam) * xi, float(m)).cn
        closed = sum(c * cn ** q for q, c in enumerate(coeffs))
        diff = (cn_power_derivative(r, 1, float(lam), float(m), xi + step)
                - cn_power_derivative(r, 1, float(lam), float(m), xi - step)) / (2 * step)
        assert closed == pytest.approx(diff, rel=1e-6, abs=1e-6)


def test_monomial_product():
    assert convolve([ZERO, ONE], [ZERO, ZERO, ONE]) == [ZERO, ZERO, ZERO, ONE]


def test_distributed_series_product():
    j0, j2, k0, k2 = (RationalPoly.var(n) for n in ("j0", "j2", "k0", "k2"))
    prod = convolve([j0, ZERO, j2], [k0, ZERO, k2])
    assert prod[0] == j0 * k0
    assert prod[2] == j0 * k2 + j2 * k0
    assert prod[4] == j2 * k2
    assert prod[1].is_zero() and prod[3].is_zero()


def _random_series(rng, max_deg=3):
    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = []
            for var in ("a", "lam", "m", "j1", "k2"):
                if rng.random() < 0.3:
                    mono.append((var, rng.randint(1, 2)))
            terms[tuple(sorted(mono))] = Fraction(rng.randint(-4, 4))
        return RationalPoly(terms)

    return [rand_poly() for _ in range(rng.randint(1, max_deg + 1))]


def test_ring_axioms_on_random_expressions():
    # cn polynomials under convolve and weighted_sum form a commutative ring
    rng = random.Random(7)
    for _ in range(25):
        e1, e2, e3 = (_random_series(rng) for _ in range(3))
        assert convolve(e1, e2) == convolve(e2, e1)
        assert convolve(convolve(e1, e2), e3) == convolve(e1, convolve(e2, e3))
        assert (convolve(e1, weighted_sum([(ONE, e2), (ONE, e3)]))
                == weighted_sum([(ONE, convolve(e1, e2)), (ONE, convolve(e1, e3))]))


def test_system_matches_numeric_kernel():
    # h[p, q], evaluated exactly at random rational points, must give the
    # residual that the numeric kernel assembles from eval_cn_series
    rng = random.Random(3)

    def rat(bound):
        return Fraction(rng.randint(-8 * bound, 8 * bound), 8)

    for _ in range(20):
        n_eta, n_w = rng.randint(1, 4), rng.randint(1, 4)
        params = {name: rat(3) for name in "abcd"}
        lam, sigma = Fraction(rng.randint(3, 25), 10), rat(2)
        m = Fraction(rng.randint(1, 19), 20)
        j = [rat(3) for _ in range(n_eta + 1)]
        k = [rat(3) for _ in range(n_w + 1)]
        subs = {"lam": lam, "sigma": sigma, "m": m,
                **{f"j{r}": v for r, v in enumerate(j)},
                **{f"k{r}": v for r, v in enumerate(k)}}
        system = build_coefficient_system(n_eta, n_w, params=params).substitute(subs)
        h = {key: _value(poly) for key, poly in system.equations.items()}

        a, b, c, d = (float(params[name]) for name in "abcd")
        lam_f, sig = float(lam), float(sigma)
        for xi in (0.37, 1.9, -2.6, 4.1):
            pt = jacobi_eval(lam_f * xi, float(m))
            eta, d1_eta, d3_eta = (eval_cn_series([float(v) for v in j], pt, lam_f, o)
                                   for o in (0, 1, 3))
            w, d1_w, d3_w = (eval_cn_series([float(v) for v in k], pt, lam_f, o)
                             for o in (0, 1, 3))
            terms = {1: (-sig * d1_eta, d1_w, d1_eta * w + eta * d1_w,
                         a * d3_w, b * sig * d3_eta),
                     2: (-sig * d1_w, d1_eta, w * d1_w, c * d3_eta, d * sig * d3_w)}
            for p, parts in terms.items():
                got = -lam_f * pt.sn * pt.dn * sum(
                    coef * pt.cn ** q for (pp, q), coef in h.items() if pp == p)
                scale = max(abs(t) for t in parts)
                assert scale > 0.0
                assert abs(got - sum(parts)) <= 1e-10 * scale


def test_rho_bookkeeping():
    eta, w = series(3, "j"), series(3, "k")
    assert _top(eta) == 3
    assert _top(eta[1:]) == 2
    assert _top(second_derivative(eta)[1:]) == 4
    assert _top(convolve(eta, w)[1:]) == 5


def test_quadratic_system_matches_reference():
    system = build_coefficient_system(2, 2)
    for key, expected in QUADRATIC_SYSTEM.items():
        assert system.equations[key] == expected, f"mismatch at {key}"
    # everything else is identically zero
    for key, poly in system.equations.items():
        if key not in QUADRATIC_SYSTEM:
            assert poly.is_zero()


def test_quartic_leading_coefficient():
    system = build_coefficient_system(4, 4)
    assert system.equations[(2, 7)] == poly_from_terms([(4, {"k4": 2})])


def test_quartic_reduced_system_matches_reference():
    system = build_coefficient_system(4, 2, params={"c": 0})
    reduced = system.substitute({"j1": 0, "j3": 0, "k1": 0})
    nonzero = reduced.nonzero()
    assert set(nonzero) == set(QUARTIC_REDUCED_SYSTEM)
    for key, expected in QUARTIC_REDUCED_SYSTEM.items():
        assert nonzero[key] == expected, f"mismatch at {key}"


def test_quartic_h10_differs_from_printed_transcription():
    # the printed (1, 0) equation carries a sigma*k1^2*k2 tail instead of
    # the engine's k1; the generated polynomial is the ground truth here
    system = build_coefficient_system(4, 2, params={"c": 0})
    generated = system.equations[(1, 0)]
    assert generated != QUARTIC_H10_AS_PRINTED
    assert generated - QUARTIC_H10_AS_PRINTED == QUARTIC_H10_EXPECTED_DIFF


def _oracle_params():
    yield pytest.param(None, id="symbolic")
    yield pytest.param({"c": 0}, id="c-zero")
    yield pytest.param(dict.fromkeys("abcd", 0), id="all-zero")
    # the S412 reference pinning: lam, m and sigma are not read by the builder
    yield pytest.param({"a": 1, "b": Fraction(-8, 3), "c": 1, "d": 1, "lam": 1,
                        "sigma": 1, "m": math.sqrt(0.5)}, id="s412")
    rng = random.Random(17)
    for i in range(20):
        yield pytest.param({name: Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                            for name in "abcd" if rng.random() < 0.7}, id=f"random-{i}")


@pytest.mark.parametrize("params", list(_oracle_params()))
def test_closed_form_builder_matches_arithmetic_reference(params):
    for n_eta in range(1, 9):
        for n_w in range(1, 9):
            got = build_coefficient_system(n_eta, n_w, params=params)
            want = reference_coefficient_system(n_eta, n_w, params=params)
            assert list(got.equations) == list(want.equations)
            assert got.equations == want.equations
            for key, poly in got.equations.items():
                assert list(poly.terms) == list(want.equations[key].terms), key
                assert all(type(c) is Fraction for c in poly.terms.values())
            assert got.to_text() == want.to_text()


@pytest.mark.parametrize("value", [RationalPoly.var("b"), None, "x", math.inf, math.nan])
def test_parameter_that_is_not_a_rational_is_named(value):
    with pytest.raises(UsageError, match=r"^a = .* is not a rational$"):
        build_coefficient_system(2, 2, params={"a": value, "c": 0})


@pytest.mark.parametrize("degrees", [(0, 2), (2, 0), (-1, -1)])
def test_series_degree_below_one_is_a_usage_error(degrees):
    with pytest.raises(UsageError, match=r"series degrees .* must be >= 1"):
        build_coefficient_system(*degrees)


def test_canonical_text_dump():
    system = build_coefficient_system(2, 2)
    text = system.to_text()
    lines = text.splitlines()
    assert lines[0].startswith("h[1,")
    assert "h[2,3] = -24*d*lam^2*m^2*sigma*k2 - 24*c*lam^2*m^2*j2 + 2*k2^2" in text
    # dump is deterministic
    assert text == build_coefficient_system(2, 2).to_text()
