import random
from fractions import Fraction

import pytest

from abcdwaves.cnexpr import (CnExpression, build_coefficient_system,
                              cn_series, poly_from_terms)
from abcdwaves.elliptic import cn_power_derivative, jacobi_eval
from abcdwaves.errors import FactorizationError
from abcdwaves.ratpoly import RationalPoly

from reference_systems import (QUADRATIC_SYSTEM, QUARTIC_H10_AS_PRINTED,
                               QUARTIC_H10_EXPECTED_DIFF,
                               QUARTIC_REDUCED_SYSTEM)


def test_series_shapes():
    e0 = cn_series(0, "eta")
    assert len(e0.even) == 1 and e0.even[0] == RationalPoly.var("j0")
    assert not e0.odd

    e2 = cn_series(2, "eta")
    assert [p.to_text() for p in e2.even] == ["j0", "j1", "j2"]

    w4 = cn_series(4, "w")
    assert len(w4.even) == 5 and w4.even[4] == RationalPoly.var("k4")


def test_derivative_of_cn():
    cn = CnExpression.from_even([0, 1])
    d = cn.differentiate()
    assert not d.even
    assert len(d.odd) == 1
    assert d.odd[0] == -RationalPoly.var("lam")


def test_derivative_of_constant_is_zero():
    const = CnExpression.from_even([RationalPoly.var("j0")])
    assert const.differentiate().is_zero()


@pytest.mark.parametrize("r", range(1, 7))
def test_second_derivative_closed_form(r):
    # applying the first-derivative rule twice must reproduce
    # -r lam^2 [(r+1) m^2 cn^{r+2} + r(1-2m^2) cn^r + (r-1)(m^2-1) cn^{r-2}]
    cn_r = CnExpression.from_even([0] * r + [1])
    got = cn_r.differentiate().differentiate()
    lam2 = poly_from_terms([(1, {"lam": 2})])
    m2 = poly_from_terms([(1, {"m": 2})])
    one = RationalPoly.const(1)
    coeffs = [RationalPoly.const(0)] * (r + 3)
    coeffs[r + 2] = -r * lam2 * (r + 1) * m2
    coeffs[r] = -r * lam2 * r * (one - 2 * m2)
    if r >= 2:
        coeffs[r - 2] = -r * lam2 * (r - 1) * (m2 - one)
    expected = CnExpression.from_even(coeffs)
    assert got == expected


def test_sndn_squared_product():
    sndn = CnExpression((), (RationalPoly.const(1),))
    prod = sndn * sndn
    m2 = poly_from_terms([(1, {"m": 2})])
    one = RationalPoly.const(1)
    expected = CnExpression.from_even([one - m2, RationalPoly.const(0),
                                       2 * m2 - one, RationalPoly.const(0), -m2])
    assert prod == expected


def test_monomial_product():
    cn = CnExpression.from_even([0, 1])
    cn2 = CnExpression.from_even([0, 0, 1])
    assert (cn * cn2) == CnExpression.from_even([0, 0, 0, 1])


def test_distributed_series_product():
    e1 = CnExpression.from_even([RationalPoly.var("j0"), 0, RationalPoly.var("j2")])
    e2 = CnExpression.from_even([RationalPoly.var("k0"), 0, RationalPoly.var("k2")])
    prod = e1 * e2
    assert prod.even[0] == RationalPoly.var("j0") * RationalPoly.var("k0")
    assert prod.even[2] == (RationalPoly.var("j0") * RationalPoly.var("k2")
                            + RationalPoly.var("j2") * RationalPoly.var("k0"))
    assert prod.even[4] == RationalPoly.var("j2") * RationalPoly.var("k2")
    assert not prod.odd


def _random_expression(rng, max_deg=3):
    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = []
            for var in ("a", "lam", "m", "j1", "k2"):
                if rng.random() < 0.3:
                    mono.append((var, rng.randint(1, 2)))
            terms[tuple(sorted(mono))] = Fraction(rng.randint(-4, 4))
        return RationalPoly(terms)

    even = [rand_poly() for _ in range(rng.randint(0, max_deg))]
    odd = [rand_poly() for _ in range(rng.randint(0, max_deg))]
    # the sum trims zero top coefficients into normal form
    return CnExpression.from_even(even) + CnExpression((), tuple(odd))


def test_ring_axioms_on_random_expressions():
    rng = random.Random(7)
    for _ in range(25):
        e1, e2, e3 = (_random_expression(rng) for _ in range(3))
        assert (e1 * e2) == (e2 * e1)
        assert ((e1 * e2) * e3) == (e1 * (e2 * e3))
        assert (e1 * (e2 + e3)) == (e1 * e2 + e1 * e3)


def test_product_rule_structural():
    rng = random.Random(11)
    for _ in range(20):
        e1, e2 = _random_expression(rng), _random_expression(rng)
        lhs = (e1 * e2).differentiate()
        rhs = e1.differentiate() * e2 + e1 * e2.differentiate()
        assert lhs == rhs


def test_numeric_consistency_with_kernel():
    # evaluating a symbolically-differentiated series must agree with the
    # closed-form cn-power derivatives evaluated through the kernel
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 4)
        series = cn_series(n, "eta")
        d1 = series.differentiate()
        d2 = d1.differentiate()
        subs = {"lam": rng.uniform(0.3, 2.5), "m": rng.uniform(0.05, 0.99)}
        coeffs = {f"j{r}": rng.uniform(-3, 3) for r in range(n + 1)}
        subs.update(coeffs)
        for xi in (0.0, 0.37, 1.9):
            ref1 = sum(coeffs[f"j{r}"] * cn_power_derivative(r, 1, subs["lam"], subs["m"], xi)
                       for r in range(1, n + 1))
            ref2 = sum(coeffs[f"j{r}"] * cn_power_derivative(r, 2, subs["lam"], subs["m"], xi)
                       for r in range(1, n + 1))
            assert d1.eval_float(subs, xi) == pytest.approx(ref1, abs=1e-10, rel=1e-10)
            assert d2.eval_float(subs, xi) == pytest.approx(ref2, abs=1e-10, rel=1e-10)
        # direct profile value
        pt = jacobi_eval(subs["lam"] * 0.37, subs["m"])
        direct = sum(coeffs[f"j{r}"] * pt.cn ** r for r in range(n + 1))
        assert series.eval_float(subs, 0.37) == pytest.approx(direct, rel=1e-12)


def _top_power(expr: CnExpression) -> int:
    """Highest cn power present (-1 for the zero expression)."""
    return max(len(expr.even), len(expr.odd)) - 1


def test_rho_bookkeeping():
    eta = cn_series(3, "eta")
    w = cn_series(3, "w")
    assert _top_power(eta) == 3
    assert _top_power(eta.differentiate()) == 2
    d3 = eta.differentiate().differentiate().differentiate()
    assert _top_power(d3) == 4
    assert _top_power((eta * w).differentiate()) == 5


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


def test_factorization_error_on_even_residual():
    from abcdwaves.cnexpr import _extract_sn_dn_factor
    with pytest.raises(FactorizationError):
        _extract_sn_dn_factor(cn_series(2, "eta"), "test")


def test_canonical_text_dump():
    system = build_coefficient_system(2, 2)
    text = system.to_text()
    lines = text.splitlines()
    assert lines[0].startswith("h[1,")
    assert "h[2,3] = -24*d*lam^2*m^2*sigma*k2 - 24*c*lam^2*m^2*j2 + 2*k2^2" in text
    # dump is deterministic
    assert text == build_coefficient_system(2, 2).to_text()
