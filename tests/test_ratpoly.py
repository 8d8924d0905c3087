"""The exact polynomial kernel against plain Fraction evaluation.

Every operation is checked at random rational points against a value
computed from the operands' terms alone, and every result must be
canonical: monomials in the fixed variable order without zero exponents,
nonzero Fraction coefficients.  The golden hashes pin the coefficient
systems and the termination reports built on the kernel.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest

from abcdwaves.cnexpr import build_coefficient_system
from abcdwaves.families import ParameterSet
from abcdwaves.ratpoly import RationalPoly, var_sort_key
from abcdwaves.reduction import verify_termination

VARS = ("a", "c", "lam", "m", "sigma", "j0", "j2", "j10", "k1", "k3")


def random_poly(rng, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        names = rng.sample(VARS, rng.randint(0, 3))
        mono = tuple((name, rng.randint(1, 3)) for name in names)
        terms[mono] = F(rng.randint(-4, 4), rng.randint(1, 5))
    return RationalPoly(terms)


def random_point(rng):
    return {name: F(rng.randint(-7, 7), rng.randint(1, 6)) for name in VARS}


def value(poly, point):
    """Exact value of a polynomial from its terms."""
    total = F(0)
    for mono, coef in poly.terms.items():
        for name, exp in mono:
            coef *= point[name] ** exp
        total += coef
    return total


def assert_canonical(poly):
    for mono, coef in poly.terms.items():
        assert type(coef) is F and coef != 0
        assert all(exp > 0 for _, exp in mono)
        keys = [var_sort_key(name) for name, _ in mono]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


@pytest.fixture(params=range(4))
def rng(request):
    return random.Random(20261018 + request.param)


def test_ring_operations_match_evaluation(rng):
    for _ in range(150):
        p, q = random_poly(rng), random_poly(rng)
        point = random_point(rng)
        vp, vq = value(p, point), value(q, point)
        scalar = F(rng.randint(-5, 5), rng.randint(1, 3))
        k = rng.randint(0, 3)
        n, frac = rng.choice([-3, -1, 2, 5]), F(rng.choice([-7, -2, 3, 4]), rng.randint(2, 6))
        cases = [(p + q, vp + vq), (p - q, vp - vq), (-p, -vp),
                 (p * q, vp * vq), (p ** k, vp ** k), (scalar * p, scalar * vp),
                 (p + scalar, vp + scalar), (scalar - p, scalar - vp),
                 (p / n, vp / n), (p / frac, vp / frac)]
        for got, want in cases:
            assert_canonical(got)
            assert value(got, point) == want


def test_cancellation_leaves_no_zero_terms(rng):
    for _ in range(50):
        p, q = random_poly(rng), random_poly(rng)
        assert (p - p).is_zero()
        assert ((p + q) * (p - q) - (p * p - q * q)).is_zero()


def test_derivative_matches_evaluation(rng):
    for _ in range(150):
        p = random_poly(rng)
        point = random_point(rng)
        name = rng.choice(VARS)
        # d/dx of each term, evaluated directly from the operand's terms
        want = F(0)
        for mono, coef in p.terms.items():
            exps = dict(mono)
            if name not in exps:
                continue
            term = coef * exps[name]
            for n, e in mono:
                term *= point[n] ** (e - 1 if n == name else e)
            want += term
        got = p.derivative(name)
        assert_canonical(got)
        assert value(got, point) == want


def test_divide_by_monomial_inverts_the_product(rng):
    for _ in range(150):
        p = random_poly(rng)
        names = rng.sample(VARS, rng.randint(0, 3))
        mono = tuple(sorted(((n, rng.randint(1, 2)) for n in names),
                            key=lambda pair: var_sort_key(pair[0])))
        product = p * RationalPoly.monomial(1, mono)
        got = product.divide_by_monomial(mono)
        assert_canonical(got)
        assert got == p
        gcd = product.monomial_gcd()
        quotient = product.divide_by_monomial(gcd)
        assert_canonical(quotient)
        point = random_point(rng)
        assert (value(quotient, point) * value(RationalPoly.monomial(1, gcd), point)
                == value(product, point))
    with pytest.raises(ValueError):
        RationalPoly.var("lam", 2).divide_by_monomial((("lam", 3),))
    with pytest.raises(ValueError):
        (RationalPoly.var("lam") + 1).divide_by_monomial((("lam", 1),))


def test_substitute_matches_evaluation(rng):
    for _ in range(200):
        p = random_poly(rng)
        point = random_point(rng)
        subs = {}
        for name in rng.sample(VARS, rng.randint(0, 4)):
            kind = rng.choice(("zero", "scalar", "int", "poly"))
            if kind == "zero":
                subs[name] = F(0)
            elif kind == "scalar":
                subs[name] = F(rng.randint(-5, 5), rng.randint(1, 4))
            elif kind == "int":
                subs[name] = rng.randint(-3, 3)
            else:
                subs[name] = random_poly(rng, max_terms=3)
        # the replacements are evaluated at the point before p sees them
        moved = dict(point)
        for name, repl in subs.items():
            moved[name] = (value(repl, point) if isinstance(repl, RationalPoly)
                           else F(repl))
        got = p.substitute(subs)
        assert_canonical(got)
        assert value(got, point) == value(p, moved)


def test_zero_substitute_matches_the_polynomial_path(rng):
    # scalar zeros drop terms without arithmetic; replacing by the zero
    # polynomial multiplies out, and is the reference down to term order
    for _ in range(200):
        p = random_poly(rng, max_terms=10)
        names = rng.sample(VARS, rng.randint(0, 4))
        got = p.substitute({name: rng.choice((0, F(0))) for name in names})
        want = p.substitute({name: RationalPoly.const(0) for name in names})
        assert_canonical(got)
        assert got.terms == want.terms
        assert list(got.terms.items()) == list(want.terms.items())


def test_substitute_coerces_scalars_exactly():
    p = RationalPoly.var("lam", 2) + RationalPoly.var("m")
    got = p.substitute({"lam": 0.1, "m": 0})
    assert got.terms == {(): F(0.1) ** 2}
    assert p.substitute({"lam": 0, "m": 0}).is_zero()


def test_public_constructor_normalises():
    p = RationalPoly({(("k1", 1), ("a", 2), ("m", 0)): 3,
                      (("a", 2), ("k1", 1)): F(-1, 2),
                      (("j0", 0),): 0,
                      (): F(4, 2)})
    assert p.terms == {(("a", 2), ("k1", 1)): F(5, 2), (): F(2)}
    assert_canonical(p)
    assert RationalPoly({(("a", 1),): 1, (("a", 1), ("b", 0)): -1}).is_zero()


def test_negative_power_is_refused():
    with pytest.raises(ValueError, match="^negative powers not supported$"):
        RationalPoly.var("x") ** -1


def test_division_is_by_a_nonzero_int_or_fraction_only():
    x = RationalPoly.var("x")
    for zero in (0, F(0)):
        with pytest.raises(ZeroDivisionError):
            x / zero
    for divisor in (x, RationalPoly.const(2), 0.5):
        with pytest.raises(TypeError):
            x / divisor
    with pytest.raises(TypeError):
        2 / x


def test_to_text_prints_a_constant_term():
    assert (RationalPoly.var("x") - 3).to_text() == "x - 3"
    assert RationalPoly.const(F(-3, 2)).to_text() == "-3/2"


SYSTEM_SHA256 = {
    2: "bcbdac608f141e0690d2eb26b5df4c96b924188afdf0e7157ee4041383b3e118",
    3: "1b6c47b85eba42d5c8bab7afd321d5965392293914fd90b2240ee4c7684d4cb1",
    4: "91013938bc96beeac69e1d7f0cf0c43851908b86bd5af16d242fde9b49664dad",
    5: "4f28233b46a1cfc67775e9ee1be7b420fd87e17fd2a4bf30802f7e30c36bc912",
    6: "a50add573f40b92ccdd60a54cac9a21c4200b3ecedbb212b0e19efe7c43b28bd",
    7: "ff5270d862f551c25fb6e62666b02c93b0646c4e417aedb0ef0aa8653f7e6e63",
    8: "df68a83b8d95360be5a3cf61313e95bd41d1138942b4941fbf299dff70a3f3da",
}

TERMINATION_SHA256 = {
    ("c_nonzero", 3): "68046ff7b839e9c0b4652a75128ba3949b89fd4cfbd9d781f15ef336f5d9bbd5",
    ("c_nonzero", 4): "1c5cd76a0343982b2ca52257edacccf68bb1b170379306f642d8f19f4dd0faad",
    ("c_nonzero", 5): "4bff546f470d9bf99ead1cfc453719b2a81d77f801ade80b0bdabb6b4c7f8029",
    ("c_nonzero", 6): "bcbd1368066222dff5763a6f267a0d1e88f4bb13dd5c545823e250d2e41378e6",
    ("c_nonzero", 7): "007b1bc8c74908b1cf6970f9eba0b448dc0e6e30e145df1d92b26ee34dd4777c",
    ("c_nonzero", 8): "b55b96673cf3c5ce15a431912db018129d6f950ad1a8df0f85217a450ed55978",
    ("c_zero", 3): "3d736206912de302db6eccb3cd1bfd1324c4cb79fd6fa9dbdfcbea40526f19ad",
    ("c_zero", 4): "449aa726783002b278bdc3c60b4022f905c7e4a2f92ef205337b36ab19e0e360",
    ("c_zero", 5): "d9bdf4449ac3e6c6aa9796e2dc7762a81a663bb3668f59a9dfe5c1d89c73e5b7",
    ("c_zero", 6): "45ab0858823ca12578b248e5e00c4b2fd212511aac3687b5657133dc22edf83d",
    ("c_zero", 7): "0defea0725a010b7fd986e976bff5a5710a69034041368608b21156335f2fcca",
    ("c_zero", 8): "698deb5e8b2e393ab0fec31d36d30fe9cb2426e1dc634f94082a254033cad6bb",
}

# verify_termination(ParameterSet.make(a, b, c, d), 9): the trivial-shape
# chains close through 29 eliminations over n = 3..9, and the semi-trivial
# point (0, 0, 1/2, -1/6) branches at every degree
ELIMINATION_SHA256 = {
    (F(1, 3), 0, 0, 0): "eaa6d6616f887796846da54b6a063fda7f089b1c159c405668ca6f8cd88574c6",
    (2, 0, 0, 0): "f077c69933b678f93512516e3210f00dfb77d1591e1e4fc3c4ffb4a94fc0e8a2",
    (0, 0, F(1, 2), F(-1, 6)): "30496fa1e2b8747b209510e8d7e0d8bdf4f6002708614e8f02a57784ad10948e",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(SYSTEM_SHA256))
def test_coefficient_system_golden(n):
    system = build_coefficient_system(n, n)
    assert sha256(system.to_text()) == SYSTEM_SHA256[n]


@pytest.mark.parametrize("case,n", sorted(TERMINATION_SHA256))
def test_termination_report_golden(case, n):
    report = verify_termination(case=case, n_min=n, n_max=n)
    assert sha256(report.to_json()) == TERMINATION_SHA256[(case, n)]


@pytest.mark.parametrize("abcd", list(ELIMINATION_SHA256), ids=lambda abcd: ",".join(map(str, abcd)))
def test_termination_report_golden_at_points(abcd):
    report = verify_termination(ParameterSet.make(*abcd), 9)
    assert sha256(report.to_json()) == ELIMINATION_SHA256[abcd]
