"""Reference coefficient systems.

The hand-expanded polynomials below were derived by expanding the two
traveling-wave equations by hand for the quadratic (n_eta = n_w = 2) and
quartic (n_eta = 4, n_w = 2, c = 0) series and collecting cn powers.  They
act as an independent oracle for the symbolic engine: equality is exact and
structural.

``reference_coefficient_system`` builds any system the way the library
once did, by generic ``RationalPoly`` arithmetic on cn polynomials (lists
of coefficients indexed by cn power): the closed form of (cn^r)'' per
power, series products and weighted sums.  It is the oracle for the
closed-form builder, down to the order of every polynomial's terms.
"""

from fractions import Fraction

from abcdwaves.cnexpr import CoefficientSystem
from abcdwaves.ratpoly import RationalPoly

ZERO = RationalPoly.const(0)
_LAM_SQ = RationalPoly.var("lam", 2)
_MSQ = RationalPoly.var("m", 2)


def poly_from_terms(terms) -> RationalPoly:
    """A polynomial written as its terms: [(coef, {var: exp}), ...]."""
    total = RationalPoly.const(0)
    for coef, powers in terms:
        total = total + RationalPoly.monomial(Fraction(coef), powers.items())
    return total


def series(n: int, prefix: str) -> list[RationalPoly]:
    """Symbolic coefficients prefix0..prefix<n> of a degree-n cn series."""
    return [RationalPoly.var(f"{prefix}{r}") for r in range(n + 1)]


def second_derivative(s: list[RationalPoly]) -> list[RationalPoly]:
    """d^2/dxi^2 of sum_r s[r] cn^r, by the closed form per cn power."""
    out = [ZERO] * (len(s) + 2)
    for r in range(1, len(s)):
        scaled = s[r] * _LAM_SQ * Fraction(-r)
        out[r + 2] = out[r + 2] + scaled * _MSQ * Fraction(r + 1)
        out[r] = out[r] + scaled * (1 - 2 * _MSQ) * Fraction(r)
        if r >= 2:
            out[r - 2] = out[r - 2] + scaled * (_MSQ - 1) * Fraction(r - 1)
    return out


def convolve(p1: list[RationalPoly], p2: list[RationalPoly]) -> list[RationalPoly]:
    """Coefficients of the product of two cn polynomials."""
    out = [ZERO] * (len(p1) + len(p2) - 1)
    for i, ci in enumerate(p1):
        for j, cj in enumerate(p2):
            out[i + j] = out[i + j] + ci * cj
    return out


def weighted_sum(pairs) -> list[RationalPoly]:
    """sum factor * s over (factor, s) pairs, coefficient-wise."""
    out = [ZERO] * max(len(s) for _, s in pairs)
    for factor, s in pairs:
        for q, coef in enumerate(s):
            out[q] = out[q] + factor * coef
    return out


def reference_coefficient_system(n_eta, n_w, *, params=None) -> CoefficientSystem:
    """build_coefficient_system by RationalPoly arithmetic on cn polynomials."""
    eta = series(n_eta, "j")
    w = series(n_w, "k")
    sigma = RationalPoly.var("sigma")
    av, bv, cv, dv = (RationalPoly.var(n) for n in "abcd")
    if params:
        subs = {k: Fraction(v) for k, v in params.items()}
        av, bv, cv, dv = (p.substitute(subs) for p in (av, bv, cv, dv))

    d2_eta = second_derivative(eta)
    d2_w = second_derivative(w)
    f1 = weighted_sum([(-sigma, eta), (1, w), (1, convolve(eta, w)),
                       (av, d2_w), (bv * sigma, d2_eta)])
    f2 = weighted_sum([(-sigma, w), (1, eta), (Fraction(1, 2), convolve(w, w)),
                       (cv, d2_eta), (dv * sigma, d2_w)])

    equations = {}
    grid_top = 2 * max(n_eta, n_w) - 1
    for p, f in ((1, f1), (2, f2)):
        top = max((q for q in range(1, len(f)) if not f[q].is_zero()), default=0)
        for q in range(max(grid_top, top - 1) + 1):
            equations[(p, q)] = f[q + 1] * Fraction(q + 1) if q < top else ZERO
    return CoefficientSystem(equations)


# quadratic series, all of a, b, c, d symbolic: 8 equations
QUADRATIC_SYSTEM = {
    (1, 3): poly_from_terms([
        (-24, {"b": 1, "lam": 2, "m": 2, "sigma": 1, "j2": 1}),
        (-24, {"a": 1, "lam": 2, "m": 2, "k2": 1}),
        (4, {"j2": 1, "k2": 1}),
    ]),
    (1, 2): poly_from_terms([
        (-6, {"b": 1, "lam": 2, "m": 2, "sigma": 1, "j1": 1}),
        (-6, {"a": 1, "lam": 2, "m": 2, "k1": 1}),
        (3, {"j1": 1, "k2": 1}),
        (3, {"j2": 1, "k1": 1}),
    ]),
    (1, 1): poly_from_terms([
        (16, {"b": 1, "lam": 2, "m": 2, "sigma": 1, "j2": 1}),
        (16, {"a": 1, "lam": 2, "m": 2, "k2": 1}),
        (-8, {"b": 1, "lam": 2, "sigma": 1, "j2": 1}),
        (-8, {"a": 1, "lam": 2, "k2": 1}),
        (-2, {"sigma": 1, "j2": 1}),
        (2, {"j0": 1, "k2": 1}),
        (2, {"j1": 1, "k1": 1}),
        (2, {"j2": 1, "k0": 1}),
        (2, {"k2": 1}),
    ]),
    (1, 0): poly_from_terms([
        (2, {"b": 1, "lam": 2, "m": 2, "sigma": 1, "j1": 1}),
        (2, {"a": 1, "lam": 2, "m": 2, "k1": 1}),
        (-1, {"b": 1, "lam": 2, "sigma": 1, "j1": 1}),
        (-1, {"a": 1, "lam": 2, "k1": 1}),
        (-1, {"sigma": 1, "j1": 1}),
        (1, {"j0": 1, "k1": 1}),
        (1, {"j1": 1, "k0": 1}),
        (1, {"k1": 1}),
    ]),
    (2, 3): poly_from_terms([
        (-24, {"d": 1, "lam": 2, "m": 2, "sigma": 1, "k2": 1}),
        (-24, {"c": 1, "lam": 2, "m": 2, "j2": 1}),
        (2, {"k2": 2}),
    ]),
    (2, 2): poly_from_terms([
        (-6, {"d": 1, "lam": 2, "m": 2, "sigma": 1, "k1": 1}),
        (-6, {"c": 1, "lam": 2, "m": 2, "j1": 1}),
        (3, {"k1": 1, "k2": 1}),
    ]),
    (2, 1): poly_from_terms([
        (16, {"d": 1, "lam": 2, "m": 2, "sigma": 1, "k2": 1}),
        (16, {"c": 1, "lam": 2, "m": 2, "j2": 1}),
        (-8, {"d": 1, "lam": 2, "sigma": 1, "k2": 1}),
        (-8, {"c": 1, "lam": 2, "j2": 1}),
        (-2, {"sigma": 1, "k2": 1}),
        (2, {"k0": 1, "k2": 1}),
        (1, {"k1": 2}),
        (2, {"j2": 1}),
    ]),
    (2, 0): poly_from_terms([
        (2, {"d": 1, "lam": 2, "m": 2, "sigma": 1, "k1": 1}),
        (2, {"c": 1, "lam": 2, "m": 2, "j1": 1}),
        (-1, {"d": 1, "lam": 2, "sigma": 1, "k1": 1}),
        (-1, {"c": 1, "lam": 2, "j1": 1}),
        (-1, {"sigma": 1, "k1": 1}),
        (1, {"k0": 1, "k1": 1}),
        (1, {"j1": 1}),
    ]),
}

# quartic series with c = 0 and j1 = j3 = k1 = 0: the five surviving
# equations (all others vanish identically)
QUARTIC_REDUCED_SYSTEM = {
    (1, 5): poly_from_terms([
        (-120, {"b": 1, "lam": 2, "m": 2, "sigma": 1, "j4": 1}),
        (6, {"j4": 1, "k2": 1}),
    ]),
    (1, 3): poly_from_terms([
        (-24, {"b": 1, "lam": 2, "m": 2, "sigma": 1, "j2": 1}),
        (128, {"b": 1, "lam": 2, "m": 2, "sigma": 1, "j4": 1}),
        (-24, {"a": 1, "lam": 2, "m": 2, "k2": 1}),
        (-64, {"b": 1, "lam": 2, "sigma": 1, "j4": 1}),
        (-4, {"sigma": 1, "j4": 1}),
        (4, {"j2": 1, "k2": 1}),
        (4, {"j4": 1, "k0": 1}),
    ]),
    (1, 1): poly_from_terms([
        (16, {"b": 1, "lam": 2, "m": 2, "sigma": 1, "j2": 1}),
        (-24, {"b": 1, "lam": 2, "m": 2, "sigma": 1, "j4": 1}),
        (16, {"a": 1, "lam": 2, "m": 2, "k2": 1}),
        (-8, {"b": 1, "lam": 2, "sigma": 1, "j2": 1}),
        (24, {"b": 1, "lam": 2, "sigma": 1, "j4": 1}),
        (-8, {"a": 1, "lam": 2, "k2": 1}),
        (-2, {"sigma": 1, "j2": 1}),
        (2, {"j0": 1, "k2": 1}),
        (2, {"j2": 1, "k0": 1}),
        (2, {"k2": 1}),
    ]),
    (2, 3): poly_from_terms([
        (-24, {"d": 1, "lam": 2, "m": 2, "sigma": 1, "k2": 1}),
        (2, {"k2": 2}),
        (4, {"j4": 1}),
    ]),
    (2, 1): poly_from_terms([
        (16, {"d": 1, "lam": 2, "m": 2, "sigma": 1, "k2": 1}),
        (-8, {"d": 1, "lam": 2, "sigma": 1, "k2": 1}),
        (-2, {"sigma": 1, "k2": 1}),
        (2, {"k0": 1, "k2": 1}),
        (2, {"j2": 1}),
    ]),
}

# The (1, 0) equation of the full quartic c = 0 system as printed in the
# transcription this suite checks against.  Its final term sigma*k1^2*k2 is
# dimensionally inconsistent with the siblings (every other term is linear
# in the series coefficients); the generated engine output carries + k1
# there instead and is treated as ground truth, with the difference
# reported by the comparison test rather than patched away.
QUARTIC_H10_AS_PRINTED = poly_from_terms([
    (2, {"b": 1, "lam": 2, "m": 2, "sigma": 1, "j1": 1}),
    (-6, {"b": 1, "lam": 2, "m": 2, "sigma": 1, "j3": 1}),
    (2, {"a": 1, "lam": 2, "m": 2, "k1": 1}),
    (-1, {"b": 1, "lam": 2, "sigma": 1, "j1": 1}),
    (6, {"b": 1, "lam": 2, "sigma": 1, "j3": 1}),
    (-1, {"a": 1, "lam": 2, "k1": 1}),
    (-1, {"sigma": 1, "j1": 1}),
    (1, {"j0": 1, "k1": 1}),
    (1, {"j1": 1, "k0": 1}),
    (1, {"sigma": 1, "k1": 2, "k2": 1}),
])

QUARTIC_H10_EXPECTED_DIFF = poly_from_terms([
    (1, {"k1": 1}),
    (-1, {"sigma": 1, "k1": 2, "k2": 1}),
])
