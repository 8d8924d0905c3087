"""Coefficient systems of the traveling-wave equations, exact in every symbol.

Both moving-frame equations are exact xi-derivatives,

    F1' = 0,   F1 = -sigma eta + w + eta w   + a w'' + b sigma eta''
    F2' = 0,   F2 = -sigma w   + eta + w^2/2 + c eta'' + d sigma w''

and with eta, w finite cn series every term of F1, F2 is a plain cn
polynomial: the second derivative of a cn power has the closed form

    (cn^r)'' = -r lam^2 [(r+1) m^2 cn^(r+2) + r (1-2m^2) cn^r
                         + (r-1) (m^2-1) cn^(r-2)].

Since (cn^q)' = -q lam cn^(q-1) sn dn, the residual of equation p is
-lam sn dn sum_q (q+1) F_p[q+1] cn^q, so h[p, q] = (q+1) F_p[q+1].  A cn
polynomial is a list of exact ``RationalPoly`` coefficients indexed by cn
power.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .ratpoly import RationalPoly

Scalar = Union[int, Fraction, RationalPoly]

_ZERO = RationalPoly.const(0)
_LAM_SQ = RationalPoly.var("lam", 2)
_MSQ = RationalPoly.var("m", 2)


def _series(n: int, prefix: str) -> list[RationalPoly]:
    """Symbolic coefficients prefix0..prefix<n> of a degree-n cn series."""
    return [RationalPoly.var(f"{prefix}{r}") for r in range(n + 1)]


def _second_derivative(series: list[RationalPoly]) -> list[RationalPoly]:
    """d^2/dxi^2 of sum_r series[r] cn^r, by the closed form per cn power."""
    out = [_ZERO] * (len(series) + 2)
    for r in range(1, len(series)):
        scaled = series[r] * _LAM_SQ * Fraction(-r)
        out[r + 2] = out[r + 2] + scaled * _MSQ * Fraction(r + 1)
        out[r] = out[r] + scaled * (1 - 2 * _MSQ) * Fraction(r)
        if r >= 2:
            out[r - 2] = out[r - 2] + scaled * (_MSQ - 1) * Fraction(r - 1)
    return out


def _convolve(p1: list[RationalPoly], p2: list[RationalPoly]) -> list[RationalPoly]:
    """Coefficients of the product of two cn polynomials."""
    out = [_ZERO] * (len(p1) + len(p2) - 1)
    for i, ci in enumerate(p1):
        for j, cj in enumerate(p2):
            out[i + j] = out[i + j] + ci * cj
    return out


def _weighted_sum(pairs) -> list[RationalPoly]:
    """sum factor * series over (factor, series) pairs, coefficient-wise."""
    out = [_ZERO] * max(len(series) for _, series in pairs)
    for factor, series in pairs:
        for q, coef in enumerate(series):
            out[q] = out[q] + factor * coef
    return out


@dataclass(frozen=True)
class CoefficientSystem:
    """Polynomial equations h[p, q] = 0 from the traveling-wave residual.

    The residual of equation p factors as -lam * sn * dn * sum_q h[p, q] cn^q;
    each stored polynomial is exact in the surviving symbols.
    """

    equations: dict[tuple[int, int], RationalPoly]

    def nonzero(self) -> dict[tuple[int, int], RationalPoly]:
        return {key: p for key, p in self.equations.items() if not p.is_zero()}

    def variables(self) -> set[str]:
        out: set[str] = set()
        for poly in self.equations.values():
            out |= poly.variables()
        return out

    def substitute(self, subs: Mapping[str, Scalar]) -> "CoefficientSystem":
        return CoefficientSystem(
            {key: poly.substitute(subs) for key, poly in self.equations.items()})

    def to_text(self) -> str:
        """Canonical dump: one 'h[p,q] = poly' per line, fixed ordering."""
        lines = []
        for (p, q) in sorted(self.equations, key=lambda k: (k[0], -k[1])):
            lines.append(f"h[{p},{q}] = {self.equations[(p, q)].to_text()}")
        return "\n".join(lines)


def build_coefficient_system(
    n_eta: int,
    n_w: int,
    *,
    params: Mapping[str, Scalar] | None = None,
) -> CoefficientSystem:
    """Collect the cn-power coefficients of the traveling-wave residual.

    The two moving-frame equations

        -sigma eta' + w' + (eta w)' + a w''' + b sigma eta''' = 0
        -sigma w'  + eta' + w w'    + c eta''' + d sigma w''' = 0

    are taken with eta, w finite cn series of degrees n_eta, n_w
    (coefficients j0..j<n_eta>, k0..k<n_w>).  The returned system maps
    (p, q) to the coefficient h[p, q] of cn^q in equation p, for q up to
    the highest nonzero one and at least up to 2 max(n_eta, n_w) - 1.

    By default a, b, c, d stay symbolic; pass ``params`` (exact rationals)
    to substitute any of them, e.g. ``params={"c": 0}``.
    """
    if n_eta < 1 or n_w < 1:
        raise ValueError("series degrees must be >= 1")
    eta = _series(n_eta, "j")
    w = _series(n_w, "k")
    sigma = RationalPoly.var("sigma")
    av, bv, cv, dv = (RationalPoly.var(n) for n in "abcd")
    if params:
        subs = {k: Fraction(v) for k, v in params.items()}
        av, bv, cv, dv = (p.substitute(subs) for p in (av, bv, cv, dv))

    d2_eta = _second_derivative(eta)
    d2_w = _second_derivative(w)
    f1 = _weighted_sum([(-sigma, eta), (1, w), (1, _convolve(eta, w)),
                        (av, d2_w), (bv * sigma, d2_eta)])
    f2 = _weighted_sum([(-sigma, w), (1, eta), (Fraction(1, 2), _convolve(w, w)),
                        (cv, d2_eta), (dv * sigma, d2_w)])

    equations: dict[tuple[int, int], RationalPoly] = {}
    grid_top = 2 * max(n_eta, n_w) - 1
    for p, f in ((1, f1), (2, f2)):
        top = max((q for q in range(1, len(f)) if not f[q].is_zero()), default=0)
        for q in range(max(grid_top, top - 1) + 1):
            equations[(p, q)] = f[q + 1] * Fraction(q + 1) if q < top else _ZERO
    return CoefficientSystem(equations)


def poly_from_terms(terms) -> RationalPoly:
    """Helper for writing reference polynomials: [(coef, {var: exp}), ...]."""
    total = RationalPoly.const(0)
    for coef, powers in terms:
        total = total + RationalPoly.monomial(Fraction(coef), powers.items())
    return total


__all__ = [
    "CoefficientSystem",
    "build_coefficient_system",
    "poly_from_terms",
]
