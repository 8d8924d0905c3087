"""Coefficient systems of the traveling-wave equations, exact in every symbol.

Both moving-frame equations are exact xi-derivatives,

    F1' = 0,   F1 = -sigma eta + w + eta w   + a w'' + b sigma eta''
    F2' = 0,   F2 = -sigma w   + eta + w^2/2 + c eta'' + d sigma w''

and with eta, w finite cn series every term of F1, F2 is a plain cn
polynomial: the second derivative of a cn power has the closed form

    (cn^r)'' = -r lam^2 [(r+1) m^2 cn^(r+2) + r (1-2m^2) cn^r
                         + (r-1) (m^2-1) cn^(r-2)],

so for s = sum_r s_r cn^r (1 <= r <= n; s_0 drops out) the cn^q
coefficient of s'' is

    - (q-2)(q-1) lam^2 m^2 s_(q-2)
    - q^2 lam^2 s_q + 2 q^2 lam^2 m^2 s_q
    - (q+2)(q+1) lam^2 m^2 s_(q+2) + (q+2)(q+1) lam^2 s_(q+2).

Since (cn^q)' = -q lam cn^(q-1) sn dn, the residual of equation p is
-lam sn dn sum_q (q+1) F_p[q+1] cn^q, so h[p, q] = (q+1) F_p[q+1].  The
builder writes every term of each h[p, q] straight into one dict, in the
order of the terms of F_p listed above (the s'' terms in the order shown),
and no two terms share a monomial, so nothing is summed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .errors import DomainError, UsageError
from .families import Rational, _frac
from .ratpoly import Monomial, RationalPoly

Scalar = Union[int, Fraction, RationalPoly]

_LAM2 = ("lam", 2)
_M2 = ("m", 2)
_SIGMA = ("sigma", 1)


def _second_derivative(q: int, s: list) -> list:
    """The cn^q coefficient of s'' for s = sum_r s[r] cn^r, as (monomial,
    integer coefficient) terms whose last factor is the unknown s[r]."""
    n = len(s) - 1
    terms = []
    if 3 <= q <= n + 2:
        terms.append(((_LAM2, _M2, s[q - 2]), -(q - 2) * (q - 1)))
    if 1 <= q <= n:
        terms += [((_LAM2, s[q]), -q * q), ((_LAM2, _M2, s[q]), 2 * q * q)]
    if q + 2 <= n:
        terms += [((_LAM2, _M2, s[q + 2]), -(q + 2) * (q + 1)),
                  ((_LAM2, s[q + 2]), (q + 2) * (q + 1))]
    return terms


def _product(q: int, eta: list, w: list) -> list:
    """The cn^q coefficient of eta w, by the index of eta."""
    return [((eta[i], w[q - i]), 1)
            for i in range(max(0, q - len(w) + 1), min(q, len(eta) - 1) + 1)]


def _half_square(q: int, w: list) -> list:
    """The cn^q coefficient of w^2/2, by the lower index."""
    return [((w[i], w[q - i]), 1) if 2 * i < q else (((w[i][0], 2),), Fraction(1, 2))
            for i in range(max(0, q - len(w) + 1), q // 2 + 1)]


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
    params: Mapping[str, Rational] | None = None,
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
    to substitute any of them, e.g. ``params={"c": 0}``.  A value that is
    not a rational is a UsageError naming its key, and so is a series
    degree below 1.
    """
    if n_eta < 1 or n_w < 1:
        raise UsageError(f"series degrees ({n_eta}, {n_w}) must be >= 1")
    values = {k: _frac(v, k) for k, v in (params or {}).items()}
    # each of a, b, c, d as (its factors in a monomial, its scalar)
    scale = {name: ((), values[name]) if name in values else (((name, 1),), 1)
             for name in "abcd"}
    eta = [(f"j{r}", 1) for r in range(n_eta + 1)]
    w = [(f"k{r}", 1) for r in range(n_w + 1)]

    equations: dict[tuple[int, int], RationalPoly] = {}
    grid_top = 2 * max(n_eta, n_w) - 1
    # F_p = -sigma u + v + (product) + P v'' + Q sigma u''
    for p, u, v, plain, with_sigma in ((1, eta, w, "a", "b"), (2, w, eta, "c", "d")):
        h = []
        # h[r - 1] = r F_p[r], for r up to past the top cn power of F_p
        for r in range(1, grid_top + 4):
            terms: dict[Monomial, Fraction] = {}
            if r < len(u):
                terms[(_SIGMA, u[r])] = Fraction(-r)
            if r < len(v):
                terms[(v[r],)] = Fraction(r)
            for mono, coef in _product(r, eta, w) if p == 1 else _half_square(r, w):
                terms[mono] = Fraction(r * coef)
            for name, s, sigma in ((plain, v, ()), (with_sigma, u, (_SIGMA,))):
                head, scalar = scale[name]
                if scalar:
                    for mono, coef in _second_derivative(r, s):
                        terms[head + mono[:-1] + sigma + mono[-1:]] = Fraction(r * coef * scalar)
            h.append(RationalPoly._of(terms))
        top = max((q for q, poly in enumerate(h) if poly.terms), default=-1)
        for q in range(max(grid_top, top) + 1):
            equations[(p, q)] = h[q]
    return CoefficientSystem(equations)


# name: (eta degree, w degree, the a, b, c, d values it fixes, the coefficients it pins)
SYSTEMS = {
    "coeffs1": (2, 2, {}, {}),
    "coeffs2": (4, 2, {"c": 0}, {}),
    "coeffs2red": (4, 2, {"c": 0}, {"j1": 0, "j3": 0, "k1": 0}),
}


def build_named_system(name: str, params: Mapping[str, Rational] | None = None
                       ) -> tuple[CoefficientSystem, dict[str, Rational]]:
    """The coefficient system registered as ``name`` and the pins it imposes.

    ``params`` substitutes values of a, b, c, d on top of those the system
    fixes; contradicting a fixed value raises DomainError.  UsageError for
    a name that is not in SYSTEMS and for a ``params`` key other than a, b,
    c, d.
    """
    if name not in SYSTEMS:
        raise UsageError(f"no system named {name!r}; the systems are {sorted(SYSTEMS)}")
    stray = sorted(set(params or {}) - set("abcd"))
    if stray:
        raise UsageError(f"params {stray} are not among a, b, c, d")
    n_eta, n_w, fixed, pins = SYSTEMS[name]
    merged = dict(fixed)
    for key, val in (params or {}).items():
        exact = _frac(val, key)
        if exact != merged.setdefault(key, exact):
            raise DomainError(f"system {name} fixes {key} = {merged[key]}")
    return build_coefficient_system(n_eta, n_w, params=merged), dict(pins)


__all__ = ["CoefficientSystem", "SYSTEMS", "build_coefficient_system", "build_named_system"]
