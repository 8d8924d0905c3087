"""Exact algebra over cn-polynomials with an optional sn*dn prefactor.

Every expression that arises from the traveling-wave substitution lives in
the ring  Q[vars][cn]  (+)  sn*dn * Q[vars][cn]:  after eliminating sn^2
and dn^2 through

    sn^2 = 1 - cn^2,      dn^2 = 1 - m^2 + m^2 cn^2,

any product of sn/dn powers collapses to at most one sn*dn factor.  A
``CnExpression`` stores the two halves as lists of exact polynomial
coefficients indexed by cn power; the odd half carries the implicit
global sn*dn.  Differentiation with respect to the moving-frame variable
flips parity; multiplication rewrites (sn*dn)^2 = (1-cn^2)(1-m^2+m^2cn^2).
Expressions are immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .elliptic import jacobi_eval
from .errors import FactorizationError
from .ratpoly import RationalPoly, var_sort_key

Scalar = Union[int, Fraction, RationalPoly]

_ZERO = RationalPoly.const(0)
_LAM = RationalPoly.var("lam")
_MSQ = RationalPoly.var("m", 2)


def _trim(coeffs: list[RationalPoly]) -> tuple[RationalPoly, ...]:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


def _add(p1, p2) -> tuple[RationalPoly, ...]:
    """Coefficient-wise p1 + p2, the shorter one padded with zeros, trimmed."""
    n = max(len(p1), len(p2))
    return _trim([(p1[q] if q < len(p1) else _ZERO)
                  + (p2[q] if q < len(p2) else _ZERO) for q in range(n)])


def _convolve(p1, p2) -> list[RationalPoly]:
    if not p1 or not p2:
        return []
    out = [_ZERO] * (len(p1) + len(p2) - 1)
    for i, ci in enumerate(p1):
        if ci.is_zero():
            continue
        for j, cj in enumerate(p2):
            if not cj.is_zero():
                out[i + j] = out[i + j] + ci * cj
    return out


# (sn*dn)^2 as a cn polynomial: (1-cn^2)(1-m^2+m^2 cn^2)
_SNDN_SQ = [
    RationalPoly.const(1) - _MSQ,          # cn^0
    _ZERO,                                 # cn^1
    2 * _MSQ - 1,                          # cn^2
    _ZERO,                                 # cn^3
    -_MSQ,                                 # cn^4
]


@dataclass(frozen=True)
class CnExpression:
    """Element of Q[vars][cn] + sn*dn*Q[vars][cn], in normal form."""

    even: tuple[RationalPoly, ...]
    odd: tuple[RationalPoly, ...]

    @staticmethod
    def zero() -> "CnExpression":
        return CnExpression((), ())

    @staticmethod
    def from_even(coeffs) -> "CnExpression":
        return CnExpression(_trim([RationalPoly._coerce(c) for c in coeffs]), ())

    def is_zero(self) -> bool:
        return not self.even and not self.odd

    # -- ring operations -------------------------------------------------
    def __add__(self, other: "CnExpression") -> "CnExpression":
        return CnExpression(_add(self.even, other.even), _add(self.odd, other.odd))

    def __neg__(self) -> "CnExpression":
        return CnExpression(
            tuple(-c for c in self.even), tuple(-c for c in self.odd)
        )

    def __sub__(self, other: "CnExpression") -> "CnExpression":
        return self + (-other)

    def scale(self, factor: Scalar) -> "CnExpression":
        factor = RationalPoly._coerce(factor)
        even = [c * factor for c in self.even]
        odd = [c * factor for c in self.odd]
        return CnExpression(_trim(even), _trim(odd))

    def __mul__(self, other: "CnExpression") -> "CnExpression":
        ee = _convolve(list(self.even), list(other.even))
        oo = _convolve(_convolve(list(self.odd), list(other.odd)), _SNDN_SQ)
        eo = _convolve(list(self.even), list(other.odd))
        oe = _convolve(list(self.odd), list(other.even))
        return CnExpression(_add(ee, oo), _add(eo, oe))

    def substitute(self, subs: Mapping[str, Scalar]) -> "CnExpression":
        return CnExpression(
            _trim([c.substitute(subs) for c in self.even]),
            _trim([c.substitute(subs) for c in self.odd]),
        )

    # -- calculus ----------------------------------------------------------
    def differentiate(self) -> "CnExpression":
        """d/dxi, where cn = cn(lam*xi, m); parity flips.

        Even part: d/dxi cn^q = -q lam cn^(q-1) sn dn.
        Odd part: d/dxi [P cn^q sn dn] regroups through the sn^2/dn^2
        identities into pure cn powers q-1, q+1, q+3.
        """
        odd = [_ZERO] * max(len(self.even) - 1, 0)
        for q in range(1, len(self.even)):
            if not self.even[q].is_zero():
                odd[q - 1] = odd[q - 1] + self.even[q] * _LAM * Fraction(-q)

        even = [_ZERO] * (len(self.odd) + 3) if self.odd else []
        one_minus_msq = RationalPoly.const(1) - _MSQ
        one_minus_2msq = RationalPoly.const(1) - 2 * _MSQ
        for q, poly in enumerate(self.odd):
            if poly.is_zero():
                continue
            if q >= 1:
                even[q - 1] = even[q - 1] + poly * _LAM * one_minus_msq * Fraction(-q)
            even[q + 1] = even[q + 1] + poly * _LAM * one_minus_2msq * Fraction(q + 1)
            even[q + 3] = even[q + 3] + poly * _LAM * _MSQ * Fraction(q + 2)
        return CnExpression(_trim(even), _trim(odd))

    # -- numeric check hook -------------------------------------------------
    def eval_float(self, subs: Mapping[str, float], xi: float) -> float:
        """Evaluate numerically at xi; needs 'lam' and 'm' among subs."""
        pt = jacobi_eval(float(subs["lam"]) * xi, float(subs["m"]))
        total = 0.0
        for q, poly in enumerate(self.even):
            if not poly.is_zero():
                total += poly.eval_float(subs) * pt.cn ** q
        if self.odd:
            acc = 0.0
            for q, poly in enumerate(self.odd):
                if not poly.is_zero():
                    acc += poly.eval_float(subs) * pt.cn ** q
            total += acc * pt.sn * pt.dn
        return total


def cn_series(n: int, which: str) -> CnExpression:
    """Finite cn power series with symbolic coefficients.

    ``which`` selects the coefficient family: "eta" uses j0..jn, "w" uses
    k0..kn.  Degree n >= 0.
    """
    if n < 0:
        raise ValueError("series degree must be >= 0")
    prefix = {"eta": "j", "w": "k"}[which]
    return CnExpression.from_even(
        [RationalPoly.var(f"{prefix}{r}") for r in range(n + 1)]
    )


@dataclass(frozen=True)
class CoefficientSystem:
    """Polynomial equations h[p, q] = 0 from the traveling-wave residual.

    The residual of equation p factors as -lam * sn * dn * sum_q h[p, q] cn^q;
    each stored polynomial is exact in the surviving symbols.
    """

    equations: dict[tuple[int, int], RationalPoly]
    n_eta: int
    n_w: int

    def nonzero(self) -> dict[tuple[int, int], RationalPoly]:
        return {key: p for key, p in self.equations.items() if not p.is_zero()}

    def variables(self) -> set[str]:
        out: set[str] = set()
        for poly in self.equations.values():
            out |= poly.variables()
        return out

    def substitute(self, subs: Mapping[str, Scalar]) -> "CoefficientSystem":
        return CoefficientSystem(
            {key: poly.substitute(subs) for key, poly in self.equations.items()},
            self.n_eta,
            self.n_w,
        )

    def to_text(self) -> str:
        """Canonical dump: one 'h[p,q] = poly' per line, fixed ordering."""
        lines = []
        for (p, q) in sorted(self.equations, key=lambda k: (k[0], -k[1])):
            lines.append(f"h[{p},{q}] = {self.equations[(p, q)].to_text()}")
        return "\n".join(lines)


def _extract_sn_dn_factor(residual: CnExpression, label: str) -> list[RationalPoly]:
    """Residual -> coefficients h_q with residual = -lam sn dn sum h_q cn^q."""
    for q, poly in enumerate(residual.even):
        if not poly.is_zero():
            raise FactorizationError(
                f"{label}: residual term cn^{q} lacks the sn*dn prefactor: "
                f"{poly.to_text()}"
            )
    out = []
    for q, poly in enumerate(residual.odd):
        try:
            out.append(-poly.divide_by_var("lam"))
        except ValueError as exc:
            raise FactorizationError(
                f"{label}: sn*dn coefficient at cn^{q} lacks the lam factor: "
                f"{poly.to_text()}") from exc
    return out


def build_coefficient_system(
    n_eta: int,
    n_w: int,
    *,
    params: Mapping[str, Scalar] | None = None,
) -> CoefficientSystem:
    """Expand the traveling-wave residual and collect cn-power coefficients.

    The two moving-frame equations

        -sigma eta' + w' + (eta w)' + a w''' + b sigma eta''' = 0
        -sigma w'  + eta' + w w'    + c eta''' + d sigma w''' = 0

    are expanded with eta, w finite cn series of degrees n_eta, n_w.  Both
    residuals must factor as -lam*sn*dn times a cn polynomial
    (FactorizationError otherwise, which would signal an algebra bug);
    the returned system maps (p, q) to the coefficient of cn^q in
    equation p.

    By default a, b, c, d stay symbolic; pass ``params`` (exact rationals)
    to substitute any of them, e.g. ``params={"c": 0}``.
    """
    if n_eta < 1 or n_w < 1:
        raise ValueError("series degrees must be >= 1")
    eta = cn_series(n_eta, "eta")
    w = cn_series(n_w, "w")
    sigma = RationalPoly.var("sigma")
    av, bv, cv, dv = (RationalPoly.var(n) for n in "abcd")
    if params:
        subs = {k: Fraction(v) for k, v in params.items()}
        av, bv, cv, dv = (p.substitute(subs) for p in (av, bv, cv, dv))

    d_eta = eta.differentiate()
    d_w = w.differentiate()
    d3_eta = d_eta.differentiate().differentiate()
    d3_w = d_w.differentiate().differentiate()

    eq1 = (
        d_eta.scale(-1 * sigma)
        + d_w
        + (eta * w).differentiate()
        + d3_w.scale(av)
        + d3_eta.scale(bv * sigma)
    )
    eq2 = (
        d_w.scale(-1 * sigma)
        + d_eta
        + w * d_w
        + d3_eta.scale(cv)
        + d3_w.scale(dv * sigma)
    )

    equations: dict[tuple[int, int], RationalPoly] = {}
    grid_top = 2 * max(n_eta, n_w) - 1
    for p, eq in ((1, eq1), (2, eq2)):
        coeffs = _extract_sn_dn_factor(eq, f"equation {p}")
        for q in range(max(grid_top, len(coeffs) - 1) + 1):
            equations[(p, q)] = coeffs[q] if q < len(coeffs) else _ZERO
    return CoefficientSystem(equations, n_eta, n_w)


def poly_from_terms(terms) -> RationalPoly:
    """Helper for writing reference polynomials: [(coef, {var: exp}), ...]."""
    total = RationalPoly.const(0)
    for coef, powers in terms:
        total = total + RationalPoly.monomial(Fraction(coef), powers.items())
    return total


__all__ = [
    "CnExpression",
    "CoefficientSystem",
    "build_coefficient_system",
    "cn_series",
    "poly_from_terms",
    "var_sort_key",
]
