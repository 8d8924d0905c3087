"""Sparse multivariate polynomials with exact rational coefficients.

The variable universe is {a, b, c, d, lam, m, sigma, j0.., k0..}.  A
monomial is a tuple of (name, exponent) pairs sorted in the fixed
variable order, so structural equality of two polynomials is dictionary
equality.  Zero coefficients are never stored.  All arithmetic is exact
(``fractions.Fraction``); nothing here touches floating point except the
explicit ``eval_float`` hook.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Monomial = tuple[tuple[str, int], ...]
Scalar = Union[int, Fraction]

_BASE_ORDER = {"a": 0, "b": 1, "c": 2, "d": 3, "lam": 4, "m": 5, "sigma": 6}


def var_sort_key(name: str) -> tuple[int, int, str]:
    """Fixed total order on variable names: a,b,c,d,lam,m,sigma,j0..,k0.."""
    if name in _BASE_ORDER:
        return (0, _BASE_ORDER[name], name)
    if name[0] == "j" and name[1:].isdigit():
        return (1, int(name[1:]), name)
    if name[0] == "k" and name[1:].isdigit():
        return (2, int(name[1:]), name)
    return (3, 0, name)


def _make_monomial(pairs: Iterable[tuple[str, int]]) -> Monomial:
    merged: dict[str, int] = {}
    for name, exp in pairs:
        if exp:
            merged[name] = merged.get(name, 0) + exp
    return tuple(sorted(((n, e) for n, e in merged.items() if e), key=lambda p: var_sort_key(p[0])))


class RationalPoly:
    """Immutable sparse polynomial over Q in named variables."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        cleaned: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coef in terms.items():
                coef = Fraction(coef)
                if coef == 0:
                    continue
                mono = _make_monomial(mono)
                total = cleaned.get(mono, Fraction(0)) + coef
                if total:
                    cleaned[mono] = total
                else:
                    cleaned.pop(mono, None)
        object.__setattr__(self, "terms", cleaned)

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(value: Scalar) -> "RationalPoly":
        value = Fraction(value)
        return RationalPoly({(): value} if value else {})

    @staticmethod
    def var(name: str, exp: int = 1) -> "RationalPoly":
        return RationalPoly({_make_monomial([(name, exp)]): Fraction(1)})

    @staticmethod
    def monomial(coef: Scalar, pairs: Iterable[tuple[str, int]]) -> "RationalPoly":
        return RationalPoly({_make_monomial(pairs): Fraction(coef)})

    # -- predicates / views -------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((), Fraction(0))

    def variables(self) -> set[str]:
        out: set[str] = set()
        for mono in self.terms:
            out.update(name for name, _ in mono)
        return out

    def degree_in(self, name: str) -> int:
        deg = 0
        for mono in self.terms:
            for n, e in mono:
                if n == name:
                    deg = max(deg, e)
        return deg

    # -- arithmetic ----------------------------------------------------
    @staticmethod
    def _coerce(other) -> "RationalPoly":
        if isinstance(other, RationalPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalPoly.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for mono, coef in other.terms.items():
            new = terms.get(mono, Fraction(0)) + coef
            if new:
                terms[mono] = new
            else:
                terms.pop(mono, None)
        return RationalPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return RationalPoly({mono: -coef for mono, coef in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _make_monomial(list(m1) + list(m2))
                new = out.get(mono, Fraction(0)) + c1 * c2
                if new:
                    out[mono] = new
                else:
                    out.pop(mono, None)
        return RationalPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported")
        result = RationalPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structure operations ------------------------------------------
    def substitute(self, subs: Mapping[str, Union[Scalar, "RationalPoly"]]) -> "RationalPoly":
        """Replace variables by exact scalars or polynomials."""
        result = RationalPoly.const(0)
        for mono, coef in self.terms.items():
            term = RationalPoly.const(coef)
            for name, exp in mono:
                if name in subs:
                    repl = subs[name]
                    if not isinstance(repl, RationalPoly):
                        repl = RationalPoly.const(repl)
                    term = term * repl ** exp
                else:
                    term = term * RationalPoly.var(name, exp)
            result = result + term
        return result

    def divide_by_var(self, name: str) -> "RationalPoly":
        """Exact division by a single variable; every term must contain it."""
        out: dict[Monomial, Fraction] = {}
        for mono, coef in self.terms.items():
            entry = dict(mono)
            if entry.get(name, 0) < 1:
                raise ValueError(f"term {mono} not divisible by {name}")
            entry[name] -= 1
            out[_make_monomial(entry.items())] = coef
        return RationalPoly(out)

    def derivative(self, name: str) -> "RationalPoly":
        out: dict[Monomial, Fraction] = {}
        for mono, coef in self.terms.items():
            entry = dict(mono)
            exp = entry.get(name, 0)
            if not exp:
                continue
            entry[name] = exp - 1
            key = _make_monomial(entry.items())
            new = out.get(key, Fraction(0)) + coef * exp
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        return RationalPoly(out)

    def monomial_gcd(self) -> Monomial:
        """Largest monomial dividing every term (the content monomial)."""
        if not self.terms:
            return ()
        common: dict[str, int] | None = None
        for mono in self.terms:
            entry = dict(mono)
            if common is None:
                common = entry
            else:
                common = {n: min(e, entry.get(n, 0)) for n, e in common.items() if entry.get(n, 0)}
            if not common:
                return ()
        return _make_monomial(common.items())

    def divide_by_monomial(self, mono: Monomial) -> "RationalPoly":
        out = self
        for name, exp in mono:
            for _ in range(exp):
                out = out.divide_by_var(name)
        return out

    # -- numeric evaluation ---------------------------------------------
    def eval_float(self, subs: Mapping[str, float]) -> float:
        total = 0.0
        for mono, coef in self.terms.items():
            value = float(coef)
            for name, exp in mono:
                value *= float(subs[name]) ** exp
            total += value
        return total

    # -- canonical text --------------------------------------------------
    @staticmethod
    def _mono_sort_key(mono: Monomial):
        total = sum(e for _, e in mono)
        vec = tuple((var_sort_key(n), -e) for n, e in mono)
        return (-total, vec)

    def to_text(self) -> str:
        """Canonical one-line form, terms in graded variable order."""
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=self._mono_sort_key):
            coef = self.terms[mono]
            factors = []
            for name, exp in mono:
                factors.append(name if exp == 1 else f"{name}^{exp}")
            body = "*".join(factors)
            mag = abs(coef)
            coef_txt = str(mag)
            if body:
                txt = body if mag == 1 else f"{coef_txt}*{body}"
            else:
                txt = coef_txt
            parts.append(("- " if coef < 0 else "+ ") + txt)
        joined = " ".join(parts)
        if joined.startswith("+ "):
            joined = joined[2:]
        elif joined.startswith("- "):
            joined = "-" + joined[2:]
        return joined

    def __repr__(self):
        return f"RationalPoly({self.to_text()})"
