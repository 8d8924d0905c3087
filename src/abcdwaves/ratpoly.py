"""Sparse multivariate polynomials with exact rational coefficients.

The variable universe is {a, b, c, d, lam, m, sigma, j0.., k0..}.  A
monomial is a tuple of (name, exponent) pairs sorted in the fixed
variable order, so structural equality of two polynomials is dictionary
equality.  Zero coefficients are never stored.  All arithmetic is exact
(``fractions.Fraction``); nothing here touches floating point: numeric
evaluation belongs to the solver's compiled systems.

The public constructor normalises whatever it is given.  The operations
build dicts that are canonical by construction (their monomials come from
``_mono_mul`` or are subsequences of canonical ones) and store them through
``RationalPoly._of`` without a second pass.
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


def _pair_key(pair: tuple[str, int]):
    return var_sort_key(pair[0])


def _make_monomial(pairs: Iterable[tuple[str, int]]) -> Monomial:
    merged: dict[str, int] = {}
    for name, exp in pairs:
        if exp:
            merged[name] = merged.get(name, 0) + exp
    return tuple(sorted(((n, e) for n, e in merged.items() if e), key=_pair_key))


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """Product of two canonical monomials, canonical."""
    if not m2:
        return m1
    if not m1:
        return m2
    merged = dict(m1)
    for name, exp in m2:
        merged[name] = merged.get(name, 0) + exp
    if len(merged) == len(m1):
        # no new variable: the merged dict keeps m1's canonical order
        return tuple(merged.items())
    return tuple(sorted(merged.items(), key=_pair_key))


def _accumulate(out: dict[Monomial, Fraction], mono: Monomial, coef: Fraction) -> None:
    """out += coef * mono, dropping the monomial when it cancels."""
    old = out.get(mono)
    if old is None:
        out[mono] = coef
        return
    new = old + coef
    if new:
        out[mono] = new
    else:
        del out[mono]


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
                _accumulate(cleaned, _make_monomial(mono), coef)
        self.terms = cleaned

    @staticmethod
    def _of(terms: dict[Monomial, Fraction]) -> "RationalPoly":
        """Store a dict that is already canonical: sorted monomials without
        zero exponents, nonzero Fraction coefficients.  Takes ownership."""
        poly = object.__new__(RationalPoly)
        poly.terms = terms
        return poly

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(value: Scalar) -> "RationalPoly":
        value = Fraction(value)
        return RationalPoly._of({(): value} if value else {})

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
            _accumulate(terms, mono, coef)
        return RationalPoly._of(terms)

    __radd__ = __add__

    def __neg__(self):
        return RationalPoly._of({mono: -coef for mono, coef in self.terms.items()})

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
                _accumulate(out, _mono_mul(m1, m2), c1 * c2)
        return RationalPoly._of(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        return RationalPoly._of({mono: coef / other for mono, coef in self.terms.items()})

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
        """Replace variables by exact scalars or polynomials.

        Scalars scale the coefficient (a zero drops the term) and the
        factors left alone stay a canonical subsequence; only polynomial
        replacements are multiplied out.  Terms are summed into one dict
        in the order the term-by-term sum would visit them.  When every
        replacement is a scalar zero, the terms that hold none of the
        names are kept as they are, without arithmetic.
        """
        if all(type(repl) in (int, Fraction) and not repl for repl in subs.values()):
            kept: dict[Monomial, Fraction] = {}
            for mono, coef in self.terms.items():
                for name, _ in mono:
                    if name in subs:
                        break
                else:
                    kept[mono] = coef
            return RationalPoly._of(kept)
        scalars: dict[str, Fraction] = {}
        polys: dict[str, RationalPoly] = {}
        for name, repl in subs.items():
            if isinstance(repl, RationalPoly):
                polys[name] = repl
            else:
                scalars[name] = repl if type(repl) is Fraction else Fraction(repl)
        out: dict[Monomial, Fraction] = {}
        for mono, coef in self.terms.items():
            kept = []
            factor = None
            for name, exp in mono:
                if name in scalars:
                    value = scalars[name]
                    if not value:
                        break
                    coef = coef * value ** exp
                elif name in polys:
                    power = polys[name] ** exp
                    factor = power if factor is None else factor * power
                else:
                    kept.append((name, exp))
            else:
                kept = mono if len(kept) == len(mono) else tuple(kept)
                if factor is None:
                    _accumulate(out, kept, coef)
                else:
                    for m, c in factor.terms.items():
                        _accumulate(out, _mono_mul(m, kept), coef * c)
        return RationalPoly._of(out)

    def derivative(self, name: str) -> "RationalPoly":
        out: dict[Monomial, Fraction] = {}
        for mono, coef in self.terms.items():
            for i, (n, exp) in enumerate(mono):
                if n == name:
                    lowered = ((n, exp - 1),) if exp > 1 else ()
                    # d/dx is injective on the terms that contain x
                    out[mono[:i] + lowered + mono[i + 1:]] = coef * exp
                    break
        return RationalPoly._of(out)

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
        """Exact division by a monomial that divides every term."""
        out: dict[Monomial, Fraction] = {}
        for term, coef in self.terms.items():
            entry = dict(term)
            for name, exp in mono:
                left = entry.get(name, 0) - exp
                if left < 0:
                    raise ValueError(f"term {term} not divisible by {name}")
                if left:
                    entry[name] = left
                else:
                    entry.pop(name, None)
            out[tuple(entry.items())] = coef
        return RationalPoly._of(out)

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
