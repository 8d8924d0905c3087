"""Closed-form cnoidal solution families and their validity predicates.

Each constructor evaluates one explicit solution set of the coupled
traveling-wave equations

    -sigma eta' + w' + (eta w)' + a w''' + b sigma eta''' = 0
    -sigma w'  + eta' + w w'    + c eta''' + d sigma w''' = 0

with profiles eta = sum_r j_r cn^r(lam*xi, m), w = sum_r k_r cn^r.  The
family labels:

    S411  quadratic, mixed odd/even cn terms; c != 0; sigma is an output
    S412  quadratic, even terms only (j1 = k1 = 0); c != 0; free lam/sigma/m
    S421  quartic eta, quadratic w; c = 0, 4b != d
    S422  quadratic even; c = 0, b != 2d
    S43   semi-trivial eta = -1; a = 0

Each builder validates its input with exact sign and degeneracy tests
(``fractions.Fraction``), calls its family's exact formula function
(``s411_formula`` .. ``s43_formula``; all but S411's also take polynomials)
and rounds each value once.  S411 and S412 take their square roots as
rationals to ``_GUARD_BITS`` bits, so every output is one rounding of an
exact value.  Builders do not enforce the theta-parameterization constraint
on (a, b, c, d) -- run ``check_physical_constraint`` separately.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .errors import ConstraintError, DomainError, UsageError

Rational = Union[int, float, Fraction]

_GUARD_BITS = 192   # precision in bits of the S411 and S412 rational square root


class Record:
    """JSON form of a result dataclass: its fields, in declaration order.

    A field holding a Record, or a list of them, is written through that
    record's own ``to_dict`` and an enum by its value; every other value is
    passed as it is, so dicts are shared and tuples stay tuples (``json``
    writes them as lists).
    ``dataclasses.asdict`` would deep-copy every leaf value, which made
    large reports an order of magnitude slower to serialize, and would
    bypass a nested record's own ``to_dict``.
    """

    def to_dict(self) -> dict:
        return {name: _plain(getattr(self, name)) for name in self.__dataclass_fields__}

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    return value


def _frac(x: Rational, name: str) -> Fraction:
    """``x`` exactly; UsageError naming ``name`` unless a finite rational or
    float.  A bool is refused, though Fraction(True) is 1."""
    if isinstance(x, bool):
        raise UsageError(f"{name} = {x!r} is not a rational")
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise UsageError(f"{name} = {x!r} is not a rational") from None


def _float(x: Fraction, name: str) -> float:
    """``x`` as a float; DomainError naming ``name`` when it is too large."""
    try:
        return float(x)
    except OverflowError:
        exponent = math.log10(abs(x.numerator)) - math.log10(x.denominator)
        raise DomainError(f"{name} is about {'-' if x < 0 else ''}1e{exponent:.0f}, "
                          "too large for a float") from None


@dataclass(frozen=True)
class ParameterSet:
    """The dispersion constants (a, b, c, d), each made an exact rational by ``_frac``."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, _frac(getattr(self, name), name))

    @staticmethod
    def make(a: Rational, b: Rational, c: Rational, d: Rational) -> "ParameterSet":
        return ParameterSet(a, b, c, d)


def check_physical_constraint(p: ParameterSet) -> float:
    """Solve the theta-parameterization for theta, or raise ConstraintError.

    The relations are a + b = (theta^2 - 1/3)/2, c + d = (1 - theta^2)/2 >= 0
    and a + b + c + d = 1/3 with theta in [0, 1].  Returns theta.
    """
    violations = []
    total = p.a + p.b + p.c + p.d
    if total != Fraction(1, 3):
        violations.append(f"a+b+c+d = {total} != 1/3")
    theta_sq = 1 - 2 * (p.c + p.d)
    if theta_sq < 0:
        violations.append(f"c+d = {p.c + p.d} > 1/2 forces theta^2 = {theta_sq} < 0")
    if theta_sq > 1:
        violations.append(f"c+d = {p.c + p.d} < 0 violates c+d >= 0")
    if violations:
        raise ConstraintError(violations)
    return math.sqrt(float(theta_sq))


@dataclass(frozen=True)
class Branch(Record):
    """Sign selectors: tau1/tau2 for S411, pm in {top, bottom} for S412; UsageError
    unless tau1 and tau2 are each the int +1 or -1 and pm is None, top or bottom."""

    tau1: int = 1
    tau2: int = 1
    pm: Optional[str] = None

    def __post_init__(self):
        if not (type(self.tau1) is type(self.tau2) is int and self.tau1 in (1, -1)
                and self.tau2 in (1, -1) and self.pm in (None, "top", "bottom")):
            raise UsageError(f"branch {self} needs tau1 and tau2 of +1 or -1 "
                             "and pm of top, bottom or null")


@dataclass(frozen=True)
class SolutionParams(Record):
    """One solution branch: cn-series coefficients plus (lam, m, sigma).

    The JSON keys differ from the fields: ``lambda`` for ``lam``, and
    ``family_tag`` first.
    """

    j: tuple[float, float, float, float, float]
    k: tuple[float, float, float]
    lam: float
    m: float
    sigma: float
    family_tag: str
    branch: Branch = field(default_factory=Branch)
    origin: Optional[str] = None

    def profiles(self, xi) -> tuple:
        """(eta, w) at ``xi``, a float or a numpy array, from one kernel evaluation."""
        from .elliptic import eval_cn_series, jacobi_eval
        pt = jacobi_eval(self.lam * xi, self.m)
        return eval_cn_series(self.j, pt, self.lam), eval_cn_series(self.k, pt, self.lam)

    def coefficient_map(self) -> dict[str, float]:
        out = {f"j{r}": v for r, v in enumerate(self.j)}
        out.update({f"k{r}": v for r, v in enumerate(self.k)})
        out.update({"lam": self.lam, "m": self.m, "sigma": self.sigma})
        return out

    def to_dict(self) -> dict:
        return {
            "family_tag": self.family_tag,
            "branch": self.branch.to_dict(),
            "j": list(self.j),
            "k": list(self.k),
            "lambda": self.lam,
            "m": self.m,
            "sigma": self.sigma,
            "origin": self.origin,
        }

    @staticmethod
    def from_dict(data: dict) -> "SolutionParams":
        """Inverse of ``to_dict``, padding short ``j``/``k`` lists with zeros.

        UsageError for a missing key, j or k not a list, an entry of j or k,
        lambda, m or sigma that is not a JSON number (true and false are not),
        family_tag not a string, origin neither a string nor null, a nonzero
        coefficient beyond j4 or k2, a non-finite value, lam <= 0 and a branch
        selector ``Branch`` refuses; DomainError for m outside (0, 1] or
        sigma = 0, as the family builders.
        """
        if not isinstance(data, dict):
            raise UsageError("stored solution must be a JSON object")
        missing = [key for key in ("j", "k", "lambda", "m", "sigma", "family_tag")
                   if key not in data]
        if missing:
            raise UsageError(f"stored solution lacks {', '.join(missing)}")
        if not all(isinstance(data[key], list) for key in "jk"):
            raise UsageError("stored solution needs j and k as JSON arrays")
        numbers = [*data["j"], *data["k"], data["lambda"], data["m"], data["sigma"]]
        tag, origin = data["family_tag"], data.get("origin")
        if (not all(type(v) in (int, float) for v in numbers) or not isinstance(tag, str)
                or not isinstance(origin, (str, type(None)))):
            raise UsageError("stored solution needs numbers in j, k, lambda, m and sigma, "
                             "a string family_tag and a string or null origin")
        try:
            j, k = ([float(v) for v in data[key]] + [0.0] * 5 for key in "jk")
            lam, m, sigma = (float(data[key]) for key in ("lambda", "m", "sigma"))
            branch = Branch(**(data.get("branch") or {}))
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"malformed stored solution: {exc}") from None
        if any(j[5:]) or any(k[3:]):
            raise UsageError("stored solution has a nonzero coefficient beyond j4 or k2")
        if not all(map(math.isfinite, (*j, *k, lam, m, sigma))) or lam <= 0:
            raise UsageError("stored solution needs finite values and lambda > 0")
        _require_wave(lam, m, sigma)
        return SolutionParams(tuple(j[:5]), tuple(k[:3]), lam, m, sigma,
                              tag, branch, origin)


def _require_wave(lam: Optional[Rational] = None, m: Optional[Rational] = None,
                  sigma: Optional[Rational] = None) -> tuple:
    """The wave inputs of cn(lam xi, m) as exact Fractions, None passed through;
    DomainError unless m in (0, 1], lam > 0 and sigma != 0, m checked first."""
    if m is not None:
        m = _frac(m, "m")
        if m == 0:
            raise DomainError("m = 0 is excluded (the cn series degenerates to "
                              "a cosine series); need m in (0, 1]")
        if not 0 < m <= 1:
            raise DomainError(f"m = {_float(m, 'm')} outside (0, 1]")
    lam = None if lam is None else _frac(lam, "lam")
    sigma = None if sigma is None else _frac(sigma, "sigma")
    if lam is not None and lam <= 0:
        raise DomainError(f"lam must be > 0, got {_float(lam, 'lam')}")
    if sigma == 0:
        raise DomainError("sigma must be nonzero")
    return lam, m, sigma


def _require_nonzero(value: float, name: str) -> float:
    """The rounded ``value`` of a nonzero lam, m or sigma; DomainError if it is 0.0."""
    if value == 0.0:
        raise DomainError(f"{name} rounds to 0.0, too small for a float")
    return value


def _round(value, name: str, squares: Optional[dict]) -> float:
    """An exact value rounded once: a Fraction, or (q, radicals), q times the roots
    of the named ``squares``, rounded from the exact q^2 times them; 0 keeps q's sign."""
    q, radicals = value if type(value) is tuple else (value, ())
    if not radicals:
        return _float(q, name)
    root = _float(_sqrt_fraction(math.prod((squares[v] for v in radicals), start=q * q)), name)
    return root if q >= 0 else -root


def _solution(tag: str, values: dict, lam, m: Fraction, sigma,
              branch: Branch = Branch(), squares: Optional[dict] = None) -> SolutionParams:
    """The exact ``values`` of a family's nonzero j and k, lam, m and sigma
    rounded once, in that order, so an overflow names the first output too
    large for a float, and a lam, m or sigma that rounds to zero names itself."""
    out = {name: _round(value, name, squares) for name, value in values.items()}
    scalars = [_require_nonzero(_round(value, name, squares), name)
               for name, value in (("lam", lam), ("m", m), ("sigma", sigma))]
    return SolutionParams(tuple([out.get(name, 0.0) for name in ("j0", "j1", "j2", "j3", "j4")]),
                          tuple([out.get(name, 0.0) for name in ("k0", "k1", "k2")]),
                          *scalars, tag, branch)


def _s411_factors(p: ParameterSet, m: Fraction) -> tuple[Fraction, ...]:
    b, d = p.b, p.d
    return b - 6 * d, 3 * b - 2 * d, 3 * b + 2 * d, b + 2 * d, 2 * m * m - 1


def s411_formula(p: ParameterSet, m: Fraction, tau1: int = 1,
                 tau2: int = 1) -> tuple[dict, dict]:
    """S411 exactly at rational p and m: name -> (q, radicals), the value q
    times the roots of the named squares, and the squares r = R, g = G and
    lam = lam^2."""
    a, b, c, d = p.a, p.b, p.c, p.d
    d1, d2, s1, s2, ecc = _s411_factors(p, m)
    cdd = c * d1 * d2
    den = cdd * ecc
    squares = {"r": -2 * a * cdd, "g": ecc * s1 * (b - d), "lam": -6 * s1 / (4 * c * ecc * s2)}
    return {
        "j0": (-(a * s1 * (21 * b - 46 * d) + 2 * cdd) / (2 * cdd), ()),
        "j1": (-tau1 * tau2 * 12 * a * m * s1 / den, ("g",)),
        "j2": (9 * a * m * m * s1 / (c * d2 * ecc), ()),
        "k0": (tau1 * (21 * b + 8 * c + 14 * d) / (2 * cdd), ("r",)),
        "k1": (tau2 * 6 * m / den, ("r", "g")),
        "k2": (-tau1 * 9 * m * m * s1 / den, ("r",)),
        "lam": (1, ("lam",)),
        "sigma": (tau1 * 4 / (d1 * d2), ("r",)),
    }, squares


def build_s411(p: ParameterSet, m: Rational, tau1: int = 1, tau2: int = 1) -> SolutionParams:
    """Mixed-term quadratic family; sigma and lam are outputs.

    Validity: a*c*(b-6d)*(3b-2d) < 0, c*(2m^2-1)*(b+2d)*(3b+2d) < 0 and
    (2m^2-1)*(3b+2d)*(b-d) >= 0 with equality only when b = d.  Then
    ``s411_formula`` gives each output as a rational times sqrt(R), sqrt(G)
    or sqrt(RG), rounded once, where R = -2ac(b-6d)(3b-2d) > 0 and
    G = (2m^2-1)(3b+2d)(b-d) >= 0; lam^2 = -6(3b+2d) / (4c(2m^2-1)(b+2d)) > 0.
    """
    branch = Branch(tau1=tau1, tau2=tau2)
    mf = _require_wave(m=m)[1]
    a, b, c, d = p.a, p.b, p.c, p.d
    if c == 0:
        raise DomainError("family S411 requires c != 0")

    d1, d2, s1, s2, ecc = _s411_factors(p, mf)
    for val, what in ((d1, "b-6d"), (d2, "3b-2d"), (s2, "b+2d")):
        if val == 0:
            raise DomainError(f"denominator factor {what} vanishes")
    if abs(float(ecc)) < 1e-12:
        raise DomainError("2m^2-1 vanishes (m = 1/sqrt(2) is excluded here)")

    cond1 = a * c * d1 * d2
    if not cond1 < 0:
        raise DomainError("validity a*c*(b-6d)*(3b-2d) < 0 fails: "
                          f"{_float(cond1, 'a*c*(b-6d)*(3b-2d)')}")
    cond2 = c * ecc * s2 * s1
    if not cond2 < 0:
        raise DomainError(
            "validity c*(2m^2-1)*(b+2d)*(3b+2d) < 0 fails: "
            f"{_float(cond2, 'c*(2m^2-1)*(b+2d)*(3b+2d)')}")
    cond3 = ecc * s1 * (b - d)
    if cond3 < 0 or (cond3 == 0 and b != d):
        raise DomainError(
            f"validity (2m^2-1)*(3b+2d)*(b-d) >= 0 (equality only at b=d) "
            f"fails: {_float(cond3, '(2m^2-1)*(3b+2d)*(b-d)')}")

    values, squares = s411_formula(p, mf, tau1, tau2)
    lam, sigma = values.pop("lam"), values.pop("sigma")
    return _solution("S411", values, lam, mf, sigma, branch, squares)


def _sqrt_fraction(x: Fraction) -> Fraction:
    """sqrt of a nonnegative rational to ~_GUARD_BITS bits, as a Fraction.

    Needed because the field coordinates P, Q of a value P + Q sqrt(x) can
    be individually huge while the value is O(1); summing in floats would
    cancel catastrophically, so the root itself must carry spare precision.
    Its relative error is below 2^-_GUARD_BITS.
    """
    if x < 0:
        raise ValueError("negative radicand")
    n, d = x.numerator, x.denominator
    return Fraction(math.isqrt((n * d) << (2 * _GUARD_BITS)), d << _GUARD_BITS)


def s412_formula(a, b, c, d, lam, sigma, m, root):
    """S412's k2, j2, k0 and j0 exactly, each P + Q root, root = +-sqrt(disc);
    c a nonzero rational, the others rationals or polynomials."""
    sig2, b2, ac4 = sigma * sigma, b - 2 * d, 4 * a * c
    scale, e = 3 * lam * lam * m * m, 4 * c * lam * lam * (2 * m * m - 1)
    return {
        "k2": scale * (sigma * (b + 2 * d) + root),
        "j2": scale * (ac4 + b * b2 * sig2 + b * sigma * root) / (2 * c),
        "k0": -(sigma * ((b + 2 * d) * e + b2 - 4 * c) + (e + 1) * root) / (4 * c),
        "j0": -(e * (ac4 + b * b2 * sig2) - ac4 - b2 * b2 * sig2 + 8 * c * c
                + sigma * (b * e - b2) * root) / (8 * c * c),
    }


def build_s412(p: ParameterSet, lam: Rational, sigma: Rational, m: Rational,
               sign: str = "top") -> SolutionParams:
    """Even quadratic family (j1 = k1 = 0) with free lam, sigma, m.

    Validity: c != 0 and disc = 8ac + sigma^2 (b-2d)^2 > 0.  ``sign`` chooses
    the coherent top or bottom branch of the +-/-+ pairs: root = s sqrt(disc),
    s = +1 for top and -1 for bottom, to _GUARD_BITS bits, the only inexact
    step.  ``s412_formula`` gives each coefficient as an exact P + Q root,
    c = 0 its only pole, and each is rounded once.
    """
    if sign not in ("top", "bottom"):
        raise UsageError(f"sign must be 'top' or 'bottom', got {sign!r}")
    if p.c == 0:
        raise DomainError("family S412 requires c != 0")
    lam, m, sigma = _require_wave(lam, m, sigma)
    a, b, c, d = p.a, p.b, p.c, p.d
    disc = 8 * a * c + sigma * sigma * (b - 2 * d) ** 2
    if not disc > 0:
        raise DomainError("validity 8ac + sigma^2 (b-2d)^2 > 0 fails: "
                          f"{_float(disc, '8ac + sigma^2 (b-2d)^2')}")
    root = (1 if sign == "top" else -1) * _sqrt_fraction(disc)
    return _solution("S412", s412_formula(a, b, c, d, lam, sigma, m, root),
                     lam, m, sigma, Branch(pm=sign))


def s421_formula(a, b, d, lam, sigma, m):
    """S421's j0, j2, j4, k0 and k2 exactly; b, d and sigma rationals with
    4b != d and sigma != 0, a, lam and m rationals or polynomials."""
    q, pfac = 4 * b - d, 5 * b - 3 * d
    lam2, m2, sig2 = lam * lam, m * m, sigma * sigma
    ecc = 2 * m2 - 1
    # leading coefficient -8: solving the reduced coefficient system pins it
    # (a -32 here fails the residual check by O(1))
    return {
        "j0": (-8 * b * lam2**2 * sig2**2 * q**2 * pfac * (11 * m2**2 - 11 * m2 - 4)
               + 3 * sig2 * q * (3 * d - 4 * b * (3 + 5 * a * lam2 * ecc))
               + 9 * a * a) / (9 * sig2 * q * q),
        "j2": 20 * b * lam2 * m2 * (3 * a + 4 * lam2 * sig2 * q * pfac * ecc) / (3 * q),
        "j4": -40 * b * lam2**2 * m2**2 * sig2 * pfac,
        "k0": (-3 * a + sig2 * q * (3 - 20 * b * lam2 * ecc)) / (3 * sigma * q),
        "k2": 20 * b * lam2 * m2 * sigma,
    }


def build_s421(p: ParameterSet, lam: Rational, sigma: Rational, m: Rational) -> SolutionParams:
    """Quartic-eta family for the c = 0 case, 4b != d: ``s421_formula`` rounded once."""
    if p.c != 0:
        raise DomainError("family S421 requires c = 0")
    if 4 * p.b == p.d:
        raise DomainError("family S421 requires 4b - d != 0")
    lamf, mf, sigf = _require_wave(lam, m, sigma)
    return _solution("S421", s421_formula(p.a, p.b, p.d, lamf, sigf, mf), lamf, mf, sigf)


def s422_formula(a, b, d, lam, sigma, m):
    """S422's j0, j2, k0 and k2 exactly; b, d and sigma rationals with
    b != 2d and sigma != 0, a, lam and m rationals or polynomials."""
    lam2, m2, sig2 = lam * lam, m * m, sigma * sigma
    b2, ecc = b - 2 * d, 2 * m2 - 1
    return {
        "j0": (a * a - sig2 * b2 * (b - 2 * d * (1 + 2 * a * lam2 * ecc))) / (sig2 * b2 * b2),
        "j2": -12 * a * d * lam2 * m2 / b2,
        "k0": (a + sig2 * b2 * (1 - 4 * d * lam2 * ecc)) / (sigma * b2),
        "k2": 12 * d * lam2 * m2 * sigma,
    }


def build_s422(p: ParameterSet, lam: Rational, sigma: Rational, m: Rational) -> SolutionParams:
    """Even quadratic family for the c = 0 case, b != 2d: ``s422_formula`` rounded once."""
    if p.c != 0:
        raise DomainError("family S422 requires c = 0")
    if p.b == 2 * p.d:
        raise DomainError("family S422 requires b - 2d != 0")
    lamf, mf, sigf = _require_wave(lam, m, sigma)
    return _solution("S422", s422_formula(p.a, p.b, p.d, lamf, sigf, mf), lamf, mf, sigf)


def s43_formula(d, lam, sigma, m):
    """S43's j0 = -1, k0 and k2 exactly; each input a rational or a polynomial."""
    lam2, m2 = lam * lam, m * m
    return {"j0": -1, "k0": -8 * d * lam2 * m2 * sigma + 4 * d * lam2 * sigma + sigma,
            "k2": 12 * d * lam2 * m2 * sigma}


def build_s43(d: Rational, lam: Rational, sigma: Rational, m: Rational, *,
              a: Rational = 0) -> SolutionParams:
    """Semi-trivial family eta = -1, a = 0: ``s43_formula`` rounded once.

    At eta = -1 the first equation's residual is exactly a*w''', and b and
    c multiply derivatives of the constant eta, so they play no part.
    """
    if _frac(a, "a") != 0:
        raise DomainError("family S43 requires a = 0 (at eta = -1 the first "
                          "equation's residual is a*w''')")
    df = _frac(d, "d")
    lamf, mf, sigf = _require_wave(lam, m, sigma)
    return _solution("S43", s43_formula(df, lamf, sigf, mf), lamf, mf, sigf)


# set label: the family's builder.  The family tag is "S" plus the label's
# digits ("4.1.2" -> "S412").  A builder's parameter names are the CLI flag
# names of its inputs (p is the ParameterSet), so the CLI passes them by
# keyword.
FAMILIES = {
    "4.1.1": build_s411,
    "4.1.2": build_s412,
    "4.2.1": build_s421,
    "4.2.2": build_s422,
    "4.3": build_s43,
}


def build_family(tag: str, *args, **kwargs) -> SolutionParams:
    """Dispatch on a family tag ("S412") or set label ("4.1.2")."""
    for label, builder in FAMILIES.items():
        if tag in (label, "S" + label.replace(".", "")):
            return builder(*args, **kwargs)
    raise UsageError(f"unknown family {tag!r}")


def m1_limit(tag: str, *args, **kwargs) -> SolutionParams:
    """Evaluate a family at m = 1: cn degenerates to sech.

    The returned coefficients describe the solitary profile
    eta = j0 + j1 sech + j2 sech^2 (+ j4 sech^4), w analogous; evaluation
    goes through the same cn machinery since cn(., 1) = sech.  The family
    validity predicate is checked at m = 1 and DomainError propagates.
    """
    kwargs = dict(kwargs)
    kwargs["m"] = 1
    sol = build_family(tag, *args, **kwargs)
    return SolutionParams(
        sol.j, sol.k, sol.lam, 1.0, sol.sigma,
        "SolitaryLimit", sol.branch, origin=sol.family_tag,
    )
