"""Jacobi elliptic functions and the complete elliptic integral K.

Everything here uses the *modulus* convention: the parameter ``m`` is the
elliptic modulus itself, so it enters every identity squared, e.g.

    dn^2(v, m) = 1 - m^2 + m^2 cn^2(v, m).

Libraries that take the *parameter* (the square of the modulus) need the
conversion ``parameter = m**2`` exactly once at the boundary.

Evaluation is by the arithmetic-geometric mean (AGM), whose cached table
also gives K, and Bulirsch's descending-Landen sncndn (Numer. Math. 7,
1965; DLMF 22.20(ii)): one sine and one cosine per argument, then only
multiplies, adds and divides back up the AGM table.  Against 40-digit
mpmath its worst absolute error on sn, cn and dn is 4.3e-15 for m from
0.05 to 1 - 1e-6.  The degenerate ends use the closed forms
cn(v, 0) = cos v and cn(v, 1) = sech v.  All functions are pure and safe
for concurrent use.  The kernel and the cn-series evaluator take a float
or a numpy array of arguments, so a whole sample grid is one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, UsageError

_AGM_TOL = 1e-15
_AGM_MAX_ITER = 64
# The 4K reduction keeps an absolute accuracy of only about |v| * 1e-15
# (cn(1e16, 0.5) has no correct digit, cn(1e12, 0.5) is off by 6e-6), so
# arguments beyond this many periods are refused rather than answered.
_MAX_PERIODS = 2.0 ** 16

Real = Union[float, np.ndarray]


@dataclass(frozen=True)
class JacobiPoint:
    """Values of (sn, cn, dn) for modulus ``m``: floats at one elliptic
    argument, arrays of its shape at an array of arguments.  Satisfies
    sn^2 + cn^2 = 1 and dn^2 = 1 - m^2 + m^2 cn^2 to rounding.
    """

    m: float
    sn: Real
    cn: Real
    dn: Real


def _check_modulus(m: float, *, allow_one: bool) -> float:
    m = float(m)
    if not math.isfinite(m) or m < 0.0 or m > 1.0:
        raise DomainError(f"modulus m={m!r} outside [0, 1]")
    if m == 1.0 and not allow_one:
        raise DomainError("K(m) diverges logarithmically as m -> 1")
    return m


@lru_cache(maxsize=512)
def _agm_tables(m: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Descending AGM scale (a_n, b_n), n = 0..N, for modulus m in [0, 1):
    a_0 = 1, b_0 = sqrt(1 - m^2), stopped once c_N = (a_{N-1} - b_{N-1})/2
    is below _AGM_TOL."""
    a_seq = [1.0]
    b_seq = [math.sqrt((1.0 - m) * (1.0 + m))]
    c = m
    while abs(c) > _AGM_TOL and len(a_seq) < _AGM_MAX_ITER:
        a_prev, b_prev = a_seq[-1], b_seq[-1]
        a_seq.append(0.5 * (a_prev + b_prev))
        c = 0.5 * (a_prev - b_prev)
        b_seq.append(math.sqrt(a_prev * b_prev))
    return tuple(a_seq), tuple(b_seq)


def complete_k(m: float) -> float:
    """Complete elliptic integral K(m) = int_0^{pi/2} dt / sqrt(1 - m^2 sin^2 t).

    Computed by the AGM iteration, K = pi / (2 agm(1, sqrt(1-m^2))), to
    relative accuracy ~1e-15.  Requires 0 <= m < 1; m = 1 raises
    DomainError because the integral diverges.
    """
    m = _check_modulus(m, allow_one=False)
    a_seq, _ = _agm_tables(m)
    return math.pi / (2.0 * a_seq[-1])


def jacobi_eval(v: Real, m: float) -> JacobiPoint:
    """Evaluate (sn, cn, dn) at (v, m) with the modulus convention.

    ``v`` is a float or a numpy array of arguments, every one finite
    (DomainError otherwise); the returned point holds floats for a scalar
    ``v`` and arrays of the shape of ``v`` for an array.  The argument is
    first reduced modulo the period 4K(m) (for 0 < m < 1), then Bulirsch's
    sncndn climbs the AGM table from one sine and one cosine; for 0 < m < 1
    an argument beyond 2**16 periods raises DomainError.  m = 0 and m = 1
    use the trigonometric / hyperbolic closed forms.
    """
    x = np.asarray(v, dtype=float)
    x_max = float(np.abs(x).max(initial=0.0))     # NaN if any argument is NaN
    if not math.isfinite(x_max):
        raise DomainError(f"elliptic argument v={v!r} must be finite")
    m = _check_modulus(m, allow_one=True)

    if m == 0.0:
        sn, cn, dn = np.sin(x), np.cos(x), np.ones_like(x)
    elif m == 1.0:
        with np.errstate(over="ignore"):    # cosh overflows past |v| ~ 710: sech = 0
            sech = 1.0 / np.cosh(x)
        sn, cn, dn = np.tanh(x), sech, sech
    else:
        # Reduce into [-2K, 2K], exact up to the rounding of the reduction; the
        # + 0.0 turns a quotient of -0.0 into +0.0, so that u(-0.0) = -0.0.
        period = 4.0 * complete_k(m)
        if x_max > _MAX_PERIODS * period:
            raise DomainError(f"elliptic argument beyond {_MAX_PERIODS:.0f} periods "
                              f"4K(m) = {period!r}: the reduction loses accuracy")
        a_seq, b_seq = _agm_tables(m)
        u = x - period * (np.rint(x / period) + 0.0)
        sin_u, cos_u = np.sin(a_seq[-1] * u), np.cos(a_seq[-1] * u)
        # Bulirsch's sncndn at |u|: c = a_N cot(a_N |u|) climbs the AGM table
        # to cot(am |u|), and each level's dn follows from c^2 alone.  Where
        # |sin| < 1e-150, u is so small that sn = u to rounding; the clamp
        # keeps c^2 at most 1e300 there and the result is (u, cos, 1).
        abs_sin = np.abs(sin_u)
        tiny = abs_sin < 1e-150
        c = a_seq[-1] * cos_u / np.maximum(abs_sin, 1e-150)
        dn = 1.0
        for n in range(len(a_seq) - 2, -1, -1):
            cc = c * c
            c *= dn
            dn = (b_seq[n] * a_seq[n + 1] + cc) / (a_seq[n] * a_seq[n + 1] + cc)
        sn = 1.0 / np.sqrt(c * c + 1.0)
        cn = c * sn
        sn = np.where(tiny, u, np.copysign(sn, sin_u))
        cn, dn = np.where(tiny, cos_u, cn), np.where(tiny, 1.0, dn)

    if x.ndim == 0:
        return JacobiPoint(m, float(sn), float(cn), float(dn))
    return JacobiPoint(m, sn, cn, dn)


def _series_poly(coeffs: Sequence[float], lam: float, msq: float, order: int) -> list[float]:
    """Coefficients in cn, lowest power first, of the order-th xi-derivative
    of sum_r coeffs[r] cn^r(lam*xi, m), without the sn*dn factor of the odd
    orders; msq = m^2."""
    poly = [0.0] * (len(coeffs) + (0, -1, 2, 1)[order])

    def add(q: int, value: float) -> None:
        if q >= 0:          # a negative power only enters with a zero factor
            poly[q] += value

    for r, coef in enumerate(coeffs):
        if not coef:
            continue
        if order == 0:
            add(r, coef)
        elif order == 1:
            add(r - 1, -r * lam * coef)
        elif order == 2:
            f = -r * lam * lam * coef
            add(r + 2, f * (r + 1) * msq)
            add(r, f * r * (1.0 - 2.0 * msq))
            add(r - 2, f * (r - 1) * (msq - 1.0))
        else:
            f = r * lam ** 3 * coef
            add(r + 1, f * (r + 1) * (r + 2) * msq)
            add(r - 1, f * r * r * (1.0 - 2.0 * msq))
            add(r - 3, f * (r - 1) * (r - 2) * (msq - 1.0))
    return poly


def eval_cn_series(coeffs: Sequence[float], pt: JacobiPoint, lam: float,
                   order: int = 0) -> Real:
    """d^order/dxi^order of sum_r coeffs[r] cn^r(lam*xi, m), by closed formula.

    ``pt`` is the Jacobi point at v = lam*xi, scalar or array; the result
    has its shape.  ``order`` is 0 (the series itself), 1, 2 or 3.  Each
    order is one polynomial in cn, its float coefficients folded from the
    closed forms and evaluated by Horner; orders 1 and 3 carry the sn*dn
    prefactor.
    """
    if order not in (0, 1, 2, 3):
        raise UsageError(f"derivative order must be 0, 1, 2 or 3, got {order!r}")
    poly = _series_poly(coeffs, lam, pt.m * pt.m, order)
    total = np.full(np.shape(pt.cn), poly[-1] if poly else 0.0)
    for coef in poly[-2::-1]:
        total *= pt.cn
        total += coef
    if order % 2:
        total *= pt.sn * pt.dn
    return total if total.ndim else float(total)

