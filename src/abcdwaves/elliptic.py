"""Jacobi elliptic functions and the complete elliptic integral K.

Everything here uses the *modulus* convention: the parameter ``m`` is the
elliptic modulus itself, so it enters every identity squared, e.g.

    dn^2(v, m) = 1 - m^2 + m^2 cn^2(v, m).

Libraries that take the *parameter* (the square of the modulus) need the
conversion ``parameter = m**2`` exactly once at the boundary.

Evaluation is by the arithmetic-geometric mean (AGM) with the descending
amplitude recursion (DLMF 22.20(ii)); the degenerate ends use the closed
forms cn(v, 0) = cos v and cn(v, 1) = sech v.  All functions are pure and
safe for concurrent use.  The kernel and the cn-series evaluator take a
float or a numpy array of arguments, so a whole sample grid is one call.
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
    """Descending AGM scale (a_n, c_n) for modulus m in [0, 1)."""
    a_seq = [1.0]
    c_seq = [m]
    b = math.sqrt((1.0 - m) * (1.0 + m))
    while abs(c_seq[-1]) > _AGM_TOL and len(a_seq) < _AGM_MAX_ITER:
        a_prev = a_seq[-1]
        a_seq.append(0.5 * (a_prev + b))
        c_seq.append(0.5 * (a_prev - b))
        b = math.sqrt(a_prev * b)
    return tuple(a_seq), tuple(c_seq)


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
    first reduced modulo the period 4K(m) (for 0 < m < 1), then the
    descending AGM amplitude recursion is applied; for 0 < m < 1 an
    argument beyond 2**16 periods raises DomainError.  m = 0 and m = 1 use
    the trigonometric / hyperbolic closed forms.
    """
    x = np.asarray(v, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError(f"elliptic argument v={v!r} must be finite")
    m = _check_modulus(m, allow_one=True)

    if m == 0.0:
        sn, cn, dn = np.sin(x), np.cos(x), np.ones_like(x)
    elif m == 1.0:
        with np.errstate(over="ignore"):    # cosh overflows past |v| ~ 710: sech = 0
            sech = 1.0 / np.cosh(x)
        sn, cn, dn = np.tanh(x), sech, sech
    else:
        # Reduce into [-2K, 2K]; cn/sn/dn are 4K-periodic so this is exact
        # up to rounding of the reduction itself.
        period = 4.0 * complete_k(m)
        if np.max(np.abs(x), initial=0.0) > _MAX_PERIODS * period:
            raise DomainError(f"elliptic argument beyond {_MAX_PERIODS:.0f} periods "
                              f"4K(m) = {period!r}: the reduction loses accuracy")
        a_seq, c_seq = _agm_tables(m)
        n = len(a_seq) - 1
        phi = (2.0 ** n) * a_seq[n] * (x - period * np.rint(x / period))
        for i in range(n, 0, -1):
            s = np.minimum(np.maximum(c_seq[i] / a_seq[i] * np.sin(phi), -1.0), 1.0)
            phi = 0.5 * (phi + np.arcsin(s))
        sn, cn = np.sin(phi), np.cos(phi)
        msn = m * sn
        dn = np.sqrt(np.maximum(1.0 - msn * msn, 0.0))

    if x.ndim == 0:
        return JacobiPoint(m, float(sn), float(cn), float(dn))
    return JacobiPoint(m, sn, cn, dn)


def eval_cn_series(coeffs: Sequence[float], pt: JacobiPoint, lam: float,
                   order: int = 0) -> Real:
    """d^order/dxi^order of sum_r coeffs[r] cn^r(lam*xi, m), by closed formula.

    ``pt`` is the Jacobi point at v = lam*xi, scalar or array; the result
    has its shape.  ``order`` is 0 (the series itself), 1, 2 or 3; orders
    1 and 3 carry the sn*dn prefactor, order 2 is a pure cn polynomial.
    """
    if order not in (0, 1, 2, 3):
        raise UsageError(f"derivative order must be 0, 1, 2 or 3, got {order!r}")
    cn, sn, dn, msq = pt.cn, pt.sn, pt.dn, pt.m * pt.m
    # cn^q by repeated multiplication; the negative powers named below only
    # enter terms with a zero factor, so they are stored as 0
    cnp = {-3: 0.0, -2: 0.0, -1: 0.0, 0: 1.0}
    for q in range(1, len(coeffs) + 2):
        cnp[q] = cnp[q - 1] * cn
    total = np.zeros(np.shape(cn))
    for r, coef in enumerate(coeffs):
        if not coef:
            continue
        if order == 0:
            term = cnp[r]
        elif order == 1:
            term = -r * lam * cnp[r - 1] * sn * dn
        elif order == 2:
            term = -r * lam * lam * ((r + 1) * msq * cnp[r + 2]
                                     + r * (1.0 - 2.0 * msq) * cnp[r]
                                     + (r - 1) * (msq - 1.0) * cnp[r - 2])
        else:
            term = r * lam ** 3 * sn * dn * ((r + 1) * (r + 2) * msq * cnp[r + 1]
                                             + r * r * (1.0 - 2.0 * msq) * cnp[r - 1]
                                             + (r - 1) * (r - 2) * (msq - 1.0) * cnp[r - 3])
        total = total + coef * term
    return total if total.ndim else float(total)


def cn_power_derivative(r: int, order: int, lam: float, m: float, xi: Real) -> Real:
    """d^order/dxi^order of cn^r(lam*xi, m), by closed formula.

    ``order`` must be 1, 2 or 3 (UsageError otherwise); ``r`` must be a
    positive integer.  ``xi`` is a float or a numpy array.
    """
    r = int(r)
    if r < 1:
        raise UsageError(f"cn power r must be >= 1, got {r!r}")
    if order not in (1, 2, 3):
        raise UsageError(f"derivative order must be 1, 2 or 3, got {order!r}")
    lam = float(lam)
    return eval_cn_series((0.0,) * r + (1.0,), jacobi_eval(lam * xi, m), lam, order)
