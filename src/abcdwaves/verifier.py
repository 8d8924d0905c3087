"""Ground-truth checks on solution branches.

``ode_residual`` evaluates the two moving-frame equations directly through
the elliptic kernel (closed-form cn-power derivatives, never numerical
differentiation and never the symbolic engine), one array call per sample
grid, so a bug in the family formulas or the solver cannot cancel against
a bug in the algebra.
Residuals are reported relative to the largest individual term magnitude:
coefficient sizes vary over orders of magnitude between parameter sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .elliptic import complete_k, eval_cn_series, jacobi_eval
from .errors import DomainError, UsageError
from .families import (
    ParameterSet,
    Record,
    SolutionParams,
    _float,
    _frac,
    build_s412,
    build_s422,
    build_s43,
    build_family,
    m1_limit,
)

_PERIOD_POINTS = 128      # grid points of periodicity_check's shifts


@dataclass(frozen=True)
class ResidualReport(Record):
    max_abs_eq1: float
    max_abs_eq2: float
    scale: float
    relative: float
    n_samples: int
    period: Optional[float]


def _sample_points(s: SolutionParams, n_samples: int) -> tuple[np.ndarray, Optional[float]]:
    """One full period for m < 1 plus its quarter points; a wide window at m = 1."""
    if s.m < 1.0:
        quarter = complete_k(s.m) / s.lam
        period = 4.0 * quarter
        xs = np.concatenate((period * np.arange(n_samples) / n_samples,
                             quarter * np.arange(4)))
        return xs, period
    half_width = 12.0 / s.lam
    xs = -half_width + 2.0 * half_width * np.arange(n_samples) / (n_samples - 1)
    return np.append(xs, 0.0), None


def ode_residual(s: SolutionParams, p: ParameterSet, n_samples: int = 1024) -> ResidualReport:
    """Residual of both traveling-wave equations over one period.

    Samples n_samples (>= 64) points plus the four quarter-period points;
    ``relative`` is max residual over the largest individual term seen.
    A constant pair gives residual exactly zero; DomainError on float overflow.
    Float sums cancel on a large state: S412 at |c| ~ 1e-8 (j0 ~ 1e16) reads up to ~8e-8.
    """
    if n_samples < 64:
        raise UsageError(f"n_samples must be >= 64, got {n_samples}")
    a, b, c, d = (_float(getattr(p, name), name) for name in "abcd")
    sig = s.sigma
    xs, period = _sample_points(s, n_samples)
    pt = jacobi_eval(s.lam * xs, s.m)
    eta, d1_eta, d3_eta = (eval_cn_series(s.j, pt, s.lam, k) for k in (0, 1, 3))
    w, d1_w, d3_w = (eval_cn_series(s.k, pt, s.lam, k) for k in (0, 1, 3))

    with np.errstate(over="ignore", invalid="ignore"):
        terms1 = (-sig * d1_eta, d1_w, d1_eta * w + eta * d1_w, a * d3_w, b * sig * d3_eta)
        terms2 = (-sig * d1_w, d1_eta, w * d1_w, c * d3_eta, d * sig * d3_w)
        max1 = float(np.max(np.abs(sum(terms1))))
        max2 = float(np.max(np.abs(sum(terms2))))
    scale = float(max(np.max(np.abs(t)) for t in terms1 + terms2))
    # a term that is not finite leaves its equation's sum not finite
    if not (math.isfinite(max1) and math.isfinite(max2)):
        raise DomainError(f"residual terms overflow a float (largest term {scale:.3g}, "
                          f"largest sums {max1:.3g} and {max2:.3g})")
    relative = max(max1, max2) / scale if scale > 0.0 else 0.0
    return ResidualReport(max1, max2, scale, relative, len(xs), period)


@dataclass(frozen=True)
class PeriodicityReport(Record):
    defect: float
    period: float
    half_period: bool
    half_defect: float


def periodicity_check(s: SolutionParams) -> PeriodicityReport:
    """Shift defect over one full period T = 4K(m)/lam, at _PERIOD_POINTS
    points of it, and whether T/2 is also a period (true when only even cn
    powers are present)."""
    if s.m >= 1.0:
        raise DomainError("no finite period at m = 1")
    period = 4.0 * complete_k(s.m) / s.lam
    xs = period * np.arange(_PERIOD_POINTS) / _PERIOD_POINTS

    # one kernel call on the three grids; it works elementwise, so the
    # values are those of three separate calls
    eta, w = s.profiles(np.concatenate([xs, xs + period, xs + 0.5 * period]))
    eta0, eta1, eta_h = np.split(eta, 3)
    w0, w1, w_h = np.split(w, 3)
    defect = float(np.max(np.abs(eta1 - eta0) + np.abs(w1 - w0)))
    half_defect = float(np.max(np.abs(eta_h - eta0) + np.abs(w_h - w0)))
    amplitude = float(np.max(np.maximum(np.abs(eta0), np.abs(w0))))
    half_period = half_defect <= 1e-9 * max(1.0, amplitude)
    return PeriodicityReport(defect, period, half_period, half_defect)


def bbm_reduction_check(s: SolutionParams, d, *, c_probe=Fraction(7, 10),
                        n_samples: int = 1024) -> ResidualReport:
    """Residual check for the single-equation reduction at eta = -1, a = b = 0.

    With eta constant the first equation collapses to w' - w' = 0 and the
    second to -sigma w' + w w' + d sigma w''' = 0 (the eta''' term is inert,
    so ``c_probe`` is arbitrary).  UsageError for non-semi-trivial input.
    """
    flat_eta = s.j[0] == -1.0 and all(v == 0.0 for v in s.j[1:])
    if not (flat_eta and s.k[1] == 0.0):
        raise UsageError("expected a semi-trivial solution with eta = -1 and k1 = 0")
    p_eff = ParameterSet.make(0, 0, c_probe, d)
    return ode_residual(s, p_eff, n_samples)


@dataclass(frozen=True)
class ConvergenceTable(Record):
    kind: str
    parameter: str
    values: tuple[float, ...]
    diffs: tuple[float, ...]
    orders: tuple[float, ...]
    monotone: bool
    target: dict


def _coef_diff(s1: SolutionParams, s2: SolutionParams) -> float:
    diffs = [abs(x - y) for x, y in zip(s1.j, s2.j)]
    diffs += [abs(x - y) for x, y in zip(s1.k, s2.k)]
    return max(diffs)


def _empirical_orders(values: Sequence[float], diffs: Sequence[float]) -> tuple[float, ...]:
    orders = []
    for i in range(len(values) - 1):
        if diffs[i] > 0 and diffs[i + 1] > 0 and values[i] != values[i + 1]:
            orders.append(
                math.log(diffs[i + 1] / diffs[i]) / math.log(values[i + 1] / values[i])
            )
        else:
            orders.append(float("nan"))
    return tuple(orders)


def _convergence_table(kind: str, parameter: str, values: tuple[float, ...],
                       diffs: tuple[float, ...], target: SolutionParams
                       ) -> ConvergenceTable:
    monotone = all(diffs[i + 1] <= diffs[i] for i in range(len(diffs) - 1))
    return ConvergenceTable(kind, parameter, values, diffs,
                            _empirical_orders(values, diffs), monotone,
                            target.to_dict())


def limit_c_to_zero(a, b, d, lam, sigma, m) -> ConvergenceTable:
    """Bottom-branch S412 -> S422 at c = 1e-3 .. 1e-8; requires the side
    condition sigma*(b-2d) > 0."""
    side = float(_frac(sigma, "sigma") * (_frac(b, "b") - 2 * _frac(d, "d")))
    if not side > 0:
        raise DomainError(
            f"side condition sigma*(b-2d) > 0 fails (value {side})")
    cs = tuple(10.0 ** -k for k in range(3, 9))
    target = build_s422(ParameterSet.make(a, b, 0, d), lam, sigma, m)
    diffs = tuple(_coef_diff(build_s412(ParameterSet.make(a, b, c, d),
                                        lam, sigma, m, sign="bottom"), target)
                  for c in cs)
    return _convergence_table("c_to_zero", "c", cs, diffs, target)


def limit_a_to_zero(b, d, lam, sigma, m) -> ConvergenceTable:
    """S422 at a = 0 against S43 (single row; exact)."""
    sol = build_s422(ParameterSet.make(0, b, 0, d), lam, sigma, m)
    target = build_s43(d, lam, sigma, m)
    return _convergence_table("a_to_zero", "a", (0.0,), (_coef_diff(sol, target),),
                              target)


def limit_m_to_one(family: str, **builder_args) -> ConvergenceTable:
    """Family coefficients at m = 1 - 1e-1 .. 1 - 1e-8 against the m = 1
    evaluation; ``builder_args`` are the family builder's arguments by
    name, m left out."""
    ms = tuple(1.0 - 10.0 ** -k for k in range(1, 9))
    target = m1_limit(family, **builder_args)
    diffs = tuple(_coef_diff(build_family(family, m=m, **builder_args), target)
                  for m in ms)
    return _convergence_table("m_to_one", "1-m", tuple(1.0 - m for m in ms),
                              diffs, target)
