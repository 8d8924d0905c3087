"""Numerical rediscovery of solution branches.

A symbolic coefficient system is pinned (exact substitution of chosen
values), compiled to vectorized evaluators with the exact polynomial
Jacobian, and solved by damped Newton with a backtracking line search on
||h||^2.  Overdetermined systems (more equations than unknowns, which is
the normal situation here since the pinned systems carry structural
redundancy) take Gauss-Newton least-squares steps and a root is accepted
only at ||h||_inf <= 1e-12, so consistency of the redundant equations is
verified rather than assumed.  The step is a Householder QR solve on the
rows whose R factor shows that the pseudoinverse's cutoff would drop no
singular value (kappa_1(R) <= 1 / (2 n rcond), with n unknowns and
rcond = 1e-14) and the pseudoinverse step on every other row.  The QR and
R^-1 run vectorized across the rows, with the row index last and scaled
column norms, so no LAPACK call is made per row; the Jacobian comes from
its evaluator already row-last.

One batched engine serves multistart and solve_newton (a one-row batch).
Its state is row-last, X (n, rows) and h (m, rows), so every per-row
test is one reduction across rows; only the sums of squares of the
Armijo test and the pseudoinverse product run on row-major copies, whose
contiguous rows einsum sums in its own order.  It tries the steps 1,
1/2, ... down to 1e-14, but below 2**-30 only while the step still moves
x by more than 2**-40 of max(||x||_inf, 1); a row that accepts none of
them stops as "stalled" at its last iterate.
One rule, applied before each step and after the last, ends a row as
converged (||h||_inf <= 1e-12 and x finite, even past the escape radius)
or else overflow (h non-finite or ||x||_inf >= 1e7; solve_newton's radius
is 1e7 * max(1, ||seed||_inf)); the others end stalled or budget (max_iter
spent).  Rank-deficient Jacobians (continua of roots) need no special
case: there the pseudoinverse step is the minimum-norm Gauss-Newton step.

Polynomials are evaluated on whole batches, term-major: a table of
integer powers holds one row per power of an unknown, and each monomial
multiplies only the table rows of its nonzero exponents, in variable
order, which gives the same bits as a product over all unknowns (the
factors left out are exact ones).  A polynomial's value is its terms, in
monomial order, summed left to right, and np.nan where that sum is NaN;
one vector add per term position serves every polynomial that has a term
there, so each row gets the same bits in a batch of any width.  A row's
residual is evaluated once at its start; after that the line search's
residual at the accepted step serves as the residual of the next iterate
and of its stop-reason test.  A row's line search first tries, in one
pass, every step down to the one it accepted last time; the accepted step
does not depend on that.

Multistart sampling is log-uniform in magnitude with random sign,
deterministic for a fixed seed; roots are sorted before deduplication so
the returned BranchSet is reproducible bit-for-bit.  Deduplication gives
the result of comparing every root with every kept representative, but
compares a root only with a window of representatives whose first
coordinate is close enough below its own to match it or a later root; a
root that no earlier root reaches is kept without any array work.
Classification is one array pass over the kept roots.  The BranchSet
keeps the kept roots as the arrays dedup and classification give, and
writes its JSON from them; RootRecords are built only for the roots a
caller reads.  Its RunStats come from the engine; the seconds stay in the
engine's and multistart's DEBUG records.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .cnexpr import CoefficientSystem, build_named_system
from .errors import UnderdeterminedError, UsageError
from .families import (Branch, Rational, Record, SolutionParams, _float, _frac,
                       _require_nonzero, _require_wave)
from .ratpoly import RationalPoly, var_sort_key
from .reduction import AnsatzShape

logger = logging.getLogger(__name__)

_ZERO_TOL = 1e-8          # zero-pattern threshold for root classification
_DEDUP_REL = 1e-6
_DEDUP_ABS = 1e-9
_SIGMA_TOL = 1e-10
_EVAL_ROWS = 512
_TOL = 1e-12                # a root needs ||h||_inf <= _TOL
_RCOND = 1e-14              # pinv's cutoff, relative to the largest singular value
_ARMIJO = 1e-4              # sufficient-decrease factor of the line search
_MIN_STEP = 1e-14           # smallest line-search step factor
_SWEEP_MAX_ITER = 80        # Newton budget of the non-existence sweeps
_DELTA = 1e-3               # non-existence sweeps: |pinned value| >= _DELTA
_STALL_FLOOR = 2.0 ** -30   # batch line search: below this step factor ...
_STALL_MOVE = 2.0 ** -40    # ... a step must move x by more than this, relative
_ESCAPE = 1e7               # multistart iterates this large never return to
                            # figure-scale roots
# the line search's step factors 1, 1/2, ..., 2**-49, their Armijo factors
# and their negatives (ascending, for searchsorted), computed in Python
# floats: the same values by numpy ufuncs raised the peak RSS of a process
# that imports the solver by about 0.1-0.2 MB
_STEPS = np.array([0.5 ** k for k in range(50)])
_ARMIJO_FACTORS = np.array([1 - _ARMIJO * step for step in _STEPS.tolist()])
_NEG_STEPS = np.array([-step for step in _STEPS.tolist()])
_STOP_REASONS = ("converged", "overflow", "stalled", "budget")
# the Newton engine's int8 stop codes: indices into _STOP_REASONS
_CONVERGED, _OVERFLOW, _STALLED, _BUDGET = range(len(_STOP_REASONS))


class _Compiled(NamedTuple):
    """Polynomials compiled for term-major batch evaluation (see _compile)."""

    coeffs: np.ndarray      # (T, 1) each term's coefficient, in layout order
    cols: np.ndarray        # (W, T) power-table rows of each term's factors
    e_max: int
    counts: tuple           # how many polynomials have a term at each position
    sums: np.ndarray        # (P,) the layout row that ends up holding each sum


def _compile(polys: Sequence[RationalPoly], unknowns: Sequence[str]) -> _Compiled:
    """Compile every polynomial's terms for _eval_polys.

    Row 0 of a batch's power table is x^0 = 1 and row (e - 1) * n + i + 1 is
    x_i^e (n unknowns, 1 <= e <= e_max; e_max >= 1 even when every
    polynomial is constant, so the table always holds the unknowns
    themselves).  cols[:, t] lists the table rows of term t's nonzero
    exponents in variable order, padded with row 0 to the widest monomial.
    The terms are laid out term by term, with the polynomials sorted by
    falling term count: block t holds term t of the counts[t] polynomials
    that have one, and they are the first counts[t] rows of block 0, where
    each sum ends up.  A coefficient too large for a float is a DomainError.
    """
    index = {name: i for i, name in enumerate(unknowns)}
    n = len(unknowns)
    segments = []
    for poly in polys:
        segments.append([
            (_float(coef, "a coefficient of the pinned system"),
             [(exp - 1) * n + index[name] + 1
              for name, exp in sorted(mono, key=lambda f: index[f[0]])])
            for mono, coef in sorted(poly.terms.items())] or [(0.0, [])])
    by_length = sorted(range(len(segments)), key=lambda p: -len(segments[p]))
    counts = tuple(sum(len(seg) > t for seg in segments)
                   for t in range(len(segments[by_length[0]])))
    layout = [segments[p][t] for t, k in enumerate(counts) for p in by_length[:k]]
    width = max(1, max(len(c) for _, c in layout))
    cols = np.array([c + [0] * (width - len(c)) for _, c in layout], dtype=np.intp)
    e_max = max((exp for p in polys for mono in p.terms for _, exp in mono),
                default=1)
    return _Compiled(np.array([[coef] for coef, _ in layout]),
                     np.ascontiguousarray(cols.T), e_max, counts,
                     np.argsort(by_length))


def _terms(compiled: _Compiled, X: np.ndarray) -> np.ndarray:
    """Every term at every row of X (n, rows): a (terms, rows) array in layout order."""
    n, B = X.shape
    e_max = compiled.e_max
    # power table: integer powers via repeated multiplication beat float
    # pow by an order of magnitude on these small exponents
    table = np.empty((1 + e_max * n, B))
    table[0] = 1.0
    table[1:n + 1] = X
    for e in range(2, e_max + 1):
        np.multiply(table[(e - 2) * n + 1:(e - 1) * n + 1], table[1:n + 1],
                    out=table[(e - 1) * n + 1:e * n + 1])
    # the factors of each monomial multiplied in variable order: the same
    # products as over all n unknowns, less the exact factors x^0 = 1
    terms = table[compiled.cols[0]]
    for col in compiled.cols[1:]:
        terms *= table[col]
    np.multiply(compiled.coeffs, terms, out=terms)
    return terms


def _eval_polys(compiled: _Compiled, X: np.ndarray) -> np.ndarray:
    """Every polynomial at every row of X: its terms, in monomial order,
    summed left to right (a NaN sum as np.nan).  Row-last in and out: X is
    (unknowns, rows), the result (polynomials, rows).

    Block t of the layout is added into block 0 for t = 1, 2, ....  Which
    operand's NaN an add keeps depends on its lane in numpy's vector loop,
    so every NaN sum is stored as np.nan: every row gets the same bits in
    a batch of any width.
    """
    # rows are independent, so blocks of them give the same values with a
    # bounded working set
    if X.shape[1] > _EVAL_ROWS:
        return np.concatenate([_eval_polys(compiled, X[:, i:i + _EVAL_ROWS])
                               for i in range(0, X.shape[1], _EVAL_ROWS)], axis=1)
    terms = _terms(compiled, X)
    start = compiled.counts[0]
    for k in compiled.counts[1:]:
        np.add(terms[:k], terms[start:start + k], out=terms[:k])
        start += k
    out = terms[compiled.sums]
    out[np.isnan(out)] = np.nan
    return out


@dataclass
class HSystemNumeric:
    """A pinned polynomial system ready for Newton iteration.

    UsageError for no unknown or for a polynomial naming a variable outside
    ``unknowns``, UnderdeterminedError for fewer polynomials than unknowns.
    """

    unknowns: list[str]
    polys: list[RationalPoly]
    pinned: dict[str, Fraction]

    def __post_init__(self):
        if not self.unknowns:
            raise UsageError("the system has no unknown to solve for")
        foreign = sorted(set().union(*(p.variables() for p in self.polys))
                         - set(self.unknowns))
        if foreign:
            raise UsageError(f"the polynomials name {foreign}, which are not unknowns")
        if len(self.polys) < len(self.unknowns):
            raise UnderdeterminedError(len(self.polys), len(self.unknowns))
        self._f = _compile(self.polys, self.unknowns)
        jac_polys = [p.derivative(u) for p in self.polys for u in self.unknowns]
        self._j = _compile(jac_polys, self.unknowns)

    @property
    def n_equations(self) -> int:
        return len(self.polys)

    @property
    def n_unknowns(self) -> int:
        return len(self.unknowns)

    def residual(self, X: np.ndarray) -> np.ndarray:
        """h at each row of X (rows, unknowns), or at one point: a (rows,
        equations) array.  UsageError for rows of another width."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.ndim != 2 or X.shape[1] != self.n_unknowns:
            raise UsageError(f"residual input has shape {X.shape}, expected rows "
                             f"of {self.n_unknowns} values ({', '.join(self.unknowns)})")
        return np.ascontiguousarray(_eval_polys(self._f, X.T).T)


def pin_and_square(system: CoefficientSystem, pins: Mapping[str, Rational]) -> HSystemNumeric:
    """Substitute pinned values exactly and drop identically-zero equations.

    Raises UsageError for a pin that is not a variable of the system or not
    a rational, and for pins that leave no unknown, UnderdeterminedError
    when fewer equations than unknowns remain (the caller must pin enough
    variables), and DomainError for a pin too large for a float, for a
    pinned lam, m or sigma outside the family builders' domain lam > 0,
    m in (0, 1], sigma != 0 or whose float is 0.0, and for a coefficient
    of the pinned system too large for a float.
    """
    unknown = sorted(set(pins) - system.variables())
    if unknown:
        raise UsageError(f"pins {unknown} are not variables of the system")
    exact = {name: _frac(v, name) for name, v in pins.items()}
    for name, value in exact.items():
        _float(value, name)
    _require_wave(exact.get("lam"), exact.get("m"), exact.get("sigma"))
    for name in ("lam", "m", "sigma"):
        if name in exact:
            _require_nonzero(float(exact[name]), name)

    polys = []
    for key in sorted(system.equations, key=lambda k: (k[0], -k[1])):
        poly = system.equations[key].substitute(exact)
        if not poly.is_zero():
            polys.append(poly)
    unknowns: set[str] = set()
    for poly in polys:
        unknowns |= poly.variables()
    # HSystemNumeric refuses a system with no unknown or too few equations
    return HSystemNumeric(sorted(unknowns, key=var_sort_key), polys, exact)


@dataclass
class NewtonResult:
    status: str                      # one of _STOP_REASONS
    x: np.ndarray
    iterations: int
    hinf: float

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def solve_newton(sysn: HSystemNumeric, seed: Sequence[float],
                 max_iter: int = 200) -> NewtonResult:
    """Damped Newton from one seed: row 0 of a one-row _newton_batch.

    The escape radius scales with the seed, 1e7 * max(1, ||seed||_inf),
    so a seed at any scale starts inside it.  UsageError for a seed of
    another shape, for a seed holding NaN or an infinity (whose radius
    would be NaN or infinite) and for max_iter < 0.
    """
    x = np.asarray(seed, dtype=float)
    if x.shape != (sysn.n_unknowns,):
        raise UsageError(
            f"seed has shape {x.shape}, expected ({sysn.n_unknowns},)")
    if not np.isfinite(x).all():
        raise UsageError(f"seed {x.tolist()} is not finite")
    escape = _ESCAPE * float(np.max(np.abs(x), initial=1.0))
    X, code, iters, hinf, _ = _newton_batch(sysn, x[None, :], max_iter, escape)
    return NewtonResult(_STOP_REASONS[code[0]], X[0], int(iters[0]), float(hinf[0]))


def _line_search(compiled: _Compiled, Xa: np.ndarray, dx: np.ndarray, base: np.ndarray,
                 floor: np.ndarray, first: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Backtracking Armijo search along dx for every row of Xa (both
    row-last, (n, rows)).

    A row takes the first of alpha = 1, 1/2, ... (at most 50 steps, none
    below its own ``floor``) whose residual is finite with
    ||h||^2 <= (1 - _ARMIJO * alpha) * base (a non-finite residual fails
    that test already unless base is infinite).  Its first pass evaluates the
    steps 0 .. first - 1 at once (at least one), each later pass the next
    2, 4, 8, ... steps, and no pass a step below the floor.  Each candidate
    is evaluated and tested as in a one-step-at-a-time search, so every row
    gets the same alpha and residual whatever ``first`` is.  Returns
    (alpha, H, taken, evaluated, passes): alpha per row, 0 where no step
    was accepted; the residual at Xa + alpha * dx, row-last (m, rows),
    for the rows with alpha > 0 (NaN for the others); the index of the
    accepted step (-1 for none); then the candidate rows evaluated and the
    passes.  A candidate may overflow: the caller sets np.errstate (the
    engine holds one around its whole loop).
    """
    H = np.full((compiled.sums.size, Xa.shape[1]), np.nan)
    taken = np.full(Xa.shape[1], -1)
    limit = _NEG_STEPS.searchsorted(-floor, side="right")   # steps >= floor
    pending = np.flatnonzero(limit)
    limit = limit[pending]
    start = np.zeros(pending.size, dtype=np.intp)
    size = np.maximum(first[pending], 1)
    evaluated = passes = 0
    while pending.size:
        count = np.minimum(size, limit - start)
        heads = count.cumsum() - count
        rows = pending.repeat(count)
        k = (start - heads).repeat(count)
        k += np.arange(k.size)
        Xc = dx.take(rows, axis=1)
        np.multiply(_STEPS.take(k), Xc, out=Xc)
        Hc = _eval_polys(compiled, np.add(Xa.take(rows, axis=1), Xc, out=Xc))
        # the sum of squares over a row-major copy: einsum sums a
        # contiguous row in another order than a strided one
        Hr = np.ascontiguousarray(Hc.T)
        dec = np.einsum("bi,bi->b", Hr, Hr) <= _ARMIJO_FACTORS.take(k) * base.take(rows)
        dec &= np.logical_and.reduce(np.isfinite(Hc), axis=0)
        win = np.minimum.reduceat(np.where(dec, np.arange(k.size), k.size), heads)
        hit = win < k.size
        win = win[hit]
        H[:, pending[hit]] = Hc.take(win, axis=1)
        taken[pending[hit]] = k[win]
        evaluated, passes = evaluated + k.size, passes + 1
        start += count
        more = ~hit & (start < limit)
        pending, limit, start, size = pending[more], limit[more], start[more], 2 ** passes
    alpha = np.where(taken >= 0, _STEPS[taken], 0.0)
    return alpha, H, taken, evaluated, passes


@functools.lru_cache(maxsize=None)
def _below_diagonal(m: int, n: int) -> np.ndarray:
    """The (m, n + 1) mask of the entries of [J | h] below R's diagonal."""
    mask = np.tri(m, n + 1, -1, dtype=bool)
    mask[:, n] = False
    mask.flags.writeable = False        # one cached mask serves every call
    return mask


def _gauss_newton_step(J: np.ndarray, H: np.ndarray) -> tuple[np.ndarray, int]:
    """The Gauss-Newton step -pinv(J) h of every row, row-last (J is (m, n,
    rows) with m >= n, H is (m, rows), the steps (n, rows)), and how many
    rows did not take it by QR.

    Every row is factored [J | h] = Q [R | Q^T h] by Householder
    reflections, so R is the factor of J alone.  The batch is held as one
    (m, n + 1, rows) array, so each reflection, and each row of R^-1 by
    back substitution, is a few numpy operations over all rows at once.
    Each column's norm is scaled by its largest entry, as LAPACK's dnrm2
    scales it, so that no square underflows or overflows.  Where the
    factorization is finite, R has a nonzero diagonal and kappa_1(R) =
    ||R||_1 ||R^-1||_1 <= 1 / (2 n _RCOND), the step is -R^-1 Q^T h.  The
    gate is the weakest one pinv's cutoff allows: J and R share their
    singular values, and ||A||_2 <= sqrt(n) ||A||_1 for an n x n A, so
    cond_2(J) <= n kappa_1(R) <= 1 / (2 _RCOND) = 5e13.  Every singular
    value of J is then at least twice pinv's cutoff (_RCOND times the
    largest), which drops none of them; J has full column rank and both
    give the least-squares step, equal up to rounding.  Every other row
    takes -pinv(J, rcond=_RCOND) h, bit for bit as a batched pinv of all
    rows would: on a rank-deficient J that is the minimum-norm step.  A
    row whose J is not finite gets a NaN step, where pinv's SVD would not
    converge.
    """
    m, n, B = J.shape
    # a spare lane of zeros keeps every batch two lanes wide: over a single
    # lane numpy sums down a column as a dot product, whose rounding differs
    # from the lane-by-lane sums of a wider batch
    A = np.zeros((m, n + 1, B + 1))
    A[:, :n, :B] = J
    A[:, n, :B] = H
    svd = np.logical_and.reduce(np.isfinite(A[:, :n, :B]), axis=(0, 1))
    # a zero column divides 0 by 0 and a non-finite row spreads NaN; the
    # finite and nonzero-diagonal test below sends both to the fallback
    with np.errstate(all="ignore"):
        for k in range(n):
            x = A[k:, k]
            x0, r0, r1 = x[0], A[k, k + 1:], A[k + 1:, k + 1:]
            s = np.maximum.reduce(np.abs(x), axis=0)
            y = x / s
            beta = np.copysign(s * np.sqrt(np.einsum("ib,ib->b", y, y)), x0)
            # I - tau u u^T with u = (1, x[1:] / (x0 + beta)) maps x to -beta e1
            u0 = x0 + beta
            tau = u0 / beta
            u = np.divide(x[1:], u0, out=y[1:])
            w = np.einsum("ib,ijb->jb", u, r1)
            w += r0
            w *= tau
            r0 -= w
            r1 -= u[:, None] * w
            np.negative(beta, out=x0)
        # the reflections never read a column again, so its entries below
        # the diagonal are zeroed once, all columns of J together
        A[_below_diagonal(m, n)] = 0.0
        R = A[:n, :n]
        diagonal = R.diagonal()             # (rows, n)
        ok = (np.logical_and.reduce(np.isfinite(A), axis=(0, 1))
              & np.logical_and.reduce(diagonal != 0, axis=1))
        # R^-1's diagonal is the reciprocal of R's; the entries right of it
        # come row by row, bottom up, by back substitution
        Rinv = np.zeros((n, n, B + 1))
        minus_r = -np.divide(1.0, diagonal.T, out=Rinv.reshape(n * n, B + 1)[::n + 1])
        for i in range(n - 2, -1, -1):
            np.multiply(np.einsum("kb,kjb->jb", R[i, i + 1:], Rinv[i + 1:, i + 1:]),
                        minus_r[i], out=Rinv[i, i + 1:])
        kappa = (np.maximum.reduce(np.add.reduce(np.abs(R), axis=0), axis=0)
                 * np.maximum.reduce(np.add.reduce(np.abs(Rinv), axis=0), axis=0))
        qr = (ok & (kappa <= 1 / (2 * n * _RCOND)))[:B]
        dx = np.where(qr, -np.einsum("ijb,jb->ib", Rinv, A[:n, n])[:, :B], np.nan)
        svd &= ~qr
        if np.logical_or.reduce(svd):   # seldom: even an empty pinv costs tens of us
            # einsum sums a contiguous row of h in another order than a strided one
            pinv = np.linalg.pinv(np.moveaxis(J[:, :, svd], 2, 0), rcond=_RCOND)
            dx[:, svd] = -np.einsum("bij,bj->bi", pinv, np.ascontiguousarray(H[:, svd].T)).T
    return dx, B - int(np.count_nonzero(qr))


def _newton_batch(sysn: HSystemNumeric, X0: np.ndarray, max_iter: int,
                  escape: float = _ESCAPE
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, RunStats]:
    """Vectorized damped Newton over all rows of X0.

    Returns (X, code, iterations, hinf, stats): the final iterates (a
    (rows, n) view of a row-last array), each row's int8 stop code (its
    index in _STOP_REASONS; only NewtonResult turns it into a label), its
    accepted Newton steps and its ||h||_inf at the final iterate, then the
    rows' RunStats, whose stop counts are a bincount of the codes and which
    one DEBUG record logs with the seconds of _gauss_newton_step and of
    _line_search and the number of batch iterations.  One pass, run
    max_iter + 1 times, labels every row still active: converged when
    ||h||_inf <= _TOL and x is finite (wherever x lies), else overflow
    when h is not finite or ||x||_inf >= escape; the rest take a step
    while fewer than max_iter passes have run and keep "budget" after the
    last.
    A row whose line search accepts no step stops as stalled at its last
    iterate.  The search goes down to _MIN_STEP, but below _STALL_FLOOR
    only while alpha * ||dx||_inf exceeds _STALL_MOVE * max(||x||_inf, 1):
    a row crawling at steps that barely move x stops instead of spending
    the iteration budget.  The residual is evaluated once, at X0; after
    that each row keeps the residual its line search computed at the step
    it accepted, and its next search first tries, in one pass, every step
    down to that one.  The state holds only the active rows, row-last
    (iterates and steps (n, rows), residuals (m, rows), Jacobians (m, n,
    rows)), so each per-row test reduces across rows; a row's iterate is
    written out when it stops, and an iteration in which no row stops
    skips that bookkeeping.  max_iter < 0 is a UsageError.
    """
    if max_iter < 0:
        raise UsageError(f"max_iter = {max_iter} must be >= 0")
    X = np.array(X0.T, dtype=float, order="C")
    B = X.shape[1]
    code = np.full(B, _BUDGET, dtype=np.int8)
    iters = np.zeros(B, dtype=np.int64)
    hinf = np.empty(B)
    solves = fallbacks = evaluated = passes = batch_iters = 0
    step_s = search_s = 0.0
    # the active rows, compacted: their rows of X, iterates, residuals and
    # last accepted step indices; X takes a row's iterate when it stops
    idx, Xa, last = np.arange(B), X, np.zeros(B, dtype=np.intp)
    # one errstate for the whole loop: residuals overflow and steps divide
    # by zero by design, and the stop tests read the results
    with np.errstate(all="ignore"):
        Ha = _eval_polys(sysn._f, X)
        for it in range(max_iter + 1):
            ha = np.maximum.reduce(np.abs(Ha), axis=0)
            hinf[idx] = ha
            xmax = np.maximum.reduce(np.abs(Xa), axis=0)
            conv = (ha <= _TOL) & np.logical_and.reduce(np.isfinite(Xa), axis=0)
            stop = conv | ~(np.isfinite(ha) & (xmax < escape))
            # most iterations stop no row, and skip this bookkeeping
            if np.logical_or.reduce(stop):
                code[idx[conv]] = _CONVERGED
                code[idx[stop & ~conv]] = _OVERFLOW
                if it == max_iter or np.logical_and.reduce(stop):
                    break
                keep = ~stop
                X[:, idx[stop]] = Xa.compress(stop, axis=1)
                idx, Xa = idx[keep], Xa.compress(keep, axis=1)
                Ha, xmax, last = Ha.compress(keep, axis=1), xmax[keep], last[keep]
            elif it == max_iter:
                break
            J = _eval_polys(sysn._j, Xa).reshape(sysn.n_equations, sysn.n_unknowns,
                                                 idx.size)
            t0 = time.perf_counter()
            dx, svd = _gauss_newton_step(J, Ha)
            t1 = time.perf_counter()
            dmax = np.maximum.reduce(np.abs(dx), axis=0)
            move = _STALL_MOVE * np.maximum(xmax, 1.0) / dmax
            solves, fallbacks, batch_iters = solves + idx.size, fallbacks + svd, it + 1
            # over a row-major copy, as the line search sums its squares
            Hr = np.ascontiguousarray(Ha.T)
            base = np.einsum("bi,bi->b", Hr, Hr)
            floor = np.maximum(_MIN_STEP, np.fmin(_STALL_FLOOR, move))
            t2 = time.perf_counter()
            alpha, Hs, taken, rows, n_passes = _line_search(sysn._f, Xa, dx, base, floor,
                                                            last + 1)
            step_s, search_s = step_s + t1 - t0, search_s + time.perf_counter() - t2
            evaluated, passes = evaluated + rows, passes + n_passes
            settled = alpha > 0
            if np.logical_and.reduce(settled):
                Xa, Ha, last = np.add(Xa, alpha * dx, out=dx), Hs, taken
            else:
                # the rows that took no step stop as stalled at their iterate
                stalled = ~settled
                code[idx[stalled]] = _STALLED
                X[:, idx[stalled]] = Xa.compress(stalled, axis=1)
                Xa = np.add(Xa, alpha * dx, out=dx).compress(settled, axis=1)
                idx, Ha, last = idx[settled], Hs.compress(settled, axis=1), taken[settled]
                if not idx.size:        # every row stalled
                    break
            iters[idx] += 1
    X[:, idx] = Xa
    # NaN residuals are skipped; inf means no unconverged row has a finite one
    least = float(np.fmin.reduce(hinf[code != _CONVERGED], initial=np.inf))
    counts = np.bincount(code, minlength=len(_STOP_REASONS)).tolist()
    stats = RunStats(B, *counts, least if least < np.inf else None, int(iters.sum()),
                     solves, fallbacks, evaluated, passes)
    logger.debug("newton: %s; %.3f s in Gauss-Newton steps and %.3f s in line "
                 "searches; %d batch iterations", stats, step_s, search_s, batch_iters)
    return X.T, code, iters, hinf, stats


@dataclass
class RootRecord(Record):
    values: dict[str, float]
    classification: str
    hinf: float
    hits: int
    first_seed_index: int


@dataclass
class RunStats(Record):
    """How the starts of a run ended and what the Newton engine did for them.

    Deterministic counts only (seconds stay in the DEBUG records): the starts,
    how many stopped for each reason of _STOP_REASONS, the residual floor
    (the smallest finite ||h||_inf of the starts that did not converge, None
    when there is none), the accepted Newton steps, the Gauss-Newton solves,
    how many of those fell back from QR to the pseudoinverse, and the
    candidate rows the line searches evaluated in how many passes.
    """

    starts: int
    converged: int
    overflow: int
    stalled: int
    budget: int
    residual_floor: Optional[float]
    iterations: int
    solves: int
    pinv_fallbacks: int
    candidate_rows: int
    passes: int

    @staticmethod
    def total(parts: Sequence["RunStats"]) -> "RunStats":
        """The sum of ``parts``; its residual floor is their smallest one."""
        floors = [p.residual_floor for p in parts if p.residual_floor is not None]
        sums = {name: sum(getattr(p, name) for p in parts)
                for name in RunStats.__dataclass_fields__ if name != "residual_floor"}
        return RunStats(**sums, residual_floor=min(floors, default=None))


# classification labels by the number of live profiles, eta and w
_PATTERNS = ("trivial", "semi-trivial", "non-trivial")
_NONTRIVIAL = _PATTERNS.index("non-trivial")


@dataclass(eq=False)        # arrays have no truth value to compare fields by
class BranchSet(Record):
    """The kept roots of a multistart, held as arrays in kept order.

    Row i of ``values`` (k, n) gives the root's values of ``unknowns``;
    ``hinf``, ``hits`` and ``first_seed_index`` (each (k,)) its ||h||_inf,
    how many converged starts it merged and the start that first found it;
    ``codes`` (k,) its class as an index into _PATTERNS.  ``roots`` and
    ``nontrivial()`` build RootRecords on demand; ``roots`` is built once
    and kept.  The JSON is that of a list of RootRecords under "roots",
    then pinned, n_starts, n_converged, seed and stats.
    """

    unknowns: list[str]
    values: np.ndarray
    hinf: np.ndarray
    hits: np.ndarray
    first_seed_index: np.ndarray
    codes: np.ndarray
    pinned: dict[str, float]
    n_starts: int
    n_converged: int
    seed: int
    stats: RunStats

    def _root_dicts(self, rows=slice(None)) -> list[dict]:
        """The fields of the RootRecords of ``rows``, as dicts in field order."""
        return [{"values": dict(zip(self.unknowns, values)),
                 "classification": _PATTERNS[code], "hinf": hinf, "hits": hits,
                 "first_seed_index": first}
                for values, code, hinf, hits, first
                in zip(self.values[rows].tolist(), self.codes[rows].tolist(),
                       self.hinf[rows].tolist(), self.hits[rows].tolist(),
                       self.first_seed_index[rows].tolist())]

    @functools.cached_property
    def roots(self) -> list[RootRecord]:
        return [RootRecord(**fields) for fields in self._root_dicts()]

    def nontrivial(self) -> list[RootRecord]:
        return [RootRecord(**fields)
                for fields in self._root_dicts(self.codes == _NONTRIVIAL)]

    def to_dict(self):
        # the roots as RootRecord JSON, written from the arrays
        return {"roots": self._root_dicts(), "pinned": self.pinned,
                "n_starts": self.n_starts, "n_converged": self.n_converged,
                "seed": self.seed, "stats": self.stats.to_dict()}


def _dedup(X: np.ndarray, hinf: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Merge the roots, the rows of X, that lie within the dedup tolerance.

    Returns (rep, hits, first, widest): integer arrays holding, for each
    kept root in kept order, the row of X that represents it, how many rows
    it merged and the row that started it; then the most representatives
    the active window held at once.  The rows are visited in np.lexsort's
    order of np.round(X, 12), first column first.  Each joins the first kept
    representative it matches and replaces it when its hinf is lower, so
    later rows meet the replacement.  A row is compared, in one array
    operation, only with the window: the representatives whose first
    coordinate is not yet too far below the row's to match it or any
    later row.  A row that no earlier row reaches (every earlier first
    coordinate lies below its reach) empties the window and is a new
    representative without any array work; the window loop runs only over
    the runs of rows in reach.  Where every row shares its first
    coordinate the window keeps every representative.
    """
    order = np.lexsort(np.round(X, 12)[:, ::-1].T)
    # Why a retired representative is never matched again.  The keys ascend
    # in their first column and lie within 0.5e-12 (plus a few ulps) of
    # their rows, so every row z after the current row x has z0 >= x0 - M,
    # M = 1e-12 + 1e-15 |x0|.  A representative y only ever moves to a later
    # row that matched it.  Let y0 < x0 - W - M with W = 2 max(1e-9,
    # 1e-6 |x0|); then z0 - y0 > W >= 2e-9 for every later z.  If y0 > 0, a
    # match would need y0 >= (1 - 1e-6) z0 >= (1 - 1e-6)(x0 - M), above
    # y0's bound.  If y0 <= 0 < z0, the gap |y0| + z0 exceeds 1e-6 of either.
    # If y0 < z0 <= 0, the tolerance is 1e-6 |y0| <= 1e-6 (|x0| + M +
    # (z0 - y0)), below the gap once the gap exceeds W.  So no later row
    # matches y, y never changes again and leaves the window for good.
    # Keys past the float range (|x0| > 1e296) are no longer ordered by x0,
    # so those rows retire nothing.
    x0 = X[:, 0]
    lo = x0 - 2 * np.maximum(_DEDUP_ABS, _DEDUP_REL * np.abs(x0)) \
        - (1e-12 + 1e-15 * np.abs(x0))
    lo[~np.isfinite(np.round(x0, 12))] = -np.inf
    # a row is in reach unless the largest earlier x0 lies below its lo
    top = np.fmax.accumulate(np.r_[-np.inf, x0[order]])[:-1]
    reach = ~(top < lo[order])
    runs = np.flatnonzero(np.diff(reach, prepend=False, append=False)).tolist()
    window = np.empty(X.shape)                # representatives, in kept order
    slot = np.empty(X.shape[0], dtype=np.intp)   # each one's kept index
    # the kept roots' rep, hits and first, in their first `kept` entries
    rep = np.empty(X.shape[0], dtype=np.intp)
    hits = np.ones(X.shape[0], dtype=np.intp)
    first = np.empty(X.shape[0], dtype=np.intp)
    kept = 0
    widest = int(not reach.all())             # a lone row's window of one
    los, hs = lo.tolist(), hinf.tolist()
    done = 0
    # each run of rows in reach [start, end), then the rows after the last
    for start, end in zip(runs[::2] + [order.size], runs[1::2] + [order.size]):
        lone = order[done:start]
        rep[kept:kept + lone.size] = lone
        first[kept:kept + lone.size] = lone
        kept += lone.size
        size = 0
        if lone.size:                         # the window's one representative
            window[0] = X[lone[-1]]
            slot[0] = kept - 1
            size = 1
        for i in order[start:end].tolist():
            if size:
                stay = (window[:size, 0] >= los[i]).nonzero()[0]
                if stay.size < size:
                    window[:stay.size] = window[stay]
                    slot[:stay.size] = slot[stay]
                    size = stay.size
            x = X[i]
            if size:
                y = window[:size]
                tol = np.maximum(_DEDUP_ABS, _DEDUP_REL * np.maximum(abs(x), abs(y)))
                match = (abs(x - y) <= tol).all(axis=1).nonzero()[0]
                if match.size:
                    k = slot[match[0]]
                    hits[k] += 1
                    if hs[i] < hs[rep[k]]:
                        rep[k] = i
                        window[match[0]] = x
                    continue
            window[size] = x
            slot[size] = kept
            size += 1
            widest = max(widest, size)
            rep[kept] = first[kept] = i
            kept += 1
        done = end
    return rep[:kept], hits[:kept], first[:kept], widest


def _classify(unknowns: Sequence[str], pinned: Mapping[str, float],
              roots: np.ndarray) -> np.ndarray:
    """The zero pattern of each row of roots (values of ``unknowns``), as
    the number of live profiles: an index into _PATTERNS.

    A profile is live when one of its coefficients j1..j8 (eta) or k1..k8
    (w), solved or pinned, exceeds _ZERO_TOL in magnitude: both live is
    "non-trivial", one "semi-trivial", none "trivial".
    """
    live = np.zeros(roots.shape[0], dtype=np.intp)
    for prefix in "jk":
        names = {f"{prefix}{r}" for r in range(1, 9)}
        cols = [i for i, u in enumerate(unknowns) if u in names]
        pinned_live = any(abs(v) > _ZERO_TOL for u, v in pinned.items()
                          if u in names and u not in unknowns)
        live += pinned_live | (np.abs(roots[:, cols]) > _ZERO_TOL).any(axis=1)
    return live


def multistart(sysn: HSystemNumeric, n_starts: int, seed_rng: int = 0,
               max_iter: int = 200) -> BranchSet:
    """Run damped Newton from n_starts sampled seeds and collect the roots.

    Seeds are log-uniform in magnitude over (1e-3, 10), i.e. within
    [-10, 10], with random sign; each start gets max_iter iterations.
    Roots are deduplicated at relative l_inf distance 1e-6 (absolute floor
    1e-9) and classified trivial / semi-trivial / non-trivial from the
    zero-pattern of the j_r, k_r with r >= 1 (pinned values included).
    The BranchSet holds the kept roots as arrays, straight from dedup and
    classification, and the engine's RunStats; no per-root object is built
    here.  Deterministic for fixed seed_rng; an empty BranchSet is a valid
    result.  UsageError for n_starts < 1, seed_rng < 0 or max_iter < 0.
    """
    if n_starts < 1:
        raise UsageError("n_starts must be >= 1")
    if seed_rng < 0:
        raise UsageError(f"seed = {seed_rng} must be >= 0")
    rng = np.random.default_rng(seed_rng)
    mags = 10.0 ** rng.uniform(np.log10(1e-3), np.log10(10.0),
                               size=(n_starts, sysn.n_unknowns))
    signs = rng.choice([-1.0, 1.0], size=(n_starts, sysn.n_unknowns))
    X0 = mags * signs

    t0 = time.perf_counter()
    X, code, _, hinf_all, stats = _newton_batch(sysn, X0, max_iter)
    found = np.flatnonzero(code == _CONVERGED)
    t1 = time.perf_counter()
    rep, hits, first, widest = _dedup(X[found], hinf_all[found])
    t2 = time.perf_counter()

    pinned_f = {k: _float(v, k) for k, v in sysn.pinned.items()}
    rows = found[rep]
    roots = X[rows]
    codes = _classify(sysn.unknowns, pinned_f, roots)
    branch_set = BranchSet(list(sysn.unknowns), roots, hinf_all[rows], hits,
                           found[first], codes, pinned_f, n_starts, found.size,
                           seed_rng, stats)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("multistart: %d starts, %d converged, %d kept, %d non-trivial; "
                     "newton %.3f s, dedup %.3f s, classify %.3f s; dedup window "
                     "at most %d", n_starts, found.size, codes.size,
                     int(np.count_nonzero(codes == _NONTRIVIAL)), t1 - t0, t2 - t1,
                     time.perf_counter() - t2, widest)
    return branch_set


def promote_root(record: RootRecord, pinned: Mapping[str, float]) -> SolutionParams:
    """Lift a solver root to SolutionParams for the residual verifier.

    The family tag is inferred from the zero pattern and c (branch
    selectors are not recoverable from a bare root).  The (2, 1) shape
    (k1 != 0 = k2 = j1) has no builder and is tagged with its shape name;
    S411 has k2 != 0.  The even quadratic root is S412 at c != 0 and S422
    at c = 0.  cn is even in its argument and depends on m only through m^2,
    so a root with -lam or -m is the same wave and comes back with |lam| and
    |m|; DomainError for |m| outside (0, 1] or sigma = 0, as the builders.
    """
    ctx = {**{k: float(v) for k, v in pinned.items()}, **record.values}
    j = tuple(ctx.get(f"j{r}", 0.0) for r in range(5))
    k = tuple(ctx.get(f"k{r}", 0.0) for r in range(3))
    lam, m, sigma, c = (ctx.get(name) for name in ("lam", "m", "sigma", "c"))
    if lam is None or m is None or sigma is None or c is None:
        raise UsageError("root does not determine lam, m, sigma and c")
    lam, m = abs(lam), abs(m)
    _require_wave(lam, m, sigma)
    if abs(j[4]) > _ZERO_TOL or abs(j[3]) > _ZERO_TOL:
        tag = "S421"
    elif abs(k[1]) > _ZERO_TOL and abs(k[2]) <= _ZERO_TOL and abs(j[1]) <= _ZERO_TOL:
        tag = AnsatzShape.QUADRATIC_ETA_LINEAR_W.value
    elif abs(j[1]) > _ZERO_TOL or abs(k[1]) > _ZERO_TOL:
        tag = "S411"
    elif (all(abs(v) <= _ZERO_TOL for v in j[1:])
          and any(abs(v) > _ZERO_TOL for v in k[1:])):
        tag = "S43"
    else:
        tag = "S412" if c != 0 else "S422"
    return SolutionParams(j, k, float(lam), float(m), float(sigma), tag, Branch())


@dataclass
class NonexistencePoint(Record):
    """One grid point.  ``n_converged_roots`` counts the roots kept after
    dedup, not the converged starts (those are ``stats.converged``)."""

    pins: dict[str, float]
    n_converged_roots: int
    roots: list[dict]
    stats: RunStats


@dataclass(frozen=True)
class NonexistenceReport(Record):
    """A sweep: ``total_roots`` sums the points' kept roots, ``upheld`` means no
    counterexample, and ``stats`` is ``RunStats.total`` of the points' stats."""

    constrained: str
    value: float
    delta: float
    sigma_free: bool
    n_starts: int
    seed: int
    total_roots: int
    upheld: bool
    counterexamples: list[dict]
    points: list[NonexistencePoint]
    stats: RunStats


def reproduce_nonexistence(constrained: str, grid: Sequence[Mapping[str, Rational]],
                           *, value: float = 0.1,
                           n_starts: int = 500, seed: int = 0) -> NonexistenceReport:
    """Multistart sweeps of the full quartic-case system with one series
    coefficient pinned away from zero.

    ``constrained`` is one of "j1", "j3", "k1"; it is pinned to ``value``
    with |value| >= 1e-3 (the exclusion band is reported so the scope of
    the claim is explicit).  Grid points supply (a, b, d, lam, m, sigma).
    For the j1/j3 sweeps sigma stays pinned (nonzero); for the k1 sweep
    sigma is left free so that sigma ~ 0 roots can surface.  Every
    converged root is reported; a root contradicting the expectation
    (any root for j1/j3; a |sigma| > 1e-10 root for k1) is recorded as a
    counterexample, never suppressed.  UsageError for seed < 0, for an
    empty grid (no point, no verdict) and for a grid point that lacks one
    of the values it must supply.
    """
    if constrained not in ("j1", "j3", "k1"):
        raise UsageError("constrained must be one of 'j1', 'j3', 'k1'")
    if seed < 0:
        raise UsageError(f"seed = {seed} must be >= 0")
    if abs(value) < _DELTA:
        raise UsageError(f"|value| = {abs(value)} must be >= delta = {_DELTA}")
    if not grid:
        raise UsageError("the grid has no point")
    sigma_free = constrained == "k1"
    keys = ("a", "b", "d", "lam", "m") + (() if sigma_free else ("sigma",))
    for i, point in enumerate(grid):
        missing = [key for key in keys if key not in point]
        if missing:
            raise UsageError(f"grid point {i} ({dict(point)}) lacks {missing}")
    t0 = time.perf_counter()
    system, _ = build_named_system("coeffs2")
    points, counterexamples = [], []
    for i, point in enumerate(grid):
        pins = {"a": point["a"], "b": point["b"], "d": point["d"],
                "lam": point["lam"], "m": point["m"], constrained: value}
        if not sigma_free:
            pins["sigma"] = point["sigma"]
        sysn = pin_and_square(system, pins)
        branch_set = multistart(sysn, n_starts, seed_rng=seed + i,
                                max_iter=_SWEEP_MAX_ITER)
        pinned = branch_set.pinned
        roots = []
        for row, hinf in zip(branch_set.values.tolist(), branch_set.hinf.tolist()):
            values = dict(zip(branch_set.unknowns, row))
            entry = {"values": values, "hinf": hinf,
                     "sigma": values.get("sigma", pinned.get("sigma", 0.0))}
            roots.append(entry)
            if not sigma_free or abs(entry["sigma"]) > _SIGMA_TOL:
                counterexamples.append({"pins": pinned, **entry})
        points.append(NonexistencePoint(pinned, len(roots), roots, branch_set.stats))
    total_roots = sum(pt.n_converged_roots for pt in points)
    logger.debug("nonexistence %s: %d points x %d starts, %d roots, "
                 "%d counterexamples; %.3f s", constrained, len(points),
                 n_starts, total_roots, len(counterexamples),
                 time.perf_counter() - t0)
    return NonexistenceReport(constrained, float(value), _DELTA, sigma_free,
                              n_starts, seed, total_roots, not counterexamples,
                              counterexamples, points,
                              RunStats.total([pt.stats for pt in points]))
