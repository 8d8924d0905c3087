"""Ansatz-shape classification and machine-checked series termination.

``classify_ansatz`` is the five-way case table on exact rational
(a, b, c, d):

    c != 0, a^2+b^2 != 0     ->  quadratic/quadratic      (2, 2)
    c != 0, a = b = 0        ->  constant eta, quadratic w (0, 2)
    c = 0,  b^2+d^2 != 0     ->  quartic eta, quadratic w  (4, 2)
    c = 0,  b = d = 0, a < 0 ->  quadratic eta, linear w   (2, 1)
    c = 0,  b = d = 0, a >= 0 -> trivial only              (0, 0)

At c = b = d = 0 the second equation integrates to
eta = sigma w - w^2/2 + C, and the first becomes a w'' = cubic(w), so
w = sigma + k1 cn with k1^2 = -4 a lam^2 m^2 solves the system when a < 0.

``verify_termination`` rebuilds the symbolic coefficient system at series
degree n and replays the forced-vanishing argument: a leading equation
that factors as (nonzero monomial) * u^e forces u = 0; one that factors
as (monomial) * u * v splits into two branches, both of which are
explored; an equation linear in some u with constant coefficient may be
used to eliminate u; a cofactor that is a sum of same-sign even-power
terms with a lam/m-only term is sign-definite and cannot vanish.  The
chain must drive every coefficient above the classified shape degrees to
zero, in every branch, or ChainBrokenError is raised.

Both sides of a branch often reach the same state later: the same unknowns
set to zero and the same eliminations.  Within one degree each such state
is explored once, and every path that reaches it takes its branches, held
as the events from that state on, so the report lists every branch as if
each had been explored.
"""

from __future__ import annotations

import copy
import enum
import logging
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .cnexpr import build_coefficient_system
from .errors import ChainBrokenError, UsageError
from .families import ParameterSet, Record
from .ratpoly import Monomial, RationalPoly

logger = logging.getLogger(__name__)

# lam > 0 and m > 0 always; c joins when the c != 0 case is in force
_POSITIVE_VARS = frozenset({"lam", "m"})
# Largest series degree verify_termination accepts.  The branch count, and
# with it the size of the flat report, doubles every second degree; the
# chains themselves do not, since each state is explored once per degree.
# Both symbolic cases at n = 3..N_MAX take about 0.3 s on a 2-core box.
N_MAX = 23


class AnsatzShape(enum.Enum):
    GENERIC_QUADRATIC = "GenericQuadratic"
    SEMI_TRIVIAL_ETA_CONSTANT = "SemiTrivialEtaConstant"
    QUARTIC_ETA_QUADRATIC_W = "QuarticEtaQuadraticW"
    QUADRATIC_ETA_LINEAR_W = "QuadraticEtaLinearW"
    TRIVIAL_ONLY = "TrivialOnly"

    @property
    def degrees(self) -> tuple[int, int]:
        return _SHAPE_DEGREES[self]


_SHAPE_DEGREES = {
    AnsatzShape.GENERIC_QUADRATIC: (2, 2),
    AnsatzShape.SEMI_TRIVIAL_ETA_CONSTANT: (0, 2),
    AnsatzShape.QUARTIC_ETA_QUADRATIC_W: (4, 2),
    AnsatzShape.QUADRATIC_ETA_LINEAR_W: (2, 1),
    AnsatzShape.TRIVIAL_ONLY: (0, 0),
}


def classify_ansatz(p: ParameterSet) -> AnsatzShape:
    """Exact zero tests on rational (a, b, c, d); discontinuous by design."""
    if p.c != 0:
        if p.a == 0 and p.b == 0:
            return AnsatzShape.SEMI_TRIVIAL_ETA_CONSTANT
        return AnsatzShape.GENERIC_QUADRATIC
    if p.b == 0 and p.d == 0:
        if p.a < 0:
            return AnsatzShape.QUADRATIC_ETA_LINEAR_W
        return AnsatzShape.TRIVIAL_ONLY
    return AnsatzShape.QUARTIC_ETA_QUADRATIC_W


def _is_forceable(name: str) -> bool:
    return name[0] in "jk" and name[1:].isdigit() and int(name[1:]) >= 1


def _holds_any(poly: RationalPoly, names) -> bool:
    # plain loops, not any() over a generator: this scan runs over every
    # live equation at every move of a chain
    for mono in poly.terms:
        for name, _ in mono:
            if name in names:
                return True
    return False


def _is_sign_definite(poly: RationalPoly, allowed: frozenset[str]) -> bool:
    """True when the polynomial cannot vanish for real variable values with
    lam, m > 0 and the ``allowed`` symbols nonzero."""
    signs = {coef > 0 for coef in poly.terms.values()}
    if len(signs) != 1:
        return False
    anchored = False
    for mono in poly.terms:
        names = set()
        for name, exp in mono:
            names.add(name)
            if name not in _POSITIVE_VARS and exp % 2:
                return False
        if names <= _POSITIVE_VARS | allowed:
            anchored = True
    return anchored


@dataclass
class ChainEvent(Record):
    var: str
    eq: Optional[tuple[int, int]]
    move: str
    detail: str


@dataclass
class ChainBranch(Record):
    events: list[ChainEvent]
    eta_degree: int
    w_degree: int


@dataclass
class DegreeResult(Record):
    n: int
    branches: list[ChainBranch]
    realized_degrees: tuple[int, int]
    ok: bool


@dataclass(frozen=True)
class TerminationReport(Record):
    """The chains of every degree; ``passed`` when every degree is ok."""

    case: str
    shape: AnsatzShape
    shape_degrees: list[int]
    passed: bool
    results: list[DegreeResult]
    notes: list[str]


class _Chain:
    """One exploration state: the live equations, the unknowns set to zero
    and the eliminations (name, definition) in the order they were made."""

    def __init__(self, eqs, allowed):
        self.eqs: dict[tuple[int, int], RationalPoly] = eqs
        self.allowed = allowed
        self.zeros: set[str] = set()
        self.eliminations: list[tuple[str, RationalPoly]] = []
        # the keys never change, so neither does the scan order
        self.order = sorted(eqs, key=lambda k: (-k[1], k[0]))
        # key -> (poly, _factor(poly)), valid while the key still holds poly
        self.verdicts: dict[tuple[int, int], tuple[RationalPoly, list[str] | None]] = {}

    def clone(self):
        sub = copy.copy(self)
        sub.eqs = dict(self.eqs)
        sub.zeros = set(self.zeros)
        sub.eliminations = list(self.eliminations)
        sub.verdicts = dict(self.verdicts)
        return sub

    def _substitute(self, subs):
        # an equation that holds none of the substituted unknowns stays as it is
        self.eqs = {k: p.substitute(subs) if _holds_any(p, subs) else p
                    for k, p in self.eqs.items()}

    def substitute_zero(self, names: list[str]):
        self.zeros.update(names)
        self._substitute({n: Fraction(0) for n in names})

    def eliminate(self, name: str, key: tuple[int, int], definition: RationalPoly):
        self.eliminations.append((name, definition))
        self._substitute({name: definition})
        return ChainEvent(name, key, "eliminate", f"{name} := {definition.to_text()}")

    def live_degrees(self, n: int) -> tuple[int, int]:
        """The highest j and k indices not identically zero.  A definition
        names only unknowns eliminated after it (each elimination takes its
        unknown out of every live equation), so one backward pass settles
        which eliminated unknowns vanish."""
        zeros = set(self.zeros)
        for name, definition in reversed(self.eliminations):
            if definition.substitute(dict.fromkeys(zeros, Fraction(0))).is_zero():
                zeros.add(name)

        def top(prefix):
            return max((r for r in range(1, n + 1) if f"{prefix}{r}" not in zeros),
                       default=0)
        return top("j"), top("k")

    # -- move scans -----------------------------------------------------
    def _factor(self, poly: RationalPoly) -> list[str] | None:
        """The j/k unknowns of the content monomial when poly = 0 forces one
        of them to vanish: every other factor is nonzero and the cofactor is
        a constant or sign-definite.  None otherwise."""
        gcd: Monomial = poly.monomial_gcd()
        unknowns = [n for n, _ in gcd if _is_forceable(n)]
        outside = [n for n, _ in gcd
                   if not _is_forceable(n)
                   and n not in self.allowed and n not in _POSITIVE_VARS]
        if outside or not unknowns:
            return None
        cofactor = poly.divide_by_monomial(gcd)
        if cofactor.is_constant() or _is_sign_definite(cofactor, self.allowed):
            return unknowns
        return None

    def scan(self):
        """The forced moves [(key, unknown, poly)] and the first split
        (key, unknowns, poly), or None."""
        forced: list[tuple[tuple[int, int], str, RationalPoly]] = []
        split = None
        for key in self.order:
            poly = self.eqs[key]
            if poly.is_zero():
                continue
            # _substitute keeps an untouched equation as the same object
            cached = self.verdicts.get(key)
            if cached is not None and cached[0] is poly:
                unknowns = cached[1]
            else:
                unknowns = self._factor(poly)
                self.verdicts[key] = (poly, unknowns)
            if unknowns is None:
                continue
            if len(unknowns) == 1:
                forced.append((key, unknowns[0], poly))
            elif split is None:
                split = (key, unknowns, poly)
        return forced, split

    def elimination_candidate(self):
        """(name, key, definition) from an equation linear in a j/k unknown
        with a constant coefficient, solved for that unknown; the fewest
        terms win, then the lowest q, p and name.  None if there is none."""
        ranked = [(len(poly.terms), q, p, name)
                  for (p, q), poly in self.eqs.items()
                  for name in poly.variables()
                  if _is_forceable(name) and poly.degree_in(name) == 1
                  and poly.derivative(name).is_constant()]
        if not ranked:
            return None
        _, q, p, name = min(ranked)
        poly = self.eqs[(p, q)]
        coef = poly.derivative(name).terms[()]
        definition = poly.substitute({name: Fraction(0)}) * (Fraction(-1) / coef)
        return name, (p, q), definition


@dataclass
class _ChainMemo:
    """The branches below every chain state _run_chain has explored in one
    degree, each as (events from that state, eta degree, w degree), and the
    number of states found there again."""
    states: dict = field(default_factory=dict)
    hits: int = 0


def _run_chain(chain: _Chain, n: int, shape: AnsatzShape, memo: _ChainMemo):
    """The branches below the chain's state, each as (events from this
    state, eta degree, w degree).  The same tuple is stored in the memo, so
    a state reached again returns it as it is.  The recursion is at most 2n
    deep: each split zeroes one of j1..jn, k1..kn for good."""
    # the live equations are a function of this key: zero substitutions
    # commute with each other and with every elimination whose definition
    # lacks the zeroed name, and different definitions give different keys
    state = (frozenset(chain.zeros), tuple(chain.eliminations))
    below = memo.states.get(state)
    if below is not None:
        memo.hits += 1
        return below
    events = []
    while True:
        forced, split = chain.scan()
        if forced:
            newly = []
            for key, var, poly in forced:
                if var in newly:
                    continue
                newly.append(var)
                events.append(ChainEvent(var, key, "forced", poly.to_text()))
            chain.substitute_zero(newly)
            continue
        if split is not None:
            key, unknowns, poly = split
            text = poly.to_text()
            below = []
            for var in unknowns:
                sub = chain.clone()
                sub.substitute_zero([var])
                head = (*events, ChainEvent(var, key, "branch", text))
                below.extend(((*head, *tail), eta_deg, w_deg) for tail, eta_deg, w_deg
                             in _run_chain(sub, n, shape, memo))
            break
        # Elimination is the endgame move for chains that must close all
        # the way down (the trivial shape); while the live degrees already
        # sit at the target the chain is done.
        eta_deg, w_deg = chain.live_degrees(n)
        max_eta, max_w = shape.degrees
        if eta_deg <= max_eta and w_deg <= max_w:
            below = [(tuple(events), eta_deg, w_deg)]
            break
        elim = chain.elimination_candidate()
        if elim is None:
            raise ChainBrokenError(
                f"chain stalled at degrees ({eta_deg}, {w_deg}) above the "
                f"classified shape {shape.degrees} for n={n}; "
                f"last events: {[e.to_dict() for e in events[-3:]]}"
            )
        events.append(chain.eliminate(*elim))
    below = memo.states[state] = tuple(below)
    return below


_SYMBOLIC_CASES = {
    "c_nonzero": (AnsatzShape.GENERIC_QUADRATIC, frozenset({"c"}), None),
    "c_zero": (AnsatzShape.QUARTIC_ETA_QUADRATIC_W, frozenset(), {"c": 0}),
}


def verify_termination(p: Optional[ParameterSet] = None, n_max: int = 5, *,
                       case: Optional[str] = None,
                       n_min: int = 3) -> TerminationReport:
    """Replay the forced-vanishing chains for degrees n_min..n_max.

    Either pass ``p`` (exact rationals; the shape is classified and the
    numeric values are substituted) or ``case`` in {"c_nonzero", "c_zero"}
    for the fully symbolic runs with generic coefficients.  Degrees run
    from 3 to N_MAX.  Each degree leaves one DEBUG record on this module's
    logger: n, the branch and event counts and the seconds it took, the
    seconds spent building the system and running the chains, then the
    distinct chain states explored and the memo hits.
    """
    if not 3 <= n_min <= n_max <= N_MAX:
        raise UsageError(
            f"termination degrees must satisfy 3 <= n_min <= n_max <= {N_MAX}")
    if (p is None) == (case is None):
        raise UsageError("pass exactly one of p or case")
    if p is not None and not isinstance(p, ParameterSet):
        raise UsageError(f"p must be a ParameterSet, got {p!r}; pass a "
                         "symbolic case as case=...")

    if case is not None:
        if case not in _SYMBOLIC_CASES:
            raise UsageError(f"case must be 'c_nonzero' or 'c_zero', got {case!r}")
        shape, extra_allowed, params = _SYMBOLIC_CASES[case]
        label = f"{case} (symbolic)"
    else:
        shape = classify_ansatz(p)
        extra_allowed = frozenset()
        params = {"a": p.a, "b": p.b, "c": p.c, "d": p.d}
        label = f"a={p.a}, b={p.b}, c={p.c}, d={p.d}"

    notes = []
    if shape in (AnsatzShape.QUARTIC_ETA_QUADRATIC_W, AnsatzShape.TRIVIAL_ONLY):
        notes.append(
            "governing split: c = 0 (with b = d = 0 reducing further to the "
            "trivial shape); any labeling of that subcase under c != 0 is a "
            "mislabel -- the c = 0 reading is used here")

    results = []
    for n in range(n_min, n_max + 1):
        t0 = time.perf_counter()
        system = build_coefficient_system(n, n, params=params)
        t_built = time.perf_counter()
        chain = _Chain(dict(system.nonzero()), extra_allowed)
        memo = _ChainMemo()
        branches = [ChainBranch(list(events), eta_deg, w_deg)
                    for events, eta_deg, w_deg in _run_chain(chain, n, shape, memo)]
        t_chains = time.perf_counter()
        realized = (max(b.eta_degree for b in branches),
                    max(b.w_degree for b in branches))
        # _run_chain has closed every branch down to the shape bound;
        # equality with the bound is additionally demanded in the symbolic
        # runs, where the coefficients are generic (special rational points
        # may close further, e.g. a = b = d = 0 kills the w series too)
        expected = tuple(min(deg, n) for deg in shape.degrees)
        ok = case is None or realized == expected
        results.append(DegreeResult(n, branches, realized, ok))
        logger.debug("verify_termination %s: n=%d, %d branches, %d events, %.3f s "
                     "(build %.3f s, chains %.3f s, %d states, %d memo hits)",
                     label, n, len(branches), sum(len(b.events) for b in branches),
                     time.perf_counter() - t0, t_built - t0, t_chains - t_built,
                     len(memo.states), memo.hits)
    return TerminationReport(label, shape, list(shape.degrees),
                             all(r.ok for r in results), results, notes)
