"""Machine-speed reference for the time metrics.

The benchmark shares its machine, whose speed switches between states up
to 1.9x apart that last from seconds to minutes.  Four fixed units of work
that use none of the library (exact-fraction dict updates, a sparse
polynomial product, a float loop, small numpy array steps: the kinds of
work the workloads spend their time on) are timed in rounds between calls,
in the same process, at a tenth of the call time.  A block's speed factor
is the median over the four kinds of ``REF_S[kind]`` over the kind's median
time alongside that block; ``run.py`` multiplies the measured times of the
interpreter-bound workloads by it.  Taking the median over kinds keeps one
unit's own fast or slow spells, which a single unit showed, from moving
the factor.

Rounds between calls cannot follow the speed during a call that runs for
many seconds (a ``rediscover`` call lasts about 20 s, and the speed changes
within it).  For such calls ``InCallSampler`` runs one round from a SIGALRM
handler every ``SAMPLE_INTERVAL_S`` of wall time while the call runs; the
call's speed factor is the trimmed mean of the factors of those rounds
(equal intervals, so the mean weighs each stretch of the call equally), and
the time spent in the handler is taken off the call's latency.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

SHARE = 0.1           # calibration time kept at this share of call time
FIRST_ROUNDS = 3
MIN_ROUNDS = 5        # fewest rounds a speed factor is taken from
SAMPLE_INTERVAL_S = 0.08   # in-call rounds: one per this much wall time
TRIM = 0.1                 # share of in-call factors cut at each end


def _fractions():
    acc, table = Fraction(0), {}
    for i in range(1, 600):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        table[(i % 17, i)] = acc.numerator % 97


_TERMS = [(((f"x{i % 5}", 1 + i % 3), (f"y{i % 4}", 1 + i % 2)), Fraction(i % 9 - 4, 1 + i % 5))
          for i in range(20)]


def _polynomial():
    out = {}
    for m1, c1 in _TERMS:
        for m2, c2 in _TERMS:
            powers = dict(m1)
            for name, e in m2:
                powers[name] = powers.get(name, 0) + e
            key = tuple(sorted(powers.items()))
            out[key] = out.get(key, 0) + c1 * c2


def _floats():
    x = 0.0
    for i in range(1, 2500):
        a = 1.0 / (i + 0.5)
        b = math.sqrt(a) * 0.25
        x += a * b - math.sin(b) + math.cos(a) * b


def _numpy():
    a = np.linspace(0.0, 1.0, 16)
    for _ in range(100):
        a = np.abs(np.sqrt(a * a + 1.0) - 0.5)
        np.all(a <= 10.0)


UNITS = {"fractions": _fractions, "polynomial": _polynomial,
         "floats": _floats, "numpy": _numpy}
# Median seconds of each unit on a 2-core Xeon; they only fix the scale.
REF_S = {"fractions": 0.0020, "polynomial": 0.0023, "floats": 0.0007,
         "numpy": 0.00085}


def run_round() -> dict[str, float]:
    """Time each unit once, with the cyclic collector off so that the size
    of the program's live heap does not leak into the timings."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = {}
        for kind, unit in UNITS.items():
            t0 = time.perf_counter()
            unit()
            times[kind] = time.perf_counter() - t0
        return times
    finally:
        if enabled:
            gc.enable()


def round_factor(times: dict[str, float]) -> float:
    """Speed factor of one round: the median over kinds of reference over measured."""
    return statistics.median(REF_S[kind] / times[kind] for kind in UNITS)


def trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    cut = int(TRIM * len(values))
    kept = values[cut:len(values) - cut] or values
    return sum(kept) / len(kept)


class InCallSampler:
    """Reference rounds taken during the calls, from a SIGALRM handler.

    Use ``begin()`` before and ``end()`` after each call; ``end`` returns
    the seconds the handler took during the call and the factors of the
    rounds it ran.  ``close()`` stops the timer and restores the handler.
    """

    def __init__(self):
        self.factors: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._mark = (0, 0.0)
        self._previous = signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self.factors.append(round_factor(run_round()))
            self.spent += time.perf_counter() - t0
        finally:
            self._busy = False

    def begin(self) -> None:
        self._mark = (len(self.factors), self.spent)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def end(self) -> tuple[float, list[float]]:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        first, spent = self._mark
        return self.spent - spent, self.factors[first:]

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


class Calibrator:
    """Interleaves reference rounds with the calls of one run."""

    def __init__(self):
        self.rounds = [run_round() for _ in range(FIRST_ROUNDS)]
        self.spent = sum(sum(r.values()) for r in self.rounds)

    def keep_up(self, call_s: float) -> None:
        """Run rounds until they add up to SHARE of the call time so far."""
        while self.spent < SHARE * call_s:
            self.rounds.append(run_round())
            self.spent += sum(self.rounds[-1].values())

    def speed_factor(self, since: int = 0) -> float:
        """Multiply a measured time by this to get reference-speed seconds.

        Uses the rounds from index ``since`` on (those run alongside one
        block of calls), or the last MIN_ROUNDS rounds when there are fewer.
        """
        rounds = self.rounds[since:]
        if len(rounds) < MIN_ROUNDS:
            rounds = self.rounds[-MIN_ROUNDS:]
        return round_factor({kind: statistics.median(r[kind] for r in rounds)
                             for kind in UNITS})
