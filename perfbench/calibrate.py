"""A fixed reference computation that measures the host's current speed.

The benchmark's host is a shared virtual machine.  Each of its CPUs speeds
up and slows down by a fifth or more, over seconds and over minutes, and
the two CPUs do so independently.  A timed child therefore runs at a speed
no other process can observe, so the child observes it itself: while the
workload runs, ``Sampler`` interrupts it every ``PERIOD_S`` seconds and
times one ``unit()`` of reference work in the same process.  The samples
are spread evenly over the workload's run, so their mean is the host's
mean speed over exactly that run.  ``run.py`` then reports each time scaled
by ``UNIT_NOMINAL_S`` over that mean: what the workload would have taken on
a host where one unit takes ``UNIT_NOMINAL_S`` seconds.  The sampler's own
time is subtracted first.

The unit imitates the program's instruction mix (sparse products of dicts
keyed by sorted tuples with ``Fraction`` coefficients, and brute canonical
forms of small graphs) but imports nothing from plethys, so a change to the
program never changes the yardstick.  Its result is checked, so a broken
interpreter cannot pass as a fast one.
"""

from __future__ import annotations

import gc
import itertools
import signal
import time
from fractions import Fraction

UNIT_NOMINAL_S = 0.007
UNIT_RESULT = 216
PERIOD_S = 0.1

_PAIRS = list(itertools.combinations(range(5), 2))


def unit() -> int:
    """One unit of reference work, about 5 ms of pure Python."""
    a = {}
    for n in range(1, 6):
        for i, lam in enumerate(itertools.combinations_with_replacement(range(1, 5), n % 3 + 1)):
            a[tuple(sorted(lam, reverse=True))] = Fraction(i + 1, n + 2)
    out: dict[tuple, Fraction] = {}
    for lam, c in a.items():
        for mu, d in a.items():
            key = tuple(sorted(lam + mu, reverse=True))
            acc = out.get(key, Fraction(0)) + c * d
            if acc:
                out[key] = acc
    seen = set()
    for mask in range(0, 1 << len(_PAIRS), 97):
        edges = [e for k, e in enumerate(_PAIRS) if mask >> k & 1]
        best = None
        for perm in itertools.islice(itertools.permutations(range(5)), 12):
            form = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
            if best is None or form < best:
                best = form
        seen.add(best)
    return len(out) + len(seen)


def timed_unit() -> float:
    """Seconds one unit took; raises if it computed a wrong result."""
    start = time.perf_counter()
    result = unit()
    took = time.perf_counter() - start
    if result != UNIT_RESULT:
        raise RuntimeError(f"reference unit computed {result}, expected {UNIT_RESULT}")
    return took


def sample(count: int) -> list[float]:
    """Durations of ``count`` units run back to back."""
    return [timed_unit() for _ in range(count)]


class Sampler:
    """Times one unit every ``PERIOD_S`` seconds of wall time, from a
    ``SIGALRM`` handler, while the process does other work."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.wrong = False
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            took = time.perf_counter()
            self.wrong = self.wrong or unit() != UNIT_RESULT
            self.samples.append(time.perf_counter() - took)
        finally:
            if enabled:
                gc.enable()
            self.spent += time.perf_counter() - start

    def start(self):
        timed_unit()  # warm-up, not counted
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
