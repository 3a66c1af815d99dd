"""How fast is the host running this process right now?

The sandbox's host slows a process by up to 1.6x for milliseconds or
for minutes at a time (other guests share its cores and caches).  Two
fixed one-millisecond loops slow with it: arithmetic on small
integers, and a join of a few dozen tuples of ``Fraction`` through a
dict index into a set, which is what the engine under test spends its
time on.  In a ten-minute recording that included a 1.6x stretch the
first loop moved 10% less than a cold ``answer_query`` and the second
10% more; their mean followed it within a few per cent.

:func:`slowdown` turns samples of the pair into one factor: how much
slower than a quiet sandbox the host ran while the samples were
taken.  The reference times only fix the unit: on
another kind of host every scaled time changes by one constant, which
no comparison made on that host sees.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

#: What each loop takes between the ops of a run when the sandbox is
#: quiet (seconds), so that a quiet run's factor is about 1.
ARITHMETIC_REFERENCE_S = 0.00097
JOIN_REFERENCE_S = 0.00118


def arithmetic_spin() -> float:
    started = time.perf_counter()
    total = 0
    for value in range(17_000):
        total += value * value
    return time.perf_counter() - started


def join_spin() -> float:
    started = time.perf_counter()
    legs = [
        (
            f"c{index % 9}",
            f"c{(index * 7 + 3) % 9}",
            Fraction(20 + index % 90),
            Fraction(10 + index % 60),
        )
        for index in range(36)
    ]
    by_source: dict[str, list[tuple]] = {}
    for leg in legs:
        by_source.setdefault(leg[0], []).append(leg)
    flights = set()
    for first in legs:
        for second in by_source.get(first[1], ()):
            minutes = first[2] + second[2] + 30
            cost = first[3] + second[3]
            if minutes <= 240 or cost <= 150:
                flights.add((first[0], second[1], minutes, cost))
    sorted(flights, key=lambda flight: flight[2:])
    return time.perf_counter() - started


def sample() -> tuple[float, float]:
    return arithmetic_spin(), join_spin()


def slowdown(samples: list[tuple[float, float]]) -> float:
    """The host's slowdown over the period the samples cover."""
    arithmetic = statistics.median(pair[0] for pair in samples)
    join = statistics.median(pair[1] for pair in samples)
    return (
        arithmetic / ARITHMETIC_REFERENCE_S + join / JOIN_REFERENCE_S
    ) / 2
