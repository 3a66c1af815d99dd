"""Both join tiers under the budget and under an outside tracer.

A variant's generated join must keep what the interpreter does around
each candidate: the cooperative deadline tick inside the join loop,
the probe count and the insert outcomes.  ``Relation.matching`` and
``Relation.insert``, as looked up on the class at call time, are where
``benchmarks/perf/trace.py`` installs its probes, but the generated join
probes and stores into a relation that holds no non-ground fact itself:
it calls them only for the other probes and heads.
"""

import functools
from collections import Counter
from unittest.mock import patch

import pytest

from repro import obs
from repro.engine import Database, evaluate, ruleeval
from repro.engine.relation import Relation
from repro.governor import Budget
from repro.governor import budget as governor
from repro.lang.parser import parse_program
from repro.workloads.flights import flight_network, flights_program

#: ``_HOT`` for each tier: generated from the first call, or never.
TIERS = pytest.mark.parametrize(
    "hot", [0, 10**9], ids=["generated", "interpreted"]
)


class _Expiring(governor.BudgetMeter):
    """A meter whose deadline passes at the first in-join tick, which
    both tiers make once per candidate; it counts those candidates."""

    def __init__(self, budget, now):
        super().__init__(budget, clock=lambda: now[0])
        self.now, self.candidates = now, 0

    def tick(self, phase=None):
        self.now[0] = 10.0  # the deadline passes once the join has started
        self.candidates += 1
        super().tick(phase)


@TIERS
def test_deadline_stops_a_single_long_join(monkeypatch, hot):
    monkeypatch.setattr(ruleeval, "_HOT", hot)
    size = 4 * governor.BudgetMeter.TICK_STRIDE
    edb = Database.from_ground({
        "a": [(number,) for number in range(size)],
        "b": [(number,) for number in range(size)],
    })
    meter = _Expiring(Budget(deadline=1.0), [0.0])
    with governor.governed(meter):
        result = evaluate(parse_program("p(X, Y) :- a(X), b(Y)."), edb)
    assert result.completeness == "truncated:deadline"
    assert 0 < result.stats.derivations < size * size
    assert result.stats.probes == meter.candidates


def _observed(hot):
    """Class-level call counts, probes and generations of one run."""
    ruleeval._compile.cache_clear()
    calls = Counter()

    def counting(name):
        original = getattr(Relation, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return patch.object(Relation, name, wrapper)

    network = flight_network(
        n_layers=4, width=3, expensive_fraction=0.4, seed=42
    )
    tracer = obs.Tracer()
    with patch.object(ruleeval, "_HOT", hot), counting("matching"), (
        counting("insert")
    ), obs.recording(tracer):
        result = evaluate(flights_program(), network.database)
    generated = tracer.metrics.counters.get("engine.joins_generated", 0)
    return calls, result.stats, generated


def test_generated_joins_call_the_class_probes_like_the_interpreter():
    calls, stats, generated = _observed(0)
    interpreted_calls, interpreted_stats, none = _observed(10**9)
    assert (stats.new_facts, stats.duplicates, stats.probes) == (
        interpreted_stats.new_facts, interpreted_stats.duplicates,
        interpreted_stats.probes,
    )
    assert generated > 0 and none == 0
    # Every flights relation is ground: no generated probe falls back,
    # and every head is stored inline.
    assert interpreted_calls["matching"] > 0
    assert calls["matching"] == 0
    assert interpreted_calls["insert"] > 0
    assert calls["insert"] == 0
