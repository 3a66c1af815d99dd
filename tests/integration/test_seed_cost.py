"""A magic form keeps one warm database; a new seed costs its delta.

Counts, not clocks, on the ruler's own ``session-seeds`` op stream at
its smoke size (one ``cheaporshort(src, dst, T, C)`` form under the
``optimal`` order, constants drawn from a pool of nine end-to-end
pairs, one leg loaded mid-stream).  The form must be *evaluated* once
and every later request must pay only for what the warm database is
missing: a seed it has not seen (or a loaded leg) enters through
``engine.resume`` as a delta, a seed it holds -- or one a more general
seed subsumes -- is answered without a probe.  Accumulation has a
ceiling, past which the state resets and rebuilds cold.

A change that brings back a cold fixpoint per seed, or a side table
that misses what the database already covers, fails here under its own
name rather than as a slow benchmark.
"""

import sys
from pathlib import Path

import pytest

from repro.engine import evaluate
from repro.lang.parser import parse_query
from repro.service import Engine
from repro.service import cache as service_cache
from repro.workloads.flights import flights_program

PERF = str(Path(__file__).resolve().parents[2] / "benchmarks" / "perf")


@pytest.fixture(scope="module")
def stream():
    """(base legs as text, ops) of ``session-seeds --smoke``, seed 7."""
    sys.path.insert(0, PERF)
    try:
        import inputs
    finally:
        sys.path.remove(PERF)
    base, first, ops = inputs.session_seeds_ops(7, 10, 9, 3, 3)
    return inputs.facts_text(base), [*first, *ops]


def _engine(base: str) -> Engine:
    engine = Engine(flights_program(), strategy="optimal")
    assert engine.add_facts(base).ok
    return engine


def test_one_evaluation_then_deltas(stream):
    base, ops = stream
    engine, reference = _engine(base), _engine(base)
    asked: set = set()
    cold_derivations = warm_derivations = 0
    responses = []
    for op in ops:
        if op.kind == "load":
            assert engine.add_facts(op.text).ok
            assert reference.add_facts(op.text).ok
            asked.clear()  # a load makes every seed's next ask a refresh
            continue
        response = engine.query(op.text)
        assert frozenset(response.answer_strings) == op.expected
        responses.append(response)
        # What a per-seed policy pays for a seed it holds no state for.
        query = parse_query(op.text)
        entry, __, __ = reference.session.prepare(query)
        specialized, __ = entry.compiled.specialize(query)
        cold = evaluate(specialized, reference.session.edb)
        cold_derivations += cold.stats.derivations
        if op.text in asked:
            # A repeated seed: nothing probed, nothing derived.
            assert response.warm and not response.resumed
            assert response.eval_stats is None
        else:
            assert response.eval_stats is not None
            warm_derivations += response.eval_stats.derivations
        asked.add(op.text)
    # Evaluated once; every other request met the one warm database.
    assert [response.warm for response in responses] == [False] + [
        True
    ] * (len(responses) - 1)
    assert any(r.warm and not r.resumed for r in responses)
    assert sum(r.resumed for r in responses) >= 3
    stats = engine.stats()["cache"]
    assert (stats["entries"], stats["warm_states"]) == (1, 1)
    # Cumulative: nearby seeds share magic and adorned facts.
    assert 0 < warm_derivations < cold_derivations / 2


def test_subsumed_seed_is_a_pure_hit():
    """A ground seed under an earlier, more general constraint seed.

    ``Session.query`` binds only constants, so its seeds are ground;
    the general seed is planted through the same evaluation step with
    a variable at the bound position, as a form policy that bound
    constrained variables would.
    """
    engine = Engine.from_text(
        """
        reach(X, Y) :- step(X, Y).
        reach(X, Y) :- step(X, Z), reach(Z, Y).
        step(1, 2). step(2, 3). step(3, 4). step(4, 5). step(7, 8).
        step(9, 10).
        """,
        strategy="magic",
    )
    session = engine.session
    assert engine.query("?- reach(7, Y).").answer_strings == ["Y = 8"]
    entry = next(session.cache.entries())
    general = parse_query("?- reach(X, Y), X <= 3.")
    planted = session._evaluate_entry(general, entry, True, None)
    assert planted.resumed and len(planted.answers) == 9
    seed_pred = entry.compiled.seed_pred
    assert f"{seed_pred}($1; $1 <= 3)" in map(
        str, entry.warm.database.facts(seed_pred)
    )
    before = entry.warm.last_stamp
    covered = engine.query("?- reach(2, Y).")
    assert covered.warm and not covered.resumed
    assert covered.eval_stats is None  # 0 iterations, probes, derivations
    assert entry.warm.last_stamp == before
    assert sorted(covered.answer_strings) == ["Y = 3", "Y = 4", "Y = 5"]
    # Outside the general seed's range the database must still grow.
    beyond = engine.query("?- reach(9, Y).")
    assert beyond.resumed and beyond.answer_strings == ["Y = 10"]


def test_ceiling_resets_the_accumulated_state(stream, monkeypatch):
    base, ops = stream
    monkeypatch.setattr(service_cache, "MAX_WARM_DERIVED_FACTS", 5)
    engine = _engine(base)
    session = engine.session

    def states() -> int:
        return engine.stats()["cache"]["warm_states"]

    resets = 0
    for op in ops:
        if op.kind == "load":
            assert engine.add_facts(op.text).ok
            continue
        had_state = states() == 1
        response = engine.query(op.text)
        # Whatever the state went through, the answer is the cold one.
        assert response.completeness == "complete"
        assert frozenset(response.answer_strings) == op.expected
        assert response.warm == had_state
        assert states() <= 1
        resets += response.resumed and states() == 0
    # Every second seed tips the tiny ceiling: the state resets, the
    # next request rebuilds cold from its own seed alone, and that
    # single-seed state is kept however large it is.
    assert resets >= 3
    # The fact log is still trimmed to what the one state (or none)
    # lacks: under repeated loads it never holds more than the newest.
    queries = [op for op in ops if op.kind == "query"]
    for index, op in enumerate(queries[:4]):
        assert engine.add_facts(f"singleleg(x{index}, y{index}, 9, 9).").ok
        assert [epoch for epoch, __ in session._fact_log] == [
            session.epoch
        ]
        assert frozenset(engine.query(op.text).answer_strings) == (
            op.expected
        )
        assert session.cache.min_warm_epoch(default=-1) in (
            -1, session.epoch
        )
