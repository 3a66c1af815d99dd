"""A query over a predicate no rule derives answers alike everywhere.

No rule derives ``edge``, ``color`` (only facts hold it) or ``nosuch``
(nothing does), so there is nothing to propagate, adorn or seed: every
strategy compiles to an empty rule set and reads the database, as
``none`` does -- the empty answer for ``nosuch``.  Checked through the
one-shot driver, a :class:`~repro.service.session.Session` (cold, then
after a load), ``repro --batch`` and a 2-shard cluster, where a
key-bound lookup is pruned to the one owner shard.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.driver import STRATEGIES, answer_query, split_edb
from repro.lang.parser import parse_program, parse_query
from repro.service.engine import parse_facts
from repro.service.session import Session

PROGRAM = """
edge(n1, n2). edge(n2, n3). edge(n1, n4). edge(n4, n5). edge(n5, n6).
color(n1, red). color(n2, blue).
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
"""

LOOKUPS = (
    "?- edge(n1, Y).", "?- edge(X, n3).", "?- edge(X, Y).",
    "?- color(n1, C).", "?- nosuch(X).",
)
ALL = (*STRATEGIES, "auto")


def answers_of(facts):
    return sorted(str(fact) for fact in facts)


def reference(text, extra=""):
    session = Session(parse_program(PROGRAM + extra), strategy="none")
    return answers_of(session.query(parse_query(text)).answers)


@pytest.mark.parametrize("strategy", ALL)
@pytest.mark.parametrize("text", LOOKUPS)
def test_answer_query_reads_the_database(strategy, text):
    rules, edb = split_edb(parse_program(PROGRAM))
    outcome = answer_query(rules, parse_query(text), edb, strategy)
    assert answers_of(outcome.answers) == reference(text)


@pytest.mark.parametrize("strategy", ALL)
def test_session_answers_before_and_after_a_load(strategy):
    session = Session(parse_program(PROGRAM), strategy=strategy)
    for text in LOOKUPS:
        response = session.query(parse_query(text))
        assert response.ok, response.error_message
        assert answers_of(response.answers) == reference(text)
    assert session.add_facts(parse_facts("edge(n1, n7).")).ok
    response = session.query(parse_query("?- edge(n1, Y)."))
    assert answers_of(response.answers) == reference(
        "?- edge(n1, Y).", "edge(n1, n7)."
    )


@pytest.mark.parametrize("strategy", ALL)
def test_batch_answers_without_error(strategy, tmp_path, capsys):
    program = tmp_path / "program.cql"
    program.write_text(PROGRAM)
    requests = tmp_path / "requests.txt"
    requests.write_text("\n".join(LOOKUPS) + "\n")
    status = main([
        str(program), "--batch", str(requests), "--strategy", strategy,
    ])
    captured = capsys.readouterr()
    assert status == 0 and "Traceback" not in captured.err
    docs = [json.loads(line) for line in captured.out.splitlines()]
    assert [doc["type"] for doc in docs] == ["answers"] * len(LOOKUPS)
    for text, doc in zip(LOOKUPS, docs):
        assert sorted(doc["answers"]) == sorted(
            Session(parse_program(PROGRAM), strategy="none")
            .query(parse_query(text)).answer_strings
        )


@pytest.mark.parametrize("strategy", ["none", "rewrite", "magic", "optimal"])
def test_pruned_cluster_lookup_answers(strategy):
    from repro.shard import ShardedEngine

    engine = ShardedEngine.from_text(
        PROGRAM, 2, strategy=strategy, heartbeat_interval=0.0
    )
    engine.coordinator.start()
    try:
        query = parse_query("?- edge(n1, Y).")
        assert engine.coordinator.plan.seed_shards(query) is not None
        response = engine.session.query(query)
        assert response.ok, response.error_message
        assert answers_of(response.answers) == reference(str(query))
        for text in ("?- color(n1, C).", "?- nosuch(X)."):
            response = engine.session.query(parse_query(text))
            assert response.ok, response.error_message
            assert answers_of(response.answers) == reference(text)
    finally:
        engine.coordinator.close(drain=False)
