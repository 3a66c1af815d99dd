"""The N-thread hammer: one engine, many threads, zero wrong answers.

The session's reader-writer discipline claims that queries interleaved
with fact loads from many threads can never produce an answer a
sequential execution could not.  This test hammers one
:class:`~repro.service.engine.Engine` directly (no supervisor in the
way) and checks the two load-bearing invariants:

* every concurrent answer set is a subset of the final one (the
  program is monotone, so anything else is a torn read), and
* no fact-load epoch is lost -- the final epoch equals the number of
  effective loads, and the final answers equal the sequential run's.

The queriers ask three forms of one predicate, which under the default
``rewrite`` strategy share one compile and one warm database, so
every load folded in by one form's request must reach the others.
"""

from __future__ import annotations

import sys
import threading

from repro.service.engine import Engine

PROGRAM = """
reach(X, Y, C) :- edge(X, Y, C).
reach(X, Z, C) :- reach(X, Y, C1), edge(Y, Z, C2), C = C1 + C2,
    C <= 1000.
edge(n0, n1, 1).
"""

QUERY = "?- reach(n0, X, C)."
#: Three forms of ``reach``: one cache entry under ``rewrite``.
FORMS = (QUERY, "?- reach(X, n9, C).", "?- reach(X, Y, C), C <= 3.")

#: Chain facts loaded while queries run: edge(n1, n2, 1) ... -- each
#: one extends the reachable set, so progress is observable.
CHAIN = [
    f"edge(n{index}, n{index + 1}, 1)." for index in range(1, 13)
]

LOADERS = 3
QUERIERS = 4
QUERIES_EACH = 8


def _sequential_answers(query: str = QUERY) -> list[str]:
    engine = Engine.from_text(PROGRAM)
    for spec in CHAIN:
        assert engine.add_facts(spec).ok
    return sorted(engine.query(query).answer_strings)


def test_hammer_matches_sequential_and_loses_no_epochs():
    engine = Engine.from_text(PROGRAM)
    errors: list[str] = []
    observed: list[tuple[str, list[str]]] = []
    lock = threading.Lock()
    start = threading.Barrier(LOADERS + QUERIERS)

    def loader(chunk: list[str]) -> None:
        start.wait()
        for spec in chunk:
            response = engine.add_facts(spec)
            if not response.ok or response.added != 1:
                with lock:
                    errors.append(
                        f"load {spec!r}: {response.error_message} "
                        f"(added={response.added})"
                    )

    def querier(query: str) -> None:
        start.wait()
        for _ in range(QUERIES_EACH):
            response = engine.query(query)
            if not response.ok:
                with lock:
                    errors.append(
                        f"query: {response.error_message}"
                    )
                continue
            with lock:
                observed.append((query, sorted(response.answer_strings)))

    chunks = [CHAIN[index::LOADERS] for index in range(LOADERS)]
    threads = [
        threading.Thread(target=loader, args=(chunk,))
        for chunk in chunks
    ] + [
        threading.Thread(target=querier, args=(FORMS[index % 3],))
        for index in range(QUERIERS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=90)
            assert not thread.is_alive(), "hammer thread hung"
    finally:
        sys.setswitchinterval(interval)

    assert errors == []
    # No lost epochs: every effective load bumped the epoch exactly
    # once.
    assert engine.session.epoch == len(CHAIN)
    assert len(engine.session.cache) == 1
    finals = {
        query: sorted(engine.query(query).answer_strings)
        for query in FORMS
    }
    for query, final in finals.items():
        assert final == _sequential_answers(query), query
    # Monotone program + consistent snapshots: every concurrent
    # answer set must be a subset of the final one.
    for query, answers in observed:
        assert set(answers) <= set(finals[query])
    assert len(observed) == QUERIERS * QUERIES_EACH


def test_auto_picks_race_to_one_strategy_per_form():
    """Racing first requests under ``auto`` settle on one pick per form.

    The bound forms reach recursion (``magic``, one key each) and the
    free one does not (``none``): three compiles, whatever the
    interleaving, and every answer equals a fresh run's.
    """
    engine = Engine.from_text(PROGRAM + "\n".join(CHAIN), strategy="auto")
    answers: list[tuple[str, list[str]]] = []
    lock = threading.Lock()
    start = threading.Barrier(2 * len(FORMS))

    def querier(query: str) -> None:
        start.wait()
        response = engine.query(query)
        with lock:
            answers.append((query, sorted(response.answer_strings)))

    threads = [
        threading.Thread(target=querier, args=(query,))
        for query in FORMS * 2
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=90)
            assert not thread.is_alive(), "querier thread hung"
    finally:
        sys.setswitchinterval(interval)

    assert sorted(
        entry.compiled.strategy for entry in engine.session.cache.entries()
    ) == ["magic", "magic", "none"]
    assert len(answers) == 2 * len(FORMS)
    for query, found in answers:
        assert found == _sequential_answers(query), query


def test_hammer_through_the_supervisor():
    """The same interleaving submitted through the worker pool."""
    from repro.serve.supervisor import ServeConfig, Supervisor

    engine = Engine.from_text(PROGRAM)
    lines = []
    for index, spec in enumerate(CHAIN):
        lines.append(spec)
        if index % 2:
            lines.append(QUERY)
    with Supervisor(
        engine, ServeConfig(workers=6, queue_depth=64)
    ) as supervisor:
        requests = [supervisor.submit(line) for line in lines]
        responses = [
            request.result(timeout=60) for request in requests
        ]
    assert all(response.ok for response in responses)
    final = sorted(engine.query(QUERY).answer_strings)
    assert final == _sequential_answers()


def test_two_loaders_with_checkpoints_lose_no_acked_fact(tmp_path):
    """Concurrent loaders, a checkpoint (and compaction) per load, a
    crash with no drain: recovery must hold every acknowledged fact."""
    import shutil
    import sys

    from repro.engine.facts import Fact
    from repro.serve.supervisor import ServeConfig, Supervisor

    live, crashed = str(tmp_path / "live"), str(tmp_path / "crashed")
    config = ServeConfig(
        workers=2, snapshot_dir=live, snapshot_every=1
    )
    supervisor = Supervisor(
        Engine.from_text(PROGRAM), config, program_id="hammer"
    ).start()
    acked: list[int] = []
    lock = threading.Lock()

    def loader(indexes) -> None:
        for index in indexes:
            line = f"edge(m{index}, m{index + 1}, 1)."
            response = supervisor.submit(line).result(timeout=60)
            if response.ok:
                with lock:
                    acked.append(index)

    threads = [
        threading.Thread(target=loader, args=(range(start, 40, 2),))
        for start in (0, 1)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=90)
            assert not thread.is_alive(), "loader thread hung"
        # The crash: what is on disk once every load is acknowledged.
        shutil.copytree(live, crashed)
    finally:
        sys.setswitchinterval(interval)
        supervisor.drain()
    assert len(acked) == 40
    assert supervisor.healthz()["durability"] == "ok"

    recovered = Engine.from_text(PROGRAM)
    report = Supervisor(
        recovered,
        ServeConfig(workers=1, snapshot_dir=crashed),
        program_id="hammer",
    ).recover()
    assert not report["corrupt"]
    edb = recovered.session.edb
    lost = [
        index for index in acked
        if Fact.ground("edge", [f"m{index}", f"m{index + 1}", 1])
        not in edb
    ]
    assert lost == []
