"""Hang detection, fencing, and the shutdown ladder (real workers).

PR 8's fault model was crash-only: a dead pipe failed fast, but a
worker that was *alive and silent* -- SIGSTOPped, deadlocked, wedged
in a stuck op -- blocked its supervisor thread forever.  These tests
pin the gray-failure contract: every coordinator op is deadline
bounded, a hung worker is declared dead within the configured
timeout and SIGKILLed, loads on it fail fast with transient
``REPRO_SHARD`` while queries retry once after the inline respawn,
stale replies from a killed incarnation are fenced by nonce, and a
stuck worker cannot stall shutdown past the escalation ladder.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.errors import ShardError
from repro.lang.parser import parse_query
from repro.service.engine import parse_facts
from repro.shard import ShardedEngine
from repro.shard.coordinator import ShardClient

PROGRAM = """
edge(n1, n2, 1). edge(n2, n3, 1). edge(n3, n4, 2). edge(n4, n5, 1).
edge(n5, n6, 3). edge(n2, n5, 2). edge(n6, n7, 1). edge(n1, n4, 5).
reach(X, Y) :- edge(X, Y, C).
reach(X, Z) :- reach(X, Y), edge(Y, Z, C).
"""


def wait_until(predicate, timeout=15.0, step=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return predicate()


# -- fencing (deterministic, no subprocess) ---------------------------


def test_stale_incarnation_reply_is_fenced():
    counters: dict = {}
    client = ShardClient(0, {}, counters=counters)
    client.incarnation = 2
    client.nonce = "0:2"
    # A zombie from incarnation 1 drains its old pipe late: its
    # reply must be dropped and counted, never credited.
    assert not client._route(
        {"id": 7, "nonce": "0:1", "ok": True}, nonce="0:1"
    )
    assert counters["fenced_replies"] == 1


def test_live_nonce_without_pending_slot_is_fenced():
    counters: dict = {}
    client = ShardClient(0, {}, counters=counters)
    client.nonce = "0:1"
    # Correct incarnation but the call was already abandoned (its
    # deadline expired): same fence, the reply has no taker.
    assert not client._route(
        {"id": 99, "nonce": "0:1", "ok": True}, nonce="0:1"
    )
    assert counters["fenced_replies"] == 1


def test_reader_nonce_mismatch_is_fenced_even_with_matching_frame():
    # The reader thread itself belongs to a superseded incarnation
    # (a respawn happened while it was blocked): everything it
    # routes is fenced, even a frame forged with the live nonce.
    counters: dict = {}
    client = ShardClient(0, {}, counters=counters)
    client.nonce = "0:2"
    assert not client._route(
        {"id": 1, "nonce": "0:2", "ok": True}, nonce="0:1"
    )
    assert counters["fenced_replies"] == 1


def test_incarnation_nonce_advances_per_spawn():
    client = ShardClient(3, {})
    first = client.nonce
    client.incarnation += 1  # what spawn() does before Popen
    client.nonce = f"{client.shard}:{client.incarnation}"
    assert client.nonce != first
    assert client.nonce.startswith("3:")


# -- deadline propagation ---------------------------------------------


def test_op_deadline_keeps_worker_tripping_first():
    from repro.governor import Budget
    from repro.shard.coordinator import (
        DEADLINE_GRACE,
        DEADLINE_SLACK,
        MIN_DEADLINE_LEFT,
    )

    engine = ShardedEngine.from_text(
        PROGRAM, 1, budget=Budget(deadline=10.0)
    )
    coordinator = engine.coordinator
    started = time.monotonic()
    left, timeout = coordinator._op_deadline(started)
    # The frame deadline undercuts the coordinator's own timeout by
    # slack + grace, so an overrunning query surfaces as a
    # truncated reply, not a declared hang.
    assert left < timeout
    assert left == pytest.approx(10.0 - DEADLINE_SLACK, abs=0.2)
    assert timeout == pytest.approx(10.0 + DEADLINE_GRACE, abs=0.2)
    # A request with its budget already spent still propagates a
    # positive floor so the worker meter trips at its first check.
    exhausted_left, __ = coordinator._op_deadline(started - 60.0)
    assert exhausted_left == MIN_DEADLINE_LEFT


def test_op_deadline_without_budget_uses_flat_op_timeout():
    engine = ShardedEngine.from_text(PROGRAM, 1, op_timeout=7.0)
    left, timeout = engine.coordinator._op_deadline(time.monotonic())
    assert left is None and timeout == 7.0


# -- hang-injected workers (end to end) -------------------------------


def test_hang_fault_is_detected_killed_and_query_retried():
    # ``hang:q_start:2:1``: the first query passes; the second wedges
    # every worker at q_start.  Occurrence counters reset with the
    # incarnation, so after detection + respawn the inline retry's
    # fresh workers sail through -- the caller never sees the hang.
    engine = ShardedEngine.from_text(
        PROGRAM,
        2,
        faults="hang:q_start:2:1",
        op_timeout=2.0,
        heartbeat_interval=0.5,
    )
    engine.coordinator.start()
    try:
        first = engine.session.query(parse_query("?- reach(n1, Y)."))
        assert first.ok
        started = time.monotonic()
        second = engine.session.query(parse_query("?- reach(n2, Y)."))
        elapsed = time.monotonic() - started
        assert second.ok, second.error_message
        assert sorted(str(fact) for fact in second.answers)
        counters = engine.coordinator.counters
        assert counters["hangs"] >= 1
        assert counters["respawns"] >= 1
        assert counters["round_retries"] == 1
        # Detection is bounded by the op timeout, not by luck: the
        # whole incident (detect + respawn + retry) stays well under
        # a blocking-read eternity.
        assert elapsed < 20.0
    finally:
        engine.coordinator.close(drain=False)


def test_hang_on_a_pruned_lookup_is_detected_and_retried():
    # The same fault on the solo path: a pruned lookup is one q_start
    # frame to its owner, so the owner's second lookup wedges there.
    engine = ShardedEngine.from_text(
        PROGRAM,
        2,
        faults="hang:q_start:2:1",
        op_timeout=2.0,
        heartbeat_interval=0.5,
    )
    engine.coordinator.start()
    try:
        first = parse_query("?- edge(n1, Y, C).")
        second = parse_query("?- edge(n1, Z, D).")
        owners = engine.coordinator.plan.seed_shards(first)
        assert owners is not None and len(owners) == 1
        assert engine.session.query(first).ok
        started = time.monotonic()
        response = engine.session.query(second)
        elapsed = time.monotonic() - started
        assert response.ok, response.error_message
        assert response.answer_strings == ["D = 1, Z = n2", "D = 5, Z = n4"]
        counters = engine.coordinator.counters
        assert counters["hangs"] == 1
        assert counters["respawns"] == 1
        assert counters["round_retries"] == 1
        assert elapsed < 20.0
    finally:
        engine.coordinator.close(drain=False)


def test_sigstop_worker_heartbeat_detects_and_recovers(tmp_path):
    engine = ShardedEngine.from_text(
        PROGRAM,
        2,
        snapshot_dir=str(tmp_path / "snap"),
        snapshot_every=100,
        op_timeout=5.0,
        heartbeat_interval=0.3,
    )
    engine.coordinator.recover()
    try:
        assert engine.add_facts("edge(k1, k2, 1).").ok
        victim = engine.coordinator.pids()[1]
        os.kill(victim, signal.SIGSTOP)
        # The idle heartbeat notices the wedged worker without any
        # request in flight, declares it hung, and SIGKILLs it.
        client = engine.coordinator._clients[1]
        assert wait_until(lambda: not client.alive), (
            "heartbeat never declared the SIGSTOPped worker hung"
        )
        counters = engine.coordinator.counters
        assert counters["heartbeat_misses"] >= 1
        assert counters["hangs"] >= 1
        # Next request respawns + WAL-recovers: zero acked-fact loss.
        response = engine.session.query(
            parse_query("?- edge(k1, Y, C).")
        )
        assert response.ok and len(response.answers) == 1
        assert engine.coordinator.epoch == 1
        assert counters["respawns"] >= 1
    finally:
        engine.coordinator.close(drain=False)


def test_load_on_hung_worker_fails_fast_and_is_never_retried(
    tmp_path,
):
    engine = ShardedEngine.from_text(
        PROGRAM,
        2,
        snapshot_dir=str(tmp_path / "snap"),
        snapshot_every=100,
        op_timeout=1.5,
        heartbeat_interval=0.0,  # only the op deadline may save us
    )
    engine.coordinator.recover()
    try:
        assert engine.add_facts("edge(a1, a2, 1).").ok
        # Stop the shard that *owns* the incoming fact, so the load
        # must touch the wedged worker (a broadcast fact touches
        # every shard; shard 0 is then as good a victim as any).
        fact = parse_facts("edge(b1, b2, 1).")[0]
        owner = engine.coordinator.plan.route(fact) or 0
        os.kill(engine.coordinator.pids()[owner], signal.SIGSTOP)
        started = time.monotonic()
        failed = engine.coordinator.add_facts([fact])
        elapsed = time.monotonic() - started
        # In-flight load fails fast with the transient code -- loads
        # are not idempotent, so no silent retry -- and well within
        # the op timeout plus respawn overhead.
        assert not failed.ok
        assert failed.error_code == "REPRO_SHARD"
        assert elapsed < 10.0
        assert engine.coordinator.counters["hangs"] >= 1
        # The very next load lands on the respawned, WAL-recovered
        # worker; the earlier ack survived.
        again = engine.add_facts("edge(b1, b2, 1).")
        assert again.ok
        check = engine.session.query(parse_query("?- edge(a1, Y, C)."))
        assert check.ok and len(check.answers) == 1
    finally:
        engine.coordinator.close(drain=False)


def test_nondurable_respawn_invalidates_cached_answers():
    # Without a WAL a respawned worker is an amnesiac: the loads it
    # acked are gone.  Its epoch must reset so answers cached over
    # the richer pre-crash state stop being served as current -- the
    # recomputed (smaller) answer is honest, a stale cache hit is a
    # lie.
    engine = ShardedEngine.from_text(
        PROGRAM, 2, heartbeat_interval=0.0
    )
    engine.coordinator.start()
    try:
        fact = parse_facts("edge(z1, z2, 1).")[0]
        assert engine.coordinator.add_facts([fact]).ok
        question = parse_query("?- edge(z1, Y, C).")
        first = engine.session.query(question)
        assert first.ok and len(first.answers) == 1
        owner = engine.coordinator.plan.route(fact) or 0
        os.kill(
            engine.coordinator.pids()[owner], signal.SIGKILL
        )
        client = engine.coordinator._clients[owner]
        assert wait_until(lambda: not client.alive)
        second = engine.session.query(question)
        assert second.ok
        assert not second.cached, "stale warm hit after amnesia"
        assert len(second.answers) == 0
    finally:
        engine.coordinator.close(drain=False)


# -- shutdown escalation ladder ---------------------------------------


def test_stuck_worker_cannot_stall_graceful_shutdown():
    engine = ShardedEngine.from_text(
        PROGRAM,
        1,
        faults="hang:shutdown:1:1",
        op_timeout=1.0,
        heartbeat_interval=0.0,
    )
    engine.coordinator.start()
    client = engine.coordinator._clients[0]
    process = client.process
    started = time.monotonic()
    engine.coordinator.close(drain=True)  # shutdown op hangs forever
    elapsed = time.monotonic() - started
    assert process.poll() is not None, "worker still running"
    assert elapsed < 10.0
    assert engine.coordinator.counters["hangs"] >= 1


def test_close_ladder_escalates_to_sigkill_on_sigstop():
    engine = ShardedEngine.from_text(
        PROGRAM, 1, op_timeout=5.0, heartbeat_interval=0.0
    )
    engine.coordinator.start()
    client = engine.coordinator._clients[0]
    process = client.process
    os.kill(process.pid, signal.SIGSTOP)
    started = time.monotonic()
    # Not graceful: EOF is ignored (stopped), SIGTERM stays pending
    # (stopped), so only the final SIGKILL rung can end it.
    client.close(graceful=False, timeout=0.5)
    elapsed = time.monotonic() - started
    assert process.poll() is not None
    assert elapsed < 8.0


def test_call_on_down_worker_raises_immediately():
    client = ShardClient(0, {})
    with pytest.raises(ShardError):
        client.call({"op": "ping"})
