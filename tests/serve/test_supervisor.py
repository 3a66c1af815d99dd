"""The supervisor: admission, retries, breakers, supervision, drain.

Fault injection rides the observability seam exactly as production
does (``recording(FaultyRecorder(...))``), so these tests exercise the
real retry and respawn paths, not mocks of them.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import pytest

from repro.codec import unseal
from repro.governor import Budget, FaultPlan, FaultyRecorder
from repro.lang.parser import parse_query
from repro.obs.recorder import recording
from repro.serve.breaker import OPEN
from repro.serve.retry import RetryPolicy
from repro.serve.snapshot import program_sha
from repro.serve.supervisor import ServeConfig, Supervisor
from repro.service.engine import Engine
from repro.service.forms import canonicalize
from repro.service.session import Response

PROGRAM = """
reach(X, Y, C) :- edge(X, Y, C).
reach(X, Z, C) :- reach(X, Y, C1), edge(Y, Z, C2), C = C1 + C2,
    C <= 100.
edge(a, b, 3).
edge(b, c, 4).
"""

#: A ``repro-snap/v3`` directory whose snapshot embeds the per-form
#: strategy records that ``auto`` sessions once measured and persisted.
SNAPSHOT_PLANNER = (
    Path(__file__).parent.parent / "golden" / "snap-v3-planner"
)

LINES = [
    "?- reach(a, X, C).",
    "edge(c, d, 5).",
    "?- reach(a, X, C).",
    "% a comment",
    "",
    "?- reach(b, X, C), C <= 5.",
]


def _fast_retry(retries: int = 2) -> RetryPolicy:
    return RetryPolicy(
        retries=retries, base_delay=0.0, rng=lambda: 0.0
    )


def _run(supervisor: Supervisor, lines) -> list[Response]:
    requests = [supervisor.submit(line) for line in lines]
    return [
        request.result(timeout=30)
        for request in requests
        if request is not None
    ]


class TestServing:
    def test_matches_the_sequential_batch_run(self):
        sequential = Engine.from_text(PROGRAM)
        expected = [
            response.to_dict()
            for response in sequential.batch(LINES)
        ]
        engine = Engine.from_text(PROGRAM)
        with Supervisor(
            engine, ServeConfig(workers=4)
        ) as supervisor:
            responses = _run(supervisor, LINES)
        got = [response.to_dict() for response in responses]
        assert len(got) == len(expected)
        for mine, reference in zip(got, expected):
            assert mine["type"] == reference["type"]
            if reference["type"] == "answers":
                assert sorted(mine["answers"]) == sorted(
                    reference["answers"]
                )
                assert mine["completeness"] == (
                    reference["completeness"]
                )
            elif reference["type"] == "facts":
                assert mine["added"] == reference["added"]

    def test_submit_requires_start(self):
        supervisor = Supervisor(Engine.from_text(PROGRAM))
        with pytest.raises(RuntimeError, match="not started"):
            supervisor.submit("?- reach(a, X, C).")

    def test_comments_and_blanks_are_not_requests(self):
        with Supervisor(Engine.from_text(PROGRAM)) as supervisor:
            assert supervisor.submit("% note") is None
            assert supervisor.submit("   ") is None
        assert supervisor.stats()["serve"]["submitted"] == 0


class TestAdmissionControl:
    def test_overflow_is_shed_with_overload(self):
        engine = Engine.from_text(PROGRAM)
        config = ServeConfig(workers=1, queue_depth=2)
        with Supervisor(engine, config) as supervisor:
            # Hold the session's write lock so every query blocks:
            # 1 stuck in the worker + 2 queued = the next is shed.
            engine.session._rw.acquire_write()
            try:
                requests = [
                    supervisor.submit("?- reach(a, X, C).")
                    for _ in range(4)
                ]
                deadline = time.monotonic() + 10
                while (
                    supervisor._queue.qsize() < 2
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                shed = supervisor.submit("?- reach(a, X, C).")
                assert shed.done
                response = shed.result()
                assert response.error_code == "REPRO_OVERLOAD"
                assert "admission queue full" in (
                    response.error_message
                )
            finally:
                engine.session._rw.release_write()
            for request in requests:
                result = request.result(timeout=30)
                # The early ones complete; late ones may also have
                # been shed depending on worker pickup timing.
                assert result.kind in ("answers", "error")
        stats = supervisor.stats()["serve"]
        assert stats["shed"] >= 1

    def test_draining_supervisor_sheds_new_work(self):
        with Supervisor(Engine.from_text(PROGRAM)) as supervisor:
            pass  # drained by __exit__
        supervisor._started = True  # bypass the start guard only
        request = supervisor.submit("?- reach(a, X, C).")
        assert request.result().error_code == "REPRO_OVERLOAD"


class TestRetries:
    def test_transient_query_fault_is_retried(self):
        plan = FaultPlan.from_spec("fail:serve.dispatch:1:2")
        engine = Engine.from_text(PROGRAM)
        config = ServeConfig(workers=1, retry=_fast_retry(3))
        with recording(FaultyRecorder(plan)):
            with Supervisor(engine, config) as supervisor:
                (response,) = _run(
                    supervisor, ["?- reach(a, X, C)."]
                )
        assert response.ok
        assert sorted(response.answer_strings) == [
            "C = 3, X = b", "C = 7, X = c"
        ]
        assert supervisor.stats()["serve"]["retries"] == 2

    def test_retry_budget_is_bounded(self):
        plan = FaultPlan.from_spec("fail:serve.dispatch:1:*")
        engine = Engine.from_text(PROGRAM)
        config = ServeConfig(workers=1, retry=_fast_retry(2))
        with recording(FaultyRecorder(plan)):
            with Supervisor(engine, config) as supervisor:
                (response,) = _run(
                    supervisor, ["?- reach(a, X, C)."]
                )
        assert response.error_code == "REPRO_FAULT"
        assert supervisor.stats()["serve"]["retries"] == 2

    def test_fact_loads_are_never_retried(self):
        plan = FaultPlan.from_spec("fail:serve.dispatch:1:1")
        engine = Engine.from_text(PROGRAM)
        config = ServeConfig(workers=1, retry=_fast_retry(5))
        with recording(FaultyRecorder(plan)):
            with Supervisor(engine, config) as supervisor:
                (response,) = _run(supervisor, ["edge(x, y, 1)."])
        assert response.error_code == "REPRO_FAULT"
        assert supervisor.stats()["serve"]["retries"] == 0
        # The fault fired before the session saw the load.
        assert engine.session.epoch == 0

    def test_parse_errors_are_not_retried(self):
        engine = Engine.from_text(PROGRAM)
        config = ServeConfig(workers=1, retry=_fast_retry(5))
        with Supervisor(engine, config) as supervisor:
            (response,) = _run(supervisor, ["?- reach(a X C)."])
        assert response.error_code == "REPRO_PARSE"
        assert supervisor.stats()["serve"]["retries"] == 0


class TestSupervision:
    def test_worker_death_fails_request_and_respawns(self):
        plan = FaultPlan.from_spec("fail:serve.worker:1:1")
        engine = Engine.from_text(PROGRAM)
        config = ServeConfig(workers=1, retry=_fast_retry(0))
        with recording(FaultyRecorder(plan)):
            with Supervisor(engine, config) as supervisor:
                first, second = _run(supervisor, [
                    "?- reach(a, X, C).", "?- reach(a, X, C).",
                ])
        assert first.error_code == "REPRO_FAULT"
        assert "worker died" in first.error_message
        assert second.ok  # served by the replacement worker
        stats = supervisor.stats()["serve"]
        assert stats["worker_deaths"] == 1
        assert stats["completed"] == 2

    def test_healthz_reports_pool_and_breakers(self):
        with Supervisor(
            Engine.from_text(PROGRAM), ServeConfig(workers=2)
        ) as supervisor:
            health = supervisor.healthz()
            assert health["status"] == "ok"
            assert health["workers_alive"] == 2
            assert health["queue_capacity"] == 64
            assert health["breakers_open"] == 0
        assert supervisor.healthz()["status"] == "draining"


class TestCircuitBreaking:
    def test_repeated_budget_trips_open_the_form_breaker(self):
        engine = Engine.from_text(
            PROGRAM,
            budget=Budget(max_facts=1),
            on_limit="fail",
        )
        config = ServeConfig(
            workers=1, breaker_threshold=2, retry=_fast_retry(0)
        )
        with Supervisor(engine, config) as supervisor:
            responses = _run(
                supervisor, ["?- reach(a, X, C)."] * 4
            )
        codes = [response.error_code for response in responses]
        assert codes == [
            "REPRO_BUDGET", "REPRO_BUDGET",
            "REPRO_CIRCUIT_OPEN", "REPRO_CIRCUIT_OPEN",
        ]
        # Open-circuit refusals never reached the session.
        assert engine.session.requests == 2

    def test_open_breaker_serves_fallback_under_widen(self):
        engine = Engine.from_text(PROGRAM, on_limit="widen")
        supervisor = Supervisor(
            engine, ServeConfig(workers=1)
        ).start()
        query = parse_query("?- reach(a, X, C).")
        form, _ = canonicalize(query)
        stale = Response(
            kind="answers",
            query=query,
            completeness="approximated",
            answers=[],
        )
        breaker = supervisor._breakers.get(str(form))
        breaker.fallback = stale
        breaker.state = OPEN
        breaker.opened_at = breaker.clock()
        try:
            (response,) = _run(
                supervisor, ["?- reach(a, X, C)."]
            )
        finally:
            supervisor.drain()
        assert response.ok
        assert response.completeness == "approximated"
        assert any("circuit open" in note for note in response.notes)
        # The original fallback is not mutated by the note.
        assert stale.notes == []

    def test_open_breaker_errors_without_widen(self):
        engine = Engine.from_text(PROGRAM)  # on_limit=truncate
        supervisor = Supervisor(
            engine, ServeConfig(workers=1)
        ).start()
        query = parse_query("?- reach(a, X, C).")
        form, _ = canonicalize(query)
        breaker = supervisor._breakers.get(str(form))
        breaker.fallback = Response(
            kind="answers", completeness="approximated"
        )
        breaker.state = OPEN
        breaker.opened_at = breaker.clock()
        try:
            (response,) = _run(
                supervisor, ["?- reach(a, X, C)."]
            )
        finally:
            supervisor.drain()
        assert response.error_code == "REPRO_CIRCUIT_OPEN"


class TestDurability:
    def test_drain_checkpoints_and_recover_restores(self, tmp_path):
        config = ServeConfig(
            workers=2,
            snapshot_dir=str(tmp_path),
            snapshot_every=2,
        )
        engine = Engine.from_text(PROGRAM)
        with Supervisor(
            engine, config, program_id="prog"
        ) as supervisor:
            responses = _run(supervisor, [
                "edge(c, d, 5).",
                "edge(d, e, 6).",
                "edge(e, f, 7).",
                "?- reach(a, X, C).",
            ])
        assert all(response.ok for response in responses)
        expected = sorted(responses[-1].answer_strings)

        fresh = Engine.from_text(PROGRAM)
        restarted = Supervisor(
            fresh, ServeConfig(snapshot_dir=str(tmp_path)),
            program_id="prog",
        )
        summary = restarted.recover()
        assert summary["epoch"] == 3
        restarted.start()
        try:
            (answer,) = _run(restarted, ["?- reach(a, X, C)."])
        finally:
            restarted.drain()
        assert sorted(answer.answer_strings) == expected

    def test_older_snapshot_with_planner_records_recovers(self, tmp_path):
        """A snapshot written when ``auto`` sessions measured strategies.

        Its ``planner`` key holds two converged records, both on
        ``rewrite``.  Recovery counts them as discarded, restores the
        facts, replays the log tail, and serves each form with the
        pick; the next checkpoint carries no records.
        """
        directory = tmp_path / "snap"
        shutil.copytree(SNAPSHOT_PLANNER, directory)
        text = (directory / "program.cql").read_text()
        (snapshot,) = directory.glob("snapshot-*.json")
        records = unseal(snapshot.read_text())["planner"]
        assert len(records) == 2
        engine = Engine.from_text(text, strategy="auto")
        supervisor = Supervisor(
            engine,
            ServeConfig(workers=1, snapshot_dir=str(directory)),
            program_id=program_sha(text),
        )
        summary = supervisor.recover()
        assert summary["planner_records_discarded"] == len(records)
        assert (summary["snapshot_epoch"], summary["replayed"]) == (1, 1)
        assert summary["epoch"] == 2 and not summary["corrupt"]

        queries = ["?- reach(a, X, C).", "?- reach(X, Y, C)."]
        fresh = Engine.from_text(
            text + "edge(c, d, 5).\nedge(d, e, 6).\n", strategy="auto"
        )
        supervisor.start()
        try:
            responses = _run(supervisor, queries)
        finally:
            supervisor.drain()
        for query, response in zip(queries, responses):
            assert sorted(response.answer_strings) == sorted(
                fresh.query(query).answer_strings
            )
        assert sorted(
            entry.compiled.strategy
            for entry in engine.session.cache.entries()
        ) == ["magic", "none"]
        payload = supervisor.snapshotter.latest()
        assert payload["epoch"] == 2
        assert "planner" not in payload

    def test_log_is_written_before_acknowledgement(self, tmp_path):
        config = ServeConfig(
            workers=1,
            snapshot_dir=str(tmp_path),
            snapshot_every=100,  # no periodic checkpoint
        )
        engine = Engine.from_text(PROGRAM)
        supervisor = Supervisor(
            engine, config, program_id="prog"
        ).start()
        try:
            (response,) = _run(supervisor, ["edge(c, d, 5)."])
            assert response.ok
            # Acked implies logged -- no drain, no snapshot yet.
            entries = list(supervisor.snapshotter._read_log())
            assert [entry["epoch"] for entry in entries] == [1]
        finally:
            supervisor.drain()


class TestDegradedMode:
    """Durability loss flips to read-only instead of crashing."""

    def _supervisor(self, tmp_path, snapshot_every=100):
        config = ServeConfig(
            workers=1,
            snapshot_dir=str(tmp_path),
            snapshot_every=snapshot_every,
        )
        engine = Engine.from_text(PROGRAM)
        return Supervisor(engine, config, program_id="prog")

    def test_wal_failure_errors_the_load_and_flips_read_only(
        self, tmp_path
    ):
        supervisor = self._supervisor(tmp_path).start()
        recorder = FaultyRecorder(FaultPlan.from_spec("write:wal"))
        try:
            with recording(recorder):
                (response,) = _run(supervisor, ["edge(c, d, 5)."])
                assert not response.ok
                assert response.error_code == "REPRO_SNAPSHOT"
                assert "not durable" in response.error_message
                # Later loads are refused outright -- the session is
                # never touched, so no acked-but-unlogged state.
                (refused,) = _run(supervisor, ["edge(d, e, 6)."])
                assert refused.error_code == "REPRO_SNAPSHOT"
                assert "read-only" in refused.error_message
                # Queries keep being served.
                (answer,) = _run(supervisor, ["?- reach(a, X, C)."])
                assert answer.ok
            health = supervisor.healthz()
            assert health["durability"] == "degraded"
            assert "WAL append" in health["durability_reason"]
        finally:
            supervisor.drain()

    def test_checkpoint_failure_keeps_the_ack(self, tmp_path):
        supervisor = self._supervisor(
            tmp_path, snapshot_every=1
        ).start()
        recorder = FaultyRecorder(
            FaultPlan.from_spec("fsync:snapshot")
        )
        try:
            with recording(recorder):
                (response,) = _run(supervisor, ["edge(c, d, 5)."])
            # The epoch hit the fsynced WAL before the checkpoint
            # attempt, so the ack stands...
            assert response.ok
            entries = list(supervisor.snapshotter._read_log())
            assert [entry["epoch"] for entry in entries] == [1]
            # ...but the disk is no longer trusted for future loads.
            assert supervisor.healthz()["durability"] == "degraded"
        finally:
            supervisor.drain()  # must not raise despite broken disk

    def test_healthz_durability_states(self, tmp_path):
        without = Supervisor(
            Engine.from_text(PROGRAM), ServeConfig(workers=1)
        ).start()
        try:
            assert without.healthz()["durability"] == "none"
        finally:
            without.drain()
        supervisor = self._supervisor(tmp_path).start()
        try:
            assert supervisor.healthz()["durability"] == "ok"
        finally:
            supervisor.drain()
