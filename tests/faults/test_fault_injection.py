"""The fault-injection harness: plans, the recorder wrapper, recovery.

The harness perturbs runs at the observability seam, so every fault
lands at a named phase boundary without patching internals.  These
tests prove the robustness claims: under injected delays, failures,
and budget pressure, phases still terminate, partial results are
still reported, and traces/reports stay intact.
"""

from __future__ import annotations

import errno
import json

import pytest

from repro.driver import run_text
from repro.errors import InjectedFault, UsageError
from repro.governor import (
    Budget,
    Fault,
    FaultPlan,
    FaultyRecorder,
)
from repro.governor import budget as governor
from repro.obs.recorder import recording

SMALL_TEXT = """
p(X) :- e(X), X >= 1.
e(1).
e(2).
e(3).
?- p(X).
"""


class TestFaultSpecParsing:
    def test_delay_spec(self):
        plan = FaultPlan.from_spec("delay:evaluate:0.25")
        (fault,) = plan.faults
        assert fault.kind == "delay"
        assert fault.site == "evaluate"
        assert fault.seconds == 0.25
        assert fault.times is None

    def test_fail_spec_defaults_to_first_occurrence_once(self):
        plan = FaultPlan.from_spec("fail:rewrite.qrp")
        (fault,) = plan.faults
        assert (fault.kind, fault.nth, fault.times) == ("fail", 1, 1)

    def test_fail_spec_nth(self):
        (fault,) = FaultPlan.from_spec("fail:iteration:3").faults
        assert fault.nth == 3

    def test_pressure_spec(self):
        (fault,) = FaultPlan.from_spec(
            "pressure:engine.iterations:solver_calls*50"
        ).faults
        assert fault.kind == "pressure"
        assert fault.resource == "solver_calls"
        assert fault.amount == 50

    def test_multiple_faults_semicolon_separated(self):
        plan = FaultPlan.from_spec(
            "delay:evaluate:0.1; fail:rule:2"
        )
        assert [f.kind for f in plan.faults] == ["delay", "fail"]

    @pytest.mark.parametrize(
        "spec",
        [
            "boom:evaluate",
            "delay",
            "delay:site:not-a-number",
            "fail:site:zero",
            "pressure:site:unknown_resource*2",
            "delay:site:0.1:extra",
            "fail::",
            "fail:site:-1",
            "fail:site:1:0",
            "fail:site:1:sometimes",
            "delay:site:-0.5",
            "delay:site:inf",
            "pressure:site:facts*0",
            "pressure:site:*3",
        ],
    )
    def test_malformed_specs_are_usage_errors(self, spec):
        with pytest.raises(UsageError):
            FaultPlan.from_spec(spec)

    def test_malformed_spec_names_the_offending_token(self):
        with pytest.raises(UsageError, match="not-a-number"):
            FaultPlan.from_spec("delay:site:not-a-number")
        with pytest.raises(UsageError, match="extra"):
            FaultPlan.from_spec("delay:site:0.1:extra")

    def test_fail_times_spec(self):
        (fault,) = FaultPlan.from_spec("fail:site:2:3").faults
        assert (fault.nth, fault.times) == (2, 3)

    def test_fail_unlimited_times_spec(self):
        (fault,) = FaultPlan.from_spec("fail:site:1:*").faults
        assert fault.times is None

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(UsageError):
            Fault(kind="explode", site="x")


class TestFilesystemFaults:
    """``write:``/``fsync:`` sites: the disk-failure seam."""

    def test_write_spec_maps_to_fs_event_and_stays_failed(self):
        (fault,) = FaultPlan.from_spec("write:wal").faults
        assert fault.kind == "write"
        assert fault.site == "fs.write.wal"
        assert fault.nth == 1
        assert fault.times is None  # a failed disk stays failed

    def test_fsync_spec_with_nth_and_times(self):
        (fault,) = FaultPlan.from_spec("fsync:snapshot:3:1").faults
        assert fault.site == "fs.fsync.snapshot"
        assert (fault.nth, fault.times) == (3, 1)

    def test_star_site_matches_every_class(self):
        (fault,) = FaultPlan.from_spec("write:*").faults
        assert fault.site == "fs.write.*"

    @pytest.mark.parametrize(
        "spec", ["write:disk", "fsync:log", "write:fs.write.wal"]
    )
    def test_unknown_site_class_is_a_parse_error(self, spec):
        with pytest.raises(UsageError, match="filesystem fault site"):
            FaultPlan.from_spec(spec)

    def test_unknown_site_error_names_the_classes(self):
        with pytest.raises(UsageError, match="wal, snapshot"):
            FaultPlan.from_spec("write:disk")

    def test_write_fault_raises_eio_at_matching_event(self):
        recorder = FaultyRecorder(FaultPlan.from_spec("write:wal"))
        recorder.count("serve.log_appends")  # other sites untouched
        with pytest.raises(OSError) as caught:
            recorder.count("fs.write.wal")
        assert caught.value.errno == errno.EIO
        # Unlimited firings: the disk does not heal.
        with pytest.raises(OSError):
            recorder.count("fs.write.wal")

    def test_fsync_fault_fires_from_nth_occurrence(self):
        recorder = FaultyRecorder(
            FaultPlan.from_spec("fsync:wal:2")
        )
        recorder.count("fs.fsync.wal")  # first occurrence passes
        with pytest.raises(OSError):
            recorder.count("fs.fsync.wal")

    def test_snapshotter_append_hits_the_wal_write_site(
        self, tmp_path
    ):
        from repro.engine.facts import Fact
        from repro.serve.snapshot import Snapshotter

        snap = Snapshotter(str(tmp_path), "prog1")
        recorder = FaultyRecorder(FaultPlan.from_spec("write:wal"))
        with recording(recorder):
            with pytest.raises(OSError):
                snap.append_log(1, [Fact.ground("e", ["a"])])
        # The fault fired before the write syscall: no torn record.
        assert list(snap._read_log()) == []

    def test_snapshotter_checkpoint_hits_the_snapshot_fsync_site(
        self, tmp_path
    ):
        from repro.serve.snapshot import (
            SNAPSHOT_PATTERN,
            Snapshotter,
            numbered_files,
        )

        snap = Snapshotter(str(tmp_path), "prog1")
        recorder = FaultyRecorder(
            FaultPlan.from_spec("fsync:snapshot")
        )
        with recording(recorder):
            with pytest.raises(OSError):
                snap.snapshot(1, [])
        # tmp never promoted
        assert numbered_files(str(tmp_path), SNAPSHOT_PATTERN) == []

    @pytest.mark.parametrize(
        "spec", ["write:manifest", "fsync:manifest"]
    )
    def test_failed_manifest_write_is_a_counted_barrier_failure(
        self, tmp_path, spec
    ):
        # The coordinator writes the cluster manifest after every
        # checkpoint barrier.  Its disk failing must not un-ack the
        # load (every shard already WAL-acked it) nor stop service.
        import os

        from repro.lang.parser import parse_query
        from repro.shard import ShardedEngine

        engine = ShardedEngine.from_text(
            "edge(a, b). reach(X, Y) :- edge(X, Y).",
            2,
            snapshot_dir=str(tmp_path),
            snapshot_every=1,
        )
        coordinator = engine.coordinator
        coordinator.recover()
        try:
            with recording(FaultyRecorder(FaultPlan.from_spec(spec))):
                load = engine.add_facts("edge(b, c).")
            assert load.ok and load.added == 1
            assert coordinator.counters["checkpoint_failures"] == 1
            assert coordinator.counters["checkpoints"] == 0
            assert not any(
                name.startswith("manifest-") and name.endswith(".json")
                for name in os.listdir(tmp_path)
            )
            answer = engine.session.query(parse_query("?- reach(b, Y)."))
            assert answer.ok and len(answer.answers) == 1
            # The disk healed: the next barrier writes its manifest.
            assert engine.add_facts("edge(c, d).").ok
            assert coordinator.counters["checkpoints"] == 1
            assert "manifest-00000002.json" in os.listdir(tmp_path)
        finally:
            coordinator.close(drain=False)


class TestFaultyRecorder:
    def test_delay_calls_sleeper(self):
        slept = []
        recorder = FaultyRecorder(
            FaultPlan.from_spec("delay:evaluate:0.5"),
            sleeper=slept.append,
        )
        recorder.span("evaluate")
        recorder.span("evaluate")
        recorder.span("other")
        assert slept == [0.5, 0.5]
        assert len(recorder.fired) == 2

    def test_fail_fires_at_nth_occurrence_once(self):
        recorder = FaultyRecorder(FaultPlan.from_spec("fail:rule:3"))
        recorder.count("rule")
        recorder.count("rule")
        with pytest.raises(InjectedFault) as excinfo:
            recorder.count("rule")
        assert excinfo.value.site == "rule"
        assert excinfo.value.occurrence == 3
        recorder.count("rule")              # times=1: fired out

    def test_sites_are_fnmatch_patterns(self):
        recorder = FaultyRecorder(
            FaultPlan.from_spec("fail:rewrite.*")
        )
        with pytest.raises(InjectedFault):
            recorder.span("rewrite.qrp")

    def test_pressure_charges_ambient_meter(self):
        recorder = FaultyRecorder(
            FaultPlan.from_spec("pressure:evaluate:facts*10")
        )
        meter = Budget(max_facts=100).meter()
        with governor.governed(meter):
            recorder.span("evaluate")
        assert meter.spent["facts"] == 10

    def test_governor_counters_are_never_fault_sites(self):
        # pressure -> charge -> governor.* counter -> pressure would
        # recurse; the harness must not observe its own accounting.
        recorder = FaultyRecorder(
            FaultPlan.from_spec("fail:governor.*")
        )
        recorder.count("governor.facts")
        assert recorder.fired == []

    def test_forwards_to_inner_recorder(self):
        events = []

        class Inner:
            enabled = True

            def span(self, name, **attrs):
                events.append(("span", name))
                from repro.obs.recorder import NULL_RECORDER

                return NULL_RECORDER.span(name)

            def count(self, name, n=1):
                events.append(("count", name, n))

            def record_time(self, name, seconds):
                events.append(("time", name))

        recorder = FaultyRecorder(FaultPlan(), inner=Inner())
        assert recorder.enabled
        recorder.span("evaluate")
        recorder.count("rule", 2)
        recorder.record_time("join", 0.1)
        assert events == [
            ("span", "evaluate"), ("count", "rule", 2), ("time", "join")
        ]


class TestFaultedRuns:
    def test_injected_failure_escapes_as_typed_error(self):
        recorder = FaultyRecorder(FaultPlan.from_spec("fail:evaluate"))
        with recording(recorder):
            with pytest.raises(InjectedFault):
                run_text(SMALL_TEXT)

    def test_pressure_inside_fixpoint_degrades_gracefully(self):
        # Pressure fired from an in-loop counter trips the budget at a
        # cooperative checkpoint, so the run truncates instead of
        # crashing: phases terminate and partial results survive.
        recorder = FaultyRecorder(
            FaultPlan.from_spec(
                "pressure:iteration:solver_calls*1000"
            )
        )
        with recording(recorder):
            (outcome,) = run_text(
                SMALL_TEXT, budget=Budget(max_solver_calls=10)
            )
        assert outcome.completeness == "truncated:solver_calls"
        assert outcome.budget["exhausted"] == "solver_calls"

    def test_delay_with_deadline_truncates(self):
        recorder = FaultyRecorder(
            FaultPlan.from_spec("delay:iteration:0.05")
        )
        with recording(recorder):
            (outcome,) = run_text(
                SMALL_TEXT, budget=Budget(deadline=0.02)
            )
        assert outcome.completeness == "truncated:deadline"


class TestFaultedCLI:
    def test_cli_fault_exits_3_with_intact_trace(self, tmp_path, capsys):
        from repro.__main__ import main

        program = tmp_path / "p.cql"
        program.write_text(SMALL_TEXT)
        trace = tmp_path / "t.json"
        report = tmp_path / "r.jsonl"
        status = main([
            str(program),
            "--faults", "fail:evaluate",
            "--trace", str(trace),
            "--report", str(report),
        ])
        assert status == 3
        err = capsys.readouterr().err
        assert "REPRO_FAULT" in err
        # Export-in-finally: the partial trace and report are valid.
        data = json.loads(trace.read_text())
        assert data["traceEvents"]
        records = [
            json.loads(line)
            for line in report.read_text().splitlines()
        ]
        assert any(rec["type"] == "span" for rec in records)

    def test_cli_malformed_fault_spec_exits_2(self, tmp_path, capsys):
        from repro.__main__ import main

        program = tmp_path / "p.cql"
        program.write_text(SMALL_TEXT)
        assert main([str(program), "--faults", "boom:x"]) == 2


class TestProtocolFaults:
    """The ``hang:<op>`` / ``garble:<op>`` grammar and firing modes."""

    def test_hang_spec_maps_to_op_announcement_site(self):
        (fault,) = FaultPlan.from_spec("hang:q_round").faults
        assert fault.kind == "hang"
        assert fault.site == "shard.op.q_round"
        assert (fault.nth, fault.times) == (1, 1)

    def test_garble_spec_maps_to_reply_seam(self):
        (fault,) = FaultPlan.from_spec("garble:healthz:2:3").faults
        assert fault.kind == "garble"
        assert fault.site == "shard.reply.healthz"
        assert (fault.nth, fault.times) == (2, 3)

    def test_wildcard_op_accepted(self):
        (fault,) = FaultPlan.from_spec("hang:*").faults
        assert fault.site == "shard.op.*"

    def test_unknown_op_rejected_naming_the_closed_set(self):
        from repro.governor.faults import OP_FAULT_SITES

        with pytest.raises(UsageError) as excinfo:
            FaultPlan.from_spec("hang:frobnicate")
        message = str(excinfo.value)
        assert "frobnicate" in message
        for op in OP_FAULT_SITES:
            assert op in message

    def test_hang_sleeps_forever_in_bounded_chunks(self):
        # The firing loop must never issue one unbounded sleep (a
        # SIGKILL mid-sleep should need to interrupt at most one
        # chunk); the injectable sleeper escapes after a few rounds.
        from repro.governor.faults import HANG_CHUNK_SECONDS

        class Escape(Exception):
            pass

        naps: list[float] = []

        def sleeper(seconds: float) -> None:
            naps.append(seconds)
            if len(naps) >= 3:
                raise Escape

        recorder = FaultyRecorder(
            FaultPlan.from_spec("hang:q_start"), sleeper=sleeper
        )
        with pytest.raises(Escape):
            recorder.count("shard.op.q_start")
        assert naps == [HANG_CHUNK_SECONDS] * 3

    def test_garble_never_fires_at_the_recorder_seam(self):
        # ``garble`` corrupts bytes on the wire; only the worker's
        # reply writer may consume it.  The ordinary recorder path
        # must pass the announcement through untouched.
        recorder = FaultyRecorder(FaultPlan.from_spec("garble:stats"))
        recorder.count("shard.reply.stats")
        assert recorder.fired == []

    def test_consume_counts_occurrences_and_exhausts_times(self):
        recorder = FaultyRecorder(
            FaultPlan.from_spec("garble:stats:2:1")
        )
        assert not recorder.consume("garble", "shard.reply.stats")
        assert recorder.consume("garble", "shard.reply.stats")
        # times=1 is spent; later occurrences pass clean.
        assert not recorder.consume("garble", "shard.reply.stats")
        assert recorder.fired == [
            ("garble", "shard.reply.stats", "shard.reply.stats", 2)
        ]

    def test_consume_filters_by_kind_and_site(self):
        recorder = FaultyRecorder(
            FaultPlan.from_spec("hang:q_start;garble:healthz")
        )
        # A hang fault is not consumable as garble, and vice versa.
        assert not recorder.consume("garble", "shard.op.q_start")
        assert not recorder.consume("hang", "shard.reply.healthz")
        assert recorder.consume("garble", "shard.reply.healthz")
