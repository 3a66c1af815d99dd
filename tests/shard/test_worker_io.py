"""The worker frame loop, in process: pump thread, echo, hardening.

These tests speak the wire protocol to ``serve_frames`` over real
pipes (the worker loop runs on a thread in this interpreter, orphan
watchdog disabled) and pin the seams the hang-tolerance machinery
depends on: ``ping`` answered by the pump thread even while the main
loop is busy, every reply echoing the request's ``id``/``nonce``, the
``garble`` fault corrupting exactly one reply frame, and a reply too
large to encode answered with ``REPRO_USAGE`` instead of a dead
worker.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.driver import split_edb
from repro.governor import FaultPlan, FaultyRecorder
from repro.lang.parser import parse_program
from repro.shard import protocol
from repro.shard.exchange import run_exchange, warm_start
from repro.shard.partition import build_plan
from repro.shard.protocol import FrameError, read_frame, write_frame
from repro.shard.worker import ShardWorker, _write_reply, serve_frames

PROGRAM = """
edge(n1, n2, 1). edge(n2, n3, 1). edge(n3, n4, 2).
reach(X, Y) :- edge(X, Y, C).
reach(X, Z) :- reach(X, Y), edge(Y, Z, C).
"""


def make_hello(**extra) -> dict:
    program = parse_program(PROGRAM)
    rules, edb = split_edb(program)
    plan, __ = build_plan(rules, edb, 1)
    hello = {
        "op": "hello",
        "shard": 0,
        "program": "\n".join(str(rule) for rule in program),
        "plan": plan.describe(),
        "strategy": "rewrite",
        "program_id": "test",
    }
    hello.update(extra)
    return hello


class WireWorker:
    """``serve_frames`` on a thread, talked to over real pipes."""

    def __init__(self, **hello_extra):
        to_worker = os.pipe()
        from_worker = os.pipe()
        self._worker_stdin = os.fdopen(to_worker[0], "rb")
        self.request_pipe = os.fdopen(to_worker[1], "wb")
        self.reply_pipe = os.fdopen(from_worker[0], "rb")
        self._worker_stdout = os.fdopen(from_worker[1], "wb")
        self.exit_codes: list[int] = []
        self.thread = threading.Thread(
            target=lambda: self.exit_codes.append(
                serve_frames(
                    self._worker_stdin,
                    self._worker_stdout,
                    orphan_grace=None,
                )
            ),
            daemon=True,
        )
        self.thread.start()
        write_frame(self.request_pipe, make_hello(**hello_extra))
        self.hello_reply = read_frame(self.reply_pipe)

    def send(self, payload: dict) -> None:
        write_frame(self.request_pipe, payload)

    def recv(self) -> dict | None:
        return read_frame(self.reply_pipe)

    def shutdown(self) -> int | None:
        self.send({"op": "shutdown", "id": 10**6, "nonce": "0:1"})
        while True:
            reply = self.recv()
            if reply is None or reply.get("id") == 10**6:
                break
        self.thread.join(timeout=10)
        self.request_pipe.close()
        return self.exit_codes[0] if self.exit_codes else None


def test_replies_echo_id_and_nonce():
    wire = WireWorker()
    assert wire.hello_reply["ok"]
    wire.send({"op": "healthz", "id": 41, "nonce": "0:1"})
    reply = wire.recv()
    assert reply["ok"] and reply["id"] == 41 and reply["nonce"] == "0:1"
    wire.send({"op": "ping", "id": 42, "nonce": "0:1"})
    pong = wire.recv()
    assert pong["ok"] and pong["pong"]
    assert pong["id"] == 42 and pong["nonce"] == "0:1"
    assert wire.shutdown() == 0


def test_ping_answered_while_main_loop_is_busy():
    # The delay fault pins the *main* loop for 1.5s at the stats
    # announcement; the pump thread must still answer the ping that
    # arrives mid-op -- that reordering is exactly what lets the
    # coordinator tell slow from dead.
    wire = WireWorker(faults="delay:shard.op.stats:1.5")
    wire.send({"op": "stats", "id": 1, "nonce": "0:1"})
    time.sleep(0.1)  # let the main loop enter the delayed op
    started = time.monotonic()
    wire.send({"op": "ping", "id": 2, "nonce": "0:1"})
    first = wire.recv()
    ping_latency = time.monotonic() - started
    assert first["id"] == 2 and first["pong"]
    assert ping_latency < 1.0, "ping waited behind the busy op"
    second = wire.recv()
    assert second["id"] == 1 and second["ok"]
    assert wire.shutdown() == 0


def test_garble_fault_corrupts_exactly_one_reply():
    wire = WireWorker(faults="garble:healthz:1:1")
    wire.send({"op": "healthz", "id": 1, "nonce": "0:1"})
    with pytest.raises(FrameError):
        wire.recv()  # CRC check must reject the damaged frame
    # The stream stays aligned (the garbled frame was fully framed),
    # the fault is spent, and the worker is still healthy.
    wire.send({"op": "healthz", "id": 2, "nonce": "0:1"})
    reply = wire.recv()
    assert reply["ok"] and reply["id"] == 2
    assert wire.shutdown() == 0


def test_oversized_reply_becomes_usage_error_not_dead_worker(
    monkeypatch,
):
    wire = WireWorker()
    # Shrink the frame cap after the handshake: the stats reply no
    # longer fits, and the worker must answer with a small error
    # reply instead of dying mid-write.
    monkeypatch.setattr(protocol, "MAX_FRAME", 256)
    try:
        wire.send({"op": "stats", "id": 5, "nonce": "0:1"})
        reply = wire.recv()
        assert not reply["ok"]
        assert reply["error_code"] == "REPRO_USAGE"
        assert reply["id"] == 5 and reply["nonce"] == "0:1"
        wire.send({"op": "ping", "id": 6, "nonce": "0:1"})
        assert wire.recv()["pong"]  # alive and well
    finally:
        monkeypatch.undo()
    assert wire.shutdown() == 0


def test_eof_exits_cleanly():
    wire = WireWorker()
    wire.request_pipe.close()
    wire.thread.join(timeout=10)
    assert wire.exit_codes == [0]


def test_write_reply_garble_consumes_fault_once():
    recorder = FaultyRecorder(FaultPlan.from_spec("garble:stats:1:1"))
    import io

    stream = io.BytesIO()
    frame = {"op": "stats", "id": 1, "nonce": "0:1"}
    assert _write_reply(
        stream, threading.Lock(), frame, {"ok": True, "id": 1}, recorder
    )
    stream.seek(0)
    with pytest.raises(FrameError):
        read_frame(stream)
    assert recorder.fired[0][0] == "garble"
    # Spent: the next reply goes out clean.
    clean = io.BytesIO()
    assert _write_reply(
        clean, threading.Lock(), frame, {"ok": True, "id": 2}, recorder
    )
    clean.seek(0)
    assert read_frame(clean)["id"] == 2


def test_meter_clamps_to_propagated_deadline():
    worker = ShardWorker(make_hello(budget={"deadline": 10.0}))
    clamped = worker._meter({"deadline_left": 0.5})
    assert clamped.budget.deadline == 0.5
    # A propagated deadline larger than the per-shard budget never
    # loosens it.
    assert worker._meter({"deadline_left": 50.0}).budget.deadline == 10.0
    assert worker._meter({}).budget.deadline == 10.0
    assert worker._meter(None).budget.deadline == 10.0


def test_meter_absent_without_budget():
    worker = ShardWorker(make_hello())
    assert worker._meter({"deadline_left": 0.5}) is None


def test_interleaved_check_ins_are_never_resumed_together():
    # Two runs of one form finish in opposite orders on two shards.
    # Each shard keeps its last check-in, so the states come from
    # different runs -- the exchange would never re-send what one of
    # them derived -- and the next query of the form must run cold.
    rules, edb = split_edb(parse_program(PROGRAM))
    plan = build_plan(rules, edb, 2)[0].describe()
    workers = [
        ShardWorker(make_hello(shard=shard, plan=plan))
        for shard in (0, 1)
    ]

    def scatter(payloads):
        return {
            shard: workers[shard].handle(payload)
            for shard, payload in payloads.items()
        }

    def start(qid, text):
        return scatter({
            shard: {"op": "q_start", "qid": qid, "query": text}
            for shard in (0, 1)
        })

    def finish(qid, shard):
        workers[shard].handle(
            {"op": "q_finish", "qid": qid, "keep_warm": True}
        )

    assert warm_start(start("q1", "?- reach(n1, Y).")) == (False, True)
    run_exchange(scatter, [0, 1], "q1", 20)
    finish("q1", 0)
    finish("q1", 1)
    # q2 checks both states out; q3, concurrent, finds none.
    assert warm_start(start("q2", "?- reach(n2, Y).")) == (True, False)
    assert warm_start(start("q3", "?- reach(n3, Y).")) == (False, True)
    run_exchange(scatter, [0, 1], "q3", 20)
    for shard, order in ((0, ("q2", "q3")), (1, ("q3", "q2"))):
        for qid in order:
            finish(qid, shard)
    starts = start("q4", "?- reach(n1, Y).")
    assert {reply["warm"] for reply in starts.values()} == {"q2", "q3"}
    assert warm_start(starts) == (False, True)


def test_real_worker_process_exits_gracefully_and_silently():
    # A spawned worker shut down by request must leave with status 0
    # and an empty stderr: its pump thread is still parked in a stdin
    # read, which interpreter finalisation used to abort on ("Fatal
    # Python error: _enter_buffered_busy").
    import subprocess
    import sys

    import repro

    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.shard.worker", "--shard", "0"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=source_root),
    )
    try:
        write_frame(process.stdin, make_hello())
        assert read_frame(process.stdout)["ok"]
        write_frame(process.stdin, {"op": "healthz", "id": 1})
        assert read_frame(process.stdout)["status"] == "ok"
        write_frame(process.stdin, {"op": "shutdown", "id": 2})
        assert read_frame(process.stdout)["stopping"]
        __, stderr = process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert process.returncode == 0
    assert stderr == b""
