"""The shard worker: one subprocess, one Session, one EDB partition.

``python -m repro.shard.worker`` is spawned by the coordinator with a
``hello`` frame naming its shard index, the program text, the routing
plan, session options, and (optionally) a snapshot directory and a
fault spec.  The worker keeps only the EDB facts the plan places on
its shard (owned + broadcast), builds a full
:class:`~repro.service.session.Session` over them, and then serves
frames (:mod:`repro.shard.protocol`) until EOF -- which is also how it
dies with its parent: a SIGKILLed coordinator closes the pipe and the
worker exits instead of lingering (with a force-exit watchdog in case
the main thread is wedged when the EOF arrives).  A *pump* thread
reads stdin and answers ``ping`` heartbeats immediately -- even while
the main thread grinds through a long op -- so the coordinator can
tell a slow worker from a dead one; every other frame is queued for
the main loop, and every reply echoes the request's ``id`` and
incarnation ``nonce`` for routing and fencing.

Queries are evaluated *in rounds* (:mod:`repro.shard.exchange`): the
coordinator steps every participating shard one semi-naive iteration
at a time (``q_round``), forwarding each round's newly derived tuples
to the shards that did not derive them, and gathers answers
(``q_answers``) once the round barrier reports a global fixpoint.  A
query pruned to this one shard is a single ``q_start`` carrying the
round cap: the worker steps the same rounds itself and replies with
the answers.
Each query runs under its own per-shard budget meter built from the
handshake's budget spec, and every request is error-isolated: a
``REPRO_*`` failure becomes an error reply, never a dead worker.

Warm state is the session's, one database per cache entry: at
``q_start`` the worker checks the entry's
:class:`~repro.service.session.WarmState` out to the query, builds its
delta (:meth:`~repro.service.session.Session.warm_delta`: the EDB
facts loaded since, plus the call's seed as a fact) and replies with
the run that left the state and the delta's size.  Round 0 resumes
the state only when every participant's is that one run's, all or
none (:mod:`repro.shard.exchange`, :func:`warm_start
<repro.shard.exchange.warm_start>`).  Reading the answers ends the
query: the database is checked back in, stamped with the query as
its origin, when the run was complete (``keep_warm``) and this
shard's meter is clean, else dropped; ``q_finish`` only aborts.
Loads never land mid-query: the coordinator holds its read lock from
``q_start`` to the answers.

Durability is the serve machinery's, policy included: the worker owns
a :class:`~repro.serve.snapshot.Snapshotter` over its per-shard
directory and loads through :meth:`Snapshotter.load
<repro.serve.snapshot.Snapshotter.load>` (WAL before the reply, so the
ack the coordinator forwards is the durable one; a failed append flips
the shard read-only).  The worker decides only *when* to checkpoint:
on the coordinator's epoch barrier and at shutdown.
"""

from __future__ import annotations

import argparse
import os
import queue
import sys
import threading
from contextlib import nullcontext
from dataclasses import replace
from typing import NoReturn

from repro import obs
from repro.codec import decode_fact, encode_fact
from repro.config import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_EVAL_ITERATIONS,
    DEFAULT_REWRITE_ITERATIONS,
)
from repro.driver import split_edb
from repro.engine import evaluate, resume
from repro.engine.facts import fact_of_rule
from repro.engine.query import answers_as
from repro.errors import ReproError, SnapshotError, UsageError
from repro.governor import Budget
from repro.governor import budget as governor
from repro.governor.faults import faulty_recorder
from repro.lang.ast import Program
from repro.lang.parser import parse_program, parse_query
from repro.obs.recorder import count as obs_count
from repro.serve.snapshot import Snapshotter
from repro.service.session import Session, WarmState
from repro.shard.exchange import run_exchange, warm_start
from repro.shard.partition import ShardPlan
from repro.shard.protocol import (
    FrameError,
    garbled_frame,
    read_frame,
    write_frame,
)

#: Seconds a worker whose stdin reached EOF (its coordinator is gone)
#: waits for the main loop to drain before force-exiting.  Protects
#: against leaking an *orphan* whose main thread is wedged (a ``hang``
#: fault, a stuck op) and would otherwise never notice the EOF.
ORPHAN_GRACE = 10.0

_BUDGET_FIELDS = (
    "deadline",
    "max_iterations",
    "max_rewrite_iterations",
    "max_facts",
    "max_solver_calls",
)


class _EvalState:
    """One in-flight query's evaluation on this shard.

    ``warm`` holds the query's database: the form's warm state checked
    out at ``q_start`` -- with ``pending`` loaded facts and, when
    ``seeded``, a new seed at ``last_stamp + 1`` still to fold in --
    or the state a cold round 0 starts.  Its ``last_stamp`` is the
    stamp the next round's incoming facts enter at.
    """

    __slots__ = ("entry", "query", "meter", "warm", "pending", "seeded")

    def __init__(self, entry, query, meter, warm) -> None:
        self.entry = entry
        self.query = query
        self.meter = meter
        self.warm = warm
        self.pending: list = []
        self.seeded = False


class ShardWorker:
    """The per-process request handler behind the frame loop."""

    def __init__(self, hello: dict) -> None:
        self.shard = int(hello["shard"])
        self.plan = ShardPlan.from_description(hello["plan"])
        program = parse_program(hello["program"])
        rules = set(split_edb(program)[0])
        # Every rule, and the program's EDB facts placed on this shard:
        # they are this session's own EDB, never a checkpoint's.
        placed = Program(
            rule for rule in program
            if rule in rules
            or self.plan.placed_on(fact_of_rule(rule), self.shard)
        )
        budget_spec = hello.get("budget") or None
        if budget_spec is not None:
            unknown = set(budget_spec) - set(_BUDGET_FIELDS)
            if unknown:
                raise UsageError(
                    f"unknown budget fields {sorted(unknown)}"
                )
            self.budget: Budget | None = Budget(**budget_spec)
        else:
            self.budget = None
        self.session = Session(
            placed,
            strategy=hello.get("strategy", "rewrite"),
            max_iterations=int(
                hello.get("max_iterations", DEFAULT_REWRITE_ITERATIONS)
            ),
            eval_iterations=int(
                hello.get("eval_iterations", DEFAULT_EVAL_ITERATIONS)
            ),
            budget=None,  # metering is per round, not per Session call
            on_limit=hello.get("on_limit", "truncate"),
            cache_size=int(hello.get("cache_size", DEFAULT_CACHE_SIZE)),
        )
        self.snapshotter: Snapshotter | None = None
        if hello.get("snapshot_dir"):
            self.snapshotter = Snapshotter(
                hello["snapshot_dir"], hello.get("program_id", "?")
            )
        self._evals: dict[str, _EvalState] = {}
        self.counters = {
            "queries": 0,
            "rounds": 0,
            "emitted": 0,
            "received": 0,
            "warm_hits": 0,
            "loads": 0,
        }
        self._ops = {
            "recover": self._op_recover,
            "load": self._op_load,
            "checkpoint": self._op_checkpoint,
            "q_start": self._op_q_start,
            "q_round": self._op_q_round,
            "q_answers": self._op_q_answers,
            "q_finish": self._op_q_finish,
            "stats": self._op_stats,
            "healthz": self._op_healthz,
            "ping": self._op_ping,
            "shutdown": self._op_shutdown,
        }

    def hello_reply(self) -> dict:
        return {
            "ok": True,
            "shard": self.shard,
            "edb_facts": self.session.edb.count(),
        }

    # -- dispatch -----------------------------------------------------

    def handle(self, frame: dict) -> dict:
        op = frame.get("op")
        handler = self._ops.get(op)
        if handler is None:
            return self._error(UsageError(f"unknown op {op!r}"))
        try:
            return handler(frame)
        except ReproError as error:
            return self._error(error)
        except ValueError as error:  # mirror Session.query
            return self._error(UsageError(str(error)))
        except Exception as error:  # isolation: reply, don't die
            return {
                "ok": False,
                "error_code": "REPRO_INTERNAL",
                "error_message": (
                    f"shard {self.shard} {op} failed: {error}"
                ),
            }

    def _error(self, error: ReproError) -> dict:
        return {
            "ok": False,
            "error_code": error.code,
            "error_message": str(error),
        }

    # -- durability ---------------------------------------------------

    def _op_recover(self, frame: dict) -> dict:
        summary = (
            None if self.snapshotter is None
            else self.snapshotter.recover(self.session)
        )
        return {
            "ok": True,
            "recovery": summary,
            "epoch": self.session.epoch,
        }

    def _op_load(self, frame: dict) -> dict:
        facts = [decode_fact(entry) for entry in frame["facts"]]
        if self.snapshotter is None:
            response = self.session.add_facts(facts)
        else:
            response = self.snapshotter.load(self.session, facts)
        if not response.ok:
            return {
                "ok": False,
                "error_code": response.error_code,
                "error_message": response.error_message,
            }
        self.counters["loads"] += 1
        return {
            "ok": True,
            "added": response.added,
            "new": [encode_fact(fact) for fact in response.loaded],
            "epoch": response.epoch,
        }

    def _op_checkpoint(self, frame: dict) -> dict:
        if self.snapshotter is None:
            return {"ok": True, "epoch": self.session.epoch}
        epoch = self.snapshotter.checkpoint(self.session)
        if epoch is None:
            return self._error(SnapshotError(
                f"no checkpoint on shard {self.shard}: "
                f"{self.snapshotter.degraded_reason}"
            ))
        return {"ok": True, "epoch": epoch}

    # -- query evaluation ---------------------------------------------

    def _meter(self, frame: dict | None = None):
        """A fresh meter, clamped to the frame's propagated deadline.

        The coordinator sends ``deadline_left`` -- the request's
        remaining wall-clock budget minus slack -- on each query op,
        so a query that arrives with most of its budget already spent
        trips *here*, as a ``truncated:deadline`` reply, rather than
        running to the full per-shard deadline and being declared
        hung coordinator-side.
        """
        if self.budget is None:
            return None
        budget = self.budget
        left = frame.get("deadline_left") if frame else None
        if left is not None and budget.deadline is not None:
            left = float(left)
            if left < budget.deadline:
                budget = replace(budget, deadline=left)
        return budget.meter()

    def _governed(self, meter):
        return (
            governor.governed(meter)
            if meter is not None
            else nullcontext()
        )

    def _op_q_start(self, frame: dict) -> dict:
        query = parse_query(frame["query"])
        meter = self._meter(frame)
        with self._governed(meter):
            entry, cached, form = self.session.prepare(query)
        # Check the entry's one warm state out to this query: a
        # concurrent query of the entry finds none and runs cold.
        warm, entry.warm = entry.warm, None
        state = _EvalState(entry, query, meter, warm)
        if warm is not None:
            state.pending, state.seeded = self.session.warm_delta(
                entry.compiled, warm, query
            )
            self.counters["warm_hits"] += 1
            obs_count("shard.worker_warm_hits")
        self._evals[frame["qid"]] = state
        self.counters["queries"] += 1
        obs_count("shard.worker_queries")
        compiled = entry.compiled
        reply = {
            "ok": True,
            "warm": warm.origin if warm is not None else None,
            "delta": len(state.pending) + state.seeded,
            "form": str(form),
            "cached": cached,
            "notes": list(compiled.notes),
            "fallbacks": list(compiled.fallbacks),
        }
        if "rounds" not in frame:
            return reply
        # The sole participant runs the rounds itself, then answers
        # and checks in as the gather would.
        warm, rounds = warm_start({self.shard: reply})
        outcome = rounds and run_exchange(
            lambda sent: {s: self._op_q_round(p) for s, p in sent.items()},
            [self.shard], frame["qid"], int(frame["rounds"]), warm=warm,
        )
        truncated = outcome.truncated if outcome else None
        reply.update(
            self._op_q_answers(dict(frame, keep_warm=not truncated)),
            truncated=truncated, warm=warm, resumed=warm and bool(outcome),
        )
        return reply

    def _state(self, frame: dict) -> _EvalState:
        state = self._evals.get(frame["qid"])
        if state is None:
            raise UsageError(
                f"unknown query id {frame['qid']!r} on shard "
                f"{self.shard}"
            )
        return state

    def _op_q_round(self, frame: dict) -> dict:
        state = self._state(frame)
        number = int(frame["round"])
        incoming = [
            decode_fact(entry) for entry in frame.get("facts", ())
        ]
        self.counters["received"] += len(incoming)
        self.counters["rounds"] += 1
        compiled = state.entry.compiled
        with self._governed(state.meter):
            if number == 0 and not frame.get("warm"):
                # Not all warm: drop the state, one cold iteration over
                # the local partition (the seed rule fires here).
                specialized, seed = compiled.specialize(state.query)
                result = evaluate(
                    specialized,
                    self.session.edb,
                    max_iterations=1,
                    budget=state.meter,
                )
                seeds = int(seed is not None)
                state.warm = WarmState(
                    result.database, 1, self.session.epoch, seeds
                )
            else:
                # Round 0 on warm states: the checked-out delta enters
                # at last_stamp + 1.  Later rounds: the facts other
                # shards derived join this shard's last round's delta.
                warm = state.warm
                if number == 0:
                    facts, start = state.pending, warm.last_stamp + 1
                    delta = state.seeded
                else:
                    facts, start, delta = incoming, warm.last_stamp, True
                result = resume(
                    compiled.template,
                    warm.database,
                    facts,
                    start_stamp=start,
                    max_iterations=1,
                    budget=state.meter,
                    assume_delta=delta,
                )
                warm.last_stamp = start + 1
        fresh = [
            fact
            for log in result.iterations
            for fact in log.new_facts()
        ]
        self.counters["emitted"] += len(fresh)
        exhausted = (
            state.meter.exhausted if state.meter is not None else None
        )
        return {
            "ok": True,
            "new": [encode_fact(fact) for fact in fresh],
            "count": len(fresh),
            "exhausted": exhausted,
        }

    def _op_q_answers(self, frame: dict) -> dict:
        state = self._state(frame)
        if state.warm is None:
            raise UsageError(
                f"q_answers before any round on shard "
                f"{self.shard} (no warm state)"
            )
        found = answers_as(
            state.warm.database,
            state.query,
            state.entry.compiled.query_pred,
        )
        meter = state.meter
        exhausted = meter.exhausted if meter is not None else None
        # The gather ends the query: check in a run complete
        # everywhere whose meter here is clean.
        self._op_q_finish({
            "qid": frame["qid"],
            "keep_warm": frame.get("keep_warm") and not exhausted,
        })
        return {
            "ok": True,
            "answers": [encode_fact(fact) for fact in found],
            "exhausted": exhausted,
        }

    def _op_q_finish(self, frame: dict) -> dict:
        """Drop (abort) or, with ``keep_warm``, check the state in."""
        state = self._evals.pop(frame["qid"], None)
        if (
            state is not None
            and state.warm is not None
            and frame.get("keep_warm")
        ):
            state.warm.origin = frame["qid"]
            state.entry.warm = state.warm
            state.entry.trim(self.session.edb.count())
        return {"ok": True}

    # -- inspection ---------------------------------------------------

    def _op_stats(self, frame: dict) -> dict:
        return {
            "ok": True,
            "shard": self.shard,
            "counters": dict(self.counters),
            "degraded": (
                None if self.snapshotter is None
                else self.snapshotter.degraded_reason
            ),
            "session": self.session.stats(),
        }

    def _op_healthz(self, frame: dict) -> dict:
        durability = (
            "none" if self.snapshotter is None
            else self.snapshotter.durability
        )
        return {
            "ok": True,
            "shard": self.shard,
            "status": "degraded" if durability == "degraded" else "ok",
            "epoch": self.session.epoch,
            "edb_facts": self.session.edb.count(),
            "durability": durability,
        }

    def _op_ping(self, frame: dict) -> dict:
        """Liveness echo (normally answered by the pump thread)."""
        return {"ok": True, "shard": self.shard, "pong": True}

    def _op_shutdown(self, frame: dict) -> dict:
        if self.snapshotter is not None:
            # Best effort: the WAL already has every acked epoch.
            self.snapshotter.checkpoint(self.session)
        return {"ok": True, "shard": self.shard, "stopping": True}


def _echo(frame: dict, reply: dict) -> dict:
    """Tag a reply with the request's routing id and fencing nonce."""
    if "id" in frame:
        reply["id"] = frame["id"]
    if "nonce" in frame:
        reply["nonce"] = frame["nonce"]
    return reply


def _arm_orphan_watchdog(grace: float | None) -> None:
    """Force-exit soon if the main loop never drains the EOF.

    Armed by the pump thread when stdin closes: the coordinator is
    gone, and a main thread wedged in an op (a ``hang`` fault, a
    deadlock) would otherwise leak a headless worker forever.
    ``None`` disables it (in-process tests share our interpreter).
    """
    if grace is None:
        return
    watchdog = threading.Timer(grace, os._exit, args=(0,))
    watchdog.daemon = True
    watchdog.start()


def _write_reply(stdout, stdout_lock, frame: dict, reply: dict,
                 recorder) -> bool:
    """Write one reply frame; survivable encode failures stay alive.

    A ``FrameError`` raised while *writing* (an answer payload over
    the frame cap) is answered with a ``REPRO_USAGE`` error reply
    instead of killing the worker -- the request was bad, the worker
    is fine.  The ``garble:<op>`` fault fires here, corrupting the
    encoded frame so the coordinator's CRC check must reject it.
    """
    op = frame.get("op", "?")
    consume = getattr(recorder, "consume", None)
    garble = consume is not None and consume(
        "garble", f"shard.reply.{op}"
    )
    with stdout_lock:
        try:
            if garble:
                stdout.write(garbled_frame(reply))
                stdout.flush()
            else:
                write_frame(stdout, reply)
            return True
        except FrameError as error:
            fallback = _echo(frame, {
                "ok": False,
                "error_code": "REPRO_USAGE",
                "error_message": (
                    f"reply to {op} is not encodable: {error}"
                ),
            })
            try:
                write_frame(stdout, fallback)
                return True
            except (OSError, FrameError):
                return False
        except OSError:
            return False


def _pump(worker: ShardWorker, stdin, stdout, stdout_lock,
          frames: "queue.Queue",
          orphan_grace: float | None) -> None:
    """Read frames off stdin, answering pings in-line.

    Runs as a daemon thread so ``ping`` gets an answer even while the
    main thread is deep in a long op -- which is exactly what lets
    the coordinator tell *slow* (pings answered, op deadline governs)
    from *dead* (pings missed, SIGKILL now).  Everything else is
    queued for the main loop; EOF and frame corruption are queued as
    sentinels, with the orphan watchdog armed in case the main loop
    never drains them.
    """
    while True:
        try:
            frame = read_frame(stdin)
        except (OSError, ValueError) as error:
            frames.put(FrameError(str(error)))
            _arm_orphan_watchdog(orphan_grace)
            return
        except FrameError as error:
            frames.put(error)
            _arm_orphan_watchdog(orphan_grace)
            return
        if frame is None:
            frames.put(None)
            _arm_orphan_watchdog(orphan_grace)
            return
        if frame.get("op") == "ping":
            obs_count("shard.op.ping")
            reply = _echo(frame, {
                "ok": True, "shard": worker.shard, "pong": True,
            })
            with stdout_lock:
                try:
                    write_frame(stdout, reply)
                except (OSError, FrameError):
                    frames.put(None)
                    return
            continue
        frames.put(frame)


def serve_frames(
    stdin, stdout, orphan_grace: float | None = ORPHAN_GRACE
) -> int:
    """The worker loop: handshake, then one reply per request."""
    hello = read_frame(stdin)
    if hello is None or hello.get("op") != "hello":
        print(
            "repro shard worker: expected hello frame",
            file=sys.stderr,
        )
        return 2
    try:
        worker = ShardWorker(hello)
    except (ReproError, ValueError) as error:
        write_frame(stdout, {
            "ok": False,
            "error_code": getattr(error, "code", "REPRO_USAGE"),
            "error_message": str(error),
        })
        return 2
    recorder = faulty_recorder(hello.get("faults"), obs.get_recorder())
    write_frame(stdout, worker.hello_reply())
    stdout_lock = threading.Lock()
    frames: "queue.Queue" = queue.Queue()
    with obs.recording(recorder):
        pump = threading.Thread(
            target=_pump,
            args=(worker, stdin, stdout, stdout_lock, frames,
                  orphan_grace),
            name=f"shard-{worker.shard}-pump",
            daemon=True,
        )
        pump.start()
        while True:
            frame = frames.get()
            if frame is None:
                return 0  # coordinator gone: die with the parent
            if isinstance(frame, FrameError):
                print(
                    f"repro shard worker {worker.shard}: {frame}",
                    file=sys.stderr,
                )
                return 1
            op = frame.get("op", "?")
            # The frame-seam announcement: ``hang:<op>`` faults fire
            # here, pinning this thread while pings stay answered.
            obs_count(f"shard.op.{op}")
            reply = _echo(frame, worker.handle(frame))
            if not _write_reply(
                stdout, stdout_lock, frame, reply, recorder
            ):
                return 1
            if op == "shutdown":
                return 0


def main(argv: list[str] | None = None) -> NoReturn:
    parser = argparse.ArgumentParser(prog="repro.shard.worker")
    parser.add_argument(
        "--shard",
        type=int,
        default=-1,
        help="shard index (cosmetic: makes the process findable)",
    )
    parser.parse_args(argv)
    status = serve_frames(sys.stdin.buffer, sys.stdout.buffer)
    # The daemon pump thread is parked in a read that holds the
    # buffered-stdin lock, which interpreter finalisation would abort
    # on ("Fatal Python error: _enter_buffered_busy"): every reply is
    # already flushed and every acked load fsynced, so flush and leave.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    main()
