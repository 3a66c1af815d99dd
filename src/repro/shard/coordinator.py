"""Scatter-gather over shard workers: the cluster behind one session.

:class:`ShardCoordinator` spawns ``N`` worker subprocesses
(:mod:`repro.shard.worker`), hands each the program text plus the
routing plan (:func:`repro.shard.partition.build_plan`), and then
presents the whole cluster behind the single-session surface the
serve supervisor already speaks: :class:`ShardedEngine` and the
coordinator itself duck-type ``Engine``/``Session`` closely enough
that :class:`repro.serve.supervisor.Supervisor` needs no changes --
admission queue, retries, and the per-form circuit breaker wrap the
sharded engine exactly as they wrap a local one.

Request discipline mirrors the session's reader-writer rules
(:class:`~repro.service.sync.RWLock`): queries scatter under the
shared lock (any number in flight, multiplexed over the worker pipes
by query id), fact loads and checkpoint barriers run exclusively --
which is precisely what makes the cross-shard checkpoint a consistent
cut (:mod:`repro.shard.snapshot`).  A query is routed to the one
shard owning its bound key when the plan can prove that
(:meth:`~repro.shard.partition.ShardPlan.seed_shards` -- the magic
seed's constants picking the shard), and broadcast otherwise.  A
broadcast runs the delta-exchange loop (:mod:`repro.shard.exchange`)
and gathers, deduplicates and orders the answers; a pruned query is
one ``q_start`` frame on which the owner runs, answers and checks in.

Failure policy: every worker interaction is deadline-bounded and
supervised.  A dead pipe, an expired op deadline, or a missed
heartbeat raises :class:`~repro.errors.ShardError`, which fails only
the requests touching that shard; a worker that is alive but
unresponsive (deadlocked, SIGSTOPped, wedged in a stuck op) is
*declared hung*, SIGKILLed, and respawned -- (when durable) replaying
its per-shard WAL before serving again.  Replies from a killed
incarnation are fenced by a per-incarnation nonce so a zombie's late
answer is never credited to its successor.  A query whose exchange
round lost a straggler is retried once inline after the respawn
(``shard.round_retries``); loads are never silently retried -- the
caller sees the error and decides, exactly as with the
single-session WAL ack.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from typing import Iterable, Mapping

from repro.codec import decode_fact, encode_fact, frozen
from repro.driver import grade, split_edb
from repro.engine.facts import Fact
from repro.errors import ReproError, ShardError, UsageError
from repro.governor import Budget
from repro.lang.ast import Query
from repro.lang.parser import parse_program_and_queries
from repro.obs.recorder import count as obs_count
from repro.obs.recorder import span as obs_span
from repro.serve.snapshot import program_sha
from repro.service.engine import parse_facts
from repro.service.session import Response
from repro.service.sync import RWLock
from repro.shard import snapshot as cluster_snapshot
from repro.shard.exchange import (
    WorkerReplyError,
    check_replies,
    run_exchange,
    warm_start,
)
from repro.shard.partition import build_plan
from repro.shard.protocol import FrameError, read_frame, write_frame


#: Slack subtracted from the remaining request deadline before it
#: rides an op frame: the worker's meter trips this much *earlier*
#: than the coordinator's op timeout, so an overrunning query comes
#: back as a ``truncated:deadline`` reply instead of a declared hang.
DEADLINE_SLACK = 0.25

#: Grace the coordinator grants past the remaining deadline before
#: declaring the worker hung -- time for the worker to notice its own
#: deadline trip and send the truncated reply.
DEADLINE_GRACE = 2.0

#: The floor on a propagated deadline: an already-exhausted request
#: still sends a positive ``deadline_left`` so the worker's meter
#: trips at its first checkpoint rather than the frame being invalid.
MIN_DEADLINE_LEFT = 0.001


class _Pending:
    """One in-flight call's reply slot, tagged with its incarnation."""

    __slots__ = ("nonce", "event", "reply")

    def __init__(self, nonce: str) -> None:
        self.nonce = nonce
        self.event = threading.Event()
        self.reply: dict | None = None


class ShardClient:
    """One worker subprocess behind a multiplexed, supervised pipe.

    A per-incarnation reader thread drains the worker's stdout and
    routes replies to waiting callers by frame ``id``, so a heartbeat
    ``ping`` can ride the same pipe as a long-running op.  Every call
    is deadline-bounded: on expiry (or a missed ping probe) the worker
    is declared *hung* -- SIGKILLed so the next request respawns it --
    and only the in-flight calls fail.  Replies carrying a stale
    incarnation ``nonce`` (a zombie draining its old pipe after a
    respawn) are fenced: dropped and counted, never credited to the
    successor.
    """

    #: Minimum seconds a ping probe is given to come back, however
    #: small the heartbeat interval (a busy-but-alive worker answers
    #: from its reader thread, but needs a GIL slice to do it).
    PING_FLOOR = 1.0

    def __init__(
        self,
        shard: int,
        hello: dict,
        *,
        op_timeout: float | None = 30.0,
        heartbeat_interval: float = 2.0,
        counters: dict | None = None,
    ) -> None:
        self.shard = shard
        self._hello = dict(hello, op="hello", shard=shard)
        self.process: subprocess.Popen | None = None
        self.alive = False
        self.deaths = 0
        self.incarnation = 0
        self.nonce = f"{shard}:0"
        self.op_timeout = op_timeout
        self.heartbeat_interval = heartbeat_interval
        self.counters = counters
        #: Serializes respawn attempts (double-checked on ``alive``)
        #: so racing readers never spawn two processes for one shard.
        self.spawn_lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._mutex = threading.Lock()  # pending table + liveness
        self._pending: dict[int, _Pending] = {}
        self._ids = itertools.count(1)
        self._reader: threading.Thread | None = None

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def _count(self, key: str, obs_name: str, n: int = 1) -> None:
        obs_count(obs_name, n)
        if self.counters is not None:
            self.counters[key] = self.counters.get(key, 0) + n

    def spawn(self) -> dict:
        """Start (or restart) the worker and complete the handshake."""
        # The worker must import ``repro`` even when the coordinator
        # found it through sys.path manipulation (tests, benchmark
        # scripts) rather than an installed package or PYTHONPATH.
        package_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env = dict(os.environ)
        paths = env.get("PYTHONPATH", "").split(os.pathsep)
        if package_root not in paths:
            env["PYTHONPATH"] = os.pathsep.join(
                [package_root] + [path for path in paths if path]
            )
        self.incarnation += 1
        self.nonce = f"{self.shard}:{self.incarnation}"
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.shard.worker",
                "--shard",
                str(self.shard),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # workers share the coordinator's stderr
            env=env,
        )
        try:
            write_frame(self.process.stdin, self._hello)
            reply = read_frame(self.process.stdout)
        except (OSError, FrameError) as error:
            self._mark_dead()
            raise ShardError(
                f"shard {self.shard} worker failed to start: {error}"
            ) from None
        if reply is None or not reply.get("ok"):
            detail = (
                "died during handshake"
                if reply is None
                else f"rejected handshake: {reply.get('error_message')}"
            )
            self._mark_dead()
            raise ShardError(
                f"shard {self.shard} worker {detail}"
            )
        self.alive = True
        self._reader = threading.Thread(
            target=self._read_loop,
            args=(self.process, self.nonce),
            name=f"shard-{self.shard}-reader",
            daemon=True,
        )
        self._reader.start()
        return reply

    def _mark_dead(self) -> None:
        if self.alive:
            self.deaths += 1
            obs_count("shard.worker_deaths")
        self.alive = False

    # -- the reader side ----------------------------------------------

    def _read_loop(
        self, process: subprocess.Popen, nonce: str
    ) -> None:
        """Drain one incarnation's stdout, routing replies by id."""
        stream = process.stdout
        while True:
            try:
                frame = read_frame(stream)
            except (OSError, ValueError, FrameError) as error:
                # A damaged (or desynced) pipe is untrustworthy from
                # here on; kill the writer so nothing half-parsed can
                # ever be credited as a reply.
                self._fail_incarnation(
                    nonce, kill=isinstance(error, FrameError)
                )
                return
            if frame is None:
                self._fail_incarnation(nonce, kill=False)
                return
            self._route(frame, nonce)

    def _route(self, frame: dict, nonce: str) -> bool:
        """Deliver one reply; fence it if its incarnation is stale.

        A reply is credited only when it carries the *live* nonce and
        matches a pending call; anything else is a zombie's late
        answer (or an already-abandoned call's) and is dropped,
        counted as ``shard.fenced_replies``.
        """
        if frame.get("nonce") != self.nonce or nonce != self.nonce:
            self._count("fenced_replies", "shard.fenced_replies")
            return False
        with self._mutex:
            pending = self._pending.pop(frame.get("id"), None)
        if pending is None:
            self._count("fenced_replies", "shard.fenced_replies")
            return False
        pending.reply = frame
        pending.event.set()
        return True

    def _fail_incarnation(self, nonce: str, kill: bool) -> bool:
        """End one incarnation: mark dead, fail its in-flight calls.

        Returns whether this call performed the alive->dead
        transition (so hang accounting fires exactly once per
        incident even when the op timeout and a heartbeat race).
        """
        process = None
        with self._mutex:
            transitioned = False
            if self.nonce == nonce:
                process = self.process
                if self.alive:
                    self.deaths += 1
                    obs_count("shard.worker_deaths")
                    transitioned = True
                self.alive = False
            stale = [
                (frame_id, slot)
                for frame_id, slot in self._pending.items()
                if slot.nonce == nonce
            ]
            for frame_id, __ in stale:
                del self._pending[frame_id]
        if kill and process is not None:
            try:
                process.kill()
            except OSError:
                pass
        for __, slot in stale:
            slot.event.set()
        return transitioned

    def _declare_hung(self, reason: str) -> None:
        """The worker is alive but unresponsive: SIGKILL and fail."""
        if self._fail_incarnation(self.nonce, kill=True):
            self._count("hangs", "shard.hangs")
            print(
                f"repro shard coordinator: shard {self.shard} "
                f"(pid {self.pid}) declared hung: {reason}",
                file=sys.stderr,
            )

    # -- the calling side ---------------------------------------------

    def call(
        self,
        payload: dict,
        *,
        timeout: float | None = None,
        probe: bool = True,
    ) -> dict:
        """One deadline-bounded request; replies routed by frame id.

        Waits up to ``timeout`` (the default ``op_timeout``) for the
        reply, probing with ``ping`` every heartbeat interval while
        waiting so a *dead* worker is detected long before a merely
        *slow* op's deadline.  Expiry (or a missed probe) declares the
        worker hung: it is SIGKILLed, every in-flight call on it fails
        with :class:`~repro.errors.ShardError`, and the next request
        respawns it.
        """
        process = self.process
        nonce = self.nonce
        if not self.alive or process is None:
            raise ShardError(f"shard {self.shard} worker is down")
        frame_id = next(self._ids)
        pending = _Pending(nonce)
        with self._mutex:
            self._pending[frame_id] = pending
        op = payload.get("op")
        try:
            with self._write_lock:
                write_frame(
                    process.stdin,
                    dict(payload, id=frame_id, nonce=nonce),
                )
        except (OSError, ValueError, FrameError) as error:
            with self._mutex:
                self._pending.pop(frame_id, None)
            self._fail_incarnation(nonce, kill=True)
            raise ShardError(
                f"shard {self.shard} worker transport failed "
                f"(pid {self.pid}): {error}"
            ) from None
        limit = self.op_timeout if timeout is None else timeout
        interval = (
            self.heartbeat_interval
            if probe and self.heartbeat_interval
            else None
        )
        started = time.monotonic()
        while not pending.event.is_set():
            remaining = (
                None
                if limit is None
                else limit - (time.monotonic() - started)
            )
            if remaining is not None and remaining <= 0:
                self._declare_hung(
                    f"op {op} exceeded its {limit:.3g}s deadline"
                )
                break
            wait_for = remaining
            if interval is not None:
                wait_for = (
                    interval
                    if wait_for is None
                    else min(interval, wait_for)
                )
            if pending.event.wait(wait_for):
                break
            if (
                interval is not None
                and op != "ping"
                and not pending.event.is_set()
                and not self.ping()
            ):
                break  # the probe declared the worker hung
        reply = pending.reply
        if reply is None:
            with self._mutex:
                self._pending.pop(frame_id, None)
            raise ShardError(
                f"shard {self.shard} worker hung or died during "
                f"{op} (pid {self.pid})"
            )
        return reply

    def ping(self, grace: float | None = None) -> bool:
        """Whether the worker answers a heartbeat within ``grace``.

        The worker answers pings from its reader thread even while an
        op runs, so a miss means the *process* is gone or wedged
        (killed, SIGSTOPped, stuck pump), not merely busy.  A miss is
        counted and declares the worker hung via the timeout path.
        """
        if grace is None:
            grace = max(
                self.PING_FLOOR, self.heartbeat_interval or 0.0
            )
        try:
            self.call({"op": "ping"}, timeout=grace, probe=False)
            return True
        except ShardError:
            self._count(
                "heartbeat_misses", "shard.heartbeat_misses"
            )
            return False

    def close(
        self, graceful: bool = True, timeout: float | None = None
    ) -> None:
        """Shut the worker down: shutdown op, then an escalation
        ladder (EOF -> SIGTERM -> ``wait(timeout)`` -> SIGKILL), so a
        stuck worker can stall shutdown by at most a few timeouts."""
        process = self.process
        if process is None:
            return
        if timeout is None:
            timeout = min(self.op_timeout or 5.0, 5.0)
        if graceful and self.alive:
            try:
                self.call(
                    {"op": "shutdown"}, timeout=timeout, probe=False
                )
            except ShardError:
                pass  # already SIGKILLed by the hang path
        self.alive = False
        try:
            if process.stdin is not None:
                process.stdin.close()
        except OSError:
            pass
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.terminate()
            try:
                process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        try:
            if process.stdout is not None:
                process.stdout.close()
        except OSError:
            pass
        reader = self._reader
        if (
            reader is not None
            and reader is not threading.current_thread()
        ):
            reader.join(timeout=1.0)


class ShardCoordinator:
    """The cluster: routing plan, worker fleet, and request surface."""

    def __init__(
        self,
        text: str,
        shards: int,
        *,
        strategy: str = "rewrite",
        max_iterations: int = 20,
        eval_iterations: int = 200,
        cache_size: int = 64,
        on_limit: str = "truncate",
        budget: Budget | None = None,
        snapshot_dir: str | None = None,
        snapshot_every: int = 8,
        faults: str | None = None,
        partition_keys: dict[str, int] | None = None,
        partition_ranges: dict[str, tuple] | None = None,
        op_timeout: float | None = 30.0,
        heartbeat_interval: float = 2.0,
    ) -> None:
        if shards < 1:
            raise UsageError(f"shard count must be >= 1: {shards}")
        program, __ = parse_program_and_queries(text)
        rules, edb = split_edb(program)
        self.plan, self.plan_notes = build_plan(
            rules,
            edb,
            shards,
            keys=partition_keys,
            ranges=partition_ranges,
        )
        self.shards = shards
        self.program_id = program_sha(text)
        self.snapshot_dir = snapshot_dir
        self.snapshot_every = snapshot_every
        self.eval_iterations = eval_iterations
        self.cache_size = cache_size
        self.on_limit = on_limit
        self.budget = budget
        self.op_timeout = op_timeout
        self.heartbeat_interval = heartbeat_interval
        program_text = "\n".join(str(rule) for rule in program)
        budget_spec = (
            None
            if budget is None or budget.is_unlimited()
            else asdict(budget)
        )
        hello = {
            "program": program_text,
            "plan": self.plan.describe(),
            "strategy": strategy,
            "max_iterations": max_iterations,
            "eval_iterations": eval_iterations,
            "cache_size": cache_size,
            "on_limit": on_limit,
            "budget": budget_spec,
            "program_id": self.program_id,
            "faults": faults,
        }
        self.counters = {
            "queries": 0,
            "warm_hits": 0,
            "scatter_pruned": 0,
            "scatter_broadcast": 0,
            "rounds": 0,
            "exchanged": 0,
            "loads": 0,
            "load_facts": 0,
            "checkpoints": 0,
            "checkpoint_failures": 0,
            "respawns": 0,
            "hangs": 0,
            "heartbeat_misses": 0,
            "fenced_replies": 0,
            "round_retries": 0,
        }
        self._clients = [
            ShardClient(
                shard,
                dict(
                    hello,
                    snapshot_dir=(
                        cluster_snapshot.shard_directory(
                            snapshot_dir, shard
                        )
                        if snapshot_dir
                        else None
                    ),
                ),
                op_timeout=op_timeout,
                heartbeat_interval=heartbeat_interval,
                counters=self.counters,
            )
            for shard in range(shards)
        ]
        self._pool = ThreadPoolExecutor(
            max_workers=shards, thread_name_prefix="shard-scatter"
        )
        self._rw = RWLock()
        self._cache_lock = threading.Lock()
        self._answers: OrderedDict[str, tuple[int, Response]] = (
            OrderedDict()
        )
        self._qids = itertools.count(1)
        self._epochs = {shard: 0 for shard in range(shards)}
        self._generation = 0
        self._loads = 0
        self._started = False
        self._hb_stop = threading.Event()
        self._hb_thread: threading.Thread | None = None

    @property
    def durable(self) -> bool:
        return self.snapshot_dir is not None

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        """Spawn the whole fleet (handshakes run in parallel)."""
        if self._started:
            return
        list(self._pool.map(
            lambda client: client.spawn(), self._clients
        ))
        self._started = True
        if self.heartbeat_interval and self._hb_thread is None:
            self._hb_thread = threading.Thread(
                target=self._heartbeat_loop,
                name="shard-heartbeat",
                daemon=True,
            )
            self._hb_thread.start()

    def _heartbeat_loop(self) -> None:
        """Ping idle workers so a wedged one is noticed *between*
        requests, not only when the next request blocks on it."""
        interval = self.heartbeat_interval
        while not self._hb_stop.wait(interval):
            for client in self._clients:
                if self._hb_stop.is_set():
                    return
                if client.alive:
                    client.ping()

    def pids(self) -> dict[int, int | None]:
        """Worker pids by shard (the chaos harness aims SIGKILL here)."""
        return {
            client.shard: client.pid for client in self._clients
        }

    def recover(self) -> dict:
        """Restore every shard, then reconcile against the manifest."""
        self.start()
        with self._rw.write_locked(), obs_span("shard.recover"):
            replies = self._scatter({
                shard: {"op": "recover"}
                for shard in range(self.shards)
            })
            check_replies(replies)
            summaries = {}
            for shard, reply in sorted(replies.items()):
                self._epochs[shard] = reply.get("epoch", 0)
                summaries[shard] = reply.get("recovery")
            if self.durable:
                manifest, quarantined = (
                    cluster_snapshot.latest_manifest(
                        self.snapshot_dir, self.program_id
                    )
                )
            else:
                manifest, quarantined = None, []
            status = cluster_snapshot.reconcile(manifest, self._epochs)
            if manifest is not None:
                self._generation = int(manifest.get("generation", 0))
            corrupt = sum(
                (summary or {}).get("corrupt", 0)
                for summary in summaries.values()
            )
            return {
                "shards": summaries,
                "manifest": status,
                "quarantined_manifests": quarantined,
                "corrupt": corrupt,
                "epoch": self.epoch,
            }

    def close(self, drain: bool = True) -> None:
        """Final checkpoint barrier (when durable), then shut down."""
        self._hb_stop.set()
        with self._rw.write_locked():
            if drain and self.durable and self._started:
                self._barrier_locked()
            for client in self._clients:
                client.close(graceful=drain)
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=2.0)
        self._pool.shutdown(wait=False)

    # -- plumbing -----------------------------------------------------

    def _scatter(
        self,
        payloads: Mapping[int, dict],
        timeout: float | None = None,
    ) -> dict[int, dict]:
        if len(payloads) == 1:
            ((shard, payload),) = payloads.items()
            return {
                shard: self._clients[shard].call(
                    payload, timeout=timeout
                )
            }
        futures = {
            shard: self._pool.submit(
                self._clients[shard].call, payload, timeout=timeout
            )
            for shard, payload in payloads.items()
        }
        replies: dict[int, dict] = {}
        first_error: ShardError | None = None
        for shard, future in futures.items():
            try:
                replies[shard] = future.result()
            except ShardError as error:
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error
        return replies

    def _respawn_client(self, client: ShardClient) -> bool:
        """Respawn one dead worker (and WAL-recover it when durable).

        Guarded by the client's own spawn lock, not the coordinator's
        reader-writer lock, so it is callable both from the
        write-locked :meth:`_ensure_alive` sweep and *inline* from a
        read-locked query retrying a straggler round (a reader cannot
        upgrade to the write lock without deadlocking).
        """
        with client.spawn_lock:
            if client.alive:
                return True  # a racing reader already revived it
            try:
                client.close(graceful=False)
                client.spawn()
                if self.durable:
                    reply = client.call({"op": "recover"})
                    if reply.get("ok"):
                        self._epochs[client.shard] = reply.get(
                            "epoch", 0
                        )
                else:
                    # No WAL to replay: the fresh worker holds only
                    # the baked program facts, so every load this
                    # shard ever acked is gone.  Resetting its epoch
                    # moves the cluster epoch, which invalidates
                    # cached answers computed over the richer
                    # pre-crash state -- without this, a post-respawn
                    # query would recompute from the amnesiac shard
                    # and *poison* the cache at the still-current
                    # epoch.
                    self._epochs[client.shard] = 0
                self.counters["respawns"] += 1
                obs_count("shard.respawns")
                return True
            except ShardError:
                return False  # stays down; requests keep failing fast

    def _ensure_alive(self) -> None:
        if all(client.alive for client in self._clients):
            return
        with self._rw.write_locked():
            for client in self._clients:
                if not client.alive:
                    self._respawn_client(client)

    def _error(
        self, query: Query | None, code: str, message: str
    ) -> Response:
        return Response(
            kind="error",
            query=query,
            error_code=code,
            error_message=message,
        )

    @property
    def epoch(self) -> int:
        """The cluster epoch: the sum of per-shard load epochs."""
        return sum(self._epochs.values())

    # -- queries ------------------------------------------------------

    def query(self, query: Query) -> Response:
        """Scatter one query, exchange deltas, gather the answer."""
        self._ensure_alive()
        text = str(query)
        started = time.monotonic()
        self.counters["queries"] += 1
        with self._rw.read_locked(), obs_span("shard.query"):
            epoch = self.epoch
            with self._cache_lock:
                hit = self._answers.get(text)
                if hit is not None and hit[0] == epoch:
                    self._answers.move_to_end(text)
                    self.counters["warm_hits"] += 1
                    obs_count("shard.warm_hits")
                    return replace(
                        hit[1], cached=True, warm=True, resumed=False
                    )
            try:
                response = self._query_locked(query, text, started)
            except WorkerReplyError as error:
                return self._error(query, error.code, error.message)
            except ShardError as error:
                response = self._retry_after_straggler(
                    query, text, started, error
                )
            if response.ok and response.completeness == "complete":
                with self._cache_lock:
                    self._answers[text] = (epoch, response)
                    self._answers.move_to_end(text)
                    while len(self._answers) > self.cache_size:
                        self._answers.popitem(last=False)
            return response

    def _retry_after_straggler(
        self,
        query: Query,
        text: str,
        started: float,
        error: ShardError,
    ) -> Response:
        """One inline retry after a straggler round hung or died.

        The exchange barrier used to wait on a wedged worker forever;
        now the op deadline fails the round with ``ShardError``, the
        dead participants are respawned *inline* (under the read lock
        -- per-client spawn locks serialize racing readers) and the
        query restarts from ``q_start`` exactly once.  A second
        failure surfaces as transient ``REPRO_SHARD`` for the serve
        supervisor's retry/breaker machinery to absorb.
        """
        revived = [
            self._respawn_client(client)
            for client in self._clients
            if not client.alive
        ]
        if not all(revived):
            return self._error(query, "REPRO_SHARD", str(error))
        self.counters["round_retries"] += 1
        obs_count("shard.round_retries")
        try:
            return self._query_locked(query, text, started)
        except WorkerReplyError as retry_error:
            return self._error(
                query, retry_error.code, retry_error.message
            )
        except ShardError as retry_error:
            return self._error(
                query, "REPRO_SHARD", str(retry_error)
            )

    def _op_deadline(
        self, started: float
    ) -> tuple[float | None, float | None]:
        """``(deadline_left, op timeout)`` for a request's next op.

        With a wall-clock budget, the remaining request deadline
        (minus :data:`DEADLINE_SLACK`) rides the op frame so the
        worker's meter trips *first* and the reply comes back
        ``truncated:deadline``; the coordinator's own timeout trails
        it by :data:`DEADLINE_GRACE` and only fires on a genuinely
        unresponsive worker.  Without one, ops take the flat
        ``op_timeout``.
        """
        budget = self.budget
        if budget is None or budget.deadline is None:
            return None, self.op_timeout
        remaining = budget.deadline - (time.monotonic() - started)
        left = max(remaining - DEADLINE_SLACK, MIN_DEADLINE_LEFT)
        return left, max(remaining, 0.0) + DEADLINE_GRACE

    def _query_locked(
        self, query: Query, text: str, started: float
    ) -> Response:
        def send(
            payloads: Mapping[int, dict]
        ) -> dict[int, dict]:
            left, timeout = self._op_deadline(started)
            if left is not None:
                payloads = {
                    shard: dict(
                        payload, deadline_left=round(left, 3)
                    )
                    for shard, payload in payloads.items()
                }
            return self._scatter(payloads, timeout=timeout)

        participants = self.plan.seed_shards(query)
        if participants is None:
            participants = list(range(self.shards))
            self.counters["scatter_broadcast"] += 1
            obs_count("shard.scatter_broadcast")
        else:
            self.counters["scatter_pruned"] += 1
            obs_count("shard.scatter_pruned")
        qid = f"q{next(self._qids)}"
        solo = len(participants) == 1
        start = {"op": "q_start", "qid": qid, "query": text}
        if solo:
            # Nothing to exchange: the owner's one frame does it all.
            start["rounds"] = self.eval_iterations
        try:
            starts = send({shard: start for shard in participants})
            check_replies(starts)
            if solo:
                gathered = starts
                ((__, reply),) = starts.items()
                warm, resumed = reply["warm"], reply["resumed"]
                truncated = reply["truncated"]
            else:
                warm, rounds = warm_start(starts)
                outcome = None
                if rounds:
                    outcome = run_exchange(
                        send,
                        participants,
                        qid,
                        self.eval_iterations,
                        warm=warm,
                    )
                    self.counters["rounds"] += outcome.rounds
                    self.counters["exchanged"] += outcome.exchanged
                resumed = warm and outcome is not None
                truncated = outcome.truncated if outcome else None
                with obs_span("shard.gather"):
                    gathered = send({
                        shard: {
                            "op": "q_answers",
                            "qid": qid,
                            "keep_warm": truncated is None,
                        }
                        for shard in participants
                    })
                check_replies(gathered)
        except BaseException:
            try:
                self._scatter({
                    shard: {"op": "q_finish", "qid": qid}
                    for shard in participants
                })
            except (ShardError, WorkerReplyError):
                pass
            raise
        for reply in gathered.values():
            if reply.get("exhausted") and truncated is None:
                truncated = str(reply["exhausted"])
        complete = truncated is None
        first = starts[min(starts)]
        completeness, must_fail = grade(
            "complete" if complete else f"truncated:{truncated}",
            first.get("fallbacks", ()),
            self.on_limit,
            truncated,
        )
        if must_fail:
            return self._error(
                query,
                "REPRO_BUDGET",
                f"{truncated} budget exhausted during evaluate",
            )
        answers = sorted(
            {
                decode_fact(entry)
                for reply in gathered.values()
                for entry in reply.get("answers", ())
            },
            key=str,
        )
        return Response(
            kind="answers",
            query=query,
            answers=answers,
            completeness=completeness,
            form=first.get("form"),
            cached=all(
                reply.get("cached") for reply in starts.values()
            ),
            warm=warm,
            resumed=resumed,
            notes=list(first.get("notes", ())),
            epoch=self.epoch,
        )

    # -- loads and durability -----------------------------------------

    def add_facts(self, facts: Iterable[Fact]) -> Response:
        """Route a fact batch to owner shards under the write lock."""
        self._ensure_alive()
        facts = list(facts)
        with self._rw.write_locked(), obs_span("shard.load"):
            targets: dict[int, list[list]] = {}
            for fact in facts:
                owner = self.plan.route(fact)
                shards = (
                    range(self.shards) if owner is None else (owner,)
                )
                for shard in shards:
                    targets.setdefault(shard, []).append(
                        encode_fact(fact)
                    )
            if not targets:
                return Response(
                    kind="facts", added=0, epoch=self.epoch
                )
            try:
                replies = self._scatter({
                    shard: {"op": "load", "facts": payload}
                    for shard, payload in targets.items()
                })
            except ShardError as error:
                return self._error(None, "REPRO_SHARD", str(error))
            for shard, reply in sorted(replies.items()):
                if reply.get("ok"):
                    self._epochs[shard] = reply.get(
                        "epoch", self._epochs[shard]
                    )
            failed = [
                (shard, reply)
                for shard, reply in sorted(replies.items())
                if not reply.get("ok")
            ]
            if failed:
                shard, reply = failed[0]
                return self._error(
                    None,
                    reply.get("error_code", "REPRO_INTERNAL"),
                    f"shard {shard}: {reply.get('error_message')}",
                )
            new = {
                frozen(entry)
                for reply in replies.values()
                for entry in reply.get("new", ())
            }
            self._loads += 1
            self.counters["loads"] += 1
            self.counters["load_facts"] += len(facts)
            obs_count("shard.loads")
            obs_count("shard.load_facts", len(facts))
            if (
                self.durable
                and self._loads % self.snapshot_every == 0
            ):
                self._barrier_locked()
            return Response(
                kind="facts",
                added=len(new),
                epoch=self.epoch,
            )

    def checkpoint(self) -> dict:
        """A consistent cross-shard checkpoint (public entry point)."""
        with self._rw.write_locked():
            return self._checkpoint_locked()

    def _barrier_locked(self) -> None:
        """A checkpoint whose failure -- a shard's, or the manifest
        write's -- is only counted: the acks are already WAL-durable
        per shard, so it merely delays the next manifest."""
        try:
            self._checkpoint_locked()
        except (ShardError, WorkerReplyError, OSError):
            self.counters["checkpoint_failures"] += 1
            obs_count("shard.checkpoint_failures")

    def _checkpoint_locked(self) -> dict:
        with obs_span("shard.checkpoint"):
            replies = self._scatter({
                shard: {"op": "checkpoint"}
                for shard in range(self.shards)
            })
            check_replies(replies)
            for shard, reply in sorted(replies.items()):
                self._epochs[shard] = reply.get(
                    "epoch", self._epochs[shard]
                )
            self._generation += 1
            if self.durable:
                cluster_snapshot.write_manifest(
                    self.snapshot_dir,
                    self.program_id,
                    self._generation,
                    self.shards,
                    self._epochs,
                )
            self.counters["checkpoints"] += 1
            obs_count("shard.checkpoints")
            return {
                "generation": self._generation,
                "epochs": dict(self._epochs),
                "epoch": self.epoch,
            }

    # -- inspection ---------------------------------------------------

    def healthz(self) -> dict:
        """Per-shard liveness, durability and epoch report."""
        per_shard = []
        for client in self._clients:
            entry: dict = {
                "shard": client.shard,
                "pid": client.pid,
                "deaths": client.deaths,
            }
            if not client.alive:
                entry["status"] = "down"
            else:
                try:
                    reply = client.call({"op": "healthz"})
                    entry.update(
                        status=reply.get("status", "ok"),
                        epoch=reply.get("epoch"),
                        edb_facts=reply.get("edb_facts"),
                        durability=reply.get("durability"),
                    )
                except ShardError:
                    entry["status"] = "down"
            per_shard.append(entry)
        healthy = all(
            entry.get("status") == "ok" for entry in per_shard
        )
        return {
            "status": "ok" if healthy else "degraded",
            "shards": per_shard,
            "epoch": self.epoch,
            "generation": self._generation,
        }

    def stats(self) -> dict:
        """Coordinator counters, the plan, and per-shard stats."""
        per_shard = []
        for client in self._clients:
            if not client.alive:
                per_shard.append(
                    {"shard": client.shard, "status": "down"}
                )
                continue
            try:
                per_shard.append(client.call({"op": "stats"}))
            except ShardError:
                per_shard.append(
                    {"shard": client.shard, "status": "down"}
                )
        return {
            "shards": self.shards,
            "epoch": self.epoch,
            "coordinator": dict(self.counters),
            "worker_deaths": sum(
                client.deaths for client in self._clients
            ),
            "plan": self.plan.describe(),
            "plan_notes": [
                {"pred": note.pred, "reason": note.reason}
                for note in self.plan_notes
            ],
            "answer_cache": len(self._answers),
            "generation": self._generation,
            "per_shard": per_shard,
            "healthz": self.healthz(),
        }


class ShardedEngine:
    """The ``Engine`` face of the cluster (drop-in for serve)."""

    def __init__(self, coordinator: ShardCoordinator) -> None:
        self.coordinator = coordinator
        #: The ``Session`` face the supervisor sees is the coordinator.
        self.session = coordinator

    @classmethod
    def from_text(
        cls, text: str, shards: int, **options: object
    ) -> "ShardedEngine":
        return cls(ShardCoordinator(text, shards, **options))

    def add_facts(self, facts: "str | Iterable[Fact]") -> Response:
        if isinstance(facts, str):
            try:
                facts = parse_facts(facts)
            except ReproError as error:
                return self.coordinator._error(
                    None, error.code, str(error)
                )
        return self.coordinator.add_facts(facts)

    def stats(self) -> dict:
        return self.coordinator.stats()
