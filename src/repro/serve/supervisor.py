"""The supervisor: a worker pool with admission control over one engine.

:class:`Supervisor` turns the thread-safe :class:`~repro.service.engine.Engine`
into a *supervised* concurrent front-end.  Requests (batch-protocol
lines) are submitted to a bounded queue; ``workers`` threads drain it
and run each request against the shared session under its
reader-writer discipline.  Around that core the supervisor layers the
robustness machinery this package exists for:

* **Admission control** -- the queue is bounded at ``queue_depth``;
  when it is full, :meth:`submit` *sheds* the request immediately with
  an ``REPRO_OVERLOAD`` error response instead of queueing unbounded
  work (fail fast beats fail slow: a shed client can back off, a
  queued-forever one cannot).
* **Retry with backoff** -- transient query failures (injected faults,
  deadline trips) are retried per :class:`~repro.serve.retry.RetryPolicy`
  with full-jitter exponential backoff.  Fact loads are never retried:
  they are not idempotent (an epoch may have committed before the
  fault fired).
* **Circuit breakers** -- per-form breakers quarantine forms that trip
  their budget repeatedly; see :mod:`repro.serve.breaker`.  Under
  ``on_limit=widen`` an open breaker serves the form's last widened
  answer instead of an error.
* **Crash safety** -- with a snapshot directory configured, fact
  loads go through :meth:`Snapshotter.load
  <repro.serve.snapshot.Snapshotter.load>`, which owns the whole
  durability policy (WAL-before-ack, the one-way degraded read-only
  mode a failing disk flips it into, compaction); the supervisor
  decides only *when* to checkpoint: every ``snapshot_every`` loads
  and at drain.  :meth:`healthz` reports the snapshotter's
  ``durability``; see :meth:`recover` for restart.
* **Supervision** -- a worker that dies unexpectedly fails its current
  request, is counted (``serve.worker_deaths``), and is replaced.
  The injected-fault site ``serve.worker`` kills workers on purpose in
  the CI stress job; ``serve.dispatch`` fires inside the per-attempt
  scope, where the retry layer absorbs it.
* **Graceful drain** -- :meth:`drain` stops admission, lets queued
  requests finish, takes a final snapshot, and joins the pool.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field, replace

from repro.errors import OverloadError, ReproError, UsageError
from repro.lang.parser import parse_query
from repro.obs.recorder import count as obs_count, span as obs_span
from repro.serve.breaker import BreakerRegistry, counts_as_trip
from repro.serve.retry import RetryPolicy, is_transient
from repro.serve.snapshot import Snapshotter
from repro.service.engine import Engine
from repro.service.forms import canonicalize
from repro.service.session import Response

_STOP = object()


@dataclass
class ServeConfig:
    """Knobs of one supervisor (all have serving-sane defaults)."""

    workers: int = 4
    queue_depth: int = 64
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_threshold: int = 3
    breaker_cooldown: float = 5.0
    snapshot_dir: str | None = None
    snapshot_every: int = 8

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1: {self.workers}")
        if self.queue_depth < 1:
            raise ValueError(
                f"queue depth must be >= 1: {self.queue_depth}"
            )
        if self.snapshot_every < 1:
            raise ValueError(
                f"snapshot interval must be >= 1: {self.snapshot_every}"
            )


class PendingRequest:
    """One submitted request; ``result()`` blocks until a worker (or
    the shed path) resolves it with a :class:`Response`."""

    __slots__ = ("line", "index", "_event", "_response")

    def __init__(self, line: str, index: int) -> None:
        self.line = line
        self.index = index
        self._event = threading.Event()
        self._response: Response | None = None

    def resolve(self, response: Response) -> None:
        self._response = response
        self._event.set()

    def result(self, timeout: float | None = None) -> Response:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.index} still pending after {timeout}s"
            )
        assert self._response is not None
        return self._response

    @property
    def done(self) -> bool:
        return self._event.is_set()


class Supervisor:
    """A supervised worker pool serving one engine (module docstring)."""

    def __init__(
        self,
        engine: Engine,
        config: ServeConfig | None = None,
        program_id: str = "unidentified",
    ) -> None:
        self._engine = engine
        self.config = config or ServeConfig()
        self._queue: "queue.Queue[object]" = queue.Queue(
            maxsize=self.config.queue_depth
        )
        self._breakers = BreakerRegistry(
            threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
        )
        self._breaker_lock = threading.Lock()
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._started = False
        self._draining = False
        self._submitted = 0
        self._completed = 0
        self._shed = 0
        self._retries = 0
        self._worker_deaths = 0
        self._loads_since_snapshot = 0
        self.snapshotter: Snapshotter | None = None
        if self.config.snapshot_dir is not None:
            self.snapshotter = Snapshotter(
                self.config.snapshot_dir, program_id
            )

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "Supervisor":
        """Spawn the worker pool (idempotent)."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            for _ in range(self.config.workers):
                self._spawn_worker_locked()
        return self

    def _spawn_worker_locked(self) -> None:
        thread = threading.Thread(
            target=self._worker_main,
            name=f"repro-serve-{len(self._threads)}",
            daemon=True,
        )
        self._threads.append(thread)
        thread.start()

    def recover(self) -> dict | None:
        """Restore snapshot + fact-log state into the session.

        Call before :meth:`start`; returns the recovery summary, or
        ``None`` when no snapshot directory is configured.
        """
        if self.snapshotter is None:
            return None
        return self.snapshotter.recover(self._engine.session)

    def drain(self, timeout: float | None = None) -> None:
        """Graceful shutdown: finish queued work, checkpoint, join.

        New submissions are shed from the moment drain begins; every
        request already admitted is completed before workers exit.
        """
        with self._lock:
            if not self._started or self._draining:
                self._draining = True
                return
            self._draining = True
            workers = list(self._threads)
        for _ in workers:
            self._queue.put(_STOP)
        for thread in workers:
            thread.join(timeout)
        if self.snapshotter is not None:
            # A failure here only costs the next recovery some replay
            # time: the WAL already holds every acked epoch.
            self.snapshotter.checkpoint(self._engine.session)
        obs_count("serve.drains")

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.drain()

    # -- admission -----------------------------------------------------

    def submit(self, line: str) -> PendingRequest | None:
        """Admit one batch-protocol line; sheds when the queue is full.

        Returns ``None`` for blanks and comments (nothing to do), a
        :class:`PendingRequest` otherwise -- already resolved with an
        ``REPRO_OVERLOAD`` error if the request was shed.
        """
        stripped = line.strip()
        if not stripped or stripped.startswith(("%", "#")):
            return None
        if not self._started:
            raise RuntimeError("supervisor not started; call start()")
        with self._lock:
            self._submitted += 1
            index = self._submitted
        request = PendingRequest(stripped, index)
        if self._draining:
            return self._shed_request(request)
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            return self._shed_request(request)
        return request

    def _shed_request(self, request: PendingRequest) -> PendingRequest:
        with self._lock:
            self._shed += 1
        obs_count("serve.shed")
        error = OverloadError(self.config.queue_depth)
        request.resolve(Response(
            kind="error",
            error_code=error.code,
            error_message=str(error),
        ))
        return request

    # -- the worker loop -----------------------------------------------

    def _worker_main(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            assert isinstance(item, PendingRequest)
            try:
                # ``serve.worker`` scopes the whole request outside the
                # retry machinery: an injected fault here models the
                # worker itself dying mid-request.
                with obs_span("serve.worker"):
                    response = self._handle(item)
            except BaseException as error:
                item.resolve(self._crash_response(error))
                with self._lock:
                    self._worker_deaths += 1
                    self._completed += 1
                    respawn = self._started and not self._draining
                    if respawn:
                        self._spawn_worker_locked()
                obs_count("serve.worker_deaths")
                return  # this thread is done; the replacement carries on
            item.resolve(response)
            with self._lock:
                self._completed += 1

    def _crash_response(self, error: BaseException) -> Response:
        code = (
            error.code if isinstance(error, ReproError)
            else "REPRO_INTERNAL"
        )
        return Response(
            kind="error",
            error_code=code,
            error_message=f"worker died serving request: {error}",
        )

    # -- request handling ----------------------------------------------

    def _handle(self, item: PendingRequest) -> Response:
        if item.line.startswith("?-"):
            return self._serve_query(item.line)
        return self._serve_facts(item.line)

    def _error(self, error: ReproError, query=None) -> Response:
        return Response(
            kind="error",
            query=query,
            error_code=error.code,
            error_message=str(error),
        )

    def _serve_query(self, line: str) -> Response:
        try:
            query = parse_query(line)
            form, _ = canonicalize(query)
        except ReproError as error:
            return self._error(error)
        except ValueError as error:
            return self._error(UsageError(str(error)))
        key = str(form)
        with self._breaker_lock:
            breaker = self._breakers.get(key)
            if not breaker.allow():
                fallback = breaker.fallback
                if (
                    self._engine.session.on_limit == "widen"
                    and fallback is not None
                ):
                    obs_count("serve.breaker_fallbacks")
                    return replace(
                        fallback,
                        notes=[
                            *fallback.notes,
                            "circuit open: serving last widened "
                            "approximation",
                        ],
                    )
                obs_count("serve.breaker_refusals")
                return self._error(breaker.refuse(key), query)
        response = self._query_with_retries(query)
        with self._breaker_lock:
            if counts_as_trip(response):
                breaker.record_failure()
            elif response.ok:
                breaker.record_success(response)
        return response

    def _query_with_retries(self, query) -> Response:
        policy = self.config.retry
        attempt = 0
        while True:
            response = self._attempt_query(query)
            if (
                response.ok
                or not is_transient(response)
                or attempt >= policy.retries
            ):
                return response
            with self._lock:
                self._retries += 1
            obs_count("serve.retries")
            policy.backoff(attempt)
            attempt += 1

    def _attempt_query(self, query) -> Response:
        try:
            # ``serve.dispatch`` scopes one *attempt*: an injected
            # fault here is absorbed by the retry loop above.
            with obs_span(
                "serve.dispatch", pred=query.literal.pred
            ):
                return self._engine.session.query(query)
        except ReproError as error:
            return self._error(error, query)

    def _serve_facts(self, line: str) -> Response:
        # Never retried: a fault firing after the epoch committed
        # would make a retry double-load (see module docstring).
        try:
            with obs_span("serve.dispatch", kind="facts"):
                if self.snapshotter is None:
                    return self._engine.add_facts(line)
                response = self.snapshotter.load(self._engine, line)
        except ReproError as error:
            return self._error(error)
        if response.ok and response.loaded:
            with self._lock:
                self._loads_since_snapshot += 1
                due = (
                    self._loads_since_snapshot
                    >= self.config.snapshot_every
                )
                if due:
                    self._loads_since_snapshot = 0
            if due:
                # Should this fail, the ack stands (the epoch is in
                # the fsynced WAL) and later loads are refused.
                self.snapshotter.checkpoint(self._engine.session)
        return response

    # -- inspection ----------------------------------------------------

    def healthz(self) -> dict:
        """A cheap liveness/readiness summary."""
        with self._lock:
            alive = sum(
                1 for thread in self._threads if thread.is_alive()
            )
            status = (
                "draining" if self._draining
                else "ok" if self._started and alive
                else "stopped"
            )
        with self._breaker_lock:
            breakers_open = self._breakers.open_count()
        health = {
            "status": status,
            "workers_alive": alive,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.config.queue_depth,
            "breakers_open": breakers_open,
            "durability": (
                "none" if self.snapshotter is None
                else self.snapshotter.durability
            ),
        }
        if health["durability"] == "degraded":
            health["durability_reason"] = (
                self.snapshotter.degraded_reason
            )
        return health

    def stats(self) -> dict:
        """Supervisor counters plus the engine's own snapshot."""
        with self._lock:
            counters = {
                "submitted": self._submitted,
                "completed": self._completed,
                "shed": self._shed,
                "retries": self._retries,
                "worker_deaths": self._worker_deaths,
                "degraded": (
                    self.snapshotter is not None
                    and self.snapshotter.durability == "degraded"
                ),
            }
        with self._breaker_lock:
            breakers = self._breakers.states()
        return {
            "serve": counters,
            "breakers": breakers,
            "engine": self._engine.stats(),
        }
