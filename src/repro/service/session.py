"""Sessions: warm databases, per-request budgets, error isolation.

A :class:`Session` is the long-lived core of the service.  It parses
and splits a program **once**, then answers any number of queries and
fact loads against the same state:

* Each query is canonicalized to a :class:`~repro.service.forms.QueryForm`
  and compiled at most once per compile key (LRU-bounded,
  :meth:`prepare`; :func:`~repro.service.forms.compile_key`).  For the
  magic strategies the key is the form and the cached artifact is the
  *seed-less* template; the seed fact -- the only place query
  constants appear (Appendix B builds it as a runtime fact) -- is
  rebuilt from the actual call by :meth:`CompiledForm.seed_rule`.  The
  constraint-propagation strategies depend only on the query
  predicate, so every form of it shares one compile, used verbatim.
* The first evaluation of a compile key leaves its one **warm**
  :class:`WarmState` -- the evaluated database and its final iteration
  stamp.  A later request folds what that database lacks
  (:meth:`warm_delta`) into it with one
  :func:`repro.engine.fixpoint.resume` of the template, as the
  semi-naive delta (sound: negation-free programs are monotone in their
  facts, seeds included), or reads the answer straight off; so does a
  shard worker (:mod:`repro.shard.worker`), one round at a time.
  Truncated evaluations are *never* kept warm -- a
  truncated resume drops the key's whole accumulated database -- and
  degraded (fallback) compiles are never cached: cached state must
  reproduce exactly what a cold run would.
* Every request runs under its own fresh budget meter (from the
  session's :class:`~repro.governor.Budget` spec) and every failure is
  converted to an error :class:`Response` carrying the ``REPRO_*``
  code -- one pathological request cannot take the session down.
* The session is **thread-safe** under a reader-writer discipline
  (:class:`~repro.service.sync.RWLock`): any number of queries run
  concurrently, while :meth:`add_facts` epochs are exclusive, so a
  query always sees a consistent EDB + fact-log state.  Within the
  concurrent-query side, compiles are single-flight (the first
  request compiles, racers wait and reuse) and evaluation against one
  cache entry is serialized by the entry's lock, so two threads never
  resume the same warm database at once.  The supervisor
  (:mod:`repro.serve`) builds its worker pool directly on these
  guarantees.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext as _nullcontext
from dataclasses import dataclass, field
from typing import Iterable

from repro.config import (
    DEFAULT_EVAL_ITERATIONS,
    DEFAULT_REWRITE_ITERATIONS,
)
from repro.driver import (
    AUTO_STRATEGY,
    ON_LIMIT_POLICIES,
    compile_query,
    grade,
    render_answers,
    split_edb,
    validate_strategy,
)
from repro.engine import Database, evaluate, resume
from repro.engine.facts import Fact, fact_of_rule
from repro.engine.query import answers_as
from repro.errors import BudgetExceeded, ReproError, UsageError
from repro.governor import Budget, BudgetMeter
from repro.governor import budget as governor
from repro.lang.ast import Literal, Program, Query, Rule
from repro.lang.normalize import normalize_query
from repro.obs.recorder import count as obs_count, span as obs_span
from repro.planner import plan_query
from repro.service.cache import (
    CacheEntry,
    DEFAULT_CACHE_SIZE,
    FormCache,
)
from repro.service.forms import QueryForm, canonicalize, compile_key
from repro.service.sync import RWLock


@dataclass
class CompiledForm:
    """The reusable optimization artifact of one compile key.

    ``form`` is the query form that compiled it, the key's own under a
    magic strategy.  ``template`` is the optimized program with the
    magic seed (if any) stripped; ``seed_pred`` names the magic
    predicate the seed must define, or ``None`` for the seed-less
    strategies.  ``cacheable`` is False when the compile degraded
    (budget fallbacks): a degraded rewrite is specific to the budget
    weather it was compiled under, so it serves this request only.
    """

    form: QueryForm
    template: Program
    query_pred: str
    seed_pred: str | None
    strategy: str
    notes: list[str] = field(default_factory=list)
    fallbacks: list[str] = field(default_factory=list)

    @property
    def cacheable(self) -> bool:
        """Safe to reuse for other requests of its compile key?"""
        return not self.fallbacks

    def seed_rule(self, query: Query) -> Rule | None:
        """This call's magic seed (``None`` for seed-less strategies).

        Rebuilt exactly as
        :func:`repro.magic.templates.constraint_magic` would for this
        query: the normalized query literal's arguments at the bound
        (per the form's adornment) positions, under the normalized
        query constraint.  Positional reconstruction -- never
        value-based substitution -- so repeated or colliding constants
        cannot mis-bind.
        """
        if self.seed_pred is None:
            return None
        normalized = normalize_query(query)
        seed_args = tuple(
            normalized.literal.args[position]
            for position, letter in enumerate(self.form.adornment)
            if letter == "b"
        )
        return Rule(
            Literal(self.seed_pred, seed_args),
            (),
            normalized.constraint,
            label="seed",
        )

    def specialize(self, query: Query) -> tuple[Program, Rule | None]:
        """The template with this call's seed re-attached, and the seed."""
        seed = self.seed_rule(query)
        if seed is None:
            return self.template, None
        return self.template.with_rules([seed]), seed


@dataclass
class WarmState:
    """A compile key's evaluated database, reusable across requests.

    ``last_stamp`` is the highest iteration stamp stored, so the next
    delta (loaded facts, a new seed) enters at ``last_stamp + 1``;
    ``epoch`` is the session fact epoch the database is current to.
    ``seeds`` counts the magic seeds it has absorbed (0 for seed-less
    strategies; see :meth:`~repro.service.cache.CacheEntry.trim`).
    ``origin`` names the distributed query that left the state (shard
    workers only; :func:`repro.shard.exchange.warm_start`).
    """

    database: Database
    last_stamp: int
    epoch: int
    seeds: int
    origin: str | None = None


@dataclass
class Response:
    """What one service request produced (always returned, never raised).

    ``kind`` is ``"answers"`` (a query), ``"facts"`` (a fact load), or
    ``"error"``.  ``cached`` reports a form-cache hit, ``warm`` that
    the answer came from a warm database (``resumed`` when new facts
    were folded in incrementally first).  ``completeness`` follows the
    driver vocabulary (``complete`` / ``approximated`` /
    ``truncated:<resource>``).
    """

    kind: str
    query: Query | None = None
    answers: list[Fact] = field(default_factory=list)
    completeness: str = "complete"
    form: str | None = None
    cached: bool = False
    warm: bool = False
    resumed: bool = False
    added: int = 0
    #: For ``"facts"`` responses: the facts that were actually new --
    #: what a write-ahead fact log must record for crash-safe replay
    #: (see :mod:`repro.serve.snapshot`) -- and the epoch the load was
    #: assigned (recorded inside the exclusive section, so concurrent
    #: loads cannot mislabel each other's log entries).
    loaded: tuple = ()
    epoch: int = 0
    notes: list[str] = field(default_factory=list)
    error_code: str | None = None
    error_message: str | None = None
    budget: dict | None = None
    #: The raw :class:`~repro.engine.EvalStats` of the evaluation that
    #: produced the answer (``None`` on a warm hit -- nothing was
    #: evaluated).
    eval_stats: object = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        """Did the request succeed (possibly degraded)?"""
        return self.kind != "error"

    @property
    def answer_strings(self) -> list[str]:
        """Answers rendered as query-variable bindings."""
        if self.query is None:
            return []
        return render_answers(self.query, self.answers)

    def to_dict(self) -> dict:
        """The JSON-ready batch-protocol rendering."""
        if self.kind == "error":
            payload: dict = {
                "type": "error",
                "code": self.error_code,
                "message": self.error_message,
            }
            if self.query is not None:
                payload["query"] = str(self.query)
            return payload
        if self.kind == "facts":
            return {"type": "facts", "added": self.added}
        payload = {
            "type": "answers",
            "query": str(self.query),
            "answers": self.answer_strings,
            "completeness": self.completeness,
            "cached": self.cached,
            "warm": self.warm,
        }
        if self.resumed:
            payload["resumed"] = True
        if self.notes:
            payload["notes"] = list(self.notes)
        return payload


class Session:
    """A compile-once, warm-database query session over one program."""

    def __init__(
        self,
        program: Program,
        strategy: str = "rewrite",
        max_iterations: int = DEFAULT_REWRITE_ITERATIONS,
        eval_iterations: int = DEFAULT_EVAL_ITERATIONS,
        budget: Budget | None = None,
        on_limit: str = "truncate",
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        validate_strategy(strategy, allow_auto=True)
        if on_limit not in ON_LIMIT_POLICIES:
            raise UsageError(
                f"unknown on_limit policy {on_limit!r}; "
                f"choose from {ON_LIMIT_POLICIES}"
            )
        with obs_span("service.load"):
            self._rules, self._edb = split_edb(program)
        self._derived = self._rules.derived_predicates()
        self._strategy = strategy
        #: Under ``auto``, each form's :func:`plan_query` pick, fixed.
        self._picks: dict[QueryForm, str] = {}
        self._max_iterations = max_iterations
        self._eval_iterations = eval_iterations
        self._budget = budget
        self._on_limit = on_limit
        self._cache = FormCache(cache_size)
        self._epoch = 0
        self._fact_log: list[tuple[int, list[Fact]]] = []
        self.requests = 0
        self.errors = 0
        # Concurrency discipline: queries share, fact loads exclude
        # (module docstring).  ``_mutex`` guards the form cache, the
        # compile-lock table, and the request/error counters;
        # ``_compile_locks`` makes compiles single-flight per key.
        self._rw = RWLock()
        self._mutex = threading.Lock()
        self._compile_locks: dict[tuple, threading.Lock] = {}

    # -- the two request kinds ----------------------------------------

    def query(self, query: Query) -> Response:
        """Answer one query; failures come back as error responses.

        Runs in the lock's *shared* mode: concurrent queries proceed
        together, but never overlap a fact-load epoch.
        """
        with self._mutex:
            self.requests += 1
        obs_count("service.requests")
        with self._rw.read_locked(), obs_span(
            "service.request", kind="query", pred=query.literal.pred
        ) as request_span:
            meter = (
                self._budget.meter() if self._budget is not None else None
            )
            try:
                with (
                    governor.governed(meter)
                    if meter is not None else _nullcontext()
                ):
                    response = self._answer(query, meter)
            except ReproError as error:
                response = self._error_response(error, query)
            except ValueError as error:
                response = self._error_response(
                    UsageError(str(error)), query
                )
            if meter is not None:
                response.budget = meter.snapshot()
            request_span.set("ok", response.ok)
            if response.error_code:
                request_span.set("error", response.error_code)
            return response

    def add_facts(self, facts: Iterable[Fact]) -> Response:
        """Load new EDB facts; they reach warm databases incrementally.

        Facts for derived (IDB) predicates are rejected: injecting
        them would silently change the program's semantics rather than
        its database.  Returns how many facts were actually new (not
        duplicates or subsumed).

        Runs in the lock's *exclusive* mode: the epoch bump, the EDB
        mutation, and the fact-log append are atomic with respect to
        every concurrent query.
        """
        with self._mutex:
            self.requests += 1
        obs_count("service.requests")
        with self._rw.write_locked(), obs_span(
            "service.request", kind="add_facts"
        ) as request_span:
            try:
                batch = list(facts)
                for fact in batch:
                    if fact.pred in self._derived:
                        raise UsageError(
                            f"cannot add facts for derived predicate "
                            f"{fact.pred!r}"
                        )
                self._trim_fact_log()
                added = self._edb.insert_many(batch)
            except ReproError as error:
                return self._error_response(error)
            except ValueError as error:
                return self._error_response(UsageError(str(error)))
            if added:
                self._epoch += 1
                self._fact_log.append((self._epoch, added))
            obs_count("service.facts_added", len(added))
            request_span.set("added", len(added))
            return Response(
                kind="facts",
                added=len(added),
                loaded=tuple(added),
                epoch=self._epoch,
            )

    # -- request internals --------------------------------------------

    def _error_response(
        self, error: ReproError, query: Query | None = None
    ) -> Response:
        with self._mutex:
            self.errors += 1
        obs_count("service.errors")
        return Response(
            kind="error",
            query=query,
            error_code=error.code,
            error_message=str(error),
        )

    def _compile_lock(self, key: tuple) -> threading.Lock:
        """The single-flight lock for one compile key."""
        with self._mutex:
            if len(self._compile_locks) > max(
                1024, 4 * self._cache.capacity
            ):
                # Evicted keys leave dead locks behind; dropping the
                # table is safe (its absence only risks a duplicate
                # compile, never a wrong answer).
                self._compile_locks.clear()
            return self._compile_locks.setdefault(key, threading.Lock())

    def prepare(
        self, query: Query
    ) -> tuple[CacheEntry, bool, QueryForm]:
        """The query's cache entry, whether it was a hit, and its form.

        Compiles at most once per compile key, so forms that compile
        alike share one entry; the form returned is the request's own,
        which ``entry.compiled.form`` need not be.  Concurrent first
        requests are single-flight (the race winner compiles, the
        others wait on the key's lock and reuse the artifact).  Under
        ``auto`` the form's strategy is :func:`plan_query`'s pick, made
        on the form's first request and kept.
        Evaluation is the caller's -- :meth:`query`, or a shard worker
        stepping exchange rounds (:mod:`repro.shard.worker`); so is
        converting the :class:`~repro.errors.ReproError` of a failed
        compile.
        """
        form, __ = canonicalize(query)
        strategy = self._strategy
        if strategy == AUTO_STRATEGY:
            with self._mutex:
                strategy = self._picks.get(form)
            if strategy is None:
                strategy = plan_query(self._rules, query).strategy
                with self._mutex:
                    strategy = self._picks.setdefault(form, strategy)
        key = compile_key(form, strategy)
        with self._mutex:
            entry = self._cache.get(key)
        if entry is not None:
            return entry, True, form
        with self._compile_lock(key):
            with self._mutex:
                entry = self._cache.peek(key)
            if entry is not None:
                return entry, True, form  # a racer compiled it first
            compiled = self._compile(query, form, strategy)
            if compiled.cacheable:
                with self._mutex:
                    entry = self._cache.put(key, compiled)
            else:
                entry = CacheEntry(compiled)  # serve-once, never stored
            return entry, False, form

    def warm_delta(
        self, compiled: CompiledForm, warm: WarmState, query: Query
    ) -> tuple[list[Fact], bool]:
        """What ``warm`` lacks for ``query``: one semi-naive delta.

        Returns the EDB facts loaded since the state's epoch, to fold
        in at ``warm.last_stamp + 1``, and whether this call's seed was
        new -- inserted as a fact at that stamp right here, unless the
        database holds or subsumes it.  The state now counts as current
        and seeded: the caller must ``resume`` it (``assume_delta`` when
        seeded) or drop it.
        """
        pending = [
            fact
            for epoch, facts in self._fact_log
            if epoch > warm.epoch
            for fact in facts
        ] if warm.epoch < self._epoch else []
        seed = compiled.seed_rule(query)
        seeded = seed is not None and bool(
            warm.database.insert_many(
                [fact_of_rule(seed)], warm.last_stamp + 1
            )
        )
        warm.epoch = self._epoch
        warm.seeds += seeded
        return pending, seeded

    def _answer(
        self, query: Query, meter: BudgetMeter | None
    ) -> Response:
        entry, cached, form = self.prepare(query)
        # Evaluation against one entry is serialized by its lock, so a
        # warm database is never resumed by two threads at once;
        # different entries evaluate in parallel.
        with entry.lock:
            response = self._evaluate_entry(query, entry, cached, meter)
        response.form = str(form)
        return response

    def _evaluate_entry(
        self,
        query: Query,
        entry: CacheEntry,
        cached: bool,
        meter: BudgetMeter | None,
    ) -> Response:
        compiled = entry.compiled
        warm = entry.warm
        if warm is None:
            specialized, seed = compiled.specialize(query)
            with obs_span("service.evaluate", mode="cold"):
                result = evaluate(
                    specialized,
                    self._edb,
                    max_iterations=self._eval_iterations,
                    budget=meter,
                )
            database = result.database
            if not result.truncated and compiled.cacheable:
                entry.warm = WarmState(
                    database=database,
                    last_stamp=result.stats.iterations,
                    epoch=self._epoch,
                    seeds=int(seed is not None),
                )
        else:
            # What the warm database lacks enters as one semi-naive
            # delta: the facts loaded since it was current and this
            # call's seed, unless it already holds or subsumes it.
            database = warm.database
            start_stamp = warm.last_stamp + 1
            pending, seeded = self.warm_delta(compiled, warm, query)
            if seeded or pending:
                with obs_span(
                    "service.evaluate", mode="resume", delta=len(pending)
                ):
                    result = resume(
                        compiled.template,
                        database,
                        pending,
                        start_stamp=start_stamp,
                        max_iterations=self._eval_iterations,
                        budget=meter,
                        assume_delta=seeded,
                    )
                obs_count("service.resumes")
                if result.truncated:
                    # The database now holds a partial delta closure;
                    # serve the (sound, possibly incomplete) answer but
                    # never reuse the poisoned state, all seeds of it.
                    entry.warm = None
                else:
                    warm.last_stamp = start_stamp + result.stats.iterations
                    entry.trim(self._edb.count())
            else:
                obs_count("service.warm_hits")
                result = None
        completeness, must_fail = grade(
            result.completeness if result is not None else "complete",
            compiled.fallbacks,
            self._on_limit,
            meter.exhausted if meter is not None else None,
        )
        if must_fail:
            raise BudgetExceeded(
                meter.exhausted, phase="evaluate", partial=result
            )
        found = answers_as(database, query, compiled.query_pred)
        return Response(
            kind="answers",
            query=query,
            answers=found,
            completeness=completeness,
            cached=cached,
            warm=warm is not None,
            resumed=warm is not None and result is not None,
            notes=list(compiled.notes),
            eval_stats=result.stats if result is not None else None,
        )

    def _compile(
        self, query: Query, form: QueryForm, strategy: str
    ) -> CompiledForm:
        """Run the strategy's rewrite once for this compile key."""
        obs_count("service.form_compiles")
        with obs_span(
            "service.compile", form=str(form), strategy=strategy
        ):
            optimized, query_pred, notes, fallbacks = compile_query(
                self._rules,
                query,
                strategy,
                self._max_iterations,
                self._on_limit,
            )
        seed_rule = next(
            (rule for rule in optimized if rule.label == "seed"), None
        )
        if seed_rule is not None:
            template = Program(
                rule for rule in optimized if rule != seed_rule
            )
            seed_pred = seed_rule.head.pred
        else:
            template, seed_pred = optimized, None
        return CompiledForm(
            form=form,
            template=template,
            query_pred=query_pred,
            seed_pred=seed_pred,
            strategy=strategy,
            notes=notes,
            fallbacks=fallbacks,
        )

    def _trim_fact_log(self) -> None:
        """Drop log segments no warm state can still need."""
        floor = self._cache.min_warm_epoch(default=self._epoch)
        self._fact_log = [
            (epoch, facts)
            for epoch, facts in self._fact_log
            if epoch > floor
        ]

    # -- snapshot hooks (see repro.serve.snapshot) --------------------

    def export_state(self) -> tuple[int, list[Fact]]:
        """A consistent ``(epoch, EDB facts)`` view for checkpointing.

        Taken in the lock's shared mode: it can overlap queries but
        never a fact-load epoch, so the fact list is exactly the EDB
        as of the returned epoch.
        """
        with self._rw.read_locked():
            return self._epoch, list(self._edb.all_facts())

    def restore_state(self, facts: Iterable[Fact], epoch: int) -> int:
        """Install a recovered EDB and epoch (before serving begins).

        Facts already present (the program's own EDB) deduplicate, so
        restoring over a freshly loaded program only adds what fact
        loads contributed.  Returns how many facts were new.
        """
        with self._rw.write_locked():
            added = self._edb.insert_many(list(facts))
            self._epoch = max(self._epoch, epoch)
            return len(added)

    # -- inspection ---------------------------------------------------

    @property
    def cache(self) -> FormCache:
        """The form cache (exposed for stats and tests)."""
        return self._cache

    @property
    def epoch(self) -> int:
        """The current fact epoch (bumped by each effective load)."""
        return self._epoch

    @property
    def edb(self) -> Database:
        """The live base EDB (mutating it bypasses epoch tracking)."""
        return self._edb

    @property
    def strategy(self) -> str:
        """The session's optimization strategy."""
        return self._strategy

    @property
    def on_limit(self) -> str:
        """The session's degradation policy (``fail|truncate|widen``)."""
        return self._on_limit

    def stats(self) -> dict:
        """A JSON-ready operational snapshot."""
        with self._mutex:
            requests, errors = self.requests, self.errors
        return {
            "strategy": self._strategy,
            "requests": requests,
            "errors": errors,
            "epoch": self._epoch,
            "edb_facts": self._edb.count(),
            "cache": self._cache.stats(),
        }
