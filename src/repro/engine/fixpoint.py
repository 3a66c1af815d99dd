"""Naive and semi-naive fixpoint evaluation, with derivation logs on request.

Evaluation starts from the constraint facts in the database and applies
all rules in iterations until no new facts are computed (Section 2).
Facts carry the iteration stamp at which they were derived; semi-naive
evaluation requires each derivation to use at least one fact from the
previous iteration's delta, using the standard non-overlapping split
(literals written earlier see the full previous view, the delta literal
sees exactly the delta, literals written later see the pre-delta view),
so each derivation is attempted exactly once -- which is what makes the
per-iteration derivation logs comparable with the paper's Tables 1/2.
A delta variant is skipped outright when its delta is empty and is
otherwise joined from its smallest literal -- the delta, unless a whole
relation is smaller -- so an iteration costs in proportion to what the
last one added, not to what the database holds; a rule none of whose
body predicates gained a fact in the last iteration is not looked at.

A derivation costs one insert: a variant's generated join inserts what
it derives itself (:meth:`~repro.engine.ruleeval.RuleEvaluator.apply`),
and per iteration the log keeps the list of facts that were new.  Only
a run with ``provenance=True`` also logs a plain tuple per derivation
(rule, fact, outcome, parents) -- what the paper's tables, derivation
trees and relevance reports read; they raise a ``ValueError`` on a run
without it.  The new, duplicate and subsumed counts are tallied in
locals and folded into the run's :class:`~repro.engine.stats.EvalStats`
and the ``engine.*`` counters once per rule application, with or
without provenance.

Programs in a CQL may not terminate (Example 1.2); the ``max_iterations``
cap makes that a reported outcome (``reached_fixpoint=False``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from repro.config import DEFAULT_EVAL_ITERATIONS
from repro.engine.database import Database
from repro.engine.facts import Fact
from repro.engine.relation import InsertOutcome
from repro.engine.ruleeval import RuleEvaluator, database_view
from repro.engine.stats import EvalStats
from repro.errors import BudgetExceeded
from repro.governor import budget as governor
from repro.lang.ast import Program, Rule
from repro.lang.normalize import normalize_program
from repro.obs.recorder import count as obs_count, span as obs_span


_NEW = InsertOutcome.NEW
_DUPLICATE = InsertOutcome.DUPLICATE


class Derivation(NamedTuple):
    """One successful derivation and what became of the derived fact.

    ``parents`` are the body facts used, in written body-literal order
    (whatever order they were joined in) -- enough to rebuild the
    derivation trees of Definition 2.2 (see :mod:`repro.core.relevance`).
    """

    rule_label: str | None
    fact: Fact
    outcome: InsertOutcome
    parents: tuple[Fact, ...] = ()

    def __str__(self) -> str:
        marker = "" if self.outcome is InsertOutcome.NEW else " [discarded]"
        label = self.rule_label or "?"
        return f"{label}: {self.fact}{marker}"


# Builds a Derivation from its four fields without the Python-level
# ``__new__`` a NamedTuple call goes through.
_derivation = tuple.__new__


@dataclass
class IterationLog:
    """What one iteration derived.

    ``added`` lists the facts that were new, in derivation order;
    ``derivations`` every derivation, only in a run with provenance
    (empty otherwise).
    """

    number: int
    derivations: list[Derivation] = field(default_factory=list)
    added: list[Fact] = field(default_factory=list)

    def new_facts(self) -> list[Fact]:
        """The facts this iteration actually added."""
        return self.added

    def __str__(self) -> str:
        inner = ", ".join(str(derivation) for derivation in self.derivations)
        return f"iteration {self.number}: {{{inner}}}"


@dataclass
class EvaluationResult:
    """The outcome of a bottom-up fixpoint evaluation.

    ``completeness`` is ``"complete"`` when a fixpoint was reached and
    ``"truncated:<resource>"`` when evaluation stopped early -- the
    resource is ``iterations`` for the plain iteration cap, or the
    budget dimension that tripped (``deadline``, ``facts``,
    ``solver_calls``).  A truncated result is still a *usable partial
    state*: every stored fact is soundly derived, only completeness of
    the answer set is lost.

    ``provenance`` says whether the iteration logs hold the
    derivations; :meth:`derivation_logs` is how readers get them.
    """

    database: Database
    iterations: list[IterationLog]
    reached_fixpoint: bool
    stats: EvalStats
    program: Program
    completeness: str = "complete"
    provenance: bool = False

    @property
    def truncated(self) -> bool:
        """True when evaluation stopped before reaching a fixpoint."""
        return self.completeness != "complete"

    def facts(self, pred: str) -> tuple[Fact, ...]:
        """The stored facts of a predicate."""
        return self.database.facts(pred)

    def count(self, pred: str | None = None) -> int:
        """Number of stored facts (of one predicate, or all)."""
        return self.database.count(pred)

    def derivation_logs(self, reader: str) -> list[IterationLog]:
        """The iteration logs, for ``reader``, which reads derivations.

        A ``ValueError`` unless the run recorded them: a log without
        them would read as "nothing was derived".
        """
        if not self.provenance:
            raise ValueError(
                f"{reader} reads the derivation log, which only an "
                "evaluation with provenance=True records"
            )
        return self.iterations

    def trace(self) -> str:
        """The full iteration log as text."""
        lines = [str(log) for log in self.derivation_logs("trace")]
        if not self.reached_fixpoint:
            lines.append("... (iteration cap reached; no fixpoint)")
        return "\n".join(lines)


def evaluate(
    program: Program,
    edb: Database | None = None,
    max_iterations: int = DEFAULT_EVAL_ITERATIONS,
    strategy: str = "seminaive",
    use_range_index: bool = True,
    backward_subsumption: bool = False,
    budget: "governor.BudgetMeter | None" = None,
    provenance: bool = False,
) -> EvaluationResult:
    """Evaluate a program bottom-up over an input database.

    ``strategy`` is ``"seminaive"`` (default) or ``"naive"``.  The input
    database is not modified.  Iteration numbering starts at 0, matching
    the paper's tables: iteration 0 applies the rules to the EDB alone,
    so with an empty EDB it derives exactly the programs' fact rules.
    ``use_range_index`` pushes single-variable rule constraints into
    range probes, filters on the facts each probe reads (Section 4.6);
    disabling it is only useful for the indexing ablation benchmark.

    ``backward_subsumption`` additionally removes *stored* facts that a
    newly derived, more general fact subsumes (forward subsumption --
    discarding new facts covered by stored ones -- is always on, per the
    paper).  Sound because the subsuming fact carries an equal-or-newer
    stamp, so every future derivation from a removed fact is covered.

    ``budget`` is an optional :class:`repro.governor.BudgetMeter`; when
    omitted, the ambiently installed meter (if any) governs the run.
    Budget exhaustion mid-evaluation does not raise out of this
    function: the loop stops at the nearest cooperative checkpoint and
    the partial state is returned with
    ``completeness="truncated:<resource>"`` (callers that want fail
    semantics re-raise -- see ``repro.driver``).

    ``provenance`` logs every derivation with the body facts it used
    (:class:`Derivation`), which :meth:`EvaluationResult.trace`,
    :mod:`repro.engine.report`, :mod:`repro.engine.provenance` and
    :mod:`repro.core.relevance` read.  What is derived, and every count,
    is the same without it.
    """
    if strategy not in ("seminaive", "naive"):
        raise ValueError(f"unknown strategy {strategy!r}")
    meter = budget if budget is not None else governor.current_meter()
    with obs_span("normalize"):
        normalized = normalize_program(program)
    database = edb.copy() if edb is not None else Database()
    evaluators = _evaluators(normalized, database, use_range_index)
    stats = EvalStats()
    logs: list[IterationLog] = []
    with obs_span(
        "fixpoint", strategy=strategy, rules=len(normalized)
    ) as fixpoint_span:
        reached_fixpoint, tripped = _run_fixpoint(
            database, evaluators, strategy,
            first_iteration=1, last_iteration=max_iterations,
            meter=meter, stats=stats, logs=logs,
            backward_subsumption=backward_subsumption, cold_start=True,
            provenance=provenance,
        )
        fixpoint_span.set("iterations", stats.iterations)
        fixpoint_span.set("reached_fixpoint", reached_fixpoint)
        if tripped is not None:
            fixpoint_span.set("truncated", tripped)
    return _result(
        database, normalized, evaluators, stats, logs,
        reached_fixpoint, tripped, provenance,
    )


def _evaluators(
    normalized: Program, database: Database, use_range_index: bool
) -> "list[RuleEvaluator]":
    """One run's evaluators; pre-creates every relation they look up.

    An evaluator is only the run's counters over its rule's plan, which
    is compiled once per process and shared (``ruleeval._compile``), so
    a ``resume`` per load or per exchange round rebuilds nothing.
    """
    for rule in normalized:
        for literal in (rule.head, *rule.body):
            database.relation(literal.pred, literal.arity)
    return [
        RuleEvaluator(rule, use_ranges=use_range_index)
        for rule in normalized
    ]


def _result(
    database: Database,
    normalized: Program,
    evaluators: "list[RuleEvaluator]",
    stats: EvalStats,
    logs: list[IterationLog],
    reached_fixpoint: bool,
    tripped: str | None,
    provenance: bool,
) -> EvaluationResult:
    """Close a run: total the probes and grade completeness."""
    stats.probes = sum(evaluator.probes for evaluator in evaluators)
    obs_count("engine.join_probes", stats.probes)
    obs_count("engine.iterations", stats.iterations)
    if reached_fixpoint:
        completeness = "complete"
    else:
        completeness = f"truncated:{tripped or 'iterations'}"
    return EvaluationResult(
        database=database,
        iterations=logs,
        reached_fixpoint=reached_fixpoint,
        stats=stats,
        program=normalized,
        completeness=completeness,
        provenance=provenance,
    )


def _variants(
    database: Database, rule: Rule, stamp: int
) -> list[tuple[int, int]]:
    """The semi-naive variants of a rule that have a delta to join.

    One ``(delta, first)`` per body literal whose predicate holds facts
    stamped ``stamp`` (none for a fact rule, which therefore fires at
    the first iteration only).  ``first`` is the literal the join starts
    from, the one with the fewest facts to enumerate: the delta, unless
    some other literal's whole relation is smaller (a magic predicate
    guarding a large delta of flights).
    """
    sizes = [database.count(literal.pred) for literal in rule.body]
    variants = []
    for delta, literal in enumerate(rule.body):
        size = database.stamp_count(literal.pred, stamp)
        if size:
            smaller = [
                index for index in range(len(sizes)) if sizes[index] < size
            ]
            variants.append(
                (delta, min(smaller, key=sizes.__getitem__, default=delta))
            )
    return variants


def _run_fixpoint(
    database: Database,
    evaluators: "list[RuleEvaluator]",
    strategy: str,
    first_iteration: int,
    last_iteration: int,
    meter: "governor.BudgetMeter | None",
    stats: EvalStats,
    logs: list[IterationLog],
    backward_subsumption: bool,
    cold_start: bool,
    provenance: bool,
) -> tuple[bool, str | None]:
    """The fixpoint iteration loop shared by cold and resumed runs.

    Iteration numbers run ``first_iteration..last_iteration``; derived
    facts are stamped with the iteration number.  With ``cold_start``
    the first iteration applies every rule (fact rules included) to the
    full pre-existing view; a resumed run always uses the semi-naive
    delta split (the delta being whatever carries the stamp
    ``first_iteration - 1``), and skips a rule whose body names no
    predicate holding such a fact: :func:`_variants` would find none.
    Returns ``(reached_fixpoint, tripped)`` where ``tripped`` names the
    budget resource that stopped the run.
    """
    reached_fixpoint = False
    tripped: str | None = None
    for iteration in range(first_iteration, last_iteration + 1):
        log = IterationLog(number=iteration - 1)
        derivations = stats.derivations
        whole = strategy == "naive" or (
            cold_start and iteration == first_iteration
        )
        # No rule adds a fact stamped ``iteration - 1`` in this loop.
        stamped = None if whole else database.stamped(iteration - 1)
        try:
            if meter is not None:
                meter.checkpoint("evaluate")
                meter.charge("iterations", phase="evaluate")
            with obs_span(
                "iteration", number=iteration - 1
            ) as it_span:
                for evaluator in evaluators:
                    if meter is not None:
                        meter.checkpoint("rule")
                    rule = evaluator.rule
                    if stamped is None:
                        variants = [(None, None)]
                    else:
                        if stamped.isdisjoint(evaluator.body_preds):
                            continue
                        variants = _variants(database, rule, iteration - 1)
                        if not variants:
                            continue
                    with obs_span("rule", label=rule.label or "?"):
                        _apply(
                            database, evaluator, variants, iteration,
                            log, stats, meter, provenance,
                        )
                if backward_subsumption:
                    for fact in log.new_facts():
                        relation = database.get(fact.pred)
                        if relation is None or fact not in relation:
                            continue  # swept by a later sibling
                        stats.swept += len(
                            relation.sweep_subsumed_by(fact)
                        )
                it_span.set("delta", len(log.new_facts()))
                it_span.set("derivations", stats.derivations - derivations)
        except BudgetExceeded as error:
            # Stop at the checkpoint and keep the partial state:
            # everything derived so far (this iteration included)
            # is sound, only completeness is lost.
            tripped = error.resource
            logs.append(log)
            stats.iterations += 1
            break
        logs.append(log)
        stats.iterations += 1
        if not log.new_facts():
            reached_fixpoint = True
            break
    return reached_fixpoint, tripped


def _apply(
    database: Database,
    evaluator: "RuleEvaluator",
    variants: "list[tuple[int | None, int | None]]",
    iteration: int,
    log: IterationLog,
    stats: EvalStats,
    meter: "governor.BudgetMeter | None",
    provenance: bool,
) -> None:
    """One rule application: insert each derivation, stamped
    ``iteration`` (and log it, with ``provenance``), then fold its
    outcome counts into ``stats`` and the ``engine.*`` counters (also
    when a budget trips part-way)."""
    rule = evaluator.rule
    label, head = rule.label, rule.head
    store = database.relation(head.pred, head.arity)
    record = None
    if provenance:
        append = log.derivations.append

        def record(fact: Fact, outcome: InsertOutcome, parents) -> None:
            append(_derivation(Derivation, (label, fact, outcome, parents)))

    tally = [0, 0, 0]  # new, duplicates, subsumed
    try:
        for delta, first in variants:
            evaluator.apply(
                database_view(database, iteration - 1, delta), first,
                store, iteration, log.added.append, meter, tally, record,
            )
    finally:
        new, duplicates, subsumed = tally
        stats.record_many(label, head.pred, new, duplicates, subsumed)
        derived = new + duplicates + subsumed
        if derived:
            obs_count("engine.derivations", derived)
            obs_count("relation.inserts", derived)
        _count_outcomes(new, duplicates, subsumed)


def _count_outcomes(new: int, duplicates: int, subsumed: int) -> None:
    """Add insert outcomes to the ``engine.facts.*`` counters."""
    for name, n in (
        ("engine.facts.new", new),
        ("engine.facts.duplicate", duplicates),
        ("engine.facts.subsumed", subsumed),
    ):
        if n:
            obs_count(name, n)


def resume(
    program: Program,
    database: Database,
    new_facts: "Iterable[Fact]",
    start_stamp: int,
    max_iterations: int = DEFAULT_EVAL_ITERATIONS,
    use_range_index: bool = True,
    backward_subsumption: bool = False,
    budget: "governor.BudgetMeter | None" = None,
    assume_delta: bool = False,
    provenance: bool = False,
) -> EvaluationResult:
    """Fold new EDB facts into an evaluated database and continue.

    Incremental re-evaluation for monotone programs: ``database`` is
    the (mutated-in-place) database of a *completed* :func:`evaluate`
    run of the same program, and ``new_facts`` are additional EDB
    facts.  The new facts are inserted with stamp ``start_stamp``
    (which must exceed every stamp already stored -- pass the prior
    run's ``stats.iterations + <resumes so far>``) so they form the
    semi-naive delta, and iteration continues until a new fixpoint:
    every derivation attempted uses at least one new fact, so nothing
    already computed is recomputed.  Sound and complete because CQL
    evaluation is monotone (no negation): the old fixpoint plus the
    delta closure is the fixpoint of the enlarged EDB.

    Returns an :class:`EvaluationResult` whose ``iterations``/``stats``
    cover only the resumed portion.  If the facts were all duplicates
    or subsumed, the database is already a fixpoint and no iteration
    runs.  ``max_iterations`` caps the *additional* iterations.

    ``assume_delta`` runs the iteration loop even when ``new_facts``
    added nothing: the caller asserts the database already holds an
    unprocessed delta at ``start_stamp`` (facts a previous bounded run
    derived but never joined from).  The sharded exchange loop
    (:mod:`repro.shard.exchange`) uses this with ``max_iterations=1``
    to step the semi-naive fixpoint one round at a time, folding in
    remote shards' derivations between rounds.  ``provenance`` is as
    for :func:`evaluate`.
    """
    meter = budget if budget is not None else governor.current_meter()
    with obs_span("normalize"):
        normalized = normalize_program(program)
    # Built only if the fixpoint runs: a load that adds nothing (all
    # duplicates or subsumed) costs its inserts and no more.
    evaluators: list[RuleEvaluator] = []
    stats = EvalStats()
    logs: list[IterationLog] = []
    tripped: str | None = None
    added = duplicates = subsumed = 0
    try:
        for fact in new_facts:
            relation = database.relation(fact.pred, fact.arity)
            outcome = relation.insert(fact, start_stamp)
            if outcome is _NEW:
                added += 1
                if meter is not None:
                    meter.charge("facts", phase="evaluate")
            elif outcome is _DUPLICATE:
                duplicates += 1
            else:
                subsumed += 1
    except BudgetExceeded as error:
        tripped = error.resource
    if added + duplicates + subsumed:
        obs_count("relation.inserts", added + duplicates + subsumed)
    _count_outcomes(added, duplicates, subsumed)
    reached_fixpoint = tripped is None
    if (added or assume_delta) and tripped is None:
        evaluators = _evaluators(normalized, database, use_range_index)
        with obs_span(
            "fixpoint", strategy="seminaive", rules=len(normalized),
            resumed=True, delta=added,
        ) as fixpoint_span:
            reached_fixpoint, tripped = _run_fixpoint(
                database, evaluators, "seminaive",
                first_iteration=start_stamp + 1,
                last_iteration=start_stamp + max_iterations,
                meter=meter, stats=stats, logs=logs,
                backward_subsumption=backward_subsumption,
                cold_start=False, provenance=provenance,
            )
            fixpoint_span.set("iterations", stats.iterations)
            fixpoint_span.set("reached_fixpoint", reached_fixpoint)
            if tripped is not None:
                fixpoint_span.set("truncated", tripped)
    obs_count("engine.resumes")
    return _result(
        database, normalized, evaluators, stats, logs,
        reached_fixpoint, tripped, provenance,
    )


def seminaive_evaluate(
    program: Program,
    edb: Database | None = None,
    max_iterations: int = DEFAULT_EVAL_ITERATIONS,
) -> EvaluationResult:
    """``evaluate`` with the semi-naive strategy."""
    return evaluate(program, edb, max_iterations, strategy="seminaive")


def naive_evaluate(
    program: Program,
    edb: Database | None = None,
    max_iterations: int = DEFAULT_EVAL_ITERATIONS,
) -> EvaluationResult:
    """``evaluate`` with the naive strategy."""
    return evaluate(program, edb, max_iterations, strategy="naive")
