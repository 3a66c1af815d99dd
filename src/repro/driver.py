"""One-call optimize-and-answer driver, and the guts of the CLI.

This is the "downstream user" surface: hand it a program text (rules
plus ground facts plus a query) and a strategy name, and it splits the
EDB out, applies the chosen transformation pipeline, evaluates
bottom-up, and returns the answers with full diagnostics.

Strategies are named sequences over Section 7's three steps
(:data:`repro.core.pipeline.STRATEGY_SEQUENCES`): ``none`` evaluates as
written, ``pred`` / ``qrp`` run one constraint step, ``rewrite`` is
``Constraint_rewrite`` (pred then qrp), ``magic`` the bf-adorned
constraint magic only, ``optimal`` the Theorem 7.10 order pred, qrp, mg.
Every strategy but ``none`` ends with :func:`repro.core.prune.prune`,
which drops the body atoms ``pred`` proved and the rules that derive
nothing new: what runs is the sequence's program less what it proved.

A request is the same four moves whoever serves it -- ``answer_query``
here, a :class:`~repro.service.session.Session`, a shard worker and its
coordinator, the conformance differ -- and each move lives here once:
:func:`compile_query` (``optimize`` plus the ``optimize:skipped`` rung),
an evaluation the caller owns (cold, resumed, or in exchange rounds),
:func:`grade`, and :func:`repro.engine.query.answers_as`.

Every run can be governed by a :class:`repro.governor.Budget`
(wall-clock deadline, iteration/fact/solver-call caps).  Exhaustion is
never a stack trace: the ``on_limit`` policy picks a rung of the
degradation ladder (``docs/robustness.md``):

* ``"fail"``     -- raise the typed :class:`BudgetExceeded`;
* ``"truncate"`` -- keep whatever sound partial state exists: an
  exhausted optimization phase is skipped (the program is evaluated as
  written), an exhausted evaluation returns its partial database and
  the outcome is marked ``truncated:<resource>``;
* ``"widen"``    -- like ``truncate``, but a budget-exhausted ``pred``
  or ``qrp`` step degrades in place first, by the one ladder of
  :mod:`repro.core.steps`, and the outcome is marked ``approximated``.

Independently of any budget, a ``pred`` fixpoint that diverges falls
back to the interval-hull widening rather than to *true*, under every
strategy; the fallback is recorded in ``fallbacks`` and the outcome's
``completeness``.
"""

from __future__ import annotations

from contextlib import nullcontext as _nullcontext
from dataclasses import dataclass, field

from repro.constraints import cache as solver_cache
from repro.config import (
    DEFAULT_EVAL_ITERATIONS,
    DEFAULT_REWRITE_ITERATIONS,
)
from repro.core.pipeline import STRATEGY_SEQUENCES, apply_sequence
from repro.core.prune import prune
from repro.core.rewrite import constraint_rewrite
from repro.engine import Database, EvaluationResult, evaluate
from repro.engine.facts import Fact
from repro.engine.query import answers_as
from repro.errors import BudgetExceeded, UsageError
from repro.governor import Budget, BudgetMeter
from repro.governor import budget as governor
from repro.lang.ast import Program, Query, Rule
from repro.lang.parser import parse_program_and_queries
from repro.lang.terms import NumTerm, Sym
from repro.obs.recorder import span as obs_span


STRATEGIES = tuple(STRATEGY_SEQUENCES)

#: The planner picks one of :data:`STRATEGIES` per query.
AUTO_STRATEGY = "auto"
STRATEGY_CHOICES = STRATEGIES + (AUTO_STRATEGY,)

ON_LIMIT_POLICIES = ("fail", "truncate", "widen")


def validate_strategy(
    strategy: str, allow_auto: bool = False, on_limit: str = "truncate"
) -> str:
    """Check a strategy name and an ``on_limit`` policy, returning the
    strategy; raises :class:`UsageError`.

    ``allow_auto`` additionally admits :data:`AUTO_STRATEGY` for entry
    points that resolve it through the planner before optimizing.
    """
    allowed = STRATEGY_CHOICES if allow_auto else STRATEGIES
    if strategy not in allowed:
        raise UsageError(
            f"unknown strategy {strategy!r}; choose from {allowed}"
        )
    if on_limit not in ON_LIMIT_POLICIES:
        raise UsageError(
            f"unknown on_limit policy {on_limit!r}; "
            f"choose from {ON_LIMIT_POLICIES}"
        )
    return strategy


@dataclass
class QueryOutcome:
    """Everything a driver run produced.

    ``completeness`` grades the answer set: ``"complete"`` (exact),
    ``"approximated"`` (an over-approximating fallback -- widening or a
    skipped optimization -- was taken; answers are still sound), or
    ``"truncated:<resource>"`` (evaluation stopped early; answers are
    sound but possibly missing).  ``fallbacks`` lists the machine-
    readable degradation steps taken (``pred:widened``,
    ``optimize:skipped``, ...); ``budget`` is the governing meter's
    consumption snapshot, when a budget governed the run.
    """

    answers: list[Fact]
    result: EvaluationResult
    program: Program                  # the program actually evaluated
    query: Query
    strategy: str
    notes: list[str] = field(default_factory=list)
    completeness: str = "complete"
    fallbacks: list[str] = field(default_factory=list)
    budget: dict | None = None
    #: The planner's :class:`~repro.planner.plan.Plan` when the run
    #: was started with ``--strategy auto`` (``strategy`` then holds
    #: the resolved choice).
    plan: "object | None" = None

    @property
    def answer_strings(self) -> list[str]:
        """Answers rendered as query-variable bindings.

        See :func:`render_answers` for the rendering rules.
        """
        return render_answers(self.query, self.answers)


def render_answers(query: Query, facts: list[Fact]) -> list[str]:
    """Render answer facts as sorted query-variable binding strings.

    The answer facts' arguments correspond to the query's variables in
    sorted name order (see ``repro.lang.normalize.query_as_rule``);
    non-ground answer positions (constraint answers) render as
    ``constrained`` with the fact's constraint appended.
    """
    from repro.engine.facts import PENDING

    variables = sorted(query.variables())
    rendered = []
    for fact in facts:
        parts = []
        for name, value in zip(variables, fact.args):
            if value is PENDING:
                parts.append(f"{name}: constrained")
            else:
                parts.append(f"{name} = {value}")
        suffix = ""
        if not fact.constraint.is_true():
            suffix = f"  [{fact.constraint}]"
        rendered.append(", ".join(parts) + suffix if parts else "yes")
    return sorted(rendered)


def split_edb(program: Program) -> tuple[Program, Database]:
    """Separate ground fact rules into an EDB database.

    A rule qualifies as an EDB fact when it has no body, no constraints
    and a ground head, *and* its predicate has no proper rules.  Other
    facts (e.g. constraint facts, or facts of an otherwise-derived
    predicate) stay in the program.
    """
    proper_heads = {
        rule.head.pred for rule in program if not rule.is_fact
    }
    edb = Database()
    kept: list[Rule] = []
    for rule in program:
        if (
            rule.is_fact
            and rule.constraint.is_true()
            and not rule.head.variables()
            and rule.head.pred not in proper_heads
            and rule.head.is_normalized()
        ):
            values = []
            ground = True
            for arg in rule.head.args:
                if isinstance(arg, Sym):
                    values.append(arg)
                elif isinstance(arg, NumTerm) and arg.is_constant():
                    values.append(arg.value)
                else:  # pragma: no cover - excluded by checks above
                    ground = False
                    break
            if ground:
                edb.add_ground(rule.head.pred, values)
                continue
        kept.append(rule)
    return Program(kept), edb


def optimize(
    program: Program,
    query: Query,
    strategy: str = "rewrite",
    max_iterations: int = DEFAULT_REWRITE_ITERATIONS,
    fallbacks: list[str] | None = None,
    on_limit: str = "widen",
) -> tuple[Program, str, list[str]]:
    """Apply a named strategy; returns (program, query_pred, notes).

    ``fallbacks``, when given, collects the machine-readable degradation
    steps taken (``"pred:widened"``, ``"qrp:skipped"``, ...) -- callers
    that cache optimized programs must check it, since a degraded
    rewrite is query-specific in ways a clean one is not.  ``on_limit``
    follows the driver policy vocabulary: ``"widen"`` absorbs budget
    exhaustion inside a step, anything else propagates it.
    """
    sequence = STRATEGY_SEQUENCES[validate_strategy(strategy)]
    query_pred = query.literal.pred
    options = {
        "max_iterations": max_iterations,
        "on_budget": "widen" if on_limit == "widen" else "raise",
    }
    with obs_span("optimize", strategy=strategy):
        if not sequence:
            return program, query_pred, []
        if query_pred not in program.derived_predicates():
            # No rule derives the query predicate: the answers are the
            # database's own (none when no fact holds it either), and
            # there is nothing to propagate, adorn or seed.
            return Program(()), query_pred, [
                f"{query_pred} is not derived by any rule; "
                "reading the database"
            ]
        if strategy == "rewrite":
            # Constraint_rewrite: the two steps under the q1 wrapper.
            done = constraint_rewrite(program, query_pred, **options)
        else:
            done = apply_sequence(
                program, query, sequence, adorn="mg" in sequence,
                **options,
            )
            query_pred = done.query_pred
        with obs_span("prune"):
            pruned = prune(done.program, done.proved)
    if fallbacks is not None:
        fallbacks.extend(done.fallbacks)
    return pruned, query_pred, list(done.notes)


def compile_query(
    program: Program,
    query: Query,
    strategy: str,
    max_iterations: int = DEFAULT_REWRITE_ITERATIONS,
    on_limit: str = "truncate",
) -> tuple[Program, str, list[str], list[str]]:
    """The one compile entry: (program, query_pred, notes, fallbacks).

    :func:`optimize`, plus the last rung of the ladder around it: when
    a budget trips where no step could absorb it (any policy but
    ``"fail"``), the program is evaluated as written -- sound, because
    the rewritings only prune -- and the compile is tagged
    ``optimize:skipped``.
    """
    fallbacks: list[str] = []
    try:
        optimized, query_pred, notes = optimize(
            program, query, strategy, max_iterations, fallbacks,
            on_limit,
        )
    except BudgetExceeded as error:
        if on_limit == "fail":
            raise
        return program, query.literal.pred, [
            f"optimization budget exhausted ({error.resource}); "
            "evaluating the program as written"
        ], ["optimize:skipped"]
    return optimized, query_pred, notes, fallbacks


def grade(
    completeness: str,
    fallbacks: "list[str] | tuple[str, ...]",
    on_limit: str = "truncate",
    exhausted: str | None = None,
) -> tuple[str, bool]:
    """The one grading of an answer set: (completeness, must fail).

    ``completeness`` is the evaluation's own (``"complete"`` or
    ``"truncated:<resource>"``; a truncation label wins); a complete
    evaluation of a degraded compile is ``"approximated"``.  Under
    ``on_limit="fail"`` a truncation that a budget caused (``exhausted``
    names the resource) must be reported as a failure, not an answer.
    """
    if completeness == "complete":
        return ("approximated" if fallbacks else "complete"), False
    return completeness, on_limit == "fail" and exhausted is not None


def _resolve_meter(
    budget: "Budget | BudgetMeter | None",
) -> tuple[BudgetMeter | None, BudgetMeter | None]:
    """(meter to install, effective meter) for a budget argument."""
    if budget is None:
        return None, governor.current_meter()
    if isinstance(budget, Budget):
        meter = budget.meter()
    else:
        meter = budget
    return meter, meter


def answer_query(
    program: Program,
    query: Query,
    edb: Database | None = None,
    strategy: str = "rewrite",
    max_iterations: int = DEFAULT_REWRITE_ITERATIONS,
    eval_iterations: int = DEFAULT_EVAL_ITERATIONS,
    budget: "Budget | BudgetMeter | None" = None,
    on_limit: str = "truncate",
) -> QueryOutcome:
    """Optimize, evaluate bottom-up, and extract the query's answers.

    ``budget`` (a :class:`Budget` spec or live :class:`BudgetMeter`)
    governs the run; with ``None`` the ambiently installed meter (if
    any) applies.  ``on_limit`` picks the degradation policy described
    in the module docstring.
    """
    validate_strategy(strategy, allow_auto=True, on_limit=on_limit)
    own, meter = _resolve_meter(budget)
    with governor.governed(own) if own is not None else _nullcontext():
        return _answer_query_governed(
            program, query, edb, strategy, max_iterations,
            eval_iterations, meter, on_limit,
        )


def _answer_query_governed(
    program: Program,
    query: Query,
    edb: Database | None,
    strategy: str,
    max_iterations: int,
    eval_iterations: int,
    meter: BudgetMeter | None,
    on_limit: str,
) -> QueryOutcome:
    notes: list[str] = []
    plan = None
    if strategy == AUTO_STRATEGY:
        plan = _plan_strategy(program, query)
        strategy = plan.strategy
        notes.append(
            f"auto: planner chose {strategy!r} ({plan.reason})"
        )
    with obs_span(
        "query", pred=query.literal.pred, strategy=strategy
    ):
        optimized, query_pred, opt_notes, fallbacks = compile_query(
            program, query, strategy, max_iterations, on_limit
        )
        notes.extend(opt_notes)
        with obs_span("evaluate"):
            result = evaluate(
                optimized, edb, max_iterations=eval_iterations,
                budget=meter,
            )
        if result.completeness == "truncated:iterations":
            notes.append(
                "evaluation hit the iteration cap without "
                "reaching a fixpoint; answers may be incomplete"
            )
        elif result.truncated:
            notes.append(
                f"evaluation stopped early ({result.completeness}); "
                "answers may be incomplete"
            )
        completeness, must_fail = grade(
            result.completeness, fallbacks, on_limit,
            meter.exhausted if meter is not None else None,
        )
        if must_fail:
            raise BudgetExceeded(
                meter.exhausted, phase="evaluate", partial=result
            )
        found = answers_as(result.database, query, query_pred)
    return QueryOutcome(
        answers=found,
        result=result,
        program=optimized,
        query=query,
        strategy=strategy,
        notes=notes,
        completeness=completeness,
        fallbacks=fallbacks,
        budget=meter.snapshot() if meter is not None else None,
        plan=plan,
    )


def _plan_strategy(program: Program, query: Query):
    """Resolve ``auto``: the :class:`~repro.planner.plan.Plan`.

    Planning is advisory work, not query work: it runs with the
    request budget paused so an exhausted meter can still pick a
    strategy for the fallback path.
    """
    from repro.planner import plan_query

    with governor.paused(), obs_span(
        "planner.auto", pred=query.literal.pred
    ):
        return plan_query(program, query)


def run_text(
    text: str,
    strategy: str = "rewrite",
    max_iterations: int = DEFAULT_REWRITE_ITERATIONS,
    eval_iterations: int = DEFAULT_EVAL_ITERATIONS,
    budget: "Budget | None" = None,
    on_limit: str = "truncate",
) -> list[QueryOutcome]:
    """Parse a program-with-queries text and answer every query.

    All queries share one budget meter (the deadline and the caps are
    per *run*, not per query).  The meter's consumption is recorded on
    a ``governor`` span and in each outcome's ``budget`` snapshot.
    """
    validate_strategy(strategy, allow_auto=True, on_limit=on_limit)
    # Each batch run starts from a cold solver memo so its counters and
    # reports are deterministic regardless of what ran earlier in the
    # process (the long-lived serve path deliberately keeps its warmth).
    solver_cache.clear()
    with obs_span("parse"):
        program, queries = parse_program_and_queries(text)
    if not queries:
        raise UsageError("the program text contains no ?- query")
    with obs_span("split_edb"):
        rules, edb = split_edb(program)
    meter = budget.meter() if budget is not None else None
    if meter is None:
        return [
            answer_query(
                rules, query, edb, strategy, max_iterations,
                eval_iterations, on_limit=on_limit,
            )
            for query in queries
        ]
    with obs_span(
        "governor",
        on_limit=on_limit,
        **{
            f"budget.{name}": value
            for name, value in (
                ("deadline", budget.deadline),
                ("max_iterations", budget.max_iterations),
                ("max_rewrite_iterations",
                 budget.max_rewrite_iterations),
                ("max_facts", budget.max_facts),
                ("max_solver_calls", budget.max_solver_calls),
            )
            if value is not None
        },
    ) as gspan:
        with governor.governed(meter):
            outcomes = [
                answer_query(
                    rules, query, edb, strategy, max_iterations,
                    eval_iterations, on_limit=on_limit,
                )
                for query in queries
            ]
        snapshot = meter.snapshot()
        gspan.set("elapsed_seconds", snapshot["elapsed_seconds"])
        gspan.set("spent", snapshot["spent"])
        if snapshot["exhausted"]:
            gspan.set("exhausted", snapshot["exhausted"])
        fallbacks = sorted(
            {step for outcome in outcomes for step in outcome.fallbacks}
        )
        if fallbacks:
            gspan.set("fallbacks", fallbacks)
    return outcomes
