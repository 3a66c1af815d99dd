"""Answer-set comparison across the oracle and every pipeline config.

One generated case is run through the brute-force ground oracle
(:mod:`repro.conformance.oracle`) and through every optimization
strategy the driver offers -- ``none`` (evaluate as written), ``pred``,
``qrp``, ``rewrite`` (pred+qrp), ``magic``, ``optimal`` (the Theorem
7.10 order, which exercises the fold/unfold machinery end to end) --
plus the compile-once warm-cache path of :class:`repro.service.Session`
(queried twice: the second, warm answer must match the first) and its
accumulating one (``warm-magic``: sibling queries of the case's form,
the query with its constants freed, and held-out fact loads
interleaved through one session each under ``magic``, ``optimal`` and
``rewrite`` -- where the two forms share one compile and one warm
database -- each answer checked against the oracle on the EDB as of
that request; the opt-in ``sharded`` config runs the same schedule
through a shard cluster).  All complete runs must produce identical
answer sets; any difference is a :class:`Mismatch` carrying both sides.

Comparison is modulo constraint representation: ground answers compare
as value tuples, and a non-ground (constraint) answer fact is
concretized over the case's finite numeric domain before comparison --
the apples-to-apples reading against a ground oracle.  Engine-only
comparisons of residual constraint facts fall back to the solver-backed
mutual-subsumption test of :meth:`repro.engine.facts.Fact.subsumes`
(the same machinery :mod:`repro.core.equivalence` trusts).

Every config runs under its own :class:`repro.governor.Budget`, so a
pathological case truncates and is reported *inconclusive* (skipped)
rather than hanging the harness or counting as a false mismatch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from repro.driver import compile_query, grade, split_edb
from repro.engine import evaluate
from repro.engine.facts import Fact, fact_of_rule, is_number
from repro.engine.query import answers_as
from repro.errors import ReproError
from repro.governor import Budget
from repro.governor import budget as governor
from repro.lang.ast import Literal, Program, Query
from repro.lang.positions import arg_position
from repro.lang.terms import NumTerm, Sym, Var
from repro.obs.recorder import count as obs_count, span as obs_span

from repro.conformance.generator import GeneratedCase
from repro.conformance.oracle import (
    OracleBudgetError,
    numeric_domain,
    oracle_answer_strings,
    oracle_answers,
)

#: The configurations every case is pushed through, in report order.
#: ``auto`` runs the planner end to end: pick a paper-ordered strategy
#: sequence by the program's shape, then execute it -- whatever it
#: picks must agree with the oracle like any fixed strategy.
DEFAULT_CONFIGS = (
    "oracle",
    "none",
    "pred",
    "qrp",
    "rewrite",
    "magic",
    "optimal",
    "auto",
    "service",
    "warm-magic",
)

#: Opt-in configurations, valid for ``--configs`` but excluded from
#: the default sweep: ``sharded`` spawns a 2-shard worker-subprocess
#: cluster per case and strategy (:func:`_sharded_runs`), far too
#: heavy to run on every seed by default.
EXTRA_CONFIGS = ("sharded",)

#: A program-mutating bug injection: (strategy to corrupt, mutation).
Injection = "tuple[str, Callable[[Program], Program]]"


@dataclass(frozen=True)
class CheckSettings:
    """Resource envelope for one case's differential run."""

    deadline: float = 5.0
    max_facts: int = 20_000
    eval_iterations: int = 80
    max_iterations: int = 50
    oracle_max_facts: int = 20_000

    def budget(self) -> Budget:
        return Budget(
            deadline=self.deadline, max_facts=self.max_facts
        )


@dataclass
class ConfigRun:
    """What one configuration produced for one case.

    ``completeness`` is ``"complete"``, a ``"truncated:<resource>"``
    marker (inconclusive -- the config is excluded from comparison), or
    ``"error:<CODE>"`` when the config raised.  ``expected`` is what a
    run that did not answer the case's own query over its whole EDB
    must equal (a ``warm-magic`` or ``sharded`` step); the others are
    compared with the case's shared reference run.
    """

    name: str
    answers: frozenset[str] | None
    completeness: str = "complete"
    detail: str = ""
    expected: frozenset[str] | None = None

    @property
    def complete(self) -> bool:
        return self.completeness == "complete"

    @property
    def errored(self) -> bool:
        return self.completeness.startswith("error:")


@dataclass
class Mismatch:
    """Two configurations disagreeing on one case's answers."""

    left: str
    right: str
    only_left: tuple[str, ...]
    only_right: tuple[str, ...]
    kind: str = "answers"

    def summary(self) -> str:
        if self.kind == "error":
            return f"{self.right} errored ({self.only_right[0]})"
        parts = [f"{self.left} vs {self.right}:"]
        if self.only_left:
            parts.append(
                f"only {self.left}: {sorted(self.only_left)[:4]}"
            )
        if self.only_right:
            parts.append(
                f"only {self.right}: {sorted(self.only_right)[:4]}"
            )
        return " ".join(parts)


@dataclass
class CaseResult:
    """The full differential verdict for one case."""

    case: GeneratedCase
    runs: dict[str, ConfigRun] = field(default_factory=dict)
    mismatches: list[Mismatch] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def conclusive(self) -> bool:
        """At least two configs completed and could be compared."""
        return (
            sum(1 for run in self.runs.values() if run.complete) >= 2
        )

    def summary(self) -> str:
        if self.ok:
            state = "ok" if self.conclusive else "inconclusive"
        else:
            state = "MISMATCH " + "; ".join(
                mismatch.summary() for mismatch in self.mismatches
            )
        return f"[{self.case.describe()}] {state}"


def canonical_value(value: object) -> str:
    """One answer component in the harness's canonical spelling."""
    if isinstance(value, Sym):
        return value.name
    if is_number(value):
        return f"#{value}"
    if isinstance(value, str):
        return value
    raise TypeError(f"unexpected answer value {value!r}")


def canonical_answers(
    facts: list[Fact], domain: list[Fraction]
) -> frozenset[str]:
    """Engine answer facts as canonical strings.

    Ground facts map directly; a constraint (non-ground) fact is
    concretized by enumerating the case's finite numeric domain at its
    pending positions and keeping the combinations its constraint
    admits, which is exactly the set a ground evaluator could see.
    """
    rendered: set[str] = set()
    for fact in facts:
        if fact.is_ground():
            rendered.add(
                "|".join(canonical_value(v) for v in fact.args)
            )
            continue
        pending = fact.pending_positions()
        for combo in itertools.product(domain, repeat=len(pending)):
            assignment = {
                arg_position(position): value
                for position, value in zip(pending, combo)
            }
            if not fact.constraint.satisfied_by(assignment):
                continue
            values = list(fact.args)
            for position, value in zip(pending, combo):
                values[position - 1] = value
            rendered.add(
                "|".join(canonical_value(v) for v in values)
            )
    return frozenset(rendered)


def facts_equivalent(left: list[Fact], right: list[Fact]) -> bool:
    """Solver-backed answer-set equivalence modulo representation.

    Each side's facts must be subsumed by some fact on the other side
    (mutual coverage).  This is the exact check for ground answers and
    a sound, conservative one for residual constraint facts.
    """
    return all(
        any(other.subsumes(fact) for other in right) for fact in left
    ) and all(
        any(other.subsumes(fact) for other in left) for fact in right
    )


def _oracle_run(
    case: GeneratedCase, settings: CheckSettings
) -> ConfigRun:
    try:
        answers = oracle_answers(
            case.program,
            case.query,
            max_facts=settings.oracle_max_facts,
        )
    except OracleBudgetError as error:
        return ConfigRun(
            "oracle", None, f"truncated:{error.resource}"
        )
    return ConfigRun(
        "oracle",
        frozenset(
            "|".join(canonical_value(v) for v in answer)
            for answer in answers
        ),
    )


def _strategy_run(
    case: GeneratedCase,
    strategy: str,
    settings: CheckSettings,
    domain: list[Fraction],
    mutate: "Callable[[Program], Program] | None" = None,
) -> ConfigRun:
    """The driver's compile, evaluate, grade and read-out, with a seam.

    Not ``answer_query`` itself only because ``mutate`` injects a
    deliberate bug between compile and evaluate, and a truncated run
    is classified inconclusive per config.
    """
    rules, edb = split_edb(case.program)
    meter = settings.budget().meter()
    with governor.governed(meter):
        optimized, query_pred, __, fallbacks = compile_query(
            rules, case.query, strategy, settings.max_iterations,
            on_limit="widen",
        )
        if mutate is not None:
            optimized = mutate(optimized)
        result = evaluate(
            optimized,
            edb,
            max_iterations=settings.eval_iterations,
            budget=meter,
        )
        completeness, __ = grade(result.completeness, fallbacks)
        if completeness.startswith("truncated"):
            # Inconclusive, not a bug: excluded from the comparison.
            return ConfigRun(strategy, None, completeness)
        found = answers_as(result.database, case.query, query_pred)
    return ConfigRun(
        strategy,
        canonical_answers(found, domain),
        detail=",".join(fallbacks),
    )


def _auto_run(
    case: GeneratedCase,
    settings: CheckSettings,
    domain: list[Fraction],
) -> ConfigRun:
    """The planner path: the program's shape picks the strategy.

    The chosen strategy then runs exactly like a fixed config, so a
    planner that picks an unsound sequence surfaces as an ordinary
    mismatch.  The pick is recorded in ``detail`` for triage.
    """
    from repro.planner import plan_query

    rules, __ = split_edb(case.program)
    plan = plan_query(rules, case.query)
    run = _strategy_run(case, plan.strategy, settings, domain)
    detail = f"plan={plan.strategy}"
    if run.detail:
        detail = f"{detail},{run.detail}"
    return ConfigRun(
        "auto", run.answers, run.completeness, detail=detail
    )


def _response_run(
    name: str, response, domain: list[Fraction], **extra
) -> ConfigRun:
    """A session response as a run: error, inconclusive, or answers."""
    if response.kind == "error":
        return ConfigRun(
            name,
            None,
            f"error:{response.error_code}",
            detail=response.error_message or "",
        )
    if response.completeness.startswith("truncated"):
        return ConfigRun(name, None, response.completeness)
    return ConfigRun(
        name, canonical_answers(response.answers, domain), **extra
    )


def _service_runs(
    case: GeneratedCase,
    settings: CheckSettings,
    domain: list[Fraction],
    strategy: str = "magic",
) -> list[ConfigRun]:
    """The warm-cache path: same query twice through one Session.

    The second request must hit the form cache and the warm database;
    its answers must equal the cold ones (run name ``service-warm``).
    The magic strategy is used because it exercises the most service
    machinery (seed-stripped template, seed re-attached per call) at a
    fraction of the ``optimal`` pipeline's rewrite cost.
    """
    from repro.service.session import Session

    session = Session(
        case.program,
        strategy=strategy,
        max_iterations=settings.max_iterations,
        eval_iterations=settings.eval_iterations,
        budget=settings.budget(),
        on_limit="truncate",
    )
    return [
        _response_run(name, session.query(case.query), domain)
        for name in ("service", "service-warm")
    ]


def sibling_queries(case: GeneratedCase, limit: int = 5) -> list[Query]:
    """Up to ``limit`` other queries of the case query's form.

    Each swaps one constant of the query literal for another constant
    of the same sort occurring in the program, taking the positions in
    turn -- under a magic strategy, the same compiled form asked with
    a different seed.
    """
    symbols: set[Sym] = set()
    numbers: set[NumTerm] = set()
    for rule in case.program:
        for literal in (rule.head, *rule.body):
            for arg in literal.args:
                if isinstance(arg, Sym):
                    symbols.add(arg)
                elif isinstance(arg, NumTerm) and arg.is_constant():
                    numbers.add(arg)
    literal = case.query.literal
    swaps = []
    for position, arg in enumerate(literal.args):
        if isinstance(arg, Sym):
            pool = symbols
        elif isinstance(arg, NumTerm) and arg.is_constant():
            pool = numbers
        else:
            continue
        swaps.append([
            Query(
                Literal(
                    literal.pred,
                    (
                        *literal.args[:position],
                        other,
                        *literal.args[position + 1:],
                    ),
                ),
                case.query.constraint,
            )
            for other in sorted(pool - {arg}, key=str)
        ])
    return [
        query
        for group in itertools.zip_longest(*swaps)
        for query in group
        if query is not None
    ][:limit]


def generalized_query(case: GeneratedCase) -> Query | None:
    """The case query with each constant freed to a fresh variable.

    A second form of the query predicate: without ``mg`` it shares the
    case query's compile and warm database.  ``None`` when the query
    binds no constant.
    """
    literal = case.query.literal
    taken = case.query.variables()
    fresh = (
        Var(name)
        for name in (f"G{index}" for index in itertools.count())
        if name not in taken
    )
    args = tuple(
        next(fresh)
        if isinstance(arg, Sym)
        or (isinstance(arg, NumTerm) and arg.is_constant())
        else arg
        for arg in literal.args
    )
    if args == literal.args:
        return None
    return Query(Literal(literal.pred, args), case.query.constraint)


def fact_lookups(facts: list, rules: Program) -> list[Query]:
    """Per ground fact of an EDB predicate of ``rules``: its predicate
    with the first argument bound and the others free.

    Column 0 is a shard plan's default key, so on a cluster each
    lookup is pruned to one owner shard.
    """
    edb = rules.edb_predicates()
    return [
        Query(Literal(head.pred, (
            head.args[0],
            *(Var(f"L{index}") for index in range(1, len(head.args))),
        )))
        for head in (rule.head for rule in facts)
        if head.pred in edb and head.args and all(
            isinstance(arg, Sym)
            or (isinstance(arg, NumTerm) and arg.is_constant())
            for arg in head.args
        )
    ]


def _held_out_schedule(case: GeneratedCase) -> tuple[list, list]:
    """The case's program less a few EDB facts, and the steps to run.

    The steps ask the case's query, its :func:`generalized_query`, its
    :func:`sibling_queries` and the :func:`fact_lookups` of the held
    facts, load a held-out fact (a fact rule) after every second one,
    then the remaining loads and every query once more: new seeds and
    loads reach a warm database as deltas, in either order and
    together, and two forms that share one database each see what the
    other's requests folded in.
    """
    rules = split_edb(case.program)[0]
    proper = {id(rule) for rule in rules}
    held = [
        rule for rule in case.program if id(rule) not in proper
    ][1::3][:3]
    current = [rule for rule in case.program if rule not in held]
    general = generalized_query(case)
    queries = [
        case.query,
        *([general] if general is not None else []),
        *sibling_queries(case),
        *fact_lookups(held, rules),
    ]
    loads = list(held)
    steps: list = []
    for index, query in enumerate(queries):
        steps.append(query)
        if index % 2 and loads:
            steps.append(loads.pop(0))
    steps += [*loads, *queries]
    return current, steps


def _schedule_runs(
    name: str,
    session,
    current: list,
    steps: list,
    settings: CheckSettings,
) -> list[ConfigRun]:
    """Run :func:`_held_out_schedule` steps through one session.

    ``session`` is anything with ``query`` and ``add_facts``: a
    :class:`~repro.service.session.Session` or a shard coordinator.
    Each answer is a run of its own, ``expected`` to equal the
    oracle's over the EDB as of that request.
    """
    current = list(current)
    runs: list[ConfigRun] = []
    for step in steps:
        label = f"{name}[{len(runs)}]"
        if not isinstance(step, Query):
            current.append(step)
            loaded = session.add_facts([fact_of_rule(step)])
            if loaded.kind == "error":
                runs.append(_response_run(label, loaded, []))
            continue
        program = Program(current)
        try:
            expected = oracle_answer_strings(
                program, step, settings.oracle_max_facts
            )
        except OracleBudgetError as error:
            runs.append(
                ConfigRun(label, None, f"truncated:{error.resource}")
            )
            continue
        runs.append(
            _response_run(
                label,
                session.query(step),
                numeric_domain(program, step),
                detail=str(step),
                expected=expected,
            )
        )
    return runs


def _warm_magic_runs(
    case: GeneratedCase,
    settings: CheckSettings,
    strategy: str,
    mutate: "Callable[[Program], Program] | None" = None,
) -> list[ConfigRun]:
    """The :func:`_held_out_schedule` through one Session."""
    from repro.service.session import Session

    current, steps = _held_out_schedule(case)
    session = Session(
        Program(current),
        strategy=strategy,
        max_iterations=settings.max_iterations,
        eval_iterations=settings.eval_iterations,
        budget=settings.budget(),
        on_limit="truncate",
    )
    if mutate is not None:
        compile_form = session._compile

        def corrupted(*args):
            compiled = compile_form(*args)
            compiled.template = mutate(compiled.template)
            return compiled

        session._compile = corrupted
    return _schedule_runs(
        f"warm-{strategy}", session, current, steps, settings
    )


def _sharded_runs(
    case: GeneratedCase,
    settings: CheckSettings,
    strategy: str,
    shards: int = 2,
) -> list[ConfigRun]:
    """The :func:`_held_out_schedule` through a real shard cluster.

    Spawns ``shards`` worker subprocesses over the case's program less
    its held-out facts; the workers' warm databases then take each
    sibling seed and each routed load as a delta, round by round.
    Not in :data:`DEFAULT_CONFIGS` (subprocess spawns per case are
    expensive); opt in with ``--configs ...,sharded``.
    """
    from repro.shard import ShardedEngine

    current, steps = _held_out_schedule(case)
    engine = ShardedEngine.from_text(
        "\n".join(str(rule) for rule in current),
        shards,
        strategy=strategy,
        max_iterations=settings.max_iterations,
        eval_iterations=settings.eval_iterations,
        budget=settings.budget(),
        on_limit="truncate",
    )
    try:
        engine.coordinator.start()
        return _schedule_runs(
            f"sharded-{strategy}",
            engine.session,
            current,
            steps,
            settings,
        )
    finally:
        engine.coordinator.close(drain=False)


def check_case(
    case: GeneratedCase,
    configs: tuple[str, ...] = DEFAULT_CONFIGS,
    settings: CheckSettings | None = None,
    inject: "Injection | None" = None,
) -> CaseResult:
    """Run one case through every configuration and compare answers.

    ``inject`` is an optional ``(strategy, mutation)`` pair applied to
    that strategy's optimized program before evaluation (for
    ``warm-magic``, to every template its sessions compile) -- the
    harness's own fault injection, used to prove a rewrite bug would
    be caught (and by the shrinker tests).
    """
    settings = settings or CheckSettings()
    obs_count("conformance.cases")
    result = CaseResult(case)
    domain = numeric_domain(case.program, case.query)
    with obs_span("conformance.case", query=case.query.literal.pred):
        for config in configs:
            obs_count("conformance.configs_run")
            mutate = None
            if inject is not None and inject[0] == config:
                mutate = inject[1]
            try:
                if config == "oracle":
                    runs = [_oracle_run(case, settings)]
                elif config == "auto":
                    runs = [_auto_run(case, settings, domain)]
                elif config == "service":
                    runs = _service_runs(case, settings, domain)
                elif config == "sharded":
                    runs = [
                        run
                        for strategy in ("rewrite", "optimal")
                        for run in _sharded_runs(case, settings, strategy)
                    ]
                elif config == "warm-magic":
                    runs = [
                        run
                        for strategy in ("magic", "optimal", "rewrite")
                        for run in _warm_magic_runs(
                            case, settings, strategy, mutate
                        )
                    ]
                else:
                    runs = [
                        _strategy_run(
                            case, config, settings, domain, mutate
                        )
                    ]
            except ReproError as error:
                obs_count("conformance.errors")
                runs = [
                    ConfigRun(
                        config,
                        None,
                        f"error:{error.code}",
                        detail=str(error),
                    )
                ]
            except (ValueError, KeyError) as error:
                # KeyError covers degenerate programs (e.g. a shrink
                # candidate that deleted every rule of the query's
                # predicate) hitting Program.arity.
                obs_count("conformance.errors")
                runs = [
                    ConfigRun(
                        config,
                        None,
                        "error:REPRO_INTERNAL",
                        detail=str(error),
                    )
                ]
            for run in runs:
                result.runs[run.name] = run
    _compare(result)
    if result.mismatches:
        obs_count("conformance.mismatches")
    if result.skipped:
        obs_count("conformance.skipped")
    return result


def _compare(result: CaseResult) -> None:
    """Fill mismatches/skipped from the per-config runs."""
    complete = [
        run for run in result.runs.values() if run.complete
    ]
    for run in result.runs.values():
        if run.errored:
            result.mismatches.append(
                Mismatch(
                    left="(run)",
                    right=run.name,
                    only_left=(),
                    only_right=(run.completeness, run.detail),
                    kind="error",
                )
            )
        elif not run.complete:
            result.skipped.append(run.name)
    reference = next(
        (run for run in complete if run.name == "oracle"),
        next((run for run in complete if run.expected is None), None),
    )
    for run in complete:
        if run.expected is not None:
            left, expected = "oracle", run.expected
        elif run is not reference:
            left, expected = reference.name, reference.answers
        else:
            continue
        if run.answers != expected:
            result.mismatches.append(
                Mismatch(
                    left=left,
                    right=run.name,
                    only_left=tuple(sorted(expected - run.answers)),
                    only_right=tuple(sorted(run.answers - expected)),
                )
            )


# -- canned bug injections (CLI --inject-bug, tests) -------------------


def tighten_bug(program: Program) -> Program:
    """Tighten the first inequality constraint atom by 1.

    A realistic rewrite bug: an off-by-one in a propagated bound makes
    the optimized program prune facts it must keep, losing answers on
    the cases that straddle the bound.
    """
    from repro.constraints.atom import Atom, Op
    from repro.constraints.conjunction import Conjunction
    from repro.constraints.linexpr import LinearExpr

    new_rules = []
    done = False
    for rule in program:
        if not done and not rule.is_fact:
            atoms = list(rule.constraint.atoms)
            for index, atom in enumerate(atoms):
                if atom.op is not Op.EQ and not atom.is_ground():
                    atoms[index] = Atom(
                        atom.expr + LinearExpr.const(1), atom.op
                    )
                    done = True
                    break
            if done:
                rule = rule.with_constraint(Conjunction(atoms))
        new_rules.append(rule)
    return Program(new_rules)


def drop_rule_bug(program: Program) -> Program:
    """Drop the last proper rule -- a lost-rule rewrite bug."""
    rules = list(program)
    for index in range(len(rules) - 1, -1, -1):
        if not rules[index].is_fact:
            del rules[index]
            break
    return Program(rules)


INJECTIONS: dict[str, Callable[[Program], Program]] = {
    "tighten": tighten_bug,
    "drop-rule": drop_rule_bug,
}
