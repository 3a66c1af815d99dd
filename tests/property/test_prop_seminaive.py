"""Semi-naive evaluation: join order and load order are unobservable.

(a) *Any first literal is written-order.*  A semi-naive variant of a
rule joins from its smallest literal (its delta, as a rule) and the
rest bound-variables-first; the stamp view goes by written body index,
so the variant must make the very derivations the written-order join
makes over the same view.  On ``conformance.generator`` programs
(three-literal bodies, a predicate repeated in one body, constants in
body literals) whose EDB also gets constraint facts with PENDING
positions, every variant ``evaluate`` runs is joined from the literal
``evaluate`` starts from, from every other literal and in written
order, straight on :class:`RuleEvaluator`, and must yield the same
multiset of (fact, parents-in-written-order); inserted in ``evaluate``'s
order, the facts the loop stamps per iteration must be the ones
``evaluate`` stamps.  Two join orders may spell one constraint fact two
ways (``$1 <= 3 & $1 = $3`` / ``$3 <= 3 & $1 = $3``), so derivations are
compared through one spelling per class of mutually subsuming facts.

(b) *Monotone resume* (ROADMAP 8(d)).  Loading the EDB in any number
of ``resume`` calls, in any order, ends in the database one cold
``evaluate`` on the union computes.

(c) *Monotone in seeds too.*  A magic session asked sibling queries of
one form and loaded its EDB piecewise, in any interleaving, ends with
one warm database equal -- mutual subsumption, predicate by predicate
-- to the cold fixpoint of the form's template plus *all* the seeds
over the final EDB: a seed injected as a delta derives what its seed
rule would have.
"""

import itertools

from hypothesis import example, given, settings, strategies as st

from repro.conformance.differ import facts_equivalent, sibling_queries
from repro.conformance.generator import GeneratorConfig, generate_case
from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr
from repro.driver import split_edb
from repro.engine import Database, evaluate
from repro.engine.facts import PENDING, make_fact
from repro.engine.fixpoint import _variants, resume
from repro.engine.relation import InsertOutcome
from repro.engine.ruleeval import RuleEvaluator, database_view
from repro.lang.normalize import normalize_program
from repro.lang.terms import Sym
from repro.service.session import Session

MAX_ITERATIONS = 8
#: The written-order join of a three-literal body is a cross product;
#: cases deriving more than this are skipped to keep the test quick.
MAX_DERIVATIONS = 150
#: More recursion and facts than the differ's default: one case in four
#: keeps deriving after the first iteration, where the variants run.
CONFIG = GeneratorConfig(
    recursion=0.6, max_facts_per_predicate=8, constraint_density=0.3,
    domain_size=4,
)
seeds = st.integers(min_value=0, max_value=10_000)


#: Up to three (fact, numeric position, spread) choices, each taken
#: modulo what the case's EDB offers.
picks = st.lists(
    st.tuples(st.integers(0, 63), st.integers(0, 3), st.integers(0, 2)),
    max_size=3,
)


def _with_constraint_facts(edb: Database, picks) -> Database:
    """The EDB plus, per pick, a copy of one fact with one numeric
    position left PENDING over a short interval around its value.
    (Few on purpose: constraint facts join with everything, and what
    they derive is rarely subsumed.)"""
    widened = edb.copy()
    facts = list(edb.all_facts())
    for fact_pick, position_pick, spread in picks if facts else []:
        fact = facts[fact_pick % len(facts)]
        numeric = [
            position for position, value in enumerate(fact.args)
            if not isinstance(value, Sym)
        ]
        if not numeric:
            continue
        position = numeric[position_pick % len(numeric)]
        place = LinearExpr.var(f"${position + 1}")
        value = fact.args[position]
        values = list(fact.args)
        values[position] = PENDING
        constraint = Conjunction([
            Atom.ge(place, LinearExpr.const(value - spread)),
            Atom.le(place, LinearExpr.const(value + 1)),
        ])
        widened.insert(make_fact(fact.pred, values, constraint))
    return widened


def _recursive_case(seed: int, picks):
    """The first generated case at or after ``seed`` that, widened by
    ``picks``, still derives after the first iteration (where the
    variants run) and stays under ``MAX_DERIVATIONS``."""
    for candidate in itertools.count(seed):
        rules, edb = split_edb(generate_case(candidate, CONFIG).program)
        edb = _with_constraint_facts(edb, picks)
        expected = evaluate(rules, edb, max_iterations=MAX_ITERATIONS)
        if (
            any(log.derivations for log in expected.iterations[1:])
            and expected.stats.derivations <= MAX_DERIVATIONS
        ):
            return rules, edb, expected


class _Spelling:
    """One rendering per class of equivalent (mutually subsuming) facts:
    that of the first member seen."""

    def __init__(self) -> None:
        self._of: dict = {}

    def __call__(self, fact) -> str:
        if fact not in self._of:
            self._of[fact] = next(
                (
                    spelled for known, spelled in self._of.items()
                    if known.subsumes(fact) and fact.subsumes(known)
                ),
                str(fact),
            )
        return self._of[fact]

    def multiset(self, derivations):
        return sorted(
            (self(fact), tuple(map(self, parents)))
            for fact, parents in derivations
        )


class TestJoinOrderIsUnobservable:
    @given(seeds, picks)
    @example(2012, [(0, 0, 0), (0, 0, 1)])  # one constraint, two spellings
    @example(1134, [(0, 0, 0)])  # likewise, in a self-join
    @example(3, [(0, 0, 0), (1, 0, 0)])  # a fact and its subsumer, one iteration
    @settings(max_examples=60, deadline=None)
    def test_every_first_literal_derives_the_same(self, seed, picks):
        rules, edb, expected = _recursive_case(seed, picks)
        spelling = _Spelling()

        database = edb.copy()
        evaluators = [
            RuleEvaluator(rule) for rule in normalize_program(rules)
        ]
        stamped = []
        for iteration in range(1, expected.stats.iterations + 1):
            new = set()
            for evaluator in evaluators:
                rule = evaluator.rule
                body = range(len(rule.body))
                for delta, first in (
                    [(None, None)] if iteration == 1
                    else _variants(database, rule, iteration - 1)
                ):
                    view = database_view(database, iteration - 1, delta)
                    emitted = list(
                        evaluator.derive_with_parents(view, first)
                    )
                    for other in [None, *body]:
                        assert spelling.multiset(
                            evaluator.derive_with_parents(view, other)
                        ) == spelling.multiset(emitted)
                    for fact, parents in emitted:
                        assert [p.pred for p in parents] == [
                            literal.pred for literal in rule.body
                        ]
                        outcome = database.insert(fact, stamp=iteration)
                        if outcome is InsertOutcome.NEW:
                            new.add(fact)
            stamped.append(new)
        assert stamped == [
            set(log.new_facts()) for log in expected.iterations
        ]


class TestMonotoneResume:
    @given(seeds, st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_interleaving_of_loads_equals_cold(self, seed, data):
        rules, edb = split_edb(generate_case(seed, CONFIG).program)
        facts = data.draw(st.permutations(list(edb.all_facts())))
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(facts)), max_size=4
        )))
        loads = [
            facts[low:high]
            for low, high in zip([0, *cuts], [*cuts, len(facts)])
        ]
        cold = evaluate(rules, edb)
        assert cold.reached_fixpoint

        base = Database()
        base.insert_many(loads[0])
        warm = evaluate(rules, base)
        stamp = warm.stats.iterations
        for load in loads[1:]:
            stamp += 1
            resumed = resume(rules, warm.database, load, start_stamp=stamp)
            assert resumed.reached_fixpoint
            stamp += resumed.stats.iterations
        assert set(warm.database.all_facts()) == set(
            cold.database.all_facts()
        )


class TestMonotoneSeeds:
    @given(seeds, st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_interleaving_of_seeds_and_loads_equals_cold(
        self, seed, data
    ):
        case = generate_case(seed, CONFIG)
        rules, edb = split_edb(case.program)
        facts = list(edb.all_facts())
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(facts)), max_size=3
        )))
        loads = [
            facts[low:high]
            for low, high in zip([0, *cuts], [*cuts, len(facts)])
        ]
        queries = [case.query, *sibling_queries(case)]
        # Asked last, the case's query folds any trailing loads in.
        steps = [
            *data.draw(st.permutations([*queries, *queries, *loads])),
            case.query,
        ]

        session = Session(rules, strategy="magic")
        for step in steps:
            if isinstance(step, list):
                assert session.add_facts(step).ok
            else:
                response = session.query(step)
                assert response.completeness == "complete"
        (entry,) = session.cache.entries()
        compiled = entry.compiled
        cold = evaluate(
            compiled.template.with_rules(
                compiled.seed_rule(query) for query in queries
            ),
            edb,
        )
        assert cold.reached_fixpoint
        warm = entry.warm.database
        assert warm.predicates() >= cold.database.predicates()
        for pred in warm.predicates():
            assert facts_equivalent(
                list(warm.facts(pred)), list(cold.database.facts(pred))
            ), pred
