"""Semi-naive evaluation: join order and load order are unobservable.

(a) *Any first literal is written-order.*  A semi-naive variant of a
rule joins from its smallest literal (its delta, as a rule) and the
rest bound-variables-first; the stamp view goes by written body index,
so the variant must make the very derivations the written-order join
makes over the same view.  On ``conformance.generator`` programs
(three-literal bodies, a predicate repeated in one body, constants in
body literals) whose EDB also gets constraint facts with PENDING
positions, every variant of every iteration is run from every first
literal and in written order, straight on :class:`RuleEvaluator`, and
must yield the same multiset of (fact, parents-in-written-order); the
facts the loop stamps per iteration must be the ones ``evaluate``
stamps.

(b) *Monotone resume* (ROADMAP 8(d)).  Loading the EDB in any number
of ``resume`` calls, in any order, ends in the database one cold
``evaluate`` on the union computes.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.conformance.generator import GeneratorConfig, generate_case
from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr
from repro.driver import split_edb
from repro.engine import Database, evaluate
from repro.engine.facts import PENDING, make_fact
from repro.engine.fixpoint import resume
from repro.engine.relation import InsertOutcome
from repro.engine.ruleeval import RuleEvaluator, database_view
from repro.lang.normalize import normalize_program
from repro.lang.terms import Sym

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


def _with_constraint_facts(edb: Database, draw) -> Database:
    """The EDB plus, for up to three facts, a copy with one numeric
    position left PENDING over a short interval around its value.
    (Few on purpose: constraint facts join with everything, and what
    they derive is rarely subsumed.)"""
    widened = edb.copy()
    facts = list(edb.all_facts())
    chosen = draw(st.lists(
        st.sampled_from(facts), max_size=3, unique=True
    )) if facts else []
    for fact in chosen:
        numeric = [
            position for position, value in enumerate(fact.args)
            if not isinstance(value, Sym)
        ]
        if not numeric:
            continue
        position = draw(st.sampled_from(numeric))
        spread = draw(st.integers(0, 2))
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


def _multiset(derivations):
    return sorted(
        (str(fact), tuple(map(str, parents)))
        for fact, parents in derivations
    )


class TestJoinOrderIsUnobservable:
    @given(seeds, st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_first_literal_derives_the_same(self, seed, data):
        rules, edb = split_edb(generate_case(seed, CONFIG).program)
        edb = _with_constraint_facts(edb, data.draw)
        normalized = normalize_program(rules)
        expected = evaluate(rules, edb, max_iterations=MAX_ITERATIONS)
        assume(any(log.derivations for log in expected.iterations[1:]))
        assume(expected.stats.derivations <= MAX_DERIVATIONS)

        database = edb.copy()
        evaluators = [RuleEvaluator(rule) for rule in normalized]
        stamped = []
        for iteration in range(1, expected.stats.iterations + 1):
            new = set()
            for evaluator in evaluators:
                body = range(len(evaluator.rule.body))
                for delta in [None] if iteration == 1 else body:
                    view = database_view(database, iteration - 1, delta)
                    written = list(evaluator.derive_with_parents(view))
                    for first in body:
                        assert _multiset(
                            evaluator.derive_with_parents(view, first)
                        ) == _multiset(written)
                    for fact, parents in written:
                        assert [p.pred for p in parents] == [
                            literal.pred
                            for literal in evaluator.rule.body
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
