"""Integration: Tables 1 and 2 (Examples 1.2 and 4.4).

Regenerates the paper's two derivation tables and checks their
characteristic content: the magic-only program answers at iteration 7
but never terminates; after pushing the predicate constraint
``$2 >= 1`` it terminates right after the answer, with the exact magic
constraint shapes the paper prints.
"""

import pytest

from repro.__main__ import main
from repro.constraints.cset import ConstraintSet
from repro.core.pipeline import apply_sequence
from repro.core.prune import prune
from repro.core.widening import gen_predicate_constraints_widened
from repro.driver import answer_query, run_text
from repro.engine import evaluate
from repro.engine.facts import PENDING
from repro.governor import Budget
from repro.governor import budget as governor
from repro.lang.positions import ptol
from repro.service import Engine
from repro.workloads.fib import (
    FIB_PROGRAM_TEXT,
    fib_magic_program,
    fib_program,
    fib_query,
)


@pytest.fixture(scope="module")
def table1():
    return evaluate(
        fib_magic_program(5).program, max_iterations=9, provenance=True
    )


@pytest.fixture(scope="module")
def table2():
    return evaluate(
        fib_magic_program(5, optimized=True).program, max_iterations=30,
        provenance=True,
    )


class TestTable1:
    def test_does_not_terminate(self, table1):
        assert not table1.reached_fixpoint

    def test_iteration0_seed(self, table1):
        facts = table1.iterations[0].new_facts()
        assert len(facts) == 1
        (seed,) = facts
        assert seed.pred == "m_fib"
        assert seed.args[1] == 5
        assert seed.args[0] is PENDING

    def test_iteration1_weakened_magic_fact(self, table1):
        # m_fib(N1, V1; N1 > 0)
        facts = table1.iterations[1].new_facts()
        assert len(facts) == 1
        (fact,) = facts
        assert fact.pred == "m_fib"
        assert fact.pending_positions() == (1, 2)
        assert str(fact.constraint) == "$1 > 0"

    def test_answer_found_at_iteration_7(self, table1):
        facts = table1.iterations[7].new_facts()
        assert any(
            fact.pred == "fib" and fact.args == (4, 5) for fact in facts
        )

    def test_fib_facts_keep_growing(self, table1):
        values = {
            fact.args[0]
            for fact in table1.facts("fib")
        }
        # Beyond the answer: fib(5, 8) was derived in iteration 8.
        assert max(values) >= 5

    def test_subsumed_facts_discarded(self, table1):
        from repro.engine.relation import InsertOutcome

        discarded = [
            derivation
            for log in table1.iterations
            for derivation in log.derivations
            if derivation.outcome is not InsertOutcome.NEW
        ]
        assert discarded  # boldface entries exist

    def test_constraint_facts_computed(self, table1):
        assert any(
            not fact.is_ground() for fact in table1.facts("m_fib")
        )


class TestTable2:
    def test_terminates(self, table2):
        assert table2.reached_fixpoint
        # Paper: "the evaluation terminates after the eighth iteration".
        assert table2.stats.iterations <= 10

    def test_iteration1_bounded_magic_fact(self, table2):
        # m_fib(N1, V1; N1 > 0, V1 >= 1, V1 <= 4)
        (fact,) = table2.iterations[1].new_facts()
        assert str(fact.constraint) == "$1 > 0 & $2 >= 1 & $2 <= 4"

    def test_answer_found_at_iteration_7(self, table2):
        facts = table2.iterations[7].new_facts()
        assert any(
            fact.pred == "fib" and fact.args == (4, 5) for fact in facts
        )

    def test_no_fib_beyond_answer(self, table2):
        values = {fact.args[0] for fact in table2.facts("fib")}
        assert max(values) == 4

    def test_same_answers_as_table1(self, table1, table2):
        answer = lambda result: {
            fact.args
            for fact in result.facts("fib")
            if fact.args[1] == 5
        }
        assert answer(table1) == answer(table2) == {(4, 5)}


class TestNoAnswerQuery:
    def test_fib_6_terminates_with_no(self):
        result = evaluate(
            fib_magic_program(6, optimized=True).program,
            max_iterations=40,
        )
        assert result.reached_fixpoint
        assert not any(
            fact.args[1] == 6 for fact in result.facts("fib")
        )

    def test_fib_6_unoptimized_does_not_terminate(self):
        result = evaluate(
            fib_magic_program(6, optimized=False).program,
            max_iterations=12,
        )
        assert not result.reached_fixpoint


class TestTable2ThroughTheOptimalStrategy:
    """Table 2 with nothing asserted by hand: ``--strategy optimal``.

    ``pred``'s exact fixpoint diverges on P_fib; the step's ladder
    keeps the interval-hull bounds (``$1 >= 0 & $2 >= 1``) on every
    path, so the magic program terminates with no budget set.  (At
    ``df56d71`` ``apply_sequence`` widened to *true* unless a budget
    tripped: 526 derivations, cut off at the 200-iteration cap.)
    """

    strategy = "optimal"

    @staticmethod
    def _text(value):
        return f"{FIB_PROGRAM_TEXT}\n?- fib(N, {value}).\n"

    def _run(self, value):
        (outcome,) = run_text(self._text(value), strategy=self.strategy)
        assert outcome.result.reached_fixpoint
        assert outcome.completeness == "approximated"
        assert "pred:widened" in outcome.fallbacks
        assert outcome.budget is None
        return outcome

    def test_fib_5_terminates_on_the_answer(self):
        outcome = self._run(5)
        assert outcome.answer_strings == ["N = 4"]
        assert outcome.result.stats.iterations <= 20
        assert outcome.result.stats.derivations < 50
        # Table 2's shape: nothing computed beyond the answer.
        computed = {
            fact.args[0]
            for pred in ("fib_fb", "fib_bb")
            for fact in outcome.result.facts(pred)
        }
        assert max(computed) == 4

    def test_fib_6_terminates_with_no(self):
        outcome = self._run(6)
        assert outcome.answers == []
        assert outcome.result.stats.iterations <= 20

    def test_a_rewrite_budget_changes_nothing(self):
        # test_degradation pins that a 1-iteration rewrite budget +
        # widen terminates; it must be the *same* program and work.
        free = self._run(5)
        tight_budget = Budget(max_rewrite_iterations=1)
        (tight,) = run_text(
            self._text(5),
            strategy=self.strategy,
            budget=tight_budget,
            on_limit="widen",
        )
        bounds = gen_predicate_constraints_widened(fib_program())[0]
        assert str(bounds["fib"]) == "($1 >= 0 & $2 >= 1)"
        for budget, outcome in ((None, free), (tight_budget, tight)):
            # The steps attach the widened bounds to every fib call;
            # the program that runs has them proved, not re-checked.
            with governor.governed(
                budget.meter() if budget is not None else None
            ):
                steps = apply_sequence(
                    fib_program(), fib_query(5), ("pred", "qrp", "mg")
                )
            assert prune(steps.program, steps.proved) == outcome.program
            calls = [
                (rule, literal)
                for rule in steps.program
                for literal in rule.body
                if literal.pred in ("fib_fb", "fib_bb")
            ]
            assert calls
            for rule, literal in calls:
                assert ConstraintSet.of(rule.constraint).implies(
                    ptol(literal, bounds["fib"])
                )
                assert steps.proved[literal.pred] == bounds["fib"]
        assert tight.result.stats.derivations == (
            free.result.stats.derivations
        )
        assert tight.result.stats.iterations == (
            free.result.stats.iterations
        )

    def test_answer_query_agrees(self):
        outcome = answer_query(
            fib_program(), fib_query(5), strategy=self.strategy
        )
        assert outcome.result.reached_fixpoint
        assert outcome.answer_strings == ["N = 4"]
        assert outcome.fallbacks == ["pred:widened"]

    def test_magic_alone_still_diverges(self):
        # Table 1 is untouched: no pred step, no bound, no fixpoint.
        (outcome,) = run_text(
            self._text(5), strategy="magic", eval_iterations=12
        )
        assert outcome.completeness == "truncated:iterations"
        assert outcome.fallbacks == []

    def test_cli(self, tmp_path, capsys):
        path = tmp_path / "fib.cql"
        path.write_text(self._text(5))
        assert main([str(path), "--strategy", self.strategy]) == 0
        out = capsys.readouterr().out
        assert "N = 4" in out
        assert "completeness: approximated" in out

    def test_service_engine(self):
        engine = Engine.from_text(
            FIB_PROGRAM_TEXT, strategy=self.strategy
        )
        for value, expected in ((5, ["N = 4"]), (6, [])):
            response = engine.query(f"?- fib(N, {value}).")
            assert response.ok
            assert response.answer_strings == expected
            assert response.completeness == "approximated"
            assert any("widened" in note for note in response.notes)
            assert response.eval_stats.iterations <= 20


class TestTable2ThroughAuto(TestTable2ThroughTheOptimalStrategy):
    """Table 2 again under ``--strategy auto``.

    P_fib recurses through ``fib(N - 1, X1)``: value-generating
    recursion, so the planner picks ``optimal``, and a session runs
    that pick for the form.  A pick of ``magic`` would stop at the
    iteration cap (Table 1).
    """

    strategy = "auto"
