"""Unit tests for QRP constraint generation and propagation (Secs 4.2-4.3)."""

from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.cset import ConstraintSet
from repro.constraints.linexpr import LinearExpr
from repro.conformance.generator import generate_case
from repro.core.qrp import gen_prop_qrp_constraints, gen_qrp_constraints
from repro.driver import optimize, split_edb
from repro.engine import Database, evaluate
from repro.lang.parser import parse_program


def pos(i):
    return LinearExpr.var(f"${i}")


c = LinearExpr.const


def cset_of(*atoms):
    return ConstraintSet.of(Conjunction(atoms))


class TestGeneration:
    def test_example_41(self, example_41_program):
        constraints, report = gen_qrp_constraints(example_41_program, "q")
        assert report.converged
        assert constraints["q"].is_true()
        assert constraints["p1"].equivalent(
            cset_of(Atom.ge(pos(1), c(2)), Atom.le(pos(1) + pos(2), c(6)))
        )
        # The implied constraint the paper highlights.
        assert constraints["p2"].equivalent(
            cset_of(Atom.le(pos(1), c(4)))
        )

    def test_edb_predicates_inherit(self, example_41_program):
        constraints, __ = gen_qrp_constraints(example_41_program, "q")
        assert constraints["b2"].equivalent(cset_of(Atom.le(pos(1), c(4))))

    def test_example_42_vanilla_is_true(self, example_42_program):
        # Without explicit predicate constraints, QRP inference loses
        # everything through the recursive rule (the paper's point).
        constraints, __ = gen_qrp_constraints(example_42_program, "q")
        assert constraints["a"].is_true()

    def test_example_51_with_explicit_constraints(
        self, example_51_program
    ):
        constraints, report = gen_qrp_constraints(example_51_program, "q")
        expected = cset_of(
            Atom.le(pos(1), c(10)), Atom.le(pos(2), pos(1))
        )
        assert constraints["a"].equivalent(expected)
        # Example 5.1: terminates in two iterations (plus the fixpoint
        # confirmation round).
        assert report.iterations <= 3

    def test_unreachable_pred_is_false(self):
        program = parse_program(
            "q(X) :- e(X).\norphan(X) :- e(X), orphan(X)."
        )
        constraints, __ = gen_qrp_constraints(program, "q")
        assert constraints["orphan"].is_false()

    def test_multiple_query_preds(self):
        program = parse_program(
            """
            q1(X) :- p(X), X <= 4.
            q2(X) :- p(X), X >= 9.
            p(X) :- e(X).
            """
        )
        constraints, __ = gen_qrp_constraints(program, ["q1", "q2"])
        expected = cset_of(Atom.le(pos(1), c(4))).or_(
            cset_of(Atom.ge(pos(1), c(9)))
        )
        assert constraints["p"].equivalent(expected)

    def test_divergence_widens_to_true(self):
        # The literal constraint keeps weakening by one each round
        # ($1 >= 0, then $1 >= -1, ...): never stabilizes.
        program = parse_program(
            """
            q(X) :- p(X), X >= 0.
            p(X) :- p(Y), X = Y + 1.
            p(X) :- e(X).
            """
        )
        constraints, report = gen_qrp_constraints(
            program, "q", max_iterations=4
        )
        assert not report.converged
        assert constraints["p"].is_true()


class TestPropagation:
    def test_example_41_rewrite(self, example_41_program):
        result = gen_prop_qrp_constraints(example_41_program, "q")
        rewritten = result.program
        assert not result.unfoldable_occurrences
        p1 = rewritten.rules_for("p1")
        assert len(p1) == 1
        assert p1[0].constraint.implies_atom(
            Atom.ge(LinearExpr.var(p1[0].head.args[0].name), c(2))
        )
        p2 = rewritten.rules_for("p2")
        assert p2[0].constraint.implies_atom(
            Atom.le(LinearExpr.var(p2[0].head.args[0].name), c(4))
        )

    def test_rename_back_keeps_names(self, example_41_program):
        result = gen_prop_qrp_constraints(example_41_program, "q")
        assert result.program.derived_predicates() == {"q", "p1", "p2"}

    def test_no_rename_back_keeps_primes(self, example_41_program):
        result = gen_prop_qrp_constraints(
            example_41_program, "q", rename_back=False
        )
        assert "p1'" in result.program.derived_predicates()

    def test_true_constraints_leave_program_alone(self):
        program = parse_program("q(X) :- p(X).\np(X) :- e(X).").relabeled()
        result = gen_prop_qrp_constraints(program, "q")
        assert len(result.program) == 2

    def test_false_constraints_drop_the_rules_that_mention_them(self):
        program = parse_program(
            "q(X) :- e(X).\nq(X) :- p(X), X > 5, X < 3.\np(X) :- e(X)."
        )
        constraints, __ = gen_qrp_constraints(program, "q")
        assert constraints["p"].is_false()
        result = gen_prop_qrp_constraints(program, "q")
        assert str(result.program) == "r1: q(X) :- e(X)."

    def test_generated_case_3_derives_no_fact_of_a_false_predicate(self):
        case = generate_case(3)
        rules, edb = split_edb(case.program)
        constraints, __ = gen_qrp_constraints(rules, "p2")
        assert constraints["p0"].is_false()
        assert constraints["p1"].is_false()
        program = optimize(rules, case.query, strategy="qrp")[0]
        assert len(program) == 2
        assert not {"p0", "p1"} & program.predicates()
        result = evaluate(program, edb)
        assert result.count("p0") == result.count("p1") == 0

    def test_semantics_preserved_on_query_pred(self, example_41_program):
        result = gen_prop_qrp_constraints(example_41_program, "q")
        edb = Database.from_ground(
            {
                "b1": [(2, 3), (3, 1), (5, 9), (0, 0)],
                "b2": [(3,), (1,), (9,)],
            }
        )
        before = evaluate(example_41_program, edb)
        after = evaluate(result.program, edb)
        assert set(before.facts("q")) == set(after.facts("q"))

    def test_fewer_facts_computed(self, example_41_program):
        result = gen_prop_qrp_constraints(example_41_program, "q")
        edb = Database.from_ground(
            {
                "b1": [(2, 3), (3, 1), (5, 9), (0, 0), (2, 9)],
                "b2": [(3,), (1,), (9,), (0,)],
            }
        )
        before = evaluate(example_41_program, edb)
        after = evaluate(result.program, edb)
        assert after.count() < before.count()

    def test_recursive_predicate_propagation(self, example_51_program):
        result = gen_prop_qrp_constraints(example_51_program, "q")
        # a's rules must carry $1 <= 10 & $2 <= $1 now.
        for rule in result.program.rules_for("a"):
            head_x, head_y = (arg.name for arg in rule.head.args)
            assert rule.constraint.implies_atom(
                Atom.le(LinearExpr.var(head_x), c(10))
            )
            assert rule.constraint.implies_atom(
                Atom.le(LinearExpr.var(head_y), LinearExpr.var(head_x))
            )

    def test_ground_programs_stay_ground(self, example_51_program):
        result = gen_prop_qrp_constraints(example_51_program, "q")
        edb = Database.from_ground(
            {"p": [(5, 3), (9, 9), (3, 1), (20, 2)]}
        )
        evaluated = evaluate(result.program, edb)
        assert all(
            fact.is_ground() for fact in evaluated.database.all_facts()
        )

    def test_supplied_constraints_used(self, example_41_program):
        constraints = {
            "p1": ConstraintSet.true(),
            "p2": cset_of(Atom.le(pos(1), c(4))),
        }
        result = gen_prop_qrp_constraints(
            example_41_program, "q", constraints=constraints
        )
        p2 = result.program.rules_for("p2")
        assert len(p2) == 1
        assert len(p2[0].constraint) == 1
