"""The compile's last step, rule by rule (``repro.core.prune``)."""

from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.cset import ConstraintSet
from repro.constraints.linexpr import LinearExpr
from repro.core.prune import drop_dead_rules, drop_implied_atoms, prune
from repro.core.rewrite import constraint_rewrite
from repro.lang.parser import parse_program
from repro.workloads.flights import flights_program


def bound(position, op, value):
    return Atom.make(LinearExpr.var(position), op, LinearExpr.const(value))


def conj(*atoms):
    return Conjunction(atoms)


def constraints(rule):
    return sorted(str(atom) for atom in rule.constraint.atoms)


def test_flights_drops_what_pred_proved_and_the_subsumed_rule():
    done = constraint_rewrite(flights_program(), "cheaporshort")
    pruned = prune(done.program, done.proved)
    assert len(done.program) == 7 and len(pruned) == 6
    cheap = [r for r in pruned if r.head.pred == "cheaporshort"]
    assert sorted(map(constraints, cheap)) == [
        ["C_1 <= 150"], ["T_4 <= 240"]
    ]
    for rule in pruned:
        # C > 0 and T > 0 are proved for every flight literal; a head
        # variable bounded only through the equalities keeps its atom.
        on_flights = {
            var
            for literal in rule.body
            if literal.pred == "flight"
            for var in literal.variables()
        }
        assert not [
            atom
            for atom in rule.constraint.atoms
            if str(atom).endswith(" > 0")
            and atom.variables() <= on_flights
        ]
    # r4 is r3 with C <= 150 added; the others keep their labels.
    assert [rule.label for rule in pruned] == [
        "r1", "r2", "r3", "r5", "r6", "r7"
    ]


def test_bounds_compare_strictness_and_take_the_hull_of_disjuncts():
    program = parse_program(
        "q(X) :- p(X), X >= 1, X > 1, X <= 9, X <= 4, X >= 0, X < 10."
    )
    proved = {
        "p": ConstraintSet([
            conj(bound("$1", ">=", 1), bound("$1", "<=", 3)),
            conj(bound("$1", ">=", 5), bound("$1", "<=", 9)),
        ])
    }
    (lean,) = drop_implied_atoms(program, proved)
    assert constraints(lean) == ["X <= 4", "X > 1"]


def test_each_atom_is_judged_against_the_atoms_still_kept():
    # X <= Y and Z <= Y imply each other under X = Z: one may go, never
    # both.
    program = parse_program(
        "q(X, Y, Z) :- p(X, Y, Z), X - Y <= 0, Z - Y <= 0, X - Z = 0."
    )
    proved = {
        "p": ConstraintSet.of(conj(
            bound("$1", ">=", 0), bound("$2", ">=", 0),
            bound("$3", ">=", 0),
        ))
    }
    (lean,) = drop_implied_atoms(program, proved)
    kept = constraints(lean)
    assert len(kept) == 2 and "X - Z = 0" in kept


def test_a_predicate_nothing_proved_keeps_its_atoms():
    program = parse_program("q(X) :- p(X), e(X), X > 0.")
    assert drop_implied_atoms(program, {}) is program
    proved = {"p": ConstraintSet.true()}
    assert drop_implied_atoms(program, proved) == program


def test_dead_rules_go_and_the_rest_keep_labels_and_order():
    program = parse_program(
        """
        r1: m_p(X) :- m_p(X).
        r2: p(X) :- m_p(X), e(X), X > 1.
        r3: p(X) :- m_p(X), e(X), X > 1.
        r4: p(X) :- m_p(X), e(X), X > 1, X < 5.
        r5: p(X) :- m_p(X), e(X), X < 5.
        seed: m_p(3).
        """
    )
    kept = drop_dead_rules(program)
    assert [str(rule) for rule in kept] == [
        "p(X) :- m_p(X), e(X), X > 1.",
        "p(X) :- m_p(X), e(X), X < 5.",
        "m_p(3).",
    ]
    assert [rule.label for rule in kept] == ["r2", "r5", "seed"]
    assert drop_dead_rules(kept) is kept
