"""Ablation: backward subsumption (store minimization).

Forward subsumption (discard new facts covered by stored ones) is the
paper's baseline behaviour. Backward subsumption additionally sweeps
stored facts when a later, more general constraint fact covers them.
The workload derives many point facts before a generalization arrives;
the sweep collapses the store without changing any answer.
"""

import pytest

from repro.engine import Database, evaluate
from repro.lang.parser import parse_program


def build_program():
    return parse_program(
        """
        p(X) :- e(X).
        go(Y) :- e(Y), Y = 1.
        p(X) :- go(Y), X >= 0.
        keep(X) :- p(X), X <= 100.
        """
    )


@pytest.mark.parametrize("points", [20, 80, 320])
def test_sweep_collapses_point_store(points):
    program = build_program()
    edb = Database.from_ground(
        {"e": [(value,) for value in range(1, points + 1)]}
    )
    plain = evaluate(program, edb)
    swept = evaluate(program, edb, backward_subsumption=True)
    # All point facts collapse into the single generalization; the
    # downstream keep-points (capped at 100 by keep's constraint)
    # collapse likewise.
    assert swept.count("p") == 1
    assert plain.count("p") == points + 1
    assert swept.stats.swept == points + min(points, 100)


def test_sweep_preserves_downstream_answers():
    program = build_program()
    edb = Database.from_ground(
        {"e": [(value,) for value in range(1, 40)]}
    )
    plain = evaluate(program, edb)
    swept = evaluate(program, edb, backward_subsumption=True)

    def keep_instances(result):
        instances = set()
        for fact in result.facts("keep"):
            if fact.is_ground():
                instances.add(fact.args[0])
        return instances

    # Ground keep-instances agree; the swept run may additionally
    # represent them inside one constraint fact.
    swept_keep = swept.facts("keep")
    for value in keep_instances(plain):
        assert any(
            fact.subsumes(type(fact)("keep", (value,), fact.constraint))
            or (fact.is_ground() and fact.args[0] == value)
            or (
                not fact.is_ground()
                and fact.constraint.satisfied_by({"$1": value})
            )
            for fact in swept_keep
        )
