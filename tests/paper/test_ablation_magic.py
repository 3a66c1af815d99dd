"""Ablation: constraint magic vs. plain magic (Example 1.1's choice).

Example 1.1 presents the dilemma: put constraints into magic rules (and
compute constraint facts), or drop them (and compute irrelevant facts).
The paper's resolution is to propagate constraints *first*; this
ablation quantifies the dilemma on Example 7.2's program, where
constraint magic's extra ``X <= 4`` in the magic rules pays off.
"""

from repro.core.pipeline import apply_sequence, evaluate_pipeline
from repro.engine import Database
from repro.lang.parser import parse_query


def test_constraint_magic_vs_plain(example_72_program):
    query = parse_query("?- q(7, Y).")
    edb = Database.from_ground(
        {
            "b1": [(7, 100), (2, 0)],
            "b2": [(100 + i, 101 + i) for i in range(12)] + [(0, 1)],
        }
    )
    with_constraints = evaluate_pipeline(
        apply_sequence(
            example_72_program, query, ["mg"],
            include_constraints=True,
        ),
        edb,
        query,
    )
    without = evaluate_pipeline(
        apply_sequence(
            example_72_program, query, ["mg"],
            include_constraints=False,
        ),
        edb,
        query,
    )
    # The constraints in the magic rules prune the b2 chain entirely.
    assert (
        with_constraints.facts_excluding_edb(edb)
        < without.facts_excluding_edb(edb)
    )


def test_both_variants_ground_and_equivalent(example_72_program):
    from repro.core.pipeline import query_answers

    query = parse_query("?- q(3, Y).")
    edb = Database.from_ground(
        {
            "b1": [(3, 100), (2, 0)],
            "b2": [(100, 101), (101, 102), (0, 1)],
        }
    )
    evaluations = [
        evaluate_pipeline(
            apply_sequence(
                example_72_program, query, ["mg"],
                include_constraints=flag,
            ),
            edb,
            query,
        )
        for flag in (True, False)
    ]
    answers = {
        frozenset(query_answers(evaluation, query))
        for evaluation in evaluations
    }
    assert len(answers) == 1
    for evaluation in evaluations:
        assert all(
            fact.is_ground()
            for fact in evaluation.result.database.all_facts()
        )
