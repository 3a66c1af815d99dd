"""Property: a rewritten program computes only QRP-relevant facts.

Theorem 4.8: when both constraint fixpoints converge, the rewriting
propagates the minimum QRP constraints, so every fact the rewritten
program computes for a restricted predicate satisfies that predicate's
QRP constraint (Definition 2.6) -- the facts outside it can never take
part in an answer's derivation, and the rewriting never computes them.

This checks it on generated programs (``conformance.generate_case``)
under every strategy that runs ``qrp``.  The QRP constraints are the
ones the compile itself computed; an output predicate is restricted
when it is the primed copy ``p'`` that ``qrp`` introduced, or ``p``
itself once its unrestricted definitions died out and the copy was
renamed back.  ``qrp`` defines no copy for a predicate whose QRP
constraint is *true* or *false*, so neither is checked.  A compile
step that dropped a QRP atom from a rule body would let a fact outside
the constraint through, and fails here.
"""

from hypothesis import given, settings, strategies as st

from repro.conformance.generator import generate_case
from repro.core.rewrite import constraint_rewrite
from repro.core.steps import pred_step, qrp_step
from repro.driver import answer_query, split_edb
from repro.lang.normalize import normalize_program
from repro.magic.adorn import adorn_program

#: ``generate_case`` seeds whose programs take seconds to evaluate.
SLOW = frozenset({13, 36, 38, 87, 111, 126, 137, 161, 168, 177, 307})

EVAL_ITERATIONS = 80


def qrp_constraints(rules, query, strategy):
    """The QRP constraints the ``strategy``'s compile propagated."""
    query_pred = query.literal.pred
    if strategy == "rewrite":
        return constraint_rewrite(rules, query_pred).qrp_constraints
    if strategy == "qrp":
        return qrp_step(normalize_program(rules), query_pred).constraints
    adorned = adorn_program(rules, query)
    propagated = pred_step(adorned.program)
    return qrp_step(propagated.program, adorned.query_pred).constraints


def restricted(program, constraints):
    """Output predicate -> the QRP constraint its facts must satisfy."""
    derived = program.derived_predicates()
    bound = {}
    for pred in derived:
        base = pred.rstrip("'")
        cset = constraints.get(base)
        if cset is None or cset.is_true() or cset.is_false():
            continue
        if pred == base and base + "'" in derived:
            continue  # the unrestricted original still runs beside p'
        bound[pred] = cset
    return bound


def violations(seed, strategy):
    """The computed facts that fall outside their QRP constraint."""
    case = generate_case(seed)
    rules, edb = split_edb(case.program)
    constraints = qrp_constraints(rules, case.query, strategy)
    outcome = answer_query(
        rules, case.query, edb, strategy=strategy,
        eval_iterations=EVAL_ITERATIONS,
    )
    if outcome.fallbacks:
        return []  # a degraded compile propagates no minimum
    bound = restricted(outcome.program, constraints)
    return [
        str(fact)
        for pred, cset in bound.items()
        for fact in outcome.result.database.facts(pred)
        if not fact.full_conjunction().implies_set(cset)
    ]


seeds = st.integers(min_value=0, max_value=399).filter(
    lambda seed: seed not in SLOW
)


@given(seeds, st.sampled_from(("qrp", "rewrite", "optimal")))
@settings(max_examples=150, deadline=None)
def test_computed_facts_satisfy_their_qrp_constraint(seed, strategy):
    assert violations(seed, strategy) == []


def test_flights_rewrite_computes_only_relevant_flights():
    from repro.lang.parser import parse_query
    from repro.workloads.flights import flight_network, flights_program

    network = flight_network(
        n_layers=4, width=3, expensive_fraction=0.4, seed=42
    )
    query = parse_query("?- cheaporshort(S, D, T, C).")
    # Without pred's positivity bounds, qrp alone infers true for flight.
    for strategy in ("rewrite", "optimal"):
        constraints = qrp_constraints(flights_program(), query, strategy)
        outcome = answer_query(
            flights_program(), query, network.database,
            strategy=strategy, eval_iterations=EVAL_ITERATIONS,
        )
        bound = restricted(outcome.program, constraints)
        assert bound, strategy
        for pred, cset in bound.items():
            for fact in outcome.result.database.facts(pred):
                assert fact.full_conjunction().implies_set(cset), (
                    strategy, str(fact)
                )
