"""The derivation log is pinned in emission order.

``PINNED`` in ``test_count_invariance.py`` digests each iteration's log
as a sorted multiset, so it does not see the *order* of derivations.
That order is the order in which the relation indexes hand candidates
to the joins: a hash bucket in insertion order, a range by value and
then insertion, a stamp group in insertion order.  An index built on
first request must hand them out exactly as one maintained from the
first insert did, and this test is where a difference shows.

It pins one sha256 over, for every run, the per-iteration sequence of
``(rule label, fact, outcome, parents)``.  The runs are flights 4x4
(``flight_network(n_layers=4, width=4, seed=1)``, all-free query) under
``none``/``rewrite``/``optimal`` and ``generate_case(0..49)`` under
every strategy.  The value is what commit ``a401944`` produces.  It is
not re-pinned for an engine change: the engine must derive the same
facts in the same order.  To see what moved, print :func:`_lines` for
each run here and in a checkout of the parent commit, and diff.
"""

import hashlib

from repro.conformance.generator import generate_case
from repro.driver import STRATEGIES, answer_query, split_edb
from repro.lang.parser import parse_query
from repro.workloads.flights import flight_network, flights_program

EVAL_ITERATIONS = 80

PINNED = "453507a382f836da9bfa4c465800bde054de5b48daff50c4928305b0efa7a2ee"


def _runs():
    """(name, strategy, program, query, edb) of every pinned run."""
    network = flight_network(n_layers=4, width=4, seed=1)
    query = parse_query("?- cheaporshort(S, D, T, C).")
    for strategy in ("none", "rewrite", "optimal"):
        yield (
            "flights-4x4", strategy, flights_program(), query,
            network.database,
        )
    for seed in range(50):
        case = generate_case(seed)
        rules, edb = split_edb(case.program)
        for strategy in STRATEGIES:
            yield f"case-{seed}", strategy, rules, case.query, edb


def _lines(program, query, edb, strategy):
    """The run's derivation log, one line per derivation, in order."""
    outcome = answer_query(
        program, query, edb, strategy=strategy,
        eval_iterations=EVAL_ITERATIONS,
    )
    for log in outcome.result.iterations:
        for derivation in log.derivations:
            parents = " / ".join(map(str, derivation.parents))
            yield (
                f"{log.number}|{derivation.rule_label}|"
                f"{derivation.fact}|{derivation.outcome.value}|"
                f"{parents}\n"
            )


def test_derivation_logs_in_emission_order_are_pinned():
    digest = hashlib.sha256()
    for name, strategy, program, query, edb in _runs():
        digest.update(f"== {name} {strategy}\n".encode())
        for line in _lines(program, query, edb, strategy):
            digest.update(line.encode())
    assert digest.hexdigest() == PINNED
