"""The derivation log is pinned in emission order.

``PINNED`` in ``test_count_invariance.py`` digests each iteration's log
as a sorted multiset, so it does not see the *order* of derivations.
That order is the order in which the relation indexes hand candidates
to the joins: a hash bucket in insertion order, a range by value and
then insertion, a stamp group in insertion order.  An index built on
first request must hand them out exactly as one maintained from the
first insert did, and this test is where a difference shows.

It pins one sha256 per strategy over, for each of that strategy's
runs, the per-iteration sequence of ``(rule label, fact, outcome,
parents)``.  The runs are flights 4x4 (``flight_network(n_layers=4,
width=4, seed=1)``, all-free query) under ``none``/``rewrite``/
``optimal`` and ``generate_case(0..49)`` under every strategy.  The
``none`` value is what commit ``a401944`` produces; the others were
re-pinned when the compile's last step started dropping dead rules and
the atoms ``pred`` proved (``repro.core.prune``), which removes
derivations; the rules it keeps keep their labels.  They are not re-pinned
for an engine change: the engine must derive the same facts in the same
order.  A compile change that is meant to alter a rewritten program
re-pins only the strategies whose programs it changed (``none``
compiles nothing and never moves), and says so in its change note.  To
see what moved, print :func:`_lines` for each run here and in a
checkout of the parent commit, and diff.
"""

import hashlib

from repro.conformance.generator import generate_case
from repro.driver import STRATEGIES, answer_query, split_edb
from repro.lang.parser import parse_query
from repro.workloads.flights import flight_network, flights_program

EVAL_ITERATIONS = 80

#: strategy -> sha256 of its runs' derivation logs in emission order.
PINNED = {
    "none": "923eca6626ba836a656b168a3badb9541ac418c6b7e4c4c03b022bd9cd87400d",
    "pred": "ac35116ad181a49b0b271cc1bdff298dc23f4ebc7d39d6bab47de74b43e7ee47",
    "qrp": "95ae229c8cad604e8dd10adcfd13f46873d1e30fea2c46fabccdd11d6afc1eb6",
    "rewrite": "cc9db69e6f47f98eda77a9274a6362edfd55afa3b4a8bbe63c9e7bc0100fafa1",
    "magic": "27bc75f9ce6b643a2fe740ab0af559b46d843fc8096307128a5f097745ba665a",
    "optimal": "f20572d087b0417df84bd053b61ff72bacb08dda065acda917b3a0b033dbd872",
}


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
    digests = {strategy: hashlib.sha256() for strategy in STRATEGIES}
    for name, strategy, program, query, edb in _runs():
        digest = digests[strategy]
        digest.update(f"== {name} {strategy}\n".encode())
        for line in _lines(program, query, edb, strategy):
            digest.update(line.encode())
    assert {
        strategy: digest.hexdigest() for strategy, digest in digests.items()
    } == PINNED
