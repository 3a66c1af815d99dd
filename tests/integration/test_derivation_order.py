"""The derivation log is pinned in emission order.

``PINNED`` in ``test_count_invariance.py`` digests each iteration's log
as a sorted multiset, so it does not see the *order* of derivations.
That order is the order in which the relations hand candidates to the
joins: insertion order, whether a stamp group, a hash bucket or the
whole relation serves the probe, and a bucket's PENDING facts after
the bucket.  An index built on first request must hand them out
exactly as one maintained from the first insert did, and this test is
where a difference shows.

It pins one sha256 per strategy over, for each of that strategy's
runs, the per-iteration sequence of ``(rule label, fact, outcome,
parents)``.  The runs are flights 4x4 (``flight_network(n_layers=4,
width=4, seed=1)``, all-free query) under ``none``/``rewrite``/
``optimal`` and ``generate_case(0..49)`` under every strategy.  The
values were re-pinned, all six, when the relations dropped their
ordered index: a range used to hand out its candidates by value, and
is now a filter over candidates in insertion order, so every run that
probed with a range moved (what is derived, and the probe counts, did
not).  ``qrp`` moved once more when its step started dropping the rules
of predicates whose QRP constraint is false (case 3 loses its ``p0``
and ``p1`` rules).  Before that, the compile's last step started
dropping dead rules and the atoms ``pred`` proved
(``repro.core.prune``).  They are not
re-pinned for any other engine change: the engine must derive the same
facts in the same order.  A compile change that is meant to alter a
rewritten program re-pins only the strategies whose programs it changed
(``none`` compiles nothing and never moves), and says so in its change
note.  To
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
    "none": "09f1b3c66116c8d3f328e8f2e672dad8c5ae3d73ab27c2bd6dfbe5244a99713d",
    "pred": "ce62258d7760b31b49dba95f5d9071170c0754936a2caa1693d997a569f8a066",
    "qrp": "24a67aafe442c82a6e5598b81509c744e15fe5c8143b97a55a838d874b73da4d",
    "rewrite": "416f69fed0158a285152eef8c6b03b7ba1c36a6dcc7ac546f966fe46b772f92a",
    "magic": "61dc67bbb0e7e1b3e4cabd00cedbc1eb7c6c063b40ec9f99e0081139ed7a2f52",
    "optimal": "f6cdf59c9970fc644e0ca9d4e4f62cda36b68ec49b2beb78013d358f2acf61dd",
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
        eval_iterations=EVAL_ITERATIONS, provenance=True,
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
