"""The program that runs has no dead rules and no re-checked proofs.

``repro.core.prune`` is the last compile step of every strategy.  Over
the programs of the ``compile-forms`` corpus (``generate_case`` seeds
0-109) and the flights program, under every strategy that compiles
(all but ``none``):

* the compiled program has no rule with its own head as a body
  literal, no exact duplicate and no rule whose head and body are a
  sibling's while its constraint atoms are a proper superset of the
  sibling's;
* dropping only the implied atoms (pass (a) alone) leaves every
  evaluation's derivation and new-fact counts as they were: the
  dropped atoms held for every body fact the rule could join.
"""

from collections import Counter

import pytest

from repro import driver
from repro.conformance.generator import generate_case
from repro.core.pipeline import STRATEGY_SEQUENCES
from repro.core.prune import drop_implied_atoms
from repro.driver import STRATEGIES, optimize, split_edb
from repro.engine import evaluate
from repro.lang.parser import parse_query
from repro.workloads.flights import flight_network, flights_program

SEEDS = range(110)
EVAL_ITERATIONS = 80
#: ``none`` evaluates the program as written, dead rules and all.
COMPILING = [name for name in STRATEGIES if STRATEGY_SEQUENCES[name]]


def _inputs():
    """(name, rules, query, edb) of every guarded program."""
    network = flight_network(n_layers=3, width=3, seed=7)
    for text in (
        "?- cheaporshort(madison, seattle, T, C).",
        "?- cheaporshort(S, D, T, C).",
    ):
        yield "flights", flights_program(), parse_query(text), (
            network.database
        )
    for seed in SEEDS:
        case = generate_case(seed)
        rules, edb = split_edb(case.program)
        yield f"case-{seed}", rules, case.query, edb


def dead_rules(program):
    """Counts of the three kinds of dead rule in ``program``."""
    rules = list(program)
    found = Counter()
    seen = set()
    for rule in rules:
        if rule.head in rule.body:
            found["head in body"] += 1
        key = (rule.head, rule.body, rule.constraint)
        if key in seen:
            found["duplicate"] += 1
        seen.add(key)
        atoms = set(rule.constraint.atoms)
        if any(
            other.head == rule.head
            and other.body == rule.body
            and set(other.constraint.atoms) < atoms
            for other in rules
        ):
            found["subsumed sibling"] += 1
    return found


def test_compiled_programs_have_no_dead_rules():
    dead = {}
    for name, rules, query, __ in _inputs():
        for strategy in COMPILING:
            found = dead_rules(optimize(rules, query, strategy)[0])
            if found:
                dead[(name, strategy)] = dict(found)
    assert dead == {}


@pytest.mark.parametrize("strategy", ["pred", "rewrite", "optimal"])
def test_implied_atoms_alone_leave_derivations_unchanged(
    strategy, monkeypatch
):
    moved = {}
    dropped = 0
    for name, rules, query, edb in _inputs():
        monkeypatch.setattr(driver, "prune", lambda program, proved: program)
        program = optimize(rules, query, strategy)[0]
        monkeypatch.setattr(driver, "prune", drop_implied_atoms)
        lean = optimize(rules, query, strategy)[0]
        dropped += sum(
            len(before.constraint) - len(after.constraint)
            for before, after in zip(program, lean)
        )
        counts = [
            evaluate(each, edb, max_iterations=EVAL_ITERATIONS).stats
            for each in (program, lean)
        ]
        if counts[0].derivations != counts[1].derivations or (
            counts[0].new_facts != counts[1].new_facts
        ):
            moved[name] = [
                (stats.derivations, stats.new_facts) for stats in counts
            ]
    assert moved == {}
    assert dropped > 0
