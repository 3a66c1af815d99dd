"""Ablation: disjunct representation trade-off (Section 4.6).

Three ways to propagate flight's 2-disjunct QRP constraint:

* **overlapping** (as generated): fewest rules, but cheap+short legs
  are derived once per overlapping disjunct;
* **disjoint** (``make_disjoint``): no duplicate derivations, more rules;
* **single hull** (``single_disjunct_relaxation``): one rule per
  original, but no pruning beyond the predicate constraint
  ($3 > 0 & $4 > 0) -- irrelevant facts come back.

The facts/derivations sides of the trade-off are asserted here.
"""

import pytest

from repro.constraints.disjoint import (
    make_disjoint,
    single_disjunct_relaxation,
)
from repro.core.predconstraints import gen_prop_predicate_constraints
from repro.core.qrp import gen_prop_qrp_constraints, gen_qrp_constraints
from repro.core.rewrite import wrap_query_predicate
from repro.engine import evaluate
from repro.workloads.flights import flight_network, flights_program


@pytest.fixture(scope="module")
def variants():
    base = flights_program()
    wrapped = wrap_query_predicate(base, "cheaporshort")
    propagated, __, __ = gen_prop_predicate_constraints(wrapped)
    qrp, __ = gen_qrp_constraints(propagated, "q1")

    def rewrite(transform):
        constraints = {
            pred: transform(cset) for pred, cset in qrp.items()
        }
        result = gen_prop_qrp_constraints(
            propagated, "q1", constraints=constraints
        )
        from repro.lang.ast import Program

        return Program(
            rule for rule in result.program if rule.head.pred != "q1"
        ).restrict_to_reachable(["cheaporshort"])

    return {
        "overlapping": rewrite(lambda cset: cset),
        "disjoint": rewrite(make_disjoint),
        "single_hull": rewrite(single_disjunct_relaxation),
    }


def test_disjunct_representation_tradeoff(variants):
    network = flight_network(
        n_layers=4, width=3, expensive_fraction=0.4, seed=13
    )
    results = {
        name: evaluate(program, network.database, max_iterations=60)
        for name, program in variants.items()
    }
    # Section 4.6's predictions:
    # (1) disjoint never exceeds overlapping in derivations;
    assert (
        results["disjoint"].stats.derivations
        <= results["overlapping"].stats.derivations
    )
    # (2) single hull computes at least as many facts (it prunes less);
    assert results["single_hull"].count("flight") >= results[
        "overlapping"
    ].count("flight")
    # (3) all variants agree on the optimized fact subset relation:
    #     overlapping and disjoint compute the same flight facts.
    overlapping = set(results["overlapping"].facts("flight"))
    disjoint = set(results["disjoint"].facts("flight"))
    assert overlapping == disjoint


def test_answers_identical_across_variants(variants):
    network = flight_network(
        n_layers=3, width=3, expensive_fraction=0.3, seed=17
    )
    results = {
        name: evaluate(program, network.database, max_iterations=60)
        for name, program in variants.items()
    }
    answer_sets = {
        name: frozenset(result.facts("cheaporshort"))
        for name, result in results.items()
    }
    assert len(set(answer_sets.values())) == 1
