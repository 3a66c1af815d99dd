"""Figures 1/2: prior pipelines vs. this paper's, on equal substrates.

Balbin et al.'s pipeline (Figure 1) = C transform + magic; ours =
``Constraint_rewrite`` + constraint magic.  The shape claim (Section
4.1): there are programs ours optimizes that the C transform cannot --
quantified here on Example 4.1 with growing EDBs.
"""

import random

import pytest

from repro.core.baselines import c_transform
from repro.core.qrp import gen_prop_qrp_constraints
from repro.engine import Database, evaluate
from repro.lang.parser import parse_query
from repro.magic.templates import magic_rewrite


def make_edb(size: int, seed: int) -> Database:
    rng = random.Random(seed)
    b1 = {(rng.randint(0, 9), rng.randint(0, 9)) for __ in range(size)}
    b2 = {(rng.randint(0, 9),) for __ in range(size)}
    return Database.from_ground({"b1": b1, "b2": b2})


@pytest.mark.parametrize("size", [20, 80])
def test_balbin_vs_ours_full_pipelines(example_41_program, size):
    query = parse_query("?- q(X).")
    edb = make_edb(size, seed=size + 1)
    balbin = evaluate(
        magic_rewrite(
            c_transform(example_41_program, "q").program, query
        ).program,
        edb,
    )
    ours = evaluate(
        magic_rewrite(
            gen_prop_qrp_constraints(example_41_program, "q").program,
            query,
        ).program,
        edb,
    )
    assert ours.count() <= balbin.count()
    assert {fact.args for fact in ours.facts("q_f")} == {
        fact.args for fact in balbin.facts("q_f")
    }
