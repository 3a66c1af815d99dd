"""Example 4.1 plus the Section 4.1/6.1 baseline comparison.

Three programs over the same EDBs: the original, Balbin et al.'s
C-transformed version (syntactic propagation), and ours (semantic
propagation).  Shape: original >= Balbin >= ours in facts computed,
with ours strictly better on p2 whenever b2 contains values above 4.
"""

import random

import pytest

from repro.core.baselines import c_transform
from repro.core.qrp import gen_prop_qrp_constraints
from repro.engine import Database, evaluate


@pytest.fixture
def programs(example_41_program):
    return {
        "original": example_41_program,
        "balbin": c_transform(example_41_program, "q").program,
        "semantic": gen_prop_qrp_constraints(
            example_41_program, "q"
        ).program,
    }


def make_edb(size: int, seed: int) -> Database:
    rng = random.Random(seed)
    b1 = {
        (rng.randint(0, 9), rng.randint(0, 9)) for __ in range(size)
    }
    b2 = {(rng.randint(0, 9),) for __ in range(size)}
    return Database.from_ground({"b1": b1, "b2": b2})


@pytest.mark.parametrize("size", [10, 40, 160])
def test_example41_three_way(programs, size):
    edb = make_edb(size, seed=size)
    results = {
        name: evaluate(program, edb)
        for name, program in programs.items()
    }
    counts = {
        name: result.count() - edb.count()
        for name, result in results.items()
    }
    q_facts = {
        name: set(result.facts("q")) for name, result in results.items()
    }
    assert q_facts["original"] == q_facts["balbin"] == q_facts["semantic"]
    assert counts["semantic"] <= counts["balbin"] <= counts["original"]
    assert results["semantic"].count("p2") <= results["balbin"].count(
        "p2"
    )
