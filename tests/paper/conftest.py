"""One module per paper table/figure/example, checked as counts and shapes.

The paper reports no timings: its currency is derivations, facts and
iterations.  Each module regenerates one artefact and asserts its
*shape* (who computes fewer facts, what terminates, where the crossover
falls).  Clocks belong to ``benchmarks/perf/run.py``.
"""

from __future__ import annotations

import pytest

from repro.engine import Database


@pytest.fixture
def graph_edb_71():
    """A b1/b2 EDB where the X <= 4 selection is strongly selective."""
    b1 = [(9, 100), (8, 200), (1, 0), (3, 300)]
    chain = [(100 + i, 101 + i) for i in range(12)]
    chain += [(200 + i, 201 + i) for i in range(12)]
    chain += [(0, 1), (1, 2), (300, 301)]
    return Database.from_ground({"b1": b1, "b2": chain})
