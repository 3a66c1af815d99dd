"""A refresh costs in proportion to its delta, not to the database.

Counts, not clocks.  On flights ``rewrite`` sessions over 3-layer
networks of width 4, 8 and 12 (32, 128 and 288 legs), a loaded leg is
folded into the warm state through ``engine.resume``.  A leg the
rewrite proves irrelevant (time > 240 and cost > 150, Example 4.3)
must cost the same number of join probes at every width -- none: its
only delta variant finds the leg outside the pushed range and every
other variant is skipped for want of a delta.  A relevant leg's probes
must follow its own derivations, whatever the network holds.  The same
goes for one ``resume(max_iterations=1, assume_delta=True)`` step, the
unit a shard exchange round is made of.

A change that brings back a database-sized scan per refresh (a
variant joined from its large end, an empty delta not skipped) fails
here under its own name rather than as a slow benchmark.
"""

import pytest

from repro.engine import evaluate
from repro.engine.facts import Fact
from repro.engine.fixpoint import resume
from repro.lang.ast import Program
from repro.lang.parser import parse_program, parse_query
from repro.service.session import Session
from repro.workloads.flights import flight_network, flights_program

WIDTHS = (4, 8, 12)
#: Probes a relevant refresh may spend per derivation it makes (the
#: delta fact, then one candidate per derivation: about 2).
PROBES_PER_DERIVATION = 3


def _session(width: int):
    network = flight_network(
        n_layers=3, width=width, expensive_fraction=0.4, seed=5
    )
    legs = "\n".join(
        f"singleleg({src}, {dst}, {time}, {cost})."
        for src, dst, time, cost in network.legs
    )
    program = Program([*flights_program(), *parse_program(legs)])
    query = parse_query(f"?- cheaporshort({network.source}, D, T, C).")
    return Session(program, strategy="rewrite"), query, network


def _leg(network, time: int, cost: int) -> Fact:
    return Fact.ground(
        "singleleg",
        (network.layers[0][0], network.layers[1][1], time, cost),
    )


def _refresh(session, query, leg):
    """Load one leg, re-query; the refresh's ``EvalStats``."""
    session.add_facts([leg])
    response = session.query(query)
    assert response.ok and response.resumed
    return response.eval_stats


def test_session_refresh_probes_are_scale_free():
    irrelevant, relevant, sizes = [], [], []
    for width in WIDTHS:
        session, query, network = _session(width)
        assert session.query(query).ok
        sizes.append(session.edb.count())
        irrelevant.append(_refresh(session, query, _leg(network, 300, 200)))
        relevant.append(_refresh(session, query, _leg(network, 33, 22)))
    assert sizes == sorted(sizes) and sizes[-1] >= 8 * sizes[0]
    assert [stats.probes for stats in irrelevant] == [0, 0, 0]
    assert [stats.derivations for stats in irrelevant] == [0, 0, 0]
    for stats in relevant:
        assert stats.derivations > 0
        assert stats.probes <= PROBES_PER_DERIVATION * stats.derivations
    # The largest network's refresh probes far fewer facts than it holds.
    assert relevant[-1].probes < sizes[-1] / 2


@pytest.mark.parametrize("time,cost", [(300, 200), (33, 22)])
def test_exchange_step_probes_are_scale_free(time, cost):
    """One exchange round at a time, as ``shard/worker.py`` steps it."""
    per_width = []
    for width in WIDTHS:
        session, query, network = _session(width)
        entry, __, __ = session.prepare(query)
        program, __ = entry.compiled.specialize(query)
        result = evaluate(program, session.edb)
        assert result.reached_fixpoint
        stamp = result.stats.iterations
        incoming = [_leg(network, time, cost)]
        rounds = []
        while True:
            step = resume(
                program, result.database, incoming, start_stamp=stamp,
                max_iterations=1, assume_delta=True,
            )
            rounds.append((step.stats.probes, step.stats.derivations))
            if not step.stats.new_facts:
                break
            incoming = []
            stamp += 1
        per_width.append(rounds)
    if (time, cost) == (300, 200):
        # Irrelevant: one round, nothing probed, at every width.
        assert per_width == [[(0, 0)]] * len(WIDTHS)
        return
    for rounds in per_width:
        assert len(rounds) > 1
        for probes, derivations in rounds:
            assert probes <= PROBES_PER_DERIVATION * max(derivations, 1)
