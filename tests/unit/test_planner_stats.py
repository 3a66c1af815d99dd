"""Unit tests for the planner's EDB statistics collector.

Cardinalities, distinct counts and value intervals are true counts
over the stored facts, the mode count really is the largest
single-value frequency, and the snapshot fingerprint -- what persisted
planner records are keyed on -- is a deterministic function of the
collected shape.  The flights and graph workload generators give known
distributions to pin those counts down.
"""

from fractions import Fraction

from repro.engine import Database
from repro.planner.stats import ColumnStats, collect_stats
from repro.workloads.flights import flight_network
from repro.workloads.graphs import chain_edges


def frac(value: int) -> Fraction:
    return Fraction(value)


class TestColumnStats:
    def column(self, values) -> ColumnStats:
        from repro.planner.stats import _column_stats

        return _column_stats(values)

    def test_counts_exact_on_chain(self):
        values = [frac(v) for v, __ in chain_edges(10)]
        column = self.column(values)
        assert column.distinct == 10
        assert column.minimum == frac(0)
        assert column.maximum == frac(9)
        assert column.mode_count == 1

    def test_mode_count_is_largest_frequency(self):
        column = self.column(
            [frac(1), frac(1), frac(1), frac(2), frac(3)]
        )
        assert column.mode_count == 3


class TestCollectStats:
    def test_empty_database(self):
        stats = collect_stats(None)
        assert stats.total_facts == 0
        assert stats.relations == {}
        assert stats.relation("anything") is None

    def test_chain_graph_counts(self):
        edb = Database.from_ground({"edge": chain_edges(12)})
        stats = collect_stats(edb)
        relation = stats.relation("edge")
        assert relation is not None
        assert relation.cardinality == 12
        assert relation.arity == 2
        assert stats.total_facts == 12
        # Chain columns are all-distinct.
        for column in relation.columns:
            assert column.distinct == 12
            assert column.mode_count == 1
        assert relation.columns[0].minimum == frac(0)
        assert relation.columns[1].maximum == frac(12)

    def test_flights_network_counts(self):
        network = flight_network(n_layers=4, width=4, seed=1)
        stats = collect_stats(network.database)
        relation = stats.relation("singleleg")
        assert relation is not None
        # 3 inter-layer gaps x 4 sources x 4 destinations.
        assert relation.cardinality == 48
        assert relation.arity == 4
        # City columns are symbolic; time/cost columns numeric.
        assert relation.columns[0].minimum is None
        assert relation.columns[2].minimum is not None
        # Every source city appears once per destination of one gap.
        assert relation.columns[0].mode_count == 4

    def test_fingerprint_deterministic_and_shape_sensitive(self):
        edb = Database.from_ground({"edge": chain_edges(8)})
        again = Database.from_ground({"edge": chain_edges(8)})
        grown = Database.from_ground({"edge": chain_edges(9)})
        assert (
            collect_stats(edb).fingerprint()
            == collect_stats(again).fingerprint()
        )
        assert (
            collect_stats(edb).fingerprint()
            != collect_stats(grown).fingerprint()
        )
        # Snapshots persist records keyed on this digest: it must not
        # change between releases.
        assert collect_stats(edb).fingerprint() == "9b24442e289b"

    def test_as_dict_is_json_ready(self):
        import json

        edb = Database.from_ground({"edge": chain_edges(3)})
        document = collect_stats(edb).as_dict()
        json.dumps(document)
        assert document["total_facts"] == 3
        assert document["relations"]["edge"]["cardinality"] == 3
