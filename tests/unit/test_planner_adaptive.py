"""Unit tests for the adaptive planner's probe/converge/re-plan loop.

The loop is driven here two ways: synthetically (``decide``/``observe``
called directly with fabricated wall-clock seconds, so convergence and
divergence are exact) and through a real ``Session(strategy="auto")``
(so the service integration -- per-form records on cache entries,
``note_facts`` refresh, the ``planner`` stats block -- is covered end
to end).
"""

from repro.driver import split_edb
from repro.engine import Database
from repro.lang.parser import parse_program, parse_query
from repro.planner import AdaptivePlanner
from repro.service.session import Session
from repro.workloads.graphs import chain_edges


def chain_setup():
    program = parse_program(
        """
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
        """
    ).relabeled()
    edb = Database.from_ground({"edge": chain_edges(8)})
    rules, __ = split_edb(program)
    return rules, edb, parse_query("?- path(0, Y).")


def drive_to_convergence(
    planner: AdaptivePlanner,
    query,
    seconds: dict[str, float],
    form: str = "f",
    limit: int = 64,
) -> str:
    """Feed fabricated warm seconds until the form converges."""
    for __ in range(limit):
        strategy = planner.decide(form, query)
        record = planner.record(form)
        if record.state == "converged":
            return strategy
        planner.observe(form, strategy, seconds[strategy], cold=False)
    raise AssertionError("planner never converged")


class TestSyntheticLoop:
    def planner(self, **options) -> tuple[AdaptivePlanner, object]:
        rules, edb, query = chain_setup()
        planner = AdaptivePlanner(rules, edb, probe_runs=2, **options)
        return planner, query

    def test_probes_every_candidate_then_converges_to_cheapest(self):
        planner, query = self.planner()
        first = planner.decide("f", query)
        record = planner.record("f")
        assert record.state == "probing"
        # The pick probes first, then the fixed strategies.
        assert first == record.plan.strategy == "magic"
        assert record.candidates == ("magic", "none", "rewrite")
        seconds = {
            name: 0.01 if name == record.candidates[-1] else 0.5
            for name in record.candidates
        }
        chosen = drive_to_convergence(planner, query, seconds)
        assert chosen == record.candidates[-1]
        record = planner.record("f")
        assert record.state == "converged"
        for name in record.candidates:
            assert record.observations[name].runs == 2

    def test_cold_runs_are_recorded_but_not_compared(self):
        planner, query = self.planner()
        strategy = planner.decide("f", query)
        planner.observe("f", strategy, 99.0, cold=True)
        record = planner.record("f")
        observation = record.observations[strategy]
        assert observation.cold_runs == 1
        assert observation.runs == 0
        assert record.state == "probing"

    def test_divergence_marks_stale_and_replans(self):
        planner, query = self.planner(divergence=2.0)
        planner.decide("f", query)
        seconds = dict.fromkeys(
            planner.record("f").candidates, 0.01
        )
        chosen = drive_to_convergence(planner, query, seconds)
        baseline_record = planner.record("f")
        assert baseline_record.state == "converged"
        # The converged strategy suddenly runs far over its baseline.
        for __ in range(16):
            planner.observe("f", chosen, 10.0, cold=False)
            if planner.record("f").stale:
                break
        record = planner.record("f")
        assert record.stale
        assert record.replans == 1
        # The next decide re-plans: a fresh probing record.
        planner.decide("f", query)
        record = planner.record("f")
        assert record.state == "probing"
        assert not record.stale
        assert record.replans == 1  # carried across the re-plan

    def test_sub_millisecond_noise_never_triggers_replan(self):
        # A warm cache hit's baseline is a fraction of a millisecond;
        # scheduler hiccups routinely multiply that by far more than
        # the divergence factor.  Below REPLAN_NOISE_FLOOR those spikes
        # must not trip a re-plan -- re-probing would cost orders of
        # magnitude more than any re-plan could recover.
        planner, query = self.planner(divergence=2.0)
        planner.decide("f", query)
        seconds = dict.fromkeys(
            planner.record("f").candidates, 0.0002
        )
        chosen = drive_to_convergence(planner, query, seconds)
        for __ in range(32):
            planner.observe("f", chosen, 0.002, cold=False)
        record = planner.record("f")
        assert not record.stale
        assert record.replans == 0
        assert record.state == "converged"

    def test_note_facts_refreshes_stats_past_growth(self):
        rules, edb, query = chain_setup()
        planner = AdaptivePlanner(rules, edb, growth=2.0)
        planner.decide("f", query)
        before = planner.stats()["edb_fingerprint"]
        assert planner.stats()["stats_refreshes"] == 0
        # Grow the EDB past the 2x threshold and tell the planner.
        from repro.engine.facts import Fact

        edb.insert_many(
            [
                Fact.ground("edge", (100 + i, 101 + i))
                for i in range(99)
            ]
        )
        planner.note_facts(99)
        planner.decide("f", query)
        summary = planner.stats()
        assert summary["stats_refreshes"] == 1
        assert summary["edb_fingerprint"] != before

    def test_small_growth_does_not_refresh(self):
        rules, edb, query = chain_setup()
        planner = AdaptivePlanner(rules, edb, growth=2.0)
        planner.decide("f", query)
        planner.note_facts(1)
        planner.decide("f", query)
        assert planner.stats()["stats_refreshes"] == 0

    def test_stats_block_is_json_ready(self):
        import json

        planner, query = self.planner()
        planner.decide("f", query)
        json.dumps(planner.stats())


class TestSessionIntegration:
    def program_text(self) -> str:
        edges = "\n".join(
            f"edge({a}, {b})." for a, b in chain_edges(8)
        )
        return (
            """
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            """
            + edges
        )

    def test_auto_session_converges_and_answers_stably(self):
        program = parse_program(self.program_text()).relabeled()
        session = Session(program, strategy="auto")
        query = parse_query("?- path(0, Y).")
        baseline = None
        for __ in range(12):
            response = session.query(query)
            assert response.ok, response.error_message
            answers = sorted(response.answer_strings)
            if baseline is None:
                baseline = answers
            assert answers == baseline
        summary = session.stats()["planner"]
        assert summary["forms"] == 1
        assert summary["converged"] == 1
        # Fixed-strategy sessions carry no planner block.
        fixed = Session(program, strategy="rewrite")
        assert "planner" not in fixed.stats()
        assert fixed.planner is None

    def test_auto_matches_fixed_strategy_answers(self):
        program = parse_program(self.program_text()).relabeled()
        query = parse_query("?- path(0, Y).")
        auto = Session(program, strategy="auto").query(query)
        fixed = Session(program, strategy="rewrite").query(query)
        assert auto.ok and fixed.ok
        assert sorted(auto.answer_strings) == sorted(
            fixed.answer_strings
        )

    def test_plan_record_lands_on_cache_entry(self):
        program = parse_program(self.program_text()).relabeled()
        session = Session(program, strategy="auto")
        query = parse_query("?- path(0, Y).")
        session.query(query)
        entries = list(session.cache.entries())
        assert len(entries) == 1
        record = entries[0].plan_record
        assert record is not None
        assert record.plan.strategy in record.candidates

    def test_add_facts_reaches_planner(self):
        program = parse_program(self.program_text()).relabeled()
        session = Session(program, strategy="auto")
        query = parse_query("?- path(0, Y).")
        first = session.query(query)
        from repro.engine.facts import Fact

        session.add_facts(
            [Fact.ground("edge", (100 + i, 101 + i)) for i in range(40)]
        )
        second = session.query(query)
        assert second.ok
        summary = session.stats()["planner"]
        assert summary["stats_refreshes"] >= 1
        assert first.ok


class TestPersistence:
    """export_records/restore_records: the probe phase survives restart."""

    def converged_planner(self) -> tuple[AdaptivePlanner, object]:
        rules, edb, query = chain_setup()
        planner = AdaptivePlanner(rules, edb, probe_runs=1)
        planner.decide("f", query)
        seconds = dict.fromkeys(planner.record("f").candidates, 0.2)
        drive_to_convergence(planner, query, seconds)
        return planner, query

    def fresh_planner(self) -> AdaptivePlanner:
        rules, edb, __ = chain_setup()
        return AdaptivePlanner(rules, edb, probe_runs=1)

    def test_only_converged_records_export(self):
        planner, query = self.converged_planner()
        planner.decide("g", parse_query("?- path(1, Y)."))  # probing
        exported = planner.export_records()
        assert [record["form"] for record in exported] == ["f"]
        record = exported[0]
        assert record["strategy"] == planner.record("f").chosen
        assert record["fingerprint"]
        assert record["observations"]

    def test_exported_records_are_json_round_trippable(self):
        import json

        planner, __ = self.converged_planner()
        exported = planner.export_records()
        assert json.loads(json.dumps(exported)) == exported

    def test_restore_skips_the_probe_phase(self):
        planner, query = self.converged_planner()
        exported = planner.export_records()
        chosen = planner.record("f").chosen

        restarted = self.fresh_planner()
        assert restarted.restore_records(exported) == (1, 0)
        record = restarted.record("f")
        assert record.state == "converged"
        assert record.chosen == chosen
        # The very first decision serves the converged strategy --
        # no probing of runners-up.
        assert restarted.decide("f", query) == chosen

    def test_fingerprint_mismatch_discards_the_record(self):
        planner, __ = self.converged_planner()
        exported = planner.export_records()

        from repro.engine.facts import Fact

        rules, edb, __ = chain_setup()
        edb.insert_many([Fact.ground("edge", (50, 51))])
        restarted = AdaptivePlanner(rules, edb, probe_runs=1)
        assert restarted.restore_records(exported) == (0, 1)
        assert restarted.record("f") is None

    def test_malformed_records_are_discarded_not_fatal(self):
        restarted = self.fresh_planner()
        fingerprint = restarted.export_records  # just to have planner
        current = restarted.snapshot().fingerprint()
        mangled = [
            {"form": "x"},  # missing everything else
            {"form": "y", "strategy": "rewrite",
             "fingerprint": current, "query": "not a query"},
            "not even a dict",
            # Exported by the cost-model planner: its baseline is in
            # model units, not seconds, so the form must re-probe.
            {"form": "z", "query": "?- path(0, Y).",
             "strategy": "magic", "fingerprint": current,
             "baseline": 83.4, "ewma": 83.4, "replans": 0,
             "observations": {
                 "magic": {"runs": 2, "cold_runs": 1,
                           "total_scalar": 166.8,
                           "total_seconds": 0.004}}},
        ]
        restored, discarded = restarted.restore_records(mangled)
        assert restored == 0
        assert discarded == 4
        assert restarted.record("z") is None
        assert fingerprint() == []

    def test_restored_ewma_still_drives_divergence(self):
        planner, query = self.converged_planner()
        exported = planner.export_records()

        rules, edb, __ = chain_setup()
        restarted = AdaptivePlanner(
            rules, edb, probe_runs=1, divergence=2.0
        )
        restarted.restore_records(exported)
        chosen = restarted.record("f").chosen
        # Feed observations far above the restored baseline: the
        # divergence watchdog must still fire on persisted state.
        for __ in range(64):
            restarted.observe("f", chosen, 1000.0, cold=False)
            if restarted.record("f").stale:
                break
        assert restarted.record("f").stale
