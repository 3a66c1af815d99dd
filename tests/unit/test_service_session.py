"""The service session: compile-once, warm reuse, isolation, budgets."""

import pytest

from repro import obs
from repro.driver import answer_query, run_text
from repro.engine.facts import Fact
from repro.governor import Budget
from repro.lang.parser import parse_program, parse_query
from repro.planner import plan_query
from repro.service import Engine, canonicalize

FLIGHTS_TEXT = """
cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost),
                                Cost > 0, Time > 0.
flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                      T = T1 + T2 + 30, C = C1 + C2.
singleleg(madison, chicago, 50, 100).
singleleg(chicago, seattle, 150, 40).
singleleg(chicago, dallas, 90, 80).
"""

ALL_STRATEGIES = ("none", "pred", "qrp", "rewrite", "magic", "optimal")


def own_form(text):
    return str(canonicalize(parse_query(text))[0])


def tracked_engine(strategy="rewrite", **options):
    tracer = obs.Tracer()
    with obs.recording(tracer):
        engine = Engine.from_text(
            FLIGHTS_TEXT, strategy=strategy, **options
        )
    return engine, tracer


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
class TestCompileOnce:
    def test_same_form_compiles_exactly_once(self, strategy):
        """The acceptance criterion: two same-form queries with
        different constants compile once; the hit's answers equal a
        cold ``run_text`` run."""
        tracer = obs.Tracer()
        with obs.recording(tracer):
            engine = Engine.from_text(FLIGHTS_TEXT, strategy=strategy)
            first = engine.query(
                "?- cheaporshort(madison, seattle, T, C)."
            )
            second = engine.query(
                "?- cheaporshort(madison, dallas, T, C)."
            )
        counters = tracer.metrics.counters
        assert counters.get("service.form_compiles") == 1
        assert counters.get("service.cache_hits") == 1
        assert counters.get("service.cache_misses") == 1
        assert not first.cached and second.cached
        for response, constants in (
            (first, "madison, seattle"), (second, "madison, dallas")
        ):
            cold = run_text(
                FLIGHTS_TEXT
                + f"?- cheaporshort({constants}, T, C).",
                strategy=strategy,
            )
            assert response.answer_strings == cold[0].answer_strings
            assert response.completeness == "complete"

    def test_repeat_query_is_a_warm_hit(self, strategy):
        engine, __ = tracked_engine(strategy)
        query = "?- cheaporshort(madison, seattle, T, C)."
        cold = engine.query(query)
        warm = engine.query(query)
        assert not cold.warm
        assert warm.warm and warm.cached
        assert warm.answer_strings == cold.answer_strings


@pytest.mark.parametrize("strategy", ("magic", "optimal"))
class TestSeedsAsDeltas:
    """A magic form keeps one database; new seeds enter it as deltas."""

    PAIRS = ("madison, seattle", "madison, dallas", "chicago, dallas")

    @staticmethod
    def cold(constants, strategy, extra=""):
        return run_text(
            FLIGHTS_TEXT + extra
            + f"?- cheaporshort({constants}, T, C).",
            strategy=strategy,
        )[0].answer_strings

    def test_second_seed_resumes_the_one_warm_database(self, strategy):
        engine, tracer = tracked_engine(strategy)
        with obs.recording(tracer):
            first, *later = [
                engine.query(f"?- cheaporshort({pair}, T, C).")
                for pair in self.PAIRS
            ]
            repeats = [
                engine.query(f"?- cheaporshort({pair}, T, C).")
                for pair in self.PAIRS
            ]
        assert not first.warm
        for response, pair in zip(later, self.PAIRS[1:]):
            assert response.warm and response.resumed
            assert response.answer_strings == self.cold(pair, strategy)
        # Asked again, every seed is a pure hit on the same database:
        # nothing evaluated, and no other seed's answers leak in.
        for response, pair in zip(repeats, self.PAIRS):
            assert response.warm and not response.resumed
            assert response.eval_stats is None
            assert response.answer_strings == self.cold(pair, strategy)
        counters = tracer.metrics.counters
        assert counters.get("service.resumes") == 2
        assert counters.get("service.warm_hits") == 3
        assert engine.stats()["cache"]["warm_states"] == 1

    def test_seed_and_load_fold_in_together(self, strategy):
        engine, __ = tracked_engine(strategy)
        engine.query("?- cheaporshort(madison, seattle, T, C).")
        extra = "singleleg(dallas, reno, 10, 20).\n"
        engine.add_facts(extra)
        response = engine.query("?- cheaporshort(chicago, reno, T, C).")
        assert response.warm and response.resumed
        assert response.answer_strings
        assert response.answer_strings == self.cold(
            "chicago, reno", strategy, extra
        )
        # The earlier seed sees the load too, with nothing left to do.
        again = engine.query("?- cheaporshort(madison, reno, T, C).")
        assert again.answer_strings == self.cold(
            "madison, reno", strategy, extra
        )

    def test_truncated_injection_drops_the_accumulated_state(
        self, strategy
    ):
        engine, __ = tracked_engine(strategy, on_limit="truncate")
        engine.query("?- cheaporshort(madison, seattle, T, C).")
        engine.query("?- cheaporshort(madison, dallas, T, C).")
        engine.session._budget = Budget(max_facts=0)
        starved = engine.query("?- cheaporshort(chicago, dallas, T, C).")
        assert starved.ok and starved.resumed
        assert starved.completeness.startswith("truncated:")
        assert engine.stats()["cache"]["warm_states"] == 0
        engine.session._budget = None
        # Every earlier seed went with it: the rebuild is cold.
        healthy = engine.query("?- cheaporshort(madison, seattle, T, C).")
        assert not healthy.warm and healthy.completeness == "complete"
        assert healthy.answer_strings == self.cold(
            "madison, seattle", strategy
        )


class TestSharedCompiles:
    """Forms that compile alike share one compile and one warm database.

    Without ``mg`` a compile reads the query predicate alone, so every
    form of it is one cache entry; the magic strategies key on the form.
    """

    FORMS = (
        "?- cheaporshort(madison, seattle, T, C).",
        "?- cheaporshort(S, dallas, T, C).",
        "?- cheaporshort(S, D, T, C), C <= 150.",
    )
    LOADS = (
        "singleleg(dallas, reno, 10, 20).\n",
        "singleleg(seattle, dallas, 30, 10).\n",
    )

    @staticmethod
    def fresh(strategy, query, loads=()):
        """The answers of a new session asked only ``query``."""
        engine = Engine.from_text(
            FLIGHTS_TEXT + "".join(loads), strategy=strategy
        )
        return sorted(engine.query(query).answer_strings)

    def run(self, engine, tracer, steps):
        """Run queries and loads in order; check every answer fresh.

        Only the session's own requests are recorded on ``tracer``.
        Each response names its own form, not the one whose compile
        it shares.
        """
        loaded, responses = [], []
        for step in steps:
            if step.startswith("?-"):
                with obs.recording(tracer):
                    response = engine.query(step)
                assert sorted(response.answer_strings) == self.fresh(
                    engine.session.strategy, step, loaded
                ), step
                assert response.form == own_form(step)
                responses.append(response)
            else:
                assert engine.add_facts(step).added == 1
                loaded.append(step)
        return responses

    @pytest.mark.parametrize("strategy", ("none", "pred", "qrp", "rewrite"))
    def test_forms_of_one_predicate_share_one_entry(self, strategy):
        first, second, third = self.FORMS
        engine, tracer = tracked_engine(strategy)
        responses = self.run(engine, tracer, [
            first, self.LOADS[0], second, first,
            self.LOADS[1], third, second, first,
        ])
        assert tracer.metrics.counters.get("service.form_compiles") == 1
        cache = engine.stats()["cache"]
        assert (cache["entries"], cache["warm_states"]) == (1, 1)
        assert [r.cached for r in responses] == [False] + [True] * 5
        # One database serves them all: only the first ran cold.
        assert [r.warm for r in responses] == [False] + [True] * 5

    @pytest.mark.parametrize("strategy", ("magic", "optimal"))
    def test_magic_adornments_get_separate_entries(self, strategy):
        first, second, __ = self.FORMS
        engine, tracer = tracked_engine(strategy)
        self.run(engine, tracer, [
            first, second, self.LOADS[0], first, second,
            "?- cheaporshort(chicago, dallas, T, C).",
        ])
        assert tracer.metrics.counters.get("service.form_compiles") == 2
        cache = engine.stats()["cache"]
        assert (cache["entries"], cache["warm_states"]) == (2, 2)
        adornments = {
            entry.compiled.form.adornment
            for entry in engine.session.cache.entries()
        }
        assert adornments == {"bbff", "fbff"}

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_two_predicates_never_share(self, strategy):
        # Same arity: only the predicate tells the two keys apart.
        engine, tracer = tracked_engine(strategy)
        self.run(engine, tracer, [
            self.FORMS[0],
            "?- flight(madison, seattle, T, C).",
            self.LOADS[0],
            "?- flight(S, D, T, C).",
            self.FORMS[1],
        ])
        # Under magic each adornment is an entry of its own as well.
        expected = 4 if strategy in ("magic", "optimal") else 2
        assert len(engine.session.cache) == expected

    def test_auto_strategies_never_share(self):
        """Forms the planner gives different strategies, one entry each.

        A city constant reaches the recursive ``flight``, so both bound
        forms get ``magic`` (a key per form); the free forms get
        ``none`` (one key for the predicate).
        """
        from repro.driver import split_edb

        engine, tracer = tracked_engine("auto")
        rules, __ = split_edb(parse_program(FLIGHTS_TEXT))
        free = "?- cheaporshort(S, D, T, C)."
        steps = [
            self.FORMS[0], self.FORMS[1], self.LOADS[0],
            self.FORMS[2], self.FORMS[1], free,
        ]
        responses = self.run(engine, tracer, steps)
        assert [
            plan_query(rules, parse_query(step)).strategy
            for step in steps if step.startswith("?-")
        ] == ["magic", "magic", "none", "magic", "none"]
        assert tracer.metrics.counters.get("service.form_compiles") == 3
        assert sorted(
            entry.compiled.strategy
            for entry in engine.session.cache.entries()
        ) == ["magic", "magic", "none"]
        # A repeat and a second free form hit; nothing crosses a pick.
        assert [r.cached for r in responses] == [
            False, False, False, True, True
        ]

    def test_worker_q_start_names_the_requests_own_form(self):
        from repro.driver import split_edb
        from repro.shard.partition import build_plan
        from repro.shard.worker import ShardWorker

        rules, edb = split_edb(parse_program(FLIGHTS_TEXT))
        plan, __ = build_plan(rules, edb, 1)
        worker = ShardWorker({
            "op": "hello", "shard": 0, "program": FLIGHTS_TEXT,
            "plan": plan.describe(), "strategy": "rewrite",
        })
        for number, text in enumerate(self.FORMS):
            reply = worker.handle(
                {"op": "q_start", "qid": f"q{number}", "query": text}
            )
            assert reply["ok"] and reply["cached"] == (number > 0)
            assert reply["form"] == own_form(text)


class TestIncrementalFacts:
    def test_add_facts_reaches_existing_warm_database(self):
        engine, __ = tracked_engine()
        query = "?- cheaporshort(seattle, portland, T, C)."
        assert engine.query(query).answer_strings == []
        added = engine.add_facts(
            "singleleg(seattle, portland, 60, 20)."
        )
        assert added.ok and added.added == 1
        response = engine.query(query)
        assert response.resumed and response.warm
        cold = run_text(
            FLIGHTS_TEXT
            + "singleleg(seattle, portland, 60, 20).\n"
            + query,
            strategy="rewrite",
        )
        assert response.answer_strings == cold[0].answer_strings

    @pytest.mark.parametrize("strategy", ("rewrite", "optimal"))
    def test_flights_network_incremental_equals_from_scratch(
        self, strategy
    ):
        """Regression on the flights workload: incremental loads then a
        re-query must equal a from-scratch evaluation of the full EDB."""
        from repro.workloads.flights import (
            flight_network,
            flights_program,
        )

        network = flight_network(
            n_layers=4, width=2, expensive_fraction=0.3, seed=7
        )
        legs = [
            Fact.ground("singleleg", leg) for leg in network.legs
        ]
        split = len(legs) // 2
        query_text = (
            f"?- cheaporshort({network.source}, "
            f"{network.destination}, T, C)."
        )
        engine = Engine(flights_program(), strategy=strategy)
        engine.add_facts(legs[:split])
        engine.query(query_text)              # leaves a warm state
        engine.add_facts(legs[split:])
        incremental = engine.query(query_text)
        assert incremental.resumed
        scratch = answer_query(
            flights_program(),
            parse_query(query_text),
            network.database,
            strategy=strategy,
        )
        assert (
            incremental.answer_strings == scratch.answer_strings
        )

    def test_duplicate_facts_do_not_bump_the_epoch(self):
        engine, __ = tracked_engine()
        response = engine.add_facts(
            "singleleg(madison, chicago, 50, 100)."
        )
        assert response.ok and response.added == 0
        assert engine.session.epoch == 0

    def test_derived_predicate_facts_are_rejected(self):
        engine, __ = tracked_engine()
        response = engine.add_facts("flight(a, b, 10, 10).")
        assert not response.ok
        assert response.error_code == "REPRO_USAGE"
        # The session survives the rejection.
        assert engine.query(
            "?- cheaporshort(madison, seattle, T, C)."
        ).ok


class TestErrorIsolation:
    def test_parse_error_reports_code_and_session_survives(self):
        engine, __ = tracked_engine()
        bad = engine.query("?- cheaporshort(madison,")
        assert not bad.ok and bad.error_code == "REPRO_PARSE"
        good = engine.query(
            "?- cheaporshort(madison, seattle, T, C)."
        )
        assert good.ok and good.answer_strings

    def test_unknown_predicate_answers_empty(self):
        # No rule derives ``nosuch``: the database's answer, which is
        # empty, under every strategy (``test_edb_queries.py``).
        engine, __ = tracked_engine(strategy="optimal")
        response = engine.query("?- nosuch(X).")
        assert response.ok, response.error_message
        assert response.answers == []
        assert engine.query(
            "?- cheaporshort(madison, seattle, T, C)."
        ).ok

    def test_error_dict_shape(self):
        engine, __ = tracked_engine()
        payload = engine.query("?- broken(((").to_dict()
        assert payload["type"] == "error"
        assert payload["code"] == "REPRO_PARSE"
        assert payload["message"]


class TestBudgets:
    QUERY = "?- cheaporshort(madison, seattle, T, C)."

    def test_truncate_degrades_and_session_stays_usable(self):
        """The acceptance criterion: a budget-exhausted request
        degrades per on_limit and the next request still works."""
        engine = Engine.from_text(
            FLIGHTS_TEXT,
            strategy="rewrite",
            budget=Budget(max_facts=2),
            on_limit="truncate",
        )
        starved = engine.query(self.QUERY)
        assert starved.ok
        assert starved.completeness.startswith("truncated:")
        # Budgets are per request: the next one gets a fresh meter,
        # and the truncated evaluation was not kept warm.
        follow_up = engine.query(self.QUERY)
        assert follow_up.ok and not follow_up.warm

    def test_fail_reports_budget_code_and_session_stays_usable(self):
        engine = Engine.from_text(
            FLIGHTS_TEXT,
            strategy="rewrite",
            budget=Budget(max_facts=2),
            on_limit="fail",
        )
        failed = engine.query(self.QUERY)
        assert not failed.ok
        assert failed.error_code == "REPRO_BUDGET"
        # A sane budget afterwards works on the same session.
        assert engine.query(self.QUERY).error_code == "REPRO_BUDGET"
        assert engine.session.stats()["errors"] == 2

    def test_budget_snapshot_attached_to_responses(self):
        engine = Engine.from_text(
            FLIGHTS_TEXT, budget=Budget(max_facts=10_000)
        )
        response = engine.query(self.QUERY)
        assert response.ok and response.budget is not None
        assert "spent" in response.budget

    def test_truncated_warm_resume_is_not_reused(self):
        engine = Engine.from_text(
            FLIGHTS_TEXT,
            strategy="rewrite",
            budget=Budget(max_facts=60),
            on_limit="truncate",
        )
        first = engine.query(self.QUERY)
        assert first.ok and first.completeness == "complete"
        engine.add_facts("singleleg(dallas, reno, 10, 2000).")
        engine.session._budget = Budget(max_facts=0)
        starved = engine.query(self.QUERY)
        assert starved.ok and starved.completeness.startswith(
            "truncated:"
        )
        engine.session._budget = None
        healthy = engine.query(self.QUERY)
        assert healthy.ok and healthy.completeness == "complete"
        assert not healthy.warm  # the poisoned state was dropped


class TestStats:
    def test_stats_snapshot(self):
        engine, __ = tracked_engine()
        engine.query("?- cheaporshort(madison, seattle, T, C).")
        engine.query("?- cheaporshort(madison, dallas, T, C).")
        stats = engine.stats()
        assert stats["requests"] == 2
        assert stats["cache"]["entries"] == 1
        assert stats["cache"]["hits"] == 1
        assert stats["edb_facts"] == 3

    def test_program_text_queries_kept_aside(self):
        engine = Engine.from_text(
            FLIGHTS_TEXT + "?- cheaporshort(madison, seattle, T, C)."
        )
        assert len(engine.initial_queries) == 1
        assert engine.stats()["requests"] == 0

    def test_add_ground(self):
        engine, __ = tracked_engine()
        response = engine.add_ground(
            "singleleg", ("reno", "tulsa", 30, 20)
        )
        assert response.ok and response.added == 1


def test_session_rejects_unknown_strategy():
    from repro.errors import UsageError

    with pytest.raises(UsageError):
        Engine(parse_program("p(X) :- e(X)."), strategy="wat")
    with pytest.raises(UsageError):
        Engine(parse_program("p(X) :- e(X)."), on_limit="wat")
