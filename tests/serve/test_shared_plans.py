"""Concurrent evaluations over shared rule plans.

``serve`` workers evaluate the same session at once under the read
lock, and since the rule plans became a per-process memo
(``engine.ruleeval._compile``) those evaluations share every plan.  A
plan must therefore carry no per-run state: were ``probes`` or the
join's variable slots hung on it, two interleaved runs would count
each other's candidates or read each other's bindings.  The one thing
a plan does gain after it is built is the steps of a join order,
filled in by whichever run first starts a join from that literal; the
memo is emptied before the threads start so that they
race to compile the plans and to fill those in.  Each thread here must
report exactly the single-threaded run's ``stats`` and facts, with the
interpreter switching threads as often as it can.
"""

from __future__ import annotations

import sys
import threading

from repro.core.rewrite import constraint_rewrite
from repro.engine import evaluate
from repro.engine.ruleeval import RuleEvaluator, _compile
from repro.lang.normalize import normalize_program
from repro.workloads.flights import flight_network, flights_program

THREADS = 4  # more than the sandbox's cores
RUNS_EACH = 3
JOIN_TIMEOUT = 120.0


def _signature(result) -> tuple:
    stats = result.stats
    return (
        stats.probes, stats.derivations, stats.new_facts,
        stats.iterations,
        [str(derivation) for log in result.iterations
         for derivation in log.derivations],
        sorted(map(str, result.database.all_facts())),
    )


def test_threads_sharing_plans_report_the_single_threaded_run():
    program = constraint_rewrite(
        flights_program(), "cheaporshort"
    ).program
    edb = flight_network(
        n_layers=4, width=3, expensive_fraction=0.4, seed=42
    ).database
    expected = _signature(evaluate(program, edb, max_iterations=60))
    # The plans really are shared: one object per rule, process-wide.
    rule = next(iter(normalize_program(program)))
    assert RuleEvaluator(rule)._plan is RuleEvaluator(rule)._plan
    _compile.cache_clear()

    start = threading.Barrier(THREADS)
    observed: list[tuple] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    def worker() -> None:
        try:
            start.wait(timeout=JOIN_TIMEOUT)
            for __ in range(RUNS_EACH):
                found = _signature(
                    evaluate(program, edb, max_iterations=60)
                )
                with lock:
                    observed.append(found)
        except BaseException as error:  # reported by the main thread
            with lock:
                errors.append(error)

    threads = [threading.Thread(target=worker) for __ in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(observed) == THREADS * RUNS_EACH
    assert all(found == expected for found in observed)
