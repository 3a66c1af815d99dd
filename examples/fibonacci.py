#!/usr/bin/env python3
"""Backward Fibonacci (Examples 1.2 and 4.4): termination by propagation.

The query ``?- fib(N, 5)`` asks *which* N has Fibonacci number 5.  Magic
Templates alone produces a program whose bottom-up evaluation answers
the query but never terminates (Table 1): the magic facts
``m_fib(N, V)`` keep weakening forever.

Pushing the predicate constraint ``$2 >= 1`` (every Fibonacci number is
at least 1) into the recursive rule *before* the magic rewriting caps
the magic facts -- ``X1 <= 4`` and friends -- and the evaluation
terminates after computing the answer (Table 2).  The same machinery
answers ``?- fib(N, 6)`` with a terminating "no".

Run:  python examples/fibonacci.py [value]
"""

import sys

from repro import evaluate, is_predicate_constraint
from repro.workloads.fib import (
    fib_magic_program,
    fib_predicate_constraint,
    fib_program,
)


def show_trace(result, title: str) -> None:
    from repro.engine.report import render_derivation_table

    print(render_derivation_table(result, title=title))


def main(value: int = 5) -> None:
    print("P_fib:")
    print(fib_program())
    print()

    # The constraint we push is *verified*, not assumed: it is an
    # inductive predicate constraint of P_fib (Example 4.4 asserts it;
    # the minimum one is an infinite disjunction, Theorem 3.1 territory).
    assert is_predicate_constraint(
        fib_program(), {"fib": fib_predicate_constraint()}
    )

    unoptimized = fib_magic_program(value, optimized=False)
    print(f"Magic Templates only (query ?- fib(N, {value})):")
    print(unoptimized.program)
    result = evaluate(
        unoptimized.program, max_iterations=9, provenance=True
    )
    show_trace(result, "Table 1: derivations of P_fib^mg")
    assert not result.reached_fixpoint
    print()

    optimized = fib_magic_program(value, optimized=True)
    print("Predicate constraint $2 >= 1 pushed first, then magic:")
    print(optimized.program)
    result = evaluate(optimized.program, max_iterations=50, provenance=True)
    show_trace(result, "Table 2: derivations of P_fib^mg_1")
    assert result.reached_fixpoint
    answers = sorted(
        str(fact)
        for fact in result.facts("fib")
        if fact.args[1] == value
    )
    print(f"\nTerminated in {result.stats.iterations} iterations; "
          f"fib(N, {value}) answers: {answers or 'no'}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
