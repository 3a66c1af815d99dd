"""Table 1: derivations of ``P_fib^{mg}`` -- answers but never terminates.

Regenerates the per-iteration derivation rows of Table 1 and checks
their characteristic shape: the seed at iteration 0, the weakened
constraint fact ``m_fib(N1, V1; N1 > 0)`` at iteration 1, the answer
``fib(4, 5)`` at iteration 7, and *no fixpoint* within the cap.
"""

from repro.engine import evaluate
from repro.workloads.fib import fib_magic_program


def run_table1():
    magic = fib_magic_program(5, optimized=False)
    return evaluate(magic.program, max_iterations=9, provenance=True)


def test_table1_regeneration():
    result = run_table1()
    assert not result.reached_fixpoint
    rows = [
        {
            "iteration": log.number,
            "derivations": [str(d) for d in log.derivations],
        }
        for log in result.iterations
    ]
    # Shape checks against the paper's table.
    assert "m_fib($1, 5)" in rows[0]["derivations"][0]
    assert "$1 > 0" in rows[1]["derivations"][0]
    assert any("fib(4, 5)" in d for d in rows[7]["derivations"])
    assert any("fib(5, 8)" in d for d in rows[8]["derivations"])
