"""Section 5 / Example 5.1: termination inside the decidable class.

The generation procedures must converge on class programs, far inside
the combinatorial bound ``n * 2^(2k^2+4k)`` (Theorem 5.1): Example 5.1
converges in two working iterations against a bound of 3 * 2^16.
"""

from repro.core.predconstraints import gen_predicate_constraints
from repro.core.qrp import gen_qrp_constraints
from repro.core.termination import in_terminating_class
from repro.lang.parser import parse_program


def test_example51_pred_convergence(example_51_program):
    constraints, report = gen_predicate_constraints(example_51_program)
    assert report.converged
    assert str(constraints["a"]) == "(-$1 + $2 <= 0)"


def test_class_scaling_with_predicates():
    """Convergence as the class program grows: a chain of n selection
    layers stays linear in n, not near the 2^(2k^2+4k) bound."""

    def build(n):
        lines = ["q(X, Y) :- a0(X, Y), X <= 4."]
        for i in range(n):
            lines.append(f"a{i}(X, Y) :- a{i + 1}(X, Y), Y <= X.")
        lines.append(f"a{n}(X, Y) :- e(X, Y).")
        return parse_program("\n".join(lines))

    iterations = []
    for n in (2, 4, 8):
        program = build(n)
        assert in_terminating_class(program)
        __, report = gen_qrp_constraints(program, "q")
        assert report.converged
        iterations.append((n, report.iterations))
    # Monotone growth bounded by depth + 2: the fixpoint needs one
    # round per layer, nowhere near the combinatorial bound.
    for n, i in iterations:
        assert i <= n + 3
