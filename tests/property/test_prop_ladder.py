"""One ladder: a tighter budget never buys a tighter program.

``pred``'s exact fixpoint diverges on ``P_fib`` (and on the bounded
``top``/``fib`` program of ``examples/widening.py``), so every run of
the step ends on the ladder of :mod:`repro.core.steps` -- by natural
divergence when it has the iterations, by a budget trip under ``widen``
when it has not.  Both must land on the same rung: the predicate
constraints the ``pred`` step attaches may not depend on how much
budget it was given.  (At ``df56d71`` ``apply_sequence`` widened to
*true* on divergence and to the interval hull on a budget trip, so
``Budget(max_rewrite_iterations=1)`` produced the *better* program.)
The later ``qrp`` step may legitimately be skipped under the shared
budget, hence the ``pred`` step is compared, not the whole program.

And one ladder means one answer: ``Constraint_rewrite``,
``apply_sequence(("pred",), adorn=False)`` and strategy ``pred`` attach
the same constraints to ``fib`` -- the strategy then drops the atoms
the step proved (``repro.core.prune``), the same ones on every path.
"""

from hypothesis import given, settings, strategies as st

from repro.core.pipeline import apply_sequence
from repro.core.prune import prune
from repro.core.rewrite import constraint_rewrite
from repro.core.steps import pred_step
from repro.driver import optimize
from repro.governor import Budget
from repro.governor import budget as governor
from repro.lang.parser import parse_program, parse_query
from repro.workloads.fib import FIB_PROGRAM_TEXT

PROGRAMS = {
    "fib": FIB_PROGRAM_TEXT,
    "top": FIB_PROGRAM_TEXT + "top(N, X) :- fib(N, X), X <= 5.\n",
}
FIB_BOUNDS = "($1 >= 0 & $2 >= 1)"


def _recursive_fib(program):
    """The constraints of the rules that call ``fib``, by head."""
    return sorted(
        (rule.head.pred, str(rule.constraint))
        for rule in program
        if any(literal.pred == "fib" for literal in rule.body)
    )


@given(
    st.sampled_from(sorted(PROGRAMS)),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=25),
)
@settings(max_examples=25, deadline=None)
def test_pred_step_ignores_how_much_budget_it_had(name, cap, iterations):
    program = parse_program(PROGRAMS[name])
    free = pred_step(program)
    assert free.fallbacks == ("pred:widened",)
    assert str(free.constraints["fib"]) == FIB_BOUNDS
    meter = Budget(max_rewrite_iterations=cap).meter()
    with governor.governed(meter):
        tight = pred_step(
            program, max_iterations=iterations, on_budget="widen"
        )
    assert tight.fallbacks == free.fallbacks
    assert tight.constraints == free.constraints
    assert tight.program == free.program


def test_one_ladder_one_answer():
    for name, query in (("fib", "?- fib(N, 5)."), ("top", "?- top(N, 5).")):
        program = parse_program(PROGRAMS[name])
        step = pred_step(program)
        rewrite = constraint_rewrite(program, name)
        assert "pred:widened" in rewrite.fallbacks
        assert (
            rewrite.predicate_constraints["fib"]
            == step.constraints["fib"]
        )
        sequence = apply_sequence(
            program, parse_query(query), ("pred",), adorn=False
        )
        assert sequence.fallbacks == ["pred:widened"]
        fallbacks: list[str] = []
        strategy, __, __ = optimize(
            program, parse_query(query), "pred", fallbacks=fallbacks
        )
        assert fallbacks == ["pred:widened"]
        assert sequence.proved == step.constraints
        assert _recursive_fib(sequence.program) == _recursive_fib(
            step.program
        )
        # The strategy runs the steps' program less what pred proved.
        assert _recursive_fib(strategy) == _recursive_fib(
            prune(step.program, step.constraints)
        )


def test_asserted_constraints_are_not_widened_over():
    """``given`` -- even an empty mapping -- means the caller supplied
    the predicate constraints; a diverging run then keeps its own sound
    result (*true* for ``fib``) rather than the interval hull."""
    program = parse_program(PROGRAMS["fib"])
    rewrite = constraint_rewrite(
        program, "fib", given_predicate_constraints={}
    )
    assert rewrite.fallbacks == ["pred:widened"]
    assert rewrite.predicate_constraints["fib"].is_true()
