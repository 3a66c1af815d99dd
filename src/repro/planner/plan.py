"""The ``auto`` pick: a strategy from the program's shape and the query.

Theorems 7.8/7.10 make the choice small and closed: the only rewrite
sequences worth running are subsequences of ``pred, qrp, mg`` in that
order, each with a strategy name
(:data:`~repro.core.pipeline.STRATEGY_SEQUENCES`).  Section 6 with
Tables 1/2 says which one a program needs:

* under *value-generating* recursion (``fib(N - 1, X1)``) only the
  predicate constraint that ``optimal`` plants before ``mg`` makes the
  fixpoint finite -- ``magic`` alone never terminates (Table 1);
* otherwise ``mg`` pays off when it has bindings to pass sideways: the
  query fixes an argument to a constant and a recursive predicate is
  reachable from it, so the seeded recursion computes only what the
  constant reaches;
* otherwise the program as written (``none``).

The pick reads no EDB statistics and estimates nothing: it is a
function of the program and the query alone.  A session under ``auto``
serves each query form with its pick, fixed; nothing is measured.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import STRATEGY_SEQUENCES
from repro.lang.ast import Program, Query
from repro.lang.terms import NumTerm, Sym
from repro.obs.recorder import count as obs_count, span as obs_span


@dataclass(frozen=True)
class Plan:
    """The picked strategy and why."""

    strategy: str
    sequence: tuple[str, ...]
    #: One line naming the shape the pick was made on.
    reason: str

    def explain(self) -> str:
        """A human-readable dump of the pick, for ``--explain``."""
        return (
            f"plan: strategy={self.strategy} "
            f"sequence={'+'.join(self.sequence) or '(no rewriting)'}\n"
            f"  reason: {self.reason}"
        )


def plan_query(program: Program, query: Query) -> Plan:
    """Pick a strategy for ``query`` by the program's shape."""
    with obs_span("planner.plan", query=query.literal.pred):
        obs_count("planner.plans")
        components = _recursive_components(program)
        if _generates_values(program, components):
            return Plan(
                "optimal",
                STRATEGY_SEQUENCES["optimal"],
                "value-generating recursion: only the predicate "
                "constraint planted before mg makes the fixpoint finite",
            )
        strategy = "none"
        reason = "the query binds no argument to a constant"
        if any(
            isinstance(arg, Sym)
            or (isinstance(arg, NumTerm) and arg.is_constant())
            for arg in query.literal.args
        ):
            reached = sorted(
                {
                    rule.head.pred
                    for rule in program.restrict_to_reachable(
                        [query.literal.pred]
                    )
                }
                & components.keys()
            )
            if reached:
                strategy = "magic"
                reason = (
                    "the query binds a constant and reaches recursive "
                    + ", ".join(reached)
                )
            else:
                reason = "the query binds a constant but reaches no recursion"
        return Plan(strategy, STRATEGY_SEQUENCES[strategy], reason)


def _recursive_components(program: Program) -> dict[str, frozenset[str]]:
    """Each recursive predicate's strongly connected component."""
    return {
        pred: component
        for pred, component in program.components().items()
        if program.recursive_with(pred, pred)
    }


def _generates_values(
    program: Program, components: dict[str, frozenset[str]]
) -> bool:
    """Does any recursive call compute a *new* argument value?

    A body literal of the head's own component taking a non-constant
    arithmetic term (``fib(N - 1, X1)``) generates fresh keys each
    iteration -- the divergence Section 6 tames with bindings and
    predicate constraints.  Plain-variable recursion (transitive
    closure, the flights composition) is not flagged.
    """
    for rule in program:
        component = components.get(rule.head.pred)
        if component is None:
            continue
        for literal in rule.body:
            if literal.pred in component and any(
                isinstance(arg, NumTerm) and not arg.is_constant()
                for arg in literal.args
            ):
                return True
    return False
