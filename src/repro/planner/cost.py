"""The cost model: per-strategy estimates of what evaluation will do.

For each candidate strategy (a subsequence of the paper's optimal
``pred, qrp, mg`` ordering, Theorems 7.8/7.10) the model estimates the
counters the obs layer records -- ``derivations``,
``constraint.projections``, ``constraint.sat_checks`` -- plus the
rewrite's own compile cost, as one :class:`CostVector`.

The estimator separates two questions the strategies answer
differently:

* **How big is a relation under a restriction?**  Strategy-independent:
  the engine applies constraint filters at every scan no matter how
  the program was rewritten, so ``_size`` walks rules transferring
  restrictions (:class:`~repro.planner.stats.Restriction`) through
  rule constraints with the same solver machinery the rewrites use
  (:meth:`~repro.constraints.conjunction.Conjunction.bounds`) down to
  EDB match *counts*.
* **Which materializations get paid for?**  Strategy-dependent:
  ``_charge`` records one materialization per (predicate, pushed
  restriction context).  ``none`` materializes every reachable
  predicate unrestricted; ``pred`` carries rule-derived intervals into
  callees (``Gen_Prop_predicate_constraints``); ``qrp``/``rewrite``
  additionally seed the push with the query's constants and constraint
  intervals (they share an evaluation estimate and differ in compile
  cost -- the search tie-breaks toward the shorter sequence);
  ``magic``/``optimal`` additionally push *symbolic* equalities
  (constraint-magic sideways information passing) at a per-derivation
  overhead for the magic predicates.  Contexts of one predicate are
  max-merged, modeling that the rewrites materialize a single version
  per predicate under the disjunction of its contexts.

Every primitive is monotone both in the EDB (adding facts never lowers
an estimate -- see :mod:`repro.planner.stats`) and in the query
bindings (binding more arguments only tightens restrictions, and
estimates combine them with counts, products, ``min`` and ``max``),
which the planner property tests verify.  This rules out width-ratio
selectivities.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constraints.atom import Atom
from repro.constraints.linexpr import LinearExpr
from repro.core.pipeline import STRATEGY_SEQUENCES
from repro.engine.facts import is_number
from repro.governor import budget as governor
from repro.lang.ast import Literal, Program, Query, Rule
from repro.lang.terms import NumTerm, Sym, Var
from repro.obs.recorder import count as obs_count, span as obs_span
from repro.planner.stats import EdbStats, Restriction

# -- tunable model constants (hand-calibrated; `cold-auto`'s
#    `planner.choice_regret` in the ruler reads how well they hold) --

#: Scalarization weights; observed costs use the same weights so model
#: and measurement stay comparable.
W_DERIVATION = 1.0
W_PROJECTION = 0.25
W_SAT = 0.25
#: Empirical proxies from the committed benchmarks.  Since the
#: constraint-layer overhaul (hash-consing + the solver memo,
#: docs/constraints.md) the counters record *real* eliminations only:
#: ground workloads run at 0 solver ops per derivation (constant
#: propagation + memo hits) and the constrained rows sit between 0.05
#: and 0.3 per derivation (flights/rewrite: 698 derivations, 35
#: projections; example51/rewrite: 230 derivations, 46 projections).
PROJECTIONS_PER_DERIVATION = 0.2
SAT_CHECKS_PER_DERIVATION = 0.2
#: Scalar units per wall-clock second of observed execution
#: (flights/none: 948 derivations in ~0.13s ~= 7k derivations/s).
SECONDS_TO_UNITS = 7_000.0

#: Compile cost per pipeline step, in scalar units per proper rule per
#: max-arity^1.5.  The constraint fixpoints (pred/qrp) do
#: Fourier-Motzkin work that grows with rule count and predicate
#: width; memoized projection collapsed their cost by ~9x (flights
#: rewrite optimize: 0.24s -> 0.026s ~= 180 units over 4 rules x
#: arity^1.5 = 8), putting them in the same band as the syntactic
#: magic-template pass (mg).
COMPILE_UNIT_COSTS = {"pred": 3.0, "qrp": 4.0, "mg": 2.5}
COMPILE_ARITY_EXP = 1.5

#: The ``pred`` fixpoint needs widening on value-generating recursion
#: and its cost explodes (measured: seconds, not milliseconds, on the
#: fib workload); scale its compile estimate accordingly.
GENERATOR_COMPILE_FACTOR = 1000.0

#: Per-derivation overhead of evaluating the extra magic predicates.
MAGIC_EVAL_OVERHEAD = 1.25

#: Restriction-pushing recursion depth (rule-boundary crossings).
MAX_PUSH_DEPTH = 4

#: Per-binding match estimate against an IDB literal of size ``n``:
#: ``max(1, n ** IDB_JOIN_EXP)`` (EDB joins use the exact mode count).
IDB_JOIN_EXP = 0.5

#: Recursive SCCs iterate: one semi-naive pass estimate is scaled by
#: these factors for the derivation count and the fixpoint size.
RECURSION_ITER_FACTOR = 2.0
RECURSION_GROWTH = 3.0

#: Value-generating recursion (a same-SCC body literal with a
#: non-constant arithmetic argument, e.g. ``fib(N - 1, X1)``) diverges
#: unless the rewrite plants a bound: penalize strategies by how little
#: machinery they aim at it.  Magic seeds the recursion with the
#: query's bindings (Table 1's ``P_fib^mg`` answers the query under an
#: iteration cap); optimal additionally plants the predicate
#: constraint that makes the fixpoint finite (Table 2).
GENERATOR_PENALTY = {
    "none": 64.0,
    "pred": 64.0,
    "qrp": 16.0,
    "rewrite": 16.0,
    "magic": 4.0,
    "optimal": 2.0,
}


@dataclass(frozen=True)
class CostVector:
    """Estimated counters for one (query, strategy) pair."""

    derivations: float
    projections: float
    sat_checks: float
    compile_units: float

    def scalar(self, amortization: float = 1.0) -> float:
        """One comparable number; ``amortization`` spreads the compile
        cost over the expected number of executions (1 = one-shot)."""
        return (
            W_DERIVATION * self.derivations
            + W_PROJECTION * self.projections
            + W_SAT * self.sat_checks
            + self.compile_units / max(amortization, 1.0)
        )

    def as_dict(self) -> dict:
        return {
            "derivations": round(self.derivations, 1),
            "projections": round(self.projections, 1),
            "sat_checks": round(self.sat_checks, 1),
            "compile_units": round(self.compile_units, 1),
        }


def observed_scalar(derivations: float, seconds: float) -> float:
    """An observed execution mapped onto the model's scalar scale.

    Uses the same weights and counter proxies as the estimates, plus
    wall-clock converted at roughly the measured derivation rate, so
    compile-heavy and eval-heavy executions stay comparable and the
    adaptive loop optimizes what the benchmarks actually score.
    """
    units = (
        W_DERIVATION * derivations
        + W_PROJECTION * PROJECTIONS_PER_DERIVATION * derivations
        + W_SAT * SAT_CHECKS_PER_DERIVATION * derivations
    )
    return units + SECONDS_TO_UNITS * max(seconds, 0.0)


@dataclass(frozen=True)
class _StrategyShape:
    """What one strategy's rewrite lets the estimator push.

    The committed benchmarks pin the semantics down: ``pred`` alone
    never changes the derivation count (predicate constraints are the
    *precondition* the later steps build on), the interval pushing
    that prunes evaluation is ``qrp``'s, and ``mg`` passes constant
    bindings sideways -- pure overhead when the query binds nothing.
    """

    name: str
    sequence: tuple[str, ...]
    #: Transfer-derived interval restrictions cross rule boundaries.
    push_intervals: bool
    #: Constant bindings (symbols, numeric constants) cross rule
    #: boundaries via magic predicates.
    push_constants: bool
    overhead: float

    @property
    def pushes(self) -> bool:
        return self.push_intervals or self.push_constants

    @property
    def push_query(self) -> bool:
        return self.pushes


def _shape(name: str) -> _StrategyShape:
    sequence = STRATEGY_SEQUENCES[name]
    has_mg = "mg" in sequence
    return _StrategyShape(
        name=name,
        sequence=sequence,
        push_intervals="qrp" in sequence,
        push_constants=has_mg,
        overhead=MAGIC_EVAL_OVERHEAD if has_mg else 1.0,
    )


_SHAPES = {name: _shape(name) for name in STRATEGY_SEQUENCES}

_EMPTY: tuple[Restriction | None, ...] = ()


def _canonical(
    restrictions: "tuple[Restriction | None, ...]",
) -> "tuple[Restriction | None, ...]":
    """Drop all-trivial restriction tuples so memo keys coincide."""
    if any(
        r is not None and not r.is_trivial for r in restrictions
    ):
        return restrictions
    return _EMPTY


class CostModel:
    """Estimates evaluation cost of a program under an EDB snapshot.

    One instance is built per (program, stats snapshot) and reused
    across queries and strategies; all internal state derives from
    those two, so estimates are deterministic for a fixed snapshot.
    """

    def __init__(self, program: Program, stats: EdbStats) -> None:
        self._program = program
        self._stats = stats
        self._idb = frozenset(rule.head.pred for rule in program)
        self._recursive = self._recursive_predicates()
        self._has_generator = self._generator_recursion()
        self._rule_count = sum(
            1 for rule in program if not rule.is_fact
        )
        self._max_arity = max(
            (rule.head.arity for rule in program), default=1
        )
        # (rule, head restrictions) -> transfer result; shared across
        # strategies and queries.
        self._transfer_memo: dict = {}
        self._crude_memo: dict[str, float] = {}

    # -- public API ---------------------------------------------------

    def estimate(self, query: Query, strategy: str) -> CostVector:
        """The :class:`CostVector` for running ``query`` one way."""
        if strategy not in _SHAPES:
            raise KeyError(
                f"unknown strategy {strategy!r}; "
                f"choose from {tuple(_SHAPES)}"
            )
        with governor.paused(), obs_span(
            "planner.estimate", strategy=strategy
        ):
            obs_count("planner.estimates")
            return self._estimate(query, _SHAPES[strategy])

    def estimate_all(self, query: Query) -> dict[str, CostVector]:
        """Estimates for every candidate strategy, in canonical order."""
        return {
            name: self.estimate(query, name)
            for name in STRATEGY_SEQUENCES
        }

    # -- estimation core ----------------------------------------------

    def _estimate(
        self, query: Query, shape: _StrategyShape
    ) -> CostVector:
        size_memo: dict = {}
        answer_size = self._size(
            query.literal.pred,
            self._query_restrictions(query, scan=True),
            size_memo,
            depth=0,
            active=set(),
        )
        pushed = (
            self._query_restrictions(query, scan=False, shape=shape)
            if shape.push_query
            else _EMPTY
        )
        charged: dict = {}
        self._charge(
            query.literal.pred, pushed, shape, charged, size_memo,
            depth=0, active=set(),
        )
        merged: dict[str, float] = {}
        for (pred, __), cost in charged.items():
            merged[pred] = max(merged.get(pred, 0.0), cost)
        derivations = (
            sum(merged.values()) + answer_size
        ) * shape.overhead
        if self._has_generator:
            derivations *= GENERATOR_PENALTY[shape.name]
        step_units = 0.0
        for step in shape.sequence:
            unit = COMPILE_UNIT_COSTS[step]
            if step == "pred" and self._has_generator:
                unit *= GENERATOR_COMPILE_FACTOR
            step_units += unit
        compile_units = (
            step_units
            * max(self._rule_count, 1)
            * self._max_arity ** COMPILE_ARITY_EXP
        )
        return CostVector(
            derivations=derivations,
            projections=PROJECTIONS_PER_DERIVATION * derivations,
            sat_checks=SAT_CHECKS_PER_DERIVATION * derivations,
            compile_units=compile_units,
        )

    def _query_restrictions(
        self,
        query: Query,
        scan: bool,
        shape: _StrategyShape | None = None,
    ) -> "tuple[Restriction | None, ...]":
        """The query's own per-column restrictions.

        With ``scan=True``: everything the answer filter applies --
        strategy-independent, used for sizes.  Otherwise: what
        ``shape`` pushes into the evaluation (symbolic equalities only
        under the magic strategies).
        """
        literal = query.literal
        restrictions: list[Restriction | None] = [None] * literal.arity
        constraint = query.constraint
        constraint_ok = constraint.is_satisfiable()
        for position, arg in enumerate(literal.args):
            if isinstance(arg, NumTerm) and arg.is_constant():
                if scan or shape is None or shape.pushes:
                    value = arg.value
                    restrictions[position] = Restriction(
                        lower=value, upper=value
                    )
            elif isinstance(arg, Sym):
                if scan or (
                    shape is not None and shape.push_constants
                ):
                    restrictions[position] = Restriction(equal=arg)
            elif isinstance(arg, Var) and constraint_ok:
                if scan or (
                    shape is not None and shape.push_intervals
                ):
                    restrictions[position] = Restriction.from_bounds(
                        *constraint.bounds(arg.name)
                    )
        return _canonical(tuple(restrictions))

    def _size(
        self,
        pred: str,
        restrictions: "tuple[Restriction | None, ...]",
        memo: dict,
        depth: int,
        active: set,
    ) -> float:
        """Estimated size of a relation under restrictions.

        Strategy-independent: scans filter under every strategy, so
        this is a property of the program, the EDB and the
        restrictions alone.
        """
        restrictions = _canonical(restrictions)
        if pred not in self._idb:
            relation = self._stats.relation(pred)
            if relation is None:
                return 0.0
            if restrictions:
                return float(
                    relation.restricted_count(restrictions)
                )
            return float(relation.cardinality)
        key = (pred, restrictions)
        if key in memo:
            return memo[key]
        if pred in active or depth > MAX_PUSH_DEPTH:
            # Recursion/depth guard: a crude restriction-free size,
            # deliberately not memoized as a real estimate.
            return self._crude_size(pred)
        active.add(pred)
        total = 0.0
        try:
            for rule in self._program.rules_for(pred):
                if rule.is_fact:
                    if not restrictions or self._fact_admitted(
                        rule.head, restrictions
                    ):
                        total += 1.0
                    continue
                transfer = self._transfer(rule, restrictions)
                if transfer is None:
                    continue
                bounds, equalities = transfer
                running: float | None = None
                bound_vars: set[str] = set()
                for literal in rule.body:
                    effective = self._size(
                        literal.pred,
                        self._literal_restrictions(
                            literal, bounds, equalities
                        ),
                        memo,
                        depth + 1,
                        active,
                    )
                    if running is None:
                        running = effective
                    else:
                        matches = self._join_matches(
                            literal, bound_vars, effective
                        )
                        running *= min(effective, matches)
                    bound_vars |= set(literal.variables())
                total += 1.0 if running is None else running
        finally:
            active.discard(pred)
        if pred in self._recursive:
            total *= RECURSION_GROWTH
        memo[key] = total
        return total

    def _charge(
        self,
        pred: str,
        context: "tuple[Restriction | None, ...]",
        shape: _StrategyShape,
        charged: dict,
        size_memo: dict,
        depth: int,
        active: set,
    ) -> None:
        """Record the materialization cost of one predicate context.

        ``context`` is the restriction the strategy pushed into this
        predicate's definition; the work to build that version is the
        sum over its rules of the join-prefix sizes (tuples produced
        at each step), charged once per (pred, context) into
        ``charged``.  Callee materializations are charged recursively
        with whatever the strategy pushes onward.
        """
        if pred not in self._idb:
            return
        context = _canonical(context)
        key = (pred, context)
        if (
            key in charged
            or pred in active
            or depth > MAX_PUSH_DEPTH
        ):
            return
        charged[key] = 0.0  # reserve against re-entry
        active.add(pred)
        cost = 0.0
        try:
            for rule in self._program.rules_for(pred):
                if rule.is_fact:
                    if not context or self._fact_admitted(
                        rule.head, context
                    ):
                        cost += 1.0
                    continue
                transfer = self._transfer(rule, context)
                if transfer is None:
                    continue
                bounds, equalities = transfer
                running: float | None = None
                bound_vars: set[str] = set()
                for literal in rule.body:
                    effective = self._size(
                        literal.pred,
                        self._literal_restrictions(
                            literal, bounds, equalities
                        ),
                        size_memo,
                        depth + 1,
                        set(),
                    )
                    if running is None:
                        running = effective
                    else:
                        matches = self._join_matches(
                            literal, bound_vars, effective
                        )
                        running *= min(effective, matches)
                    cost += running
                    bound_vars |= set(literal.variables())
                    if literal.pred in self._idb:
                        onward = (
                            self._pushed_restrictions(
                                literal, bounds, equalities, shape
                            )
                            if shape.pushes
                            else _EMPTY
                        )
                        self._charge(
                            literal.pred, onward, shape, charged,
                            size_memo, depth + 1, active,
                        )
                if running is None:
                    cost += 1.0
        finally:
            active.discard(pred)
        if pred in self._recursive:
            cost *= RECURSION_ITER_FACTOR
        charged[key] = cost

    def _literal_restrictions(
        self,
        literal: Literal,
        bounds: dict,
        equalities: dict,
    ) -> "tuple[Restriction | None, ...]":
        """Per-column restrictions visible at this literal's scan."""
        restrictions: list[Restriction | None] = []
        for arg in literal.args:
            if isinstance(arg, Var):
                restriction = bounds.get(arg.name)
                equal = equalities.get(arg.name)
                if equal is not None:
                    base = restriction or Restriction()
                    restriction = base.conjoined(
                        Restriction(equal=equal)
                    )
                restrictions.append(restriction)
            elif isinstance(arg, Sym):
                restrictions.append(Restriction(equal=arg))
            elif isinstance(arg, NumTerm) and arg.is_constant():
                value = arg.value
                restrictions.append(
                    Restriction(lower=value, upper=value)
                )
            else:
                restrictions.append(None)
        return _canonical(tuple(restrictions))

    def _pushed_restrictions(
        self,
        literal: Literal,
        bounds: dict,
        equalities: dict,
        shape: _StrategyShape,
    ) -> "tuple[Restriction | None, ...]":
        """What the strategy carries *into* this literal's definition.

        Interval restrictions from the transferred conjunction always
        travel; symbolic equalities only under the magic strategies.
        """
        restrictions: list[Restriction | None] = []
        for arg in literal.args:
            restriction: Restriction | None = None
            if isinstance(arg, Var):
                if shape.push_intervals:
                    restriction = bounds.get(arg.name)
                if shape.push_constants:
                    equal = equalities.get(arg.name)
                    if equal is not None:
                        base = restriction or Restriction()
                        restriction = base.conjoined(
                            Restriction(equal=equal)
                        )
            elif isinstance(arg, NumTerm) and arg.is_constant():
                value = arg.value
                restriction = Restriction(lower=value, upper=value)
            elif isinstance(arg, Sym) and shape.push_constants:
                restriction = Restriction(equal=arg)
            restrictions.append(restriction)
        return _canonical(tuple(restrictions))

    def _join_matches(
        self,
        literal: Literal,
        bound_vars: set,
        effective: float,
    ) -> float:
        """Matches per already-bound binding at this literal."""
        join_positions = [
            position
            for position, arg in enumerate(literal.args)
            if isinstance(arg, Var) and arg.name in bound_vars
        ]
        if not join_positions:
            return effective  # cross product
        if literal.pred in self._idb:
            return max(1.0, effective ** IDB_JOIN_EXP)
        relation = self._stats.relation(literal.pred)
        if relation is None:
            return 0.0
        fanout = min(
            relation.join_fanout(position)
            for position in join_positions
        )
        return float(max(1, fanout))

    # -- restriction transfer -----------------------------------------

    def _transfer(
        self,
        rule: Rule,
        head_restrictions: "tuple[Restriction | None, ...]",
    ):
        """Head restrictions pushed through the rule's constraint.

        Returns ``(bounds, equalities)``: per-variable interval
        :class:`Restriction` values under the conjunction of the rule
        constraint and the head restrictions (solver-backed
        projection, the same mechanics the rewrites use), plus the
        symbolic equalities forced on head variables -- or ``None``
        when the pushed restriction contradicts the rule (it can
        derive nothing).
        """
        key = (rule, head_restrictions)
        if key in self._transfer_memo:
            return self._transfer_memo[key]
        result = self._transfer_uncached(rule, head_restrictions)
        self._transfer_memo[key] = result
        return result

    def _transfer_uncached(
        self,
        rule: Rule,
        head_restrictions: "tuple[Restriction | None, ...]",
    ):
        head_atoms: list[Atom] = []
        equalities: dict[str, object] = {}
        for position, restriction in enumerate(head_restrictions):
            if restriction is None or restriction.is_trivial:
                continue
            if position >= rule.head.arity:
                continue
            arg = rule.head.args[position]
            if isinstance(arg, Sym):
                if (
                    restriction.equal is not None
                    and restriction.equal != arg
                ):
                    return None
                continue
            if isinstance(arg, NumTerm):
                if arg.is_constant():
                    if not restriction.admits(arg.value):
                        return None
                    continue
                expr = arg.expr
            else:  # a plain variable
                if restriction.equal is not None and isinstance(
                    restriction.equal, Sym
                ):
                    previous = equalities.get(arg.name)
                    if (
                        previous is not None
                        and previous != restriction.equal
                    ):
                        return None
                    equalities[arg.name] = restriction.equal
                    continue
                expr = LinearExpr.var(arg.name)
            head_atoms.extend(_interval_atoms(expr, restriction))
        local = rule.constraint
        if not local.is_satisfiable():
            return None
        full = local.conjoin(head_atoms) if head_atoms else local
        if head_atoms and not full.is_satisfiable():
            return None
        body_vars = sorted(
            {
                arg.name
                for literal in rule.body
                for arg in literal.args
                if isinstance(arg, Var)
            }
        )
        bounds: dict[str, Restriction] = {}
        for name in body_vars:
            restriction = Restriction.from_bounds(*full.bounds(name))
            if restriction is not None:
                bounds[name] = restriction
        return bounds, equalities

    # -- structural analysis ------------------------------------------

    def _fact_admitted(
        self,
        head: Literal,
        restrictions: "tuple[Restriction | None, ...]",
    ) -> bool:
        for position, restriction in enumerate(restrictions):
            if restriction is None or restriction.is_trivial:
                continue
            if position >= head.arity:
                continue
            arg = head.args[position]
            if isinstance(arg, Sym):
                if not restriction.admits(arg):
                    return False
            elif isinstance(arg, NumTerm) and arg.is_constant():
                if not restriction.admits(arg.value):
                    return False
        return True

    def _crude_size(self, pred: str, guard: frozenset = frozenset()):
        """Restriction-free size guess used by the recursion guard."""
        if pred in self._crude_memo:
            return self._crude_memo[pred]
        if pred in guard:
            return 1.0
        if pred not in self._idb:
            return float(self._stats.cardinality(pred))
        guard = guard | {pred}
        size = 0.0
        for rule in self._program.rules_for(pred):
            if rule.is_fact:
                size += 1.0
                continue
            product = 1.0
            for literal in rule.body:
                product *= max(
                    1.0, self._crude_size(literal.pred, guard)
                )
            size += product
        self._crude_memo[pred] = size
        return size

    def _recursive_predicates(self) -> frozenset:
        recursive = set()
        for component in self._program.sccs_topological():
            preds = set(component)
            if len(preds) > 1:
                recursive |= preds
                continue
            (pred,) = preds
            for rule in self._program.rules_for(pred):
                if any(
                    literal.pred == pred for literal in rule.body
                ):
                    recursive.add(pred)
                    break
        return frozenset(recursive)

    def _generator_recursion(self) -> bool:
        """Does any recursive call compute a *new* argument value?

        A body literal of a same-SCC predicate taking a non-constant
        arithmetic term (``fib(N - 1, X1)``) generates fresh keys each
        iteration -- the divergence Section 6 tames with bindings and
        predicate constraints.  Plain-variable recursion (transitive
        closure, the flights composition) is not flagged.
        """
        for rule in self._program:
            head = rule.head.pred
            if head not in self._recursive:
                continue
            for literal in rule.body:
                same_scc = literal.pred == head or (
                    literal.pred in self._recursive
                    and self._program.recursive_with(
                        literal.pred, head
                    )
                )
                if not same_scc:
                    continue
                for arg in literal.args:
                    if (
                        isinstance(arg, NumTerm)
                        and not arg.is_constant()
                    ):
                        return True
        return False


def _interval_atoms(
    expr: LinearExpr, restriction: Restriction
) -> list[Atom]:
    """Constraint atoms encoding an interval restriction on ``expr``."""
    if restriction.equal is not None:
        if is_number(restriction.equal):
            constant = LinearExpr.const(restriction.equal)
            return [Atom.eq(expr, constant)]
        return []  # a symbolic equality has no interval content
    atoms: list[Atom] = []
    if restriction.lower is not None:
        constant = LinearExpr.const(restriction.lower)
        atoms.append(
            Atom.gt(expr, constant)
            if restriction.lower_strict
            else Atom.ge(expr, constant)
        )
    if restriction.upper is not None:
        constant = LinearExpr.const(restriction.upper)
        atoms.append(
            Atom.lt(expr, constant)
            if restriction.upper_strict
            else Atom.le(expr, constant)
        )
    return atoms
