"""Single-rule application: the basic step of bottom-up evaluation.

Section 2 describes a derivation with rule ``r`` as: choose a fact for
each body literal so that the conjunction of the facts' constraints, the
argument equalities and the rule's constraints is satisfiable, then
eliminate the non-head variables by exact quantifier elimination.

This module implements that step over a database of (possibly
constraint) facts.  Symbolic constants are handled by syntactic
unification; numeric structure goes through the constraint solver.

Each normalized rule is compiled once into a :class:`_Plan` (shared
by every evaluator of that rule, in every thread): per body literal the
argument actions, the static range probes, and the rule's constraint
atoms sunk to the first literal after which all their variables are
bound, lowered to integer dot products (this is the very "selection
pushing" effect the paper studies, applied at the tuple level inside
one rule application).  The literals are joined in written order, or --
for a semi-naive variant -- from a chosen first literal (its delta, or
a smaller relation) and then whichever remaining literal has the most
arguments already bound, so a variant enumerates its derivations from
the small side; each step keeps its written index, which is what the
stamp views and the ``parents`` order go by.  While every bound
variable holds a constant -- every derivation over ground facts -- a
candidate is joined by slot assignments and integer arithmetic alone.
A candidate the plan cannot decide (a PENDING position, a symbol
meeting arithmetic) is handed, with the bindings so far, to the
general unify / substitute / project code below, which carries that
branch to the end.  Per-run state (``probes``, the derivation memo)
lives on the :class:`RuleEvaluator`, never on the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple

from repro.constraints.atom import Atom, Op
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr, as_fraction
from repro.engine.database import Database
from repro.engine.facts import Fact, PENDING, is_number, make_fact, number_key
from repro.engine.relation import Range
from repro.errors import ReproError
from repro.governor import budget as governor
from repro.lang.ast import Literal, Rule
from repro.lang.positions import arg_position
from repro.lang.terms import NumTerm, Sym, Var
from repro.obs.recorder import count as obs_count


class SortConflictError(ReproError, TypeError):
    """A variable was used both symbolically and in arithmetic."""

    code = "REPRO_SORT_CONFLICT"
    exit_code = 2


@dataclass
class _State:
    """Mutable join state threaded through the body literals."""

    sym_bind: dict[str, Sym]
    num_bind: dict[str, LinearExpr]
    atoms: list[Atom]

    def copy(self) -> "_State":
        """An independent copy."""
        return _State(
            dict(self.sym_bind), dict(self.num_bind), list(self.atoms)
        )

    def constant_of(self, name: str) -> "int | Fraction | None":
        """The constant a variable is bound to (int-first), if any."""
        expr = self.num_bind.get(name)
        if expr is not None and expr.is_constant():
            return expr.constant
        return None


FactView = Callable[
    [Literal, dict[int, Sym | Fraction], int, "dict[int, Range] | None"],
    Iterable[Fact],
]
"""Produces candidate facts for a body literal: (literal, bound
positions with fixed values, written body index, static range probes)
-> facts.  A fixed number arrives int-first, as fact values are."""


# Argument actions of a compiled body literal.
_CONST, _TEST, _BIND, _BIND_NUM = range(4)

_TRUE = Conjunction.true()


class _Lowered(NamedTuple):
    """A rule-constraint atom over variable slots.

    Read as the test ``constant + sum(c * env[slot]) op 0`` or, with
    ``solves`` set, as the definition of that slot: the same sum divided
    by ``divisor`` (the equality already solved for the slot).
    """

    terms: tuple[tuple[int, int], ...]  # (coefficient, slot)
    constant: int
    op: Op
    solves: int = -1
    divisor: int = 1

    def total(self, env: list) -> "int | Fraction":
        """The sum under the numeric constants in ``env``."""
        total = self.constant
        for coeff, slot in self.terms:
            total += coeff * env[slot]
        return total

    def holds(self, env: list) -> bool:
        """The truth of the atom under the numeric constants in ``env``."""
        if self.op is Op.LE:
            return self.total(env) <= 0
        if self.op is Op.LT:
            return self.total(env) < 0
        return self.total(env) == 0


class _Step(NamedTuple):
    """One body literal of a rule plan."""

    index: int  # the literal's position in the body as written
    literal: Literal
    ranges: "dict[int, Range] | None"  # static range probes; read-only
    # (position, is_slot, slot or constant), in position order: what the
    # index probe may fix, given that earlier literals bound constants.
    bound: tuple[tuple[int, bool, object], ...]
    # (position, action, slot or constant), in position order.
    actions: tuple[tuple[int, int, object], ...]
    checks: tuple[_Lowered, ...]  # atoms decidable after this literal,
    atoms: tuple[Atom, ...]       # and the same atoms as written
    names: tuple[tuple[str, int], ...]  # (variable, slot) bound earlier


class _Plan(NamedTuple):
    """The shareable analysis of one normalized rule.

    Immutable but for ``variants``, which only ever gains entries (each
    a pure function of the rule, so a racing double fill is harmless).
    """

    # First literal (None: written order) -> the steps in that join
    # order, compiled the first time a run starts a join there.
    variants: "dict[int | None, tuple[_Step, ...]]"
    ranges: "tuple[dict[int, Range] | None, ...]"  # per written literal
    slots: int
    names: tuple[tuple[str, int], ...]  # every body variable
    deferred: tuple[Atom, ...]  # atoms over variables the body leaves open
    # The deferred atoms as solve/test operations, when constants for the
    # body variables decide all of them and the head; None otherwise.
    finish: "tuple[_Lowered, ...] | None"
    head: tuple[tuple[bool, object], ...]  # (is_slot, slot or constant)


def _static_ranges(rule: Rule, literal: Literal) -> dict[int, Range]:
    """Range probes derivable from single-variable constraint atoms."""
    ranges: dict[int, Range] = {}
    for position, arg in enumerate(literal.args):
        if not isinstance(arg, Var):
            continue
        lower = upper = None
        lower_strict = upper_strict = False
        for atom in rule.constraint.atoms:
            if atom.variables() != {arg.name}:
                continue
            coeff = atom.expr.coeff(arg.name)
            value = as_fraction(-atom.expr.constant) / coeff
            if atom.op is Op.EQ:
                lower = upper = value
                lower_strict = upper_strict = False
                break
            strict = atom.op is Op.LT
            if coeff > 0:  # upper bound
                if upper is None or value < upper:
                    upper, upper_strict = value, strict
            else:  # lower bound
                if lower is None or value > lower:
                    lower, lower_strict = value, strict
        if lower is not None or upper is not None:
            ranges[position] = Range(
                lower, lower_strict, upper, upper_strict
            )
    return ranges


def _constant_of(arg: "Sym | NumTerm") -> "Sym | int | Fraction":
    return arg if isinstance(arg, Sym) else number_key(arg.value)


def _lower(
    atom: Atom, slots: dict[str, int], solves: "str | None" = None
) -> _Lowered:
    terms = atom.expr.sorted_terms()
    constant = atom.expr.constant
    if solves is None:
        return _Lowered(
            tuple((coeff, slots[name]) for name, coeff in terms),
            constant, atom.op,
        )
    divisor = atom.expr.coeff(solves)
    sign = -1 if divisor > 0 else 1
    return _Lowered(
        tuple(
            (sign * coeff, slots[name])
            for name, coeff in terms
            if name != solves
        ),
        sign * constant, atom.op,
        slots.setdefault(solves, len(slots)), abs(divisor),
    )


@lru_cache(maxsize=256)
def _compile(rule: Rule, use_ranges: bool) -> _Plan:
    """Analyze a normalized rule once; every evaluator of it shares this.

    The memo is bounded (the rules of a few dozen compiled forms): it
    keeps its rules' interned constraint forms alive, and a miss only
    costs the analysis every call used to pay.  What depends on the join
    order (:func:`_steps`) hangs off the same entry.
    """
    if not rule.is_normalized():
        raise ValueError(f"rule is not normalized: {rule}")
    slots: dict[str, int] = {}
    for literal in rule.body:
        for arg in literal.args:
            if isinstance(arg, Var):
                slots.setdefault(arg.name, len(slots))
    body_names = tuple(slots.items())
    # Atoms no body literal completes wait for the head.
    waiting = [
        atom for atom in rule.constraint.atoms
        if not (rule.body and atom.variables() <= slots.keys())
    ]
    deferred = tuple(waiting)
    # Ground constants for the body solve a deferred equality with one
    # open variable (``T = T1 + T2 + 30``), which may close others.
    finish: "list[_Lowered] | None" = []
    while waiting:
        for atom in waiting:
            unknown = atom.variables() - slots.keys()
            if not unknown:
                finish.append(_lower(atom, slots))
            elif atom.op is Op.EQ and len(unknown) == 1:
                finish.append(_lower(atom, slots, *unknown))
            else:
                continue
            waiting.remove(atom)
            break
        else:
            finish = None
            break
    head = []
    for arg in rule.head.args:
        if not isinstance(arg, Var):
            head.append((False, _constant_of(arg)))
        elif arg.name in slots:
            head.append((True, slots[arg.name]))
        else:
            finish = None  # an open head position: a constraint fact
    return _Plan(
        {},
        tuple(
            (_static_ranges(rule, literal) or None) if use_ranges else None
            for literal in rule.body
        ),
        len(slots), body_names, deferred,
        None if finish is None else tuple(finish), tuple(head),
    )


def _join_order(rule: Rule, first: "int | None") -> list[int]:
    """Written body indexes in the order a variant joins them.

    As written when ``first`` is None.  Otherwise that literal and then,
    repeatedly, the literal with the most arguments already fixed
    (constants and bound variables; the earliest written on ties).
    """
    remaining = list(range(len(rule.body)))
    if first is None:
        return remaining
    remaining.remove(first)
    order = [first]
    known = set(rule.body[first].variables())

    def fixed(index: int) -> tuple[int, int]:
        return sum(
            not isinstance(arg, Var) or arg.name in known
            for arg in rule.body[index].args
        ), -index

    while remaining:
        chosen = max(remaining, key=fixed)
        remaining.remove(chosen)
        order.append(chosen)
        known |= rule.body[chosen].variables()
    return order


def _steps(
    rule: Rule, plan: _Plan, first: "int | None"
) -> tuple[_Step, ...]:
    """The steps of the rule's join started from ``first``."""
    slots = dict(plan.names)
    arithmetic = rule.constraint.variables()
    # Constraint atoms sink to the first literal after which all their
    # variables are bound (assuming ground bindings; otherwise the
    # general path keeps the undecided atom for the final conjoin).
    waiting = [
        atom for atom in rule.constraint.atoms
        if atom not in plan.deferred
    ]
    known: dict[str, int] = {}
    steps = []
    for index in _join_order(rule, first):
        literal = rule.body[index]
        names = tuple(known.items())
        bound = []
        actions = []
        for position, arg in enumerate(literal.args):
            if not isinstance(arg, Var):
                constant = _constant_of(arg)
                bound.append((position, False, constant))
                actions.append((position, _CONST, constant))
            elif arg.name in known:
                slot = known[arg.name]
                if (arg.name, slot) in names:
                    bound.append((position, True, slot))
                actions.append((position, _TEST, slot))
            else:
                slot = known[arg.name] = slots[arg.name]
                numeric = arg.name in arithmetic
                actions.append(
                    (position, _BIND_NUM if numeric else _BIND, slot)
                )
        here = tuple(
            atom for atom in waiting if atom.variables() <= known.keys()
        )
        waiting = [atom for atom in waiting if atom not in here]
        steps.append(_Step(
            index, literal, plan.ranges[index],
            tuple(bound), tuple(actions),
            tuple(_lower(atom, slots) for atom in here), here, names,
        ))
    return tuple(steps)


def _advance(step: _Step, args: tuple, env: list) -> bool | None:
    """Unify one ground candidate and run the checks it completes.

    ``None`` when the plan cannot decide the candidate: a PENDING
    position, or a symbol where the rule does arithmetic.
    """
    for position, action, payload in step.actions:
        value = args[position]
        if value is PENDING:
            return None
        if action == _BIND:
            env[payload] = value
        elif action == _BIND_NUM:
            if type(value) is Sym:
                return None
            env[payload] = value
        elif value != (env[payload] if action == _TEST else payload):
            return False
    for check in step.checks:
        if not check.holds(env):
            return False
    return True


def _lift(names: tuple[tuple[str, int], ...], env: list) -> _State:
    """The general join state equal to the constants bound so far."""
    state = _State({}, {}, [])
    for name, slot in names:
        value = env[slot]
        if isinstance(value, Sym):
            state.sym_bind[name] = value
        else:
            state.num_bind[name] = LinearExpr.const(value)
    return state


class RuleEvaluator:
    """The applier for one normalized rule: a shared plan plus run state.

    ``use_ranges`` enables pushing the rule's single-variable constraint
    atoms into index range probes (Section 4.6's "effective indexing"):
    a body literal argument ``T`` constrained by ``T <= 240`` probes the
    relation's ordered index with that range instead of scanning.
    """

    def __init__(self, rule: Rule, use_ranges: bool = True) -> None:
        self.rule = rule
        self.probes = 0
        self._plan = _compile(rule, use_ranges)
        # Derivation memo: the semi-naive delta split re-derives the same
        # (values, constraint) pair from different body-fact combinations
        # in a large share of derivations; the head-side canonicalization
        # (projection + forced-value freezing in ``make_fact``) is
        # identical for all of them, so reuse it.  Keys are cheap to hash
        # because atoms and conjunctions are interned.
        self._fact_memo: dict[tuple, Fact | None] = {}

    # -- the join -----------------------------------------------------

    def derive(self, view: FactView) -> Iterator[Fact]:
        """All facts derivable with one application of the rule."""
        for fact, __ in self.derive_with_parents(view):
            yield fact

    def derive_with_parents(
        self, view: FactView, first: "int | None" = None
    ) -> Iterator[tuple[Fact, tuple[Fact, ...]]]:
        """Derivations with the body facts used, in written body order.

        ``first`` names the body literal to start the join from -- the
        one the view shows the fewest facts of, a semi-naive delta as a
        rule.  It only picks the join order: the derivations are those
        of the written order over the same view.
        """
        obs_count("engine.rule_evals")
        plan = self._plan
        steps = plan.variants.get(first)
        if steps is None:
            steps = plan.variants[first] = _steps(self.rule, plan, first)
        yield from self._join(
            steps, 0, [None] * plan.slots, None, [0], view,
            [None] * len(steps),
        )

    def _join(
        self,
        steps: tuple[_Step, ...],
        depth: int,
        env: list,
        state: _State | None,
        counter: list[int],
        view: FactView,
        parents: list,
    ) -> Iterator[tuple[Fact, tuple[Fact, ...]]]:
        """Join the literals of ``steps`` from ``depth`` on.

        ``state`` is None while every bound variable holds a constant:
        ``env[slot]`` then has it (numbers in their :func:`number_key`
        form, as fact values already are), shared down the recursion,
        since a literal writes only the slots it binds -- as is
        ``parents``, one slot per written body index.  The first
        candidate the plan cannot decide lifts the constants into a
        general :class:`_State`, which that branch carries to the end.
        """
        if depth == len(steps):
            fact = (
                self._finish_ground(env)
                if state is None
                else self._finish(state)
            )
            if fact is not None:
                yield fact, tuple(parents)
            return
        step = steps[depth]
        literal = step.literal
        if state is None:
            bound = {
                position: env[payload] if is_slot else payload
                for position, is_slot, payload in step.bound
            }
        else:
            bound = self._bound_positions(literal, state)
        for fact in view(literal, bound, step.index, step.ranges):
            self.probes += 1
            # Cooperative budget checkpoint: a single rule application
            # over a large relation can run long, so the deadline is
            # polled inside the join loop too (cheap stride check).
            governor.tick("rule")
            branch = None
            if state is not None:
                branch = state.copy()
            else:
                decided = _advance(step, fact.args, env)
                if decided is None:
                    branch = _lift(step.names, env)
                else:
                    counter[0] += 1
                    if not decided:
                        continue
            if branch is not None and not (
                self._unify(literal, fact, branch, counter)
                and self._early_checks(step, branch)
            ):
                continue
            parents[step.index] = fact
            yield from self._join(
                steps, depth + 1, env, branch, counter, view, parents
            )

    def _finish_ground(self, env: list) -> Fact | None:
        """The head fact of an all-constant body, without the solver."""
        plan = self._plan
        if plan.finish is None:
            return self._finish(_lift(plan.names, env))
        for lowered in plan.finish:
            if lowered.solves < 0:
                if not lowered.holds(env):
                    return None
                continue
            value = lowered.total(env)
            if lowered.divisor != 1:
                value = Fraction(value) / lowered.divisor
            # Fractional constants may sum to an integral Fraction.
            env[lowered.solves] = number_key(value)
        # Syms and number_key forms: already canonical fact values.
        return Fact(
            self.rule.head.pred,
            tuple([
                env[payload] if is_slot else payload
                for is_slot, payload in plan.head
            ]),
            _TRUE,
        )

    def _bound_positions(
        self, literal: Literal, state: _State
    ) -> dict[int, Sym | Fraction]:
        bound: dict[int, Sym | Fraction] = {}
        for position, arg in enumerate(literal.args):
            if not isinstance(arg, Var):
                bound[position] = _constant_of(arg)
                continue
            symbol = state.sym_bind.get(arg.name)
            if symbol is not None:
                bound[position] = symbol
                continue
            constant = state.constant_of(arg.name)
            if constant is not None:
                bound[position] = constant
        return bound

    def _unify(
        self,
        literal: Literal,
        fact: Fact,
        state: _State,
        counter: list[int],
    ) -> bool:
        """Unify literal arguments with a fact; extend the state."""
        counter[0] += 1
        instance = counter[0]
        fact_vars = fact.constraint.variables()
        rename: dict[str, str] = {}

        def fact_expr(position: int) -> LinearExpr:
            """The renamed-apart expression for a PENDING fact position."""
            original = arg_position(position + 1)
            fresh = rename.setdefault(original, f"!{instance}_{position + 1}")
            return LinearExpr.var(fresh)

        for position, arg in enumerate(literal.args):
            value = fact.args[position]
            if isinstance(arg, Sym):
                if isinstance(value, Sym):
                    if value != arg:
                        return False
                elif value is PENDING:
                    if arg_position(position + 1) in fact_vars:
                        return False
                else:
                    return False
            elif isinstance(arg, NumTerm):
                constant = arg.value
                if is_number(value):
                    if value != constant:
                        return False
                elif value is PENDING:
                    state.atoms.append(
                        Atom.eq(fact_expr(position), LinearExpr.const(constant))
                    )
                else:
                    return False
            else:  # Var
                name = arg.name
                symbol = state.sym_bind.get(name)
                if symbol is not None:
                    if isinstance(value, Sym):
                        if value != symbol:
                            return False
                    elif value is PENDING:
                        if arg_position(position + 1) in fact_vars:
                            return False
                    else:
                        return False
                    continue
                known = state.num_bind.get(name)
                if known is not None:
                    if isinstance(value, Sym):
                        return False
                    if is_number(value):
                        if known.is_constant():
                            if known.constant != value:
                                return False
                        else:
                            state.atoms.append(
                                Atom.eq(known, LinearExpr.const(value))
                            )
                    else:
                        state.atoms.append(
                            Atom.eq(known, fact_expr(position))
                        )
                    continue
                # Unbound variable.
                if isinstance(value, Sym):
                    state.sym_bind[name] = value
                elif is_number(value):
                    state.num_bind[name] = LinearExpr.const(value)
                else:
                    state.num_bind[name] = fact_expr(position)
        if rename and fact.constraint.atoms:
            renamed = fact.constraint.rename(rename)
            state.atoms.extend(renamed.atoms)
        return True

    def _early_checks(self, step: _Step, state: _State) -> bool:
        """Evaluate rule constraints whose variables are known constants."""
        for atom in step.atoms:
            substituted = self._substitute_atom(atom, state)
            if substituted is None:
                return False
            truth = substituted.truth_value()
            if truth is False:
                return False
            if truth is None:
                state.atoms.append(substituted)
        return True

    def _substitute_atom(self, atom: Atom, state: _State) -> Atom | None:
        """Apply bindings to a rule-constraint atom; None on sort conflict."""
        bindings: dict[str, LinearExpr] = {}
        for name in atom.variables():
            if name in state.sym_bind:
                # A symbol flowed into an arithmetic comparison: no
                # number equals a symbol, so the derivation fails.
                return None
            expr = state.num_bind.get(name)
            if expr is not None:
                bindings[name] = expr
        if not bindings:
            return atom
        return atom.substitute(bindings)

    def _finish(self, state: _State) -> Fact | None:
        """Assemble the head fact: substitute, conjoin, project."""
        atoms = list(state.atoms)
        for atom in self._plan.deferred:
            substituted = self._substitute_atom(atom, state)
            if substituted is None:
                return None
            truth = substituted.truth_value()
            if truth is False:
                return None
            if truth is None:
                atoms.append(substituted)
        # Cheap constant propagation through single-variable equalities
        # (e.g. ``T = T1 + T2 + 30`` with ground T1, T2) so the common
        # all-ground case never reaches the quantifier-elimination path.
        propagated = _propagate_constants(atoms)
        if propagated is None:
            return None
        solved, atoms = propagated
        if solved:
            bindings = {
                name: LinearExpr.const(value)
                for name, value in solved.items()
            }
            for name, expr in state.num_bind.items():
                if expr.variables() & solved.keys():
                    state.num_bind[name] = expr.substitute(bindings)
            for name in solved:
                state.num_bind.setdefault(
                    name, LinearExpr.const(solved[name])
                )
        values: list[object] = []
        head_atoms: list[Atom] = []
        for position, arg in enumerate(self.rule.head.args, start=1):
            if isinstance(arg, Sym):
                values.append(arg)
            elif isinstance(arg, NumTerm):
                values.append(arg.value)
            else:  # Var
                name = arg.name
                symbol = state.sym_bind.get(name)
                if symbol is not None:
                    values.append(symbol)
                    continue
                expr = state.num_bind.get(name)
                if expr is None:
                    expr = LinearExpr.var(name)
                if expr.is_constant() and not any(
                    name in atom.variables() for atom in atoms
                ):
                    values.append(expr.constant)
                    continue
                values.append(PENDING)
                head_atoms.append(
                    Atom.eq(LinearExpr.var(arg_position(position)), expr)
                )
        if not atoms and not head_atoms:
            return make_fact(self.rule.head.pred, values)
        constraint = Conjunction((*atoms, *head_atoms))
        key = (tuple(values), constraint)
        try:
            cached = self._fact_memo[key]
        except KeyError:
            pass
        else:
            obs_count("engine.derivation_memo_hits")
            return cached
        fact = make_fact(self.rule.head.pred, values, constraint)
        if len(self._fact_memo) >= 1 << 16:
            self._fact_memo.clear()
        self._fact_memo[key] = fact
        return fact


def _propagate_constants(
    atoms: list[Atom],
) -> tuple[dict[str, Fraction], list[Atom]] | None:
    """Solve single-variable equalities; ``None`` when contradictory.

    Returns the solved assignments and the residual atoms.  Only a cheap
    syntactic pass: repeatedly pick an equality ``a*X + c = 0``, bind
    ``X = -c/a``, substitute, and fold ground atoms.
    """
    solved: dict[str, Fraction] = {}
    residual = atoms
    progress = True
    while progress:
        progress = False
        next_residual: list[Atom] = []
        binding: tuple[str, Fraction] | None = None
        for position, atom in enumerate(residual):
            variables = atom.variables()
            if atom.op is Op.EQ and len(variables) == 1:
                (name,) = variables
                coeff = atom.expr.coeff(name)
                value = as_fraction(-atom.expr.constant) / coeff
                binding = (name, value)
                next_residual.extend(residual[position + 1 :])
                break
            next_residual.append(atom)
        if binding is None:
            break
        name, value = binding
        solved[name] = value
        substitution = {name: LinearExpr.const(value)}
        folded: list[Atom] = []
        for atom in next_residual:
            if name in atom.variables():
                atom = atom.substitute(substitution)
            truth = atom.truth_value()
            if truth is False:
                return None
            if truth is None:
                folded.append(atom)
        residual = folded
        progress = True
    return solved, residual


def database_view(
    database: Database,
    max_stamp: int | None = None,
    delta: int | None = None,
) -> FactView:
    """A fact view over a database with semi-naive stamp filtering.

    With ``delta`` set, the literal at that written body index sees only
    the facts stamped ``max_stamp`` (the delta), literals written before
    it see facts up to ``max_stamp``, and literals written after it see
    facts below ``max_stamp`` (the pre-delta view) -- whatever order the
    literals are joined in.
    """

    def view(
        literal: Literal,
        bound: dict[int, Sym | Fraction],
        index: int,
        ranges: "dict[int, Range] | None" = None,
    ) -> Iterable[Fact]:
        """The stamped fact view for one body literal."""
        relation = database.get(literal.pred)
        if relation is None:
            return ()
        if delta is None or index < delta:
            return relation.matching(
                bound, max_stamp=max_stamp, ranges=ranges
            )
        if index == delta:
            return relation.matching(
                bound, exact_stamp=max_stamp, ranges=ranges
            )
        return relation.matching(
            bound, max_stamp=max_stamp - 1, ranges=ranges
        )

    return view
