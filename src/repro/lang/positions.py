"""PTOL and LTOP: argument positions vs. rule variables (Defs 2.7/2.8).

Predicate constraints and QRP constraints are phrased over *argument
positions* ``$1, ..., $n``; constraints in rules are phrased over rule
variables.  ``PTOL(p(X̄), C)`` converts position constraints into
variable constraints for a specific literal; ``LTOP(p(X̄), C(X̄))``
converts variable constraints back into position constraints.

Both directions handle the general cases the paper spells out:

* repeated variables and arithmetic terms in the literal -- ``LTOP``
  introduces fresh distinct variables, equates them with the literal's
  terms, projects, and renames (Definition 2.8's ``Π`` construction);
* symbolic-constant argument positions -- these can carry no arithmetic
  constraint, so ``LTOP`` leaves them unconstrained and ``PTOL`` rejects
  position constraints that mention them.
"""

from __future__ import annotations

from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.cset import ConstraintSet
from repro.constraints.linexpr import LinearExpr
from repro.lang.ast import Literal
from repro.lang.terms import NumTerm, Sym, Var


def arg_position(index: int) -> str:
    """The constraint-variable name of the ``index``-th argument (1-based)."""
    return f"${index}"


def position_index(name: str) -> int:
    """Inverse of :func:`arg_position`."""
    if not name.startswith("$"):
        raise ValueError(f"{name!r} is not an argument-position name")
    return int(name[1:])


def ptol(literal: Literal, cset: ConstraintSet) -> ConstraintSet:
    """Definition 2.7: position constraints -> constraints on the literal.

    Each ``$i`` is replaced by the literal's i-th argument term.  When
    the argument is a symbolic constant, a disjunct constraining ``$i``
    cannot hold of it, so that disjunct is dropped (it denotes no fact
    matching the literal); if *every* disjunct is dropped the result is
    ``false``.
    """
    names: dict[str, str] = {}
    bindings: dict[str, LinearExpr] = {}
    symbolic: set[str] = set()
    for index, arg in enumerate(literal.args, start=1):
        name = arg_position(index)
        if isinstance(arg, Var):
            names[name] = arg.name
            bindings[name] = arg.to_expr()
        elif isinstance(arg, NumTerm):
            bindings[name] = arg.expr
        elif isinstance(arg, Sym):
            symbolic.add(name)
    # With no arithmetic argument the substitution is a renaming.
    rename = len(names) == len(bindings)
    kept: list[Conjunction] = []
    for disjunct in cset.disjuncts:
        if disjunct.variables() & symbolic:
            continue
        kept.append(
            disjunct.rename(names) if rename
            else disjunct.substitute(bindings)
        )
    return ConstraintSet(kept)


def ptol_conjunction(
    literal: Literal, conjunction: Conjunction
) -> Conjunction:
    """PTOL of a single conjunction; symbolic positions must be absent."""
    result = ptol(literal, ConstraintSet.of(conjunction))
    if result.is_false():
        # Unsatisfiable, or a constrained symbolic position: either way
        # the conjunction denotes no fact matching the literal.
        return Conjunction.false()
    (single,) = result.disjuncts
    return single


def ltop(literal: Literal, cset: ConstraintSet) -> ConstraintSet:
    """Definition 2.8: constraints on the literal -> position constraints.

    Fresh variables ``Y1..Yn`` are equated with the literal's numeric
    terms, the constraint set is projected onto them (exact quantifier
    elimination), and the ``Yi`` are renamed to ``$i``.  Symbolic
    positions receive no constraint.  Constants in the literal *do*
    produce position constraints (``$i = c``), which is what lets query
    constants flow into QRP constraints.

    When the literal's variable arguments are distinct (every literal
    of a normalized program), ``Yi = Xi`` is a renaming: each disjunct
    is projected onto the literal's own variables, which are then
    renamed to their positions.
    """
    positions: dict[str, str] = {}
    for index, arg in enumerate(literal.args, start=1):
        if isinstance(arg, NumTerm) or (
            isinstance(arg, Var) and arg.name in positions
        ):
            return _ltop_fresh(literal, cset)
        if isinstance(arg, Var):
            positions[arg.name] = arg_position(index)
    return ConstraintSet(
        disjunct.project(positions).rename(positions)
        for disjunct in cset.disjuncts
    )


def _ltop_fresh(literal: Literal, cset: ConstraintSet) -> ConstraintSet:
    """:func:`ltop` through fresh variables: the general construction,
    for literals with repeated variables or arithmetic terms."""
    fresh_names = [f"@{index}" for index in range(1, literal.arity + 1)]
    equalities: list[Atom] = []
    for index, arg in enumerate(literal.args, start=1):
        fresh = LinearExpr.var(fresh_names[index - 1])
        if isinstance(arg, Var):
            equalities.append(Atom.eq(fresh, arg.to_expr()))
        elif isinstance(arg, NumTerm):
            equalities.append(Atom.eq(fresh, arg.expr))
        # Symbolic constants: no arithmetic constraint on this position.
    rename = {
        fresh_names[index]: arg_position(index + 1)
        for index in range(literal.arity)
    }
    projected = [
        disjunct.conjoin(equalities).project(set(fresh_names)).rename(rename)
        for disjunct in cset.disjuncts
    ]
    return ConstraintSet(projected)


def ltop_conjunction(
    literal: Literal, conjunction: Conjunction
) -> Conjunction:
    """LTOP of a single conjunction (result is a single conjunction)."""
    result = ltop(literal, ConstraintSet.of(conjunction))
    if result.is_false():
        return Conjunction.false()
    (single,) = result.disjuncts
    return single
