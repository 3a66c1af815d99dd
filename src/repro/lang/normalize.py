"""Rule normalization: flatten arithmetic out of literal arguments.

The bottom-up engine and the constraint-propagation procedures operate
on *normalized* rules, in which every literal argument is a variable or
a constant; compound arithmetic terms such as ``fib(N - 1, X1)`` are
replaced by fresh variables with equality constraints
(``fib(V, X1), V = N - 1``).  This is semantics-preserving: the paper's
rule-application step conjoins argument equalities anyway, and the
normal form simply makes them explicit syntax.

Numeric *constants* in literals may optionally be flattened as well
(``keep_constants=False``), which some transformations (adornment, LTOP)
find convenient; by default they are kept in place.
"""

from __future__ import annotations

from repro.constraints.atom import Atom
from repro.lang.ast import Literal, Program, Query, Rule
from repro.lang.terms import FreshVars, NumTerm, Sym, Term, Var


def _flatten_literal(
    literal: Literal,
    fresh: FreshVars,
    extra: list[Atom],
    keep_constants: bool,
) -> Literal:
    args: list[Term] = []
    for arg in literal.args:
        if isinstance(arg, (Var, Sym)):
            args.append(arg)
        elif isinstance(arg, NumTerm):
            if arg.is_constant() and keep_constants:
                args.append(arg)
            else:
                new_var = fresh.next("N")
                extra.append(Atom.eq(new_var.to_expr(), arg.expr))
                args.append(new_var)
        else:  # pragma: no cover - exhaustive over Term
            raise TypeError(f"unknown term {arg!r}")
    return Literal(literal.pred, tuple(args))


def normalize_rule(rule: Rule, keep_constants: bool = True) -> Rule:
    """Flatten arithmetic terms in head and body literals."""
    if keep_constants and rule.is_normalized():
        return rule
    fresh = FreshVars(rule.variables())
    extra: list[Atom] = []
    head = _flatten_literal(rule.head, fresh, extra, keep_constants)
    body = tuple(
        _flatten_literal(literal, fresh, extra, keep_constants)
        for literal in rule.body
    )
    return Rule(head, body, rule.constraint.conjoin(extra), rule.label)


def normalize_program(
    program: Program, keep_constants: bool = True
) -> Program:
    """Normalize every rule of a program (itself, if already normal)."""
    if keep_constants and program.is_normalized():
        return program
    return Program(
        normalize_rule(rule, keep_constants) for rule in program
    )


def normalize_query(query: Query, keep_constants: bool = True) -> Query:
    """Flatten arithmetic terms in the query literal (itself, if plain)."""
    if keep_constants and query.literal.is_normalized():
        return query
    fresh = FreshVars(query.variables())
    extra: list[Atom] = []
    literal = _flatten_literal(query.literal, fresh, extra, keep_constants)
    return Query(literal, query.constraint.conjoin(extra))


def query_as_rule(query: Query, pred: str = "_query") -> Rule:
    """Treat a query as the body of a rule defining a new predicate.

    Section 2: "we can treat the query Q as the body of a rule defining
    a new predicate q, not occurring in P. The arity of q is the same as
    the number of variables in Q."  The query predicate's arguments are
    the query's variables in sorted order.
    """
    variables = sorted(query.variables())
    head = Literal(pred, tuple(Var(name) for name in variables))
    return Rule(head, (query.literal,), query.constraint, label="query")
