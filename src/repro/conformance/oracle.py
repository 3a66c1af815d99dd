"""A deliberately naive ground oracle for conformance checking.

This evaluator is the harness's ground truth, so it is built to be
*obviously* correct rather than fast, and it shares nothing with
:mod:`repro.engine`:

* facts are plain tuples of values in plain Python sets -- no
  :class:`~repro.engine.facts.Fact`, no relations, no indexes, no
  subsumption;
* rule application enumerates every combination of stored facts for
  the body literals (full naive iteration, recomputing everything each
  round) and, for variables bound by no body literal, every value of
  the case's finite constant domain;
* constraint atoms are evaluated by direct rational arithmetic on the
  candidate assignment -- the Fourier-Motzkin solver is never invoked.

On the generator's fragment (range-restricted rules, plain head
arguments, bounded domains) this computes exactly the least model
restricted to the reachable ground facts, and terminates because the
fact space is bounded by ``predicates x domain^arity``.  A ``max_facts``
fuse turns pathological blowups into :class:`OracleBudgetError` (the
differ skips such cases) instead of a hang.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from repro.constraints.atom import Atom, Op
from repro.errors import ReproError
from repro.lang.ast import Literal, Program, Query, Rule
from repro.lang.normalize import normalize_program, normalize_query
from repro.lang.terms import NumTerm, Sym, Term, Var

#: Oracle values: symbol names are tagged strings, numbers Fractions.
OracleValue = "Fraction | str"


class OracleBudgetError(ReproError, RuntimeError):
    """The oracle's fact fuse blew (the case is too big to ground)."""

    code = "REPRO_ORACLE_BUDGET"
    exit_code = 3


def _atom_holds(atom: Atom, assignment: dict[str, Fraction]) -> bool:
    """Direct arithmetic evaluation (no solver) of one ground atom."""
    total = atom.expr.constant
    for name, coefficient in atom.expr.sorted_terms():
        value = assignment[name]
        if isinstance(value, str):
            # A numeric constraint over a symbol-valued variable can
            # never hold (sorts are disjoint).
            return False
        total += coefficient * value
    if atom.op is Op.EQ:
        return total == 0
    if atom.op is Op.LE:
        return total <= 0
    return total < 0  # Op.LT


def _constraints_hold(
    atoms: tuple[Atom, ...], assignment: dict[str, Fraction]
) -> bool:
    return all(_atom_holds(atom, assignment) for atom in atoms)


def _term_value(term: Term, assignment: dict) -> object | None:
    """The ground value of a literal argument, or None if unbound."""
    if isinstance(term, Var):
        return assignment.get(term.name)
    if isinstance(term, Sym):
        return term.name
    if isinstance(term, NumTerm) and term.is_constant():
        return term.value
    raise ValueError(
        f"oracle requires normalized literal arguments, got {term!r}"
    )


def _match_literal(
    literal: Literal,
    row: tuple,
    assignment: dict,
) -> dict | None:
    """Extend ``assignment`` so ``literal`` matches ``row``, or None."""
    extended = assignment
    for term, value in zip(literal.args, row):
        if isinstance(term, Var):
            bound = extended.get(term.name)
            if bound is None:
                if extended is assignment:
                    extended = dict(assignment)
                extended[term.name] = value
            elif bound != value:
                return None
        else:
            constant = _term_value(term, extended)
            if constant != value:
                return None
    return extended


def numeric_domain(program: Program, query: Query) -> list[Fraction]:
    """Every numeric constant occurring anywhere in the case.

    This is the finite domain over which variables unbound by body
    literals (constraint-only variables) are enumerated.
    """
    values: set[Fraction] = set()

    def visit_literal(literal: Literal) -> None:
        for term in literal.args:
            if isinstance(term, NumTerm) and term.is_constant():
                values.add(term.value)

    def visit_atoms(atoms: tuple[Atom, ...]) -> None:
        for atom in atoms:
            values.add(Fraction(-atom.expr.constant))

    for rule in program:
        visit_literal(rule.head)
        for literal in rule.body:
            visit_literal(literal)
        visit_atoms(rule.constraint.atoms)
    visit_literal(query.literal)
    visit_atoms(query.constraint.atoms)
    return sorted(values)


def _apply_rule(
    rule: Rule,
    facts: dict[str, set[tuple]],
    domain: list[Fraction],
) -> set[tuple]:
    """All head tuples derivable from ``facts`` in one application."""
    derived: set[tuple] = set()
    relations = [
        sorted(facts.get(literal.pred, ())) for literal in rule.body
    ]
    if any(not relation for relation in relations):
        return derived
    head_vars = {
        term.name for term in rule.head.args if isinstance(term, Var)
    }
    literal_vars: set[str] = set()
    for literal in rule.body:
        literal_vars |= literal.variables()
    loose = sorted(
        (head_vars | rule.constraint.variables()) - literal_vars
    )
    for rows in itertools.product(*relations):
        assignment: dict | None = {}
        for literal, row in zip(rule.body, rows):
            assignment = _match_literal(literal, row, assignment)
            if assignment is None:
                break
        if assignment is None:
            continue
        # Variables no literal bound range over the finite domain.
        for extra in itertools.product(domain, repeat=len(loose)):
            candidate = dict(assignment)
            candidate.update(zip(loose, extra))
            if not _constraints_hold(
                rule.constraint.atoms, candidate
            ):
                continue
            head = tuple(
                _term_value(term, candidate)
                for term in rule.head.args
            )
            if any(value is None for value in head):
                raise ValueError(
                    f"oracle cannot ground head of {rule} "
                    "(not range-restricted over the domain)"
                )
            derived.add(head)
    return derived


def oracle_answers(
    program: Program,
    query: Query,
    max_facts: int = 20_000,
) -> frozenset[tuple]:
    """The query's ground answer set by brute-force naive evaluation.

    Answers are tuples over the query's variables in sorted name order
    (the same convention as :func:`repro.engine.query.answers`); a
    variable-free query answers ``{()}`` for yes and ``frozenset()``
    for no.  Raises :class:`OracleBudgetError` when more than
    ``max_facts`` ground facts accumulate.
    """
    normalized = normalize_program(program)
    query = normalize_query(query)
    domain = numeric_domain(normalized, query)
    facts: dict[str, set[tuple]] = {}
    rules: list[Rule] = []
    for rule in normalized:
        if rule.is_fact and not rule.variables():
            if rule.constraint.atoms and not _constraints_hold(
                rule.constraint.atoms, {}
            ):
                continue
            row = tuple(
                _term_value(term, {}) for term in rule.head.args
            )
            facts.setdefault(rule.head.pred, set()).add(row)
        else:
            rules.append(rule)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            for row in _apply_rule(rule, facts, domain):
                stored = facts.setdefault(rule.head.pred, set())
                if row not in stored:
                    stored.add(row)
                    changed = True
        total = sum(len(stored) for stored in facts.values())
        if total > max_facts:
            raise OracleBudgetError(
                "facts", spent=total, limit=max_facts, phase="oracle"
            )
    return _extract_answers(query, facts, domain)


def _extract_answers(
    query: Query,
    facts: dict[str, set[tuple]],
    domain: list[Fraction],
) -> frozenset[tuple]:
    variables = sorted(query.variables())
    answers: set[tuple] = set()
    loose = sorted(
        set(variables) - query.literal.variables()
    )
    for row in sorted(facts.get(query.literal.pred, ())):
        assignment = _match_literal(query.literal, row, {})
        if assignment is None:
            continue
        for extra in itertools.product(domain, repeat=len(loose)):
            candidate = dict(assignment)
            candidate.update(zip(loose, extra))
            if not _constraints_hold(
                query.constraint.atoms, candidate
            ):
                continue
            answers.add(
                tuple(candidate[name] for name in variables)
            )
    return frozenset(answers)


def oracle_answer_strings(
    program: Program, query: Query, max_facts: int = 20_000
) -> frozenset[str]:
    """Answers rendered value-by-value (symbols as names, numbers as
    fraction strings) -- the differ's canonical comparison form."""
    return frozenset(
        "|".join(
            value if isinstance(value, str) else f"#{value}"
            for value in answer
        )
        for answer in oracle_answers(program, query, max_facts)
    )
