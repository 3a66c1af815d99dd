"""Literals, rules, programs and queries of the CQL.

A :class:`Rule` is ``head :- constraint, body`` where ``constraint`` is a
:class:`~repro.constraints.conjunction.Conjunction` of linear arithmetic
atoms and ``body`` is a tuple of ordinary literals.  A rule with an empty
body is a (constraint) fact (Section 2).  A :class:`Program` is a finite
set of rules; its meaning is the least model.

Rules are immutable.  Transformations (normalization, fold/unfold,
magic rewriting, constraint propagation) build new rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.constraints.conjunction import Conjunction
from repro.lang.terms import (
    FreshVars,
    Term,
    Var,
    is_plain,
    rename_term,
    substitute_term,
    term_variables,
)


@dataclass(frozen=True)
class Literal:
    """An ordinary (non-constraint) literal ``pred(t1, ..., tn)``."""

    pred: str
    args: tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        """Number of argument positions."""
        return len(self.args)

    def variables(self) -> frozenset[str]:
        """The variable names occurring in this object."""
        result: set[str] = set()
        for arg in self.args:
            result |= term_variables(arg)
        return frozenset(result)

    def rename(self, mapping: Mapping[str, str]) -> "Literal":
        """Rename variables."""
        return Literal(
            self.pred, tuple(rename_term(arg, mapping) for arg in self.args)
        )

    def substitute(self, bindings: Mapping[str, Term]) -> "Literal":
        """Substitute expressions for variables."""
        return Literal(
            self.pred,
            tuple(substitute_term(arg, bindings) for arg in self.args),
        )

    def with_pred(self, pred: str) -> "Literal":
        """The same literal under another predicate name."""
        return Literal(pred, self.args)

    def is_normalized(self) -> bool:
        """All arguments are variables or constants."""
        return all(is_plain(arg) for arg in self.args)

    def has_distinct_var_args(self) -> bool:
        """Are all arguments distinct variables?"""
        names = [arg.name for arg in self.args if isinstance(arg, Var)]
        return len(names) == len(self.args) and len(set(names)) == len(names)

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        inner = ", ".join(str(arg) for arg in self.args)
        return f"{self.pred}({inner})"


@dataclass(frozen=True)
class Rule:
    """``head :- constraint, body.``  (constraints form one conjunction)."""

    head: Literal
    body: tuple[Literal, ...] = ()
    constraint: Conjunction = field(default_factory=Conjunction.true)
    label: str | None = None

    @property
    def is_fact(self) -> bool:
        """No body literals (possibly with constraints: a constraint fact)."""
        return not self.body

    def variables(self) -> frozenset[str]:
        """The variable names occurring in this object."""
        result = set(self.head.variables())
        for literal in self.body:
            result |= literal.variables()
        result |= self.constraint.variables()
        return frozenset(result)

    def rename(self, mapping: Mapping[str, str]) -> "Rule":
        """Rename variables."""
        return Rule(
            self.head.rename(mapping),
            tuple(literal.rename(mapping) for literal in self.body),
            self.constraint.rename(mapping),
            self.label,
        )

    def rename_apart(self, avoid: Iterable[str]) -> "Rule":
        """Rename every variable to a fresh name outside ``avoid``."""
        fresh = FreshVars(frozenset(avoid) | self.variables())
        mapping = {
            name: fresh.next(name).name for name in sorted(self.variables())
        }
        return self.rename(mapping)

    def with_label(self, label: str | None) -> "Rule":
        """The same rule with a different display label."""
        return Rule(self.head, self.body, self.constraint, label)

    def with_constraint(self, constraint: Conjunction) -> "Rule":
        """The same rule with the constraint replaced."""
        return Rule(self.head, self.body, constraint, self.label)

    def add_constraints(self, extra: Conjunction) -> "Rule":
        """The same rule with extra constraint atoms."""
        return Rule(
            self.head, self.body, self.constraint.conjoin(extra), self.label
        )

    def is_normalized(self) -> bool:
        """Head and body literals contain only plain terms."""
        return self.head.is_normalized() and all(
            literal.is_normalized() for literal in self.body
        )

    def is_range_restricted(self) -> bool:
        """Every head variable is grounded by the body.

        The paper's sufficient syntactic condition (footnote 8) for a
        bottom-up evaluation to compute only ground facts: a head
        variable must occur in an ordinary body literal -- inequality
        constraints do not count -- or be *functionally determined* by
        such variables through equality constraints (the normalized
        spelling of an arithmetic head argument like ``T1 + T2 + 30``).
        """
        bound: set[str] = set()
        for literal in self.body:
            bound |= literal.variables()
        equalities = [
            atom
            for atom in self.constraint.atoms
            if atom.is_equality()
        ]
        progress = True
        while progress:
            progress = False
            for atom in equalities:
                unbound = atom.variables() - bound
                if len(unbound) == 1:
                    bound |= unbound
                    progress = True
        return self.head.variables() <= bound

    def __str__(self) -> str:
        parts = [str(literal) for literal in self.body]
        parts.extend(str(atom) for atom in self.constraint.atoms)
        head = str(self.head)
        if not parts:
            return f"{head}."
        return f"{head} :- {', '.join(parts)}."


@dataclass(frozen=True)
class Query:
    """A query literal, optionally with constraints (``?- C, q(ā).``)."""

    literal: Literal
    constraint: Conjunction = field(default_factory=Conjunction.true)

    def variables(self) -> frozenset[str]:
        """The variable names occurring in this object."""
        return self.literal.variables() | self.constraint.variables()

    def __str__(self) -> str:
        parts = [str(self.literal)]
        parts.extend(str(atom) for atom in self.constraint.atoms)
        return f"?- {', '.join(parts)}."


class Program:
    """An immutable finite set (sequence) of rules."""

    def __init__(self, rules: Iterable[Rule]) -> None:
        self._rules: tuple[Rule, ...] = tuple(rules)
        self._normalized: bool | None = None  # is_normalized(), once asked
        self._graph: dict[str, dict[str, None]] | None = None
        self._components: dict[str, frozenset[str]] | None = None
        self._check_arities()

    def _check_arities(self) -> None:
        arities: dict[str, int] = {}
        for rule in self._rules:
            for literal in (rule.head, *rule.body):
                known = arities.setdefault(literal.pred, literal.arity)
                if known != literal.arity:
                    raise ValueError(
                        f"predicate {literal.pred} used with arities "
                        f"{known} and {literal.arity}"
                    )
        self._arities = arities

    # -- inspection ---------------------------------------------------

    @property
    def rules(self) -> tuple[Rule, ...]:
        """The rules, in order."""
        return self._rules

    def __iter__(self):
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def arity(self, pred: str) -> int:
        """Number of argument positions."""
        return self._arities[pred]

    def predicates(self) -> frozenset[str]:
        """The predicate names present."""
        return frozenset(self._arities)

    def derived_predicates(self) -> frozenset[str]:
        """Predicates defined by at least one rule (IDB)."""
        return frozenset(rule.head.pred for rule in self._rules)

    def edb_predicates(self) -> frozenset[str]:
        """Predicates used in bodies but never defined (database)."""
        return self.predicates() - self.derived_predicates()

    def rules_for(self, pred: str) -> tuple[Rule, ...]:
        """The rules defining a predicate."""
        return tuple(
            rule for rule in self._rules if rule.head.pred == pred
        )

    def body_occurrences(self, pred: str) -> list[tuple[Rule, int]]:
        """All ``(rule, body_index)`` occurrences of ``pred`` literals."""
        found = []
        for rule in self._rules:
            for index, literal in enumerate(rule.body):
                if literal.pred == pred:
                    found.append((rule, index))
        return found

    def is_range_restricted(self) -> bool:
        """Are all rules range-restricted?"""
        return all(rule.is_range_restricted() for rule in self._rules)

    def is_normalized(self) -> bool:
        """Are all rules normalized (plain literal args)?"""
        if self._normalized is None:
            self._normalized = all(
                rule.is_normalized() for rule in self._rules
            )
        return self._normalized

    # -- dependency structure -------------------------------------------

    def dependency_graph(self) -> dict[str, dict[str, None]]:
        """Each predicate's body predicates: head -> body edges, ordered.

        Computed once; callers must not mutate the result.
        """
        if self._graph is None:
            graph: dict[str, dict[str, None]] = {
                pred: {} for pred in self.predicates()
            }
            for rule in self._rules:
                successors = graph[rule.head.pred]
                for literal in rule.body:
                    successors[literal.pred] = None
            self._graph = graph
        return self._graph

    def components(self) -> dict[str, frozenset[str]]:
        """Each predicate's strongly connected component (computed once).

        Insertion order is the components' order from
        :func:`strongly_connected_components`: callees first.
        """
        if self._components is None:
            self._components = {
                pred: component
                for component in strongly_connected_components(
                    self.dependency_graph()
                )
                for pred in component
            }
        return self._components

    def sccs_topological(
        self, roots: Iterable[str] | None = None
    ) -> list[frozenset[str]]:
        """Strongly connected components, highest (query side) first.

        With ``roots`` given, only SCCs reachable from them are returned.
        The first SCC is the one containing the roots (or a source SCC).
        """
        sccs = list(dict.fromkeys(self.components().values()))[::-1]
        if roots is None:
            return sccs
        reachable = descendants(self.dependency_graph(), roots)
        return [scc for scc in sccs if scc & reachable]

    def recursive_with(self, pred_a: str, pred_b: str) -> bool:
        """Are the two predicates mutually recursive (same SCC)?"""
        component = self.components().get(pred_a)
        if component is None or pred_b not in component:
            return False
        return (
            pred_a != pred_b
            or len(component) > 1
            or pred_a in self.dependency_graph()[pred_a]
        )

    # -- construction -----------------------------------------------------

    def with_rules(self, rules: Iterable[Rule]) -> "Program":
        """The program extended with more rules."""
        return Program((*self._rules, *rules))

    def replace_rules(
        self, old: Iterable[Rule], new: Iterable[Rule]
    ) -> "Program":
        """The program with some rules replaced by others."""
        removed = list(old)
        kept: list[Rule] = []
        for rule in self._rules:
            if rule in removed:
                removed.remove(rule)
            else:
                kept.append(rule)
        return Program((*kept, *new))

    def restrict_to_reachable(self, roots: Iterable[str]) -> "Program":
        """Drop rules for predicates unreachable from the roots."""
        keep = descendants(self.dependency_graph(), roots)
        return Program(
            rule for rule in self._rules if rule.head.pred in keep
        )

    def deduplicated(self) -> "Program":
        """Drop rules identical up to variable renaming and labels."""
        seen: set[tuple] = set()
        kept: list[Rule] = []
        for rule in self._rules:
            key = _canonical_rule_key(rule)
            if key not in seen:
                seen.add(key)
                kept.append(rule)
        return Program(kept)

    def relabeled(self, prefix: str = "r") -> "Program":
        """Assign sequential labels ``r1, r2, ...`` for display."""
        return Program(
            rule.with_label(f"{prefix}{index + 1}")
            for index, rule in enumerate(self._rules)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self._rules == other._rules

    def __hash__(self) -> int:
        return hash(self._rules)

    def __str__(self) -> str:
        lines = []
        for rule in self._rules:
            prefix = f"{rule.label}: " if rule.label else ""
            lines.append(f"{prefix}{rule}")
        return "\n".join(lines)


def strongly_connected_components(
    graph: Mapping[str, Iterable[str]],
) -> list[frozenset[str]]:
    """Tarjan's strongly connected components, sinks first.

    Iterative (Nuutila's variant: only non-root nodes wait on the
    stack), so a long dependency chain needs no recursion.  Every
    successor must be a key of ``graph``.  Each component is emitted
    after every component it reaches, so the reversed list is a
    topological order.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    assigned: set[str] = set()
    waiting: list[str] = []
    components: list[frozenset[str]] = []
    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        path = [(root, iter(graph[root]))]
        while path:
            node, successors = path[-1]
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    path.append((succ, iter(graph[succ])))
                    break
                if succ not in assigned and index[succ] < low[node]:
                    low[node] = index[succ]
            else:
                path.pop()
                if low[node] == index[node]:
                    component = {node}
                    while waiting and index[waiting[-1]] > index[node]:
                        component.add(waiting.pop())
                    assigned |= component
                    components.append(frozenset(component))
                else:
                    waiting.append(node)
                if path:
                    parent = path[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
    return components


def descendants(
    graph: Mapping[str, Iterable[str]], roots: Iterable[str]
) -> set[str]:
    """The roots present in ``graph`` and every node they reach."""
    seen = {root for root in roots if root in graph}
    stack = list(seen)
    while stack:
        for succ in graph[stack.pop()]:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def _canonical_rule_key(rule: Rule) -> tuple:
    """A renaming-invariant key for rule deduplication.

    Variables are renamed positionally in order of first occurrence in
    the head, then the body, then the (deterministically sorted)
    constraint atoms.
    """
    order: dict[str, str] = {}

    def visit(names) -> None:
        """Record variables in first-occurrence order."""
        for name in names:
            if name not in order:
                order[name] = f"_v{len(order)}"

    for arg in rule.head.args:
        visit(sorted(term_variables(arg)))
    for literal in rule.body:
        for arg in literal.args:
            visit(sorted(term_variables(arg)))
    for atom in rule.constraint.atoms:
        visit(sorted(atom.variables()))
    renamed = rule.rename(order)
    return (
        renamed.head,
        renamed.body,
        frozenset(renamed.constraint.atoms),
    )


def make_rule(
    head: Literal,
    body: Sequence[Literal] = (),
    constraint: Conjunction | None = None,
    label: str | None = None,
) -> Rule:
    """Convenience constructor used by tests and examples."""
    return Rule(
        head,
        tuple(body),
        constraint if constraint is not None else Conjunction.true(),
        label,
    )
