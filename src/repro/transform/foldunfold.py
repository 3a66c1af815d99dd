"""Fold, unfold and definition steps for CQL programs (Appendix A).

The paper restricts Tamaki-Sato [14] fold/unfold to what its rewriting
procedures need:

* **Definition step** -- introduce ``m`` rules ``p'(X̄) :- C_i(X̄), p(X̄)``
  for a fresh predicate ``p'``, distinct variables ``X̄`` and constraint
  conjunctions ``C_i`` (the disjuncts of a propagated constraint set).
* **Unfolding step** -- resolve a rule against *all* rules whose heads
  unify with a chosen body literal.
* **Folding step** -- replace a body literal ``p_i(X̄_i)`` by ``p'(X̄)θ``
  when ``p_i(X̄_i) = p(X̄)θ`` for a definition rule
  ``p'(X̄) :- C(X̄), p(X̄)`` and the rule's constraints imply ``C(X̄)θ``.

Section 6's ``Ground_Fold_Unfold`` additionally folds *multi-literal*
definitions (supplementary predicates whose bodies contain a magic
literal plus grounding subgoals); :meth:`FoldUnfold.fold_multi`
implements that straightforward extension.

Unification treats numeric structure semantically: where no syntactic
substitution exists (``fib(N - 1, X1)`` against ``fib(0, 1)``), residual
linear equalities are emitted as constraint atoms, exactly as the
rule-application semantics of Section 2 would conjoin them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.errors import ReproError
from repro.governor import budget as governor
from repro.lang.ast import Literal, Program, Rule
from repro.lang.terms import (
    NumTerm,
    Sym,
    Term,
    Var,
    substitute_term,
)


class TransformError(ReproError, ValueError):
    """An inapplicable fold/unfold/definition step."""

    code = "REPRO_TRANSFORM"
    exit_code = 2


def unify_literals(
    first: Literal, second: Literal
) -> tuple[dict[str, Term], list[Atom]] | None:
    """Unify two literals (assumed variable-disjoint).

    Returns a substitution plus residual numeric equality atoms, or
    ``None`` when not unifiable.  Symbolic constants unify only with
    themselves or variables; numeric terms unify up to linear equality.
    """
    if first.pred != second.pred or first.arity != second.arity:
        return None
    bindings: dict[str, Term] = {}
    residual: list[Atom] = []
    equations: list[tuple[Term, Term]] = list(zip(first.args, second.args))
    while equations:
        left, right = equations.pop(0)
        left = substitute_term(left, bindings) if not isinstance(
            left, Sym
        ) else left
        right = substitute_term(right, bindings) if not isinstance(
            right, Sym
        ) else right
        if isinstance(left, Var) and isinstance(right, Var):
            if left.name != right.name:
                _bind(bindings, left.name, right)
        elif isinstance(left, Var):
            _bind(bindings, left.name, right)
        elif isinstance(right, Var):
            _bind(bindings, right.name, left)
        elif isinstance(left, Sym) or isinstance(right, Sym):
            if left != right:
                return None
        else:  # both NumTerm
            difference = left.expr - right.expr
            if difference.is_constant():
                if difference.constant != 0:
                    return None
            else:
                residual.append(Atom.eq(left.expr, right.expr))
    return bindings, residual


def _bind(bindings: dict[str, Term], name: str, term: Term) -> None:
    """Extend the substitution, composing it into existing bindings."""
    update = {name: term}
    for key, value in list(bindings.items()):
        bindings[key] = substitute_term(value, update)
    bindings[name] = term


def _sort_conflict(
    constraint: Conjunction, bindings: dict[str, Term]
) -> bool:
    """True when a symbol would bind a variable used arithmetically.

    Numeric atoms are never satisfied by symbolic values (sorts are
    disjoint), so any conjunction forcing such a binding is
    unsatisfiable -- callers resolving away a literal should drop the
    branch rather than substitute.
    """
    names = constraint.variables()
    return any(
        isinstance(term, Sym) and name in names
        for name, term in bindings.items()
    )


def _apply(rule: Rule, bindings: dict[str, Term]) -> Rule:
    """Apply a substitution to a rule (constraints included)."""
    if not bindings:
        return rule
    names = {}
    numeric = {}
    for name, term in bindings.items():
        if isinstance(term, Var):
            names[name] = term.name
            numeric[name] = term.to_expr()
        elif isinstance(term, NumTerm):
            numeric[name] = term.expr
        # Sym bindings cannot appear in arithmetic constraints; if they
        # do, Conjunction.substitute will raise via LinearExpr.
    constraint_vars = rule.constraint.variables()
    for name, term in bindings.items():
        if isinstance(term, Sym) and name in constraint_vars:
            raise TransformError(
                f"substituting symbol {term} for {name} which occurs in "
                f"arithmetic constraints of {rule}"
            )
    # Variables for variables is a renaming of the constraint.
    return Rule(
        rule.head.substitute(bindings),
        tuple(literal.substitute(bindings) for literal in rule.body),
        rule.constraint.rename(names) if len(names) == len(numeric)
        else rule.constraint.substitute(numeric),
        rule.label,
    )


@dataclass
class FoldUnfold:
    """The transformation state ``(P_i, N_i)`` of Appendix A.

    ``program`` is the current rule set ``P_i``; ``definitions`` is the
    set ``N_i`` of rules defining new predicates.  Every step builds new
    state; ``history`` records the steps applied (useful in tests and
    for displaying derivations of rewritten programs).
    """

    program: Program
    definitions: tuple[Rule, ...] = ()
    history: tuple[str, ...] = ()

    # -- definition step ---------------------------------------------------

    def define(
        self,
        new_pred: str,
        base: Literal,
        constraints: list[Conjunction],
    ) -> "FoldUnfold":
        """Introduce ``new_pred`` with one rule per constraint disjunct.

        ``base`` must be a positive literal over distinct variables of a
        predicate of the *initial* program; each new rule is
        ``new_pred(X̄) :- C_i(X̄), base``.
        """
        if not base.has_distinct_var_args():
            raise TransformError(
                f"definition base literal must have distinct variable "
                f"arguments: {base}"
            )
        if new_pred in {rule.head.pred for rule in self.program}:
            raise TransformError(f"{new_pred} is already defined")
        base_vars = base.variables()
        new_rules = []
        for index, conjunction in enumerate(constraints):
            if not conjunction.variables() <= base_vars:
                raise TransformError(
                    f"definition constraint {conjunction} mentions "
                    f"variables outside {base}"
                )
            head = Literal(new_pred, base.args)
            new_rules.append(
                Rule(head, (base,), conjunction, f"def_{new_pred}_{index}")
            )
        return FoldUnfold(
            self.program.with_rules(new_rules),
            (*self.definitions, *new_rules),
            (*self.history, f"define {new_pred} ({len(new_rules)} rules)"),
        )

    # -- unfolding step ------------------------------------------------------

    def unfold(self, rule: Rule, body_index: int) -> "FoldUnfold":
        """Unfold the chosen body literal against all matching rules."""
        if rule not in self.program.rules:
            raise TransformError(f"rule not in program: {rule}")
        governor.checkpoint("foldunfold.unfold")
        literal = rule.body[body_index]
        resolvents: list[Rule] = []
        for target in self.program.rules_for(literal.pred):
            renamed = target.rename_apart(rule.variables())
            unified = unify_literals(literal, renamed.head)
            if unified is None:
                continue
            bindings, residual = unified
            body = (
                rule.body[:body_index]
                + renamed.body
                + rule.body[body_index + 1 :]
            )
            candidate = Rule(
                rule.head,
                body,
                rule.constraint.conjoin(renamed.constraint).conjoin(residual),
                rule.label,
            )
            if _sort_conflict(candidate.constraint, bindings):
                # A symbol bound into an arithmetic constraint makes
                # the resolvent unsatisfiable; skip it like any other
                # unsatisfiable branch.
                continue
            resolvent = _apply(candidate, bindings)
            if resolvent.constraint.is_satisfiable():
                resolvents.append(resolvent)
        return FoldUnfold(
            self.program.replace_rules([rule], resolvents),
            self.definitions,
            (*self.history, f"unfold {literal} in {rule.label or rule}"),
        )

    # -- folding step ---------------------------------------------------------

    def fold(
        self, rule: Rule, definition: Rule, body_index: int
    ) -> "FoldUnfold":
        """Fold a single-body-literal definition into ``rule``.

        Appendix A: with definition ``p'(X̄) :- C(X̄), p(X̄)``, the body
        literal at ``body_index`` must be ``p(X̄)θ``, and the rule's
        constraints must imply ``C(X̄)θ``; the literal is replaced by
        ``p'(X̄)θ``.
        """
        if definition not in self.definitions:
            raise TransformError("fold target is not a definition rule")
        if len(definition.body) != 1:
            raise TransformError(
                "single-literal fold requires a one-literal definition; "
                "use fold_multi"
            )
        return self._fold(rule, definition, body_index, explain=True)

    def _fold(
        self, rule: Rule, definition: Rule, body_index: int,
        explain: bool = False,
    ) -> "FoldUnfold | None":
        """:meth:`fold` past its definition checks; ``None`` when the fold
        is inapplicable, or with ``explain`` a :class:`TransformError`
        saying why."""
        literal = rule.body[body_index]
        def_literal = definition.body[0]
        theta = _match(def_literal, literal)
        if theta is None:
            if explain:
                raise TransformError(
                    f"{literal} is not an instance of {def_literal}"
                )
            return None
        if not explain and _sort_conflict(definition.constraint, theta):
            return None  # ``_apply`` would refuse the symbol binding
        moved = _apply(
            Rule(definition.head, (), definition.constraint), theta
        )
        if not rule.constraint.implies(moved.constraint):
            if explain:
                raise TransformError(
                    f"rule constraints {rule.constraint} do not imply "
                    f"{moved.constraint}; fold inapplicable"
                )
            return None
        body = (
            rule.body[:body_index]
            + (moved.head,)
            + rule.body[body_index + 1 :]
        )
        folded = Rule(rule.head, body, rule.constraint, rule.label)
        return FoldUnfold(
            self.program.replace_rules([rule], [folded]),
            self.definitions,
            (*self.history, f"fold {definition.head.pred} into "
             f"{rule.label or rule}"),
        )

    def fold_multi(
        self, rule: Rule, definition: Rule, body_indexes: list[int]
    ) -> "FoldUnfold":
        """Fold a multi-literal definition (Section 6 extension).

        The definition's body literals must match the rule's body
        literals at ``body_indexes`` (in order) under one substitution
        of the definition's variables, and the rule's constraints must
        imply the definition's constraints under that substitution.
        Matched literals are replaced by a single head instance.
        """
        if definition not in self.definitions:
            raise TransformError("fold target is not a definition rule")
        if len(body_indexes) != len(definition.body):
            raise TransformError("index count mismatch with definition body")
        theta: dict[str, Term] = {}
        for def_literal, index in zip(definition.body, body_indexes):
            target = rule.body[index].substitute({})
            instance = def_literal.substitute(theta)
            step = _match(instance, target)
            if step is None:
                raise TransformError(
                    f"{target} is not an instance of {instance}"
                )
            for name, term in step.items():
                theta = _compose(theta, name, term)
        moved = _apply(
            Rule(definition.head, (), definition.constraint), theta
        )
        if not rule.constraint.implies(moved.constraint):
            raise TransformError(
                f"rule constraints do not imply {moved.constraint}"
            )
        drop = set(body_indexes)
        first = min(body_indexes)
        body: list[Literal] = []
        for index, literal in enumerate(rule.body):
            if index == first:
                body.append(moved.head)
            elif index not in drop:
                body.append(literal)
        folded = Rule(rule.head, tuple(body), rule.constraint, rule.label)
        return FoldUnfold(
            self.program.replace_rules([rule], [folded]),
            self.definitions,
            (*self.history, f"fold* {definition.head.pred} into "
             f"{rule.label or rule}"),
        )

    # -- bulk helpers ----------------------------------------------------------

    def unfold_all(self, pred: str, within: str) -> "FoldUnfold":
        """Unfold every ``pred`` body literal in rules defining ``within``."""
        state = self
        changed = True
        while changed:
            changed = False
            for rule in state.program.rules_for(within):
                for index, literal in enumerate(rule.body):
                    if literal.pred == pred:
                        state = state.unfold(rule, index)
                        changed = True
                        break
                if changed:
                    break
        return state

    def fold_everywhere(self, definition: Rule) -> "FoldUnfold":
        """Fold the definition into every foldable body occurrence.

        Occurrences inside the definition rules themselves are skipped
        (a rule must not be folded by itself, Appendix A's caveat).
        Whether a fold applies depends only on the rule, the index and
        the definition, so an occurrence that failed is not retried.
        """
        if definition not in self.definitions or len(definition.body) != 1:
            return self
        state = self
        target_pred = definition.body[0].pred
        failed: set[tuple[Rule, int]] = set()
        changed = True
        while changed:
            changed = False
            governor.checkpoint("foldunfold.fold")
            for rule in state.program.rules:
                if rule in state.definitions:
                    continue
                for index, literal in enumerate(rule.body):
                    if literal.pred != target_pred or (rule, index) in failed:
                        continue
                    folded = state._fold(rule, definition, index)
                    if folded is None:
                        failed.add((rule, index))
                        continue
                    state = folded
                    changed = True
                    break
                if changed:
                    break
        return state


def _match(pattern: Literal, instance: Literal) -> dict[str, Term] | None:
    """One-way matching: a substitution θ with ``pattern θ = instance``."""
    if pattern.pred != instance.pred or pattern.arity != instance.arity:
        return None
    theta: dict[str, Term] = {}
    for left, right in zip(pattern.args, instance.args):
        if isinstance(left, Var):
            known = theta.get(left.name)
            if known is None:
                theta[left.name] = right
            elif known != right:
                return None
        elif isinstance(left, Sym):
            if left != right:
                return None
        else:  # NumTerm pattern arguments must match syntactically
            substituted = substitute_term(left, theta)
            if substituted != right:
                return None
    return theta


def _compose(
    theta: dict[str, Term], name: str, term: Term
) -> dict[str, Term]:
    composed = {
        key: substitute_term(value, {name: term})
        for key, value in theta.items()
    }
    composed[name] = term
    return composed
