"""GMT: Magic Templates with bcf adornments, grounded by fold/unfold.

Section 6.2 reconstructs Mumick et al.'s Ground Magic Templates as three
steps: (1) adorn with ``b``/``c``/``f`` where ``c`` marks an argument
that is not ground but *conditioned* by arithmetic constraints,
(2) Magic Templates with *grounding sips* (grounding subgoals precede
non-grounding ones), which can produce non-range-restricted magic rules,
and (3) a grounding step.  The paper's contribution is that step (3) is
a sequence of Tamaki-Sato fold/unfold steps -- procedure
``Ground_Fold_Unfold`` -- working down the SCCs of the adorned program:
for each rule of a ``c``-adorned predicate, a *supplementary* predicate
``s_k_p`` is defined over the magic literal plus the rule's grounding
subgoals, the magic definitions are unfolded into it, and the definition
is folded back everywhere, after which the non-range-restricted magic
rules are unreachable and dropped (Theorem 6.2).

Adorned programs are written with adornment-suffixed predicate names
(``p_cf``, ``q_ccf``, ``q3_bbf``), exactly as Example 6.1 prints them;
:func:`infer_adornment_map` recovers the adornment strings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.errors import ReproError
from repro.lang.ast import Literal, Program, Query, Rule
from repro.lang.terms import term_variables
from repro.magic.templates import magic_name
from repro.transform.foldunfold import FoldUnfold, TransformError


def infer_adornment_map(
    program: Program, extra: Program | None = None
) -> dict[str, str]:
    """Adornments from ``name_adornment`` predicate names.

    A predicate named ``p_cf`` of arity 2 has adornment ``cf``.
    Predicates without a matching suffix get all-``f``.
    """
    adornments: dict[str, str] = {}
    programs = [program] + ([extra] if extra is not None else [])
    for prog in programs:
        for pred in prog.predicates():
            arity = prog.arity(pred)
            suffix = pred.rsplit("_", 1)[-1] if "_" in pred else ""
            if (
                len(suffix) == arity
                and suffix
                and set(suffix) <= {"b", "c", "f"}
            ):
                adornments[pred] = suffix
            else:
                adornments.setdefault(pred, "f" * arity)
    return adornments


def conditioned_positions(adornment: str) -> list[int]:
    """0-based positions adorned ``c``."""
    return [i for i, letter in enumerate(adornment) if letter == "c"]


def carried_positions(adornment: str) -> list[int]:
    """Positions a magic predicate carries: bound and conditioned."""
    return [i for i, letter in enumerate(adornment) if letter in "bc"]


@dataclass
class GmtProgram:
    """A bcf-adorned program plus its adornment metadata."""

    program: Program
    adornments: dict[str, str]
    query_pred: str

    def derived(self) -> frozenset[str]:
        """The derived (IDB) predicates."""
        return self.program.derived_predicates()


def _grounding_subgoals(
    rule: Rule,
    adornment: str,
    recursive_preds: frozenset[str],
) -> tuple[list[int], list[Atom]]:
    """Grounding subgoal indexes and associated constraint atoms.

    A grounding subgoal (Definition 6.1) is an ordinary body literal,
    not recursive with the head predicate, containing a variable from a
    conditioned head position.  Associated constraints are the rule's
    atoms over the variables of the magic literal and the grounding
    subgoals.
    """
    conditioned_vars: set[str] = set()
    for index in conditioned_positions(adornment):
        conditioned_vars |= term_variables(rule.head.args[index])
    indexes: list[int] = []
    grounding_vars: set[str] = set()
    for index, literal in enumerate(rule.body):
        if literal.pred in recursive_preds:
            continue
        if literal.variables() & conditioned_vars:
            indexes.append(index)
            grounding_vars |= literal.variables()
    covered = conditioned_vars & grounding_vars
    if covered != conditioned_vars:
        missing = sorted(conditioned_vars - covered)
        raise NotGroundableError(
            f"rule {rule.label or rule}: conditioned variables "
            f"{missing} occur in no non-recursive body literal"
        )
    atoms = [
        atom
        for atom in rule.constraint.atoms
        if atom.variables() <= grounding_vars | conditioned_vars
    ]
    return indexes, atoms


class NotGroundableError(ReproError, ValueError):
    """The program violates Definition 6.1 (not groundable)."""

    code = "REPRO_NOT_GROUNDABLE"
    exit_code = 2


def is_groundable(gmt: GmtProgram) -> bool:
    """Definition 6.1's groundability check."""
    try:
        _check_groundable(gmt)
    except NotGroundableError:
        return False
    return True


def _check_groundable(gmt: GmtProgram) -> None:
    components = gmt.program.components()
    for rule in gmt.program:
        adornment = gmt.adornments[rule.head.pred]
        if "c" not in adornment:
            continue
        _grounding_subgoals(rule, adornment, components[rule.head.pred])


def _reorder_grounding_first(
    rule: Rule, adornment: str, recursive_preds: frozenset[str]
) -> Rule:
    """Grounding sips: grounding subgoals precede the others (stable)."""
    if "c" not in adornment:
        return rule
    indexes, __ = _grounding_subgoals(rule, adornment, recursive_preds)
    chosen = set(indexes)
    body = [rule.body[i] for i in indexes] + [
        literal
        for i, literal in enumerate(rule.body)
        if i not in chosen
    ]
    return Rule(rule.head, tuple(body), rule.constraint, rule.label)


def gmt_magic(gmt: GmtProgram, query: Query) -> Program:
    """Magic Templates over bcf adornments with grounding sips.

    Magic predicates carry the ``b`` and ``c`` positions.  The resulting
    magic rules may be non-range-restricted (a ``c`` head variable need
    not occur in the sip prefix); :func:`ground_fold_unfold` repairs
    that.
    """
    program = gmt.program
    derived = program.derived_predicates()
    components = program.components()
    rules: list[Rule] = []
    for rule in program:
        head = rule.head
        adornment = gmt.adornments[head.pred]
        ordered = _reorder_grounding_first(
            rule, adornment, components[head.pred]
        )
        magic_head = Literal(
            magic_name(head.pred),
            tuple(head.args[i] for i in carried_positions(adornment)),
        )
        rules.append(
            Rule(
                head,
                (magic_head, *ordered.body),
                ordered.constraint,
                ordered.label,
            )
        )
        prefix: list[Literal] = [magic_head]
        for literal in ordered.body:
            if literal.pred in derived:
                body_adornment = gmt.adornments[literal.pred]
                magic_literal = Literal(
                    magic_name(literal.pred),
                    tuple(
                        literal.args[i]
                        for i in carried_positions(body_adornment)
                    ),
                )
                keep: set[str] = set(magic_literal.variables())
                for item in prefix:
                    keep |= item.variables()
                rules.append(
                    Rule(
                        magic_literal,
                        tuple(prefix),
                        ordered.constraint.project(keep),
                        f"m{ordered.label}" if ordered.label else None,
                    )
                )
            prefix.append(literal)
    # Seed from the query.
    adornment = gmt.adornments[gmt.query_pred]
    seed_args = tuple(
        query.literal.args[i] for i in carried_positions(adornment)
    )
    seed_vars: set[str] = set()
    for arg in seed_args:
        seed_vars |= term_variables(arg)
    seed = Rule(
        Literal(magic_name(gmt.query_pred), seed_args),
        (),
        query.constraint.project(seed_vars),
        label="seed",
    )
    return Program(rules).relabeled("mgr").with_rules([seed])


def ground_fold_unfold(gmt: GmtProgram, magic_program: Program) -> Program:
    """Procedure ``Ground_Fold_Unfold`` (Section 6.2, Theorem 6.2).

    Walks the SCCs of the adorned program from the query downward; for
    every SCC defining a ``c``-adorned predicate it performs the
    definition/unfold/fold sequence that eliminates the (possibly
    non-range-restricted) rules of the SCC's magic predicates.
    """
    sccs = gmt.program.sccs_topological(roots=[gmt.query_pred])
    state = FoldUnfold(magic_program)
    supplementary = 0
    for scc in sccs:
        defined = [
            pred
            for pred in sorted(scc)
            if pred in gmt.program.derived_predicates()
            and "c" in gmt.adornments[pred]
        ]
        if not defined:
            continue
        magic_preds = {magic_name(pred) for pred in defined}
        # Definition step: a supplementary predicate per modified rule.
        definitions: list[tuple[Rule, Rule]] = []  # (target rule, def)
        for pred in defined:
            adornment = gmt.adornments[pred]
            for rule in state.program.rules_for(pred):
                magic_literal = rule.body[0]
                assert magic_literal.pred == magic_name(pred)
                source = Rule(
                    rule.head, rule.body[1:], rule.constraint, rule.label
                )
                indexes, atoms = _grounding_subgoals(source, adornment, scc)
                grounding = [source.body[i] for i in indexes]
                supplementary += 1
                s_pred = f"s_{supplementary}_{pred}"
                inside = set(magic_literal.variables())
                for literal in grounding:
                    inside |= literal.variables()
                remainder: set[str] = set(rule.head.variables())
                for i, literal in enumerate(source.body):
                    if i not in indexes:
                        remainder |= literal.variables()
                for atom in source.constraint.atoms:
                    if atom not in atoms:
                        remainder |= atom.variables()
                head_vars = _ordered_vars(
                    [magic_literal, *grounding], inside & remainder
                )
                definition = Rule(
                    Literal(s_pred, head_vars),
                    (magic_literal, *grounding),
                    Conjunction(atoms),
                    label=f"def_{s_pred}",
                )
                state = FoldUnfold(
                    state.program.with_rules([definition]),
                    (*state.definitions, definition),
                    (*state.history, f"define {s_pred}"),
                )
                definitions.append((rule, definition))
        # Unfold step: expand the magic literals of this SCC occurring in
        # the definition rules and in magic rules of lower SCCs -- one
        # unfold per original occurrence.  Magic literals reintroduced
        # by the resolution (from the SCC-internal magic rules' bodies)
        # are *folded* below, not unfolded again.
        targets = [
            rule
            for rule in state.program.rules
            if rule.head.pred not in magic_preds
            and (
                rule.head.pred.startswith("s_")
                or rule.head.pred.startswith("m_")
            )
            and any(
                literal.pred in magic_preds for literal in rule.body
            )
        ]
        for rule in targets:
            index = next(
                i
                for i, literal in enumerate(rule.body)
                if literal.pred in magic_preds
            )
            state = state.unfold(rule, index)
        # Fold step: fold each definition into the modified rules and
        # the unfolded rules still holding a magic occurrence.
        for __, definition in definitions:
            state = _fold_definition_everywhere(
                state, definition, magic_preds
            )
        # Drop the now-unreachable rules of this SCC's magic predicates.
        survivors = [
            rule
            for rule in state.program
            if rule.head.pred not in magic_preds
        ]
        state = FoldUnfold(
            Program(survivors), state.definitions, state.history
        )
    result = state.program
    return result.restrict_to_reachable([gmt.query_pred]).relabeled()


def _ordered_vars(literals: list[Literal], wanted: set[str]):
    from repro.lang.terms import Var

    ordered: list[Var] = []
    seen: set[str] = set()
    for literal in literals:
        for arg in literal.args:
            for name in sorted(term_variables(arg)):
                if name in wanted and name not in seen:
                    seen.add(name)
                    ordered.append(Var(name))
    return tuple(ordered)


def _fold_definition_everywhere(
    state: FoldUnfold, definition: Rule, magic_preds: set[str]
) -> FoldUnfold:
    """Fold a supplementary definition wherever its body pattern occurs."""
    changed = True
    while changed:
        changed = False
        for rule in state.program.rules:
            if rule in state.definitions:
                continue
            if not any(
                literal.pred in magic_preds for literal in rule.body
            ):
                continue
            indexes = _find_fold_indexes(rule, definition)
            if indexes is None:
                continue
            try:
                state = _fold_consuming(state, rule, definition, indexes)
            except TransformError:
                continue
            changed = True
            break
    return state


def _find_fold_indexes(rule: Rule, definition: Rule) -> list[int] | None:
    """Match the definition's body literals against the rule's body."""
    from repro.transform.foldunfold import _match  # shared matcher

    def search(
        def_index: int, used: list[int], theta: dict
    ) -> list[int] | None:
        """Backtracking match of definition body literals."""
        if def_index == len(definition.body):
            return used
        pattern = definition.body[def_index].substitute(theta)
        for index, literal in enumerate(rule.body):
            if index in used:
                continue
            step = _match(pattern, literal)
            if step is None:
                continue
            merged = dict(theta)
            ok = True
            for name, term in step.items():
                if name in merged and merged[name] != term:
                    ok = False
                    break
                merged[name] = term
            if not ok:
                continue
            found = search(def_index + 1, used + [index], merged)
            if found is not None:
                return found
        return None

    return search(0, [], {})


def _fold_consuming(
    state: FoldUnfold, rule: Rule, definition: Rule, indexes: list[int]
) -> FoldUnfold:
    """Fold, removing the definition's constraint atoms from the rule.

    GMT folding treats constraints as body literals (the Balbin-style
    view): the matched constraint atoms travel into the supplementary
    predicate and are removed from the folded rule.  Removal is sound
    because every variable shared with the remainder is a head argument
    of the supplementary predicate.
    """
    from repro.transform.foldunfold import _match

    theta: dict = {}
    for def_literal, index in zip(definition.body, indexes):
        step = _match(def_literal.substitute(theta), rule.body[index])
        if step is None:
            raise TransformError("fold indexes do not match")
        for name, term in step.items():
            theta[name] = term
    from repro.transform.foldunfold import _apply

    moved = _apply(Rule(definition.head, (), definition.constraint), theta)
    rule_atoms = list(rule.constraint.atoms)
    for atom in moved.constraint.atoms:
        if atom in rule_atoms:
            rule_atoms.remove(atom)
        elif not rule.constraint.implies_atom(atom):
            raise TransformError(
                f"rule does not establish definition constraint {atom}"
            )
    drop = set(indexes)
    first = min(indexes)
    body: list[Literal] = []
    for index, literal in enumerate(rule.body):
        if index == first:
            body.append(moved.head)
        elif index not in drop:
            body.append(literal)
    folded = Rule(rule.head, tuple(body), Conjunction(rule_atoms), rule.label)
    return FoldUnfold(
        state.program.replace_rules([rule], [folded]),
        state.definitions,
        (*state.history, f"fold {definition.head.pred} into "
         f"{rule.label or rule}"),
    )


def gmt_transform(
    program: Program,
    query: Query,
    adornments: dict[str, str] | None = None,
) -> Program:
    """The full GMT pipeline: magic with grounding sips, then grounding.

    ``program`` must already be bcf-adorned (Example 6.1 style names);
    ``adornments`` defaults to :func:`infer_adornment_map`.
    """
    if adornments is None:
        adornments = infer_adornment_map(program)
    gmt = GmtProgram(
        program=program,
        adornments=adornments,
        query_pred=query.literal.pred,
    )
    _check_groundable(gmt)
    magic = gmt_magic(gmt, query)
    return ground_fold_unfold(gmt, magic)
