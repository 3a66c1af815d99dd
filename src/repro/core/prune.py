"""The last compile step: evaluate only what the compile did not prove.

``pred`` attaches each body literal's minimum predicate constraint to
its rule so that QRP inference can use it (Section 4.4); at evaluation
those atoms are re-checks of what every fact already satisfies.  And
the magic templates emit rules that can never derive anything new.
:func:`prune` deletes both, in two passes:

* :func:`drop_implied_atoms` drops a rule's constraint atom when the
  atoms the rule still keeps, together with each body literal's proved
  predicate constraint renamed onto it (``ptol``), imply it.  Every
  fact of a rewritten predicate is a fact of the program ``pred``
  analysed, so it satisfies that predicate's constraint: the rule
  fires on exactly the same body facts, and derives the same facts.
* :func:`drop_dead_rules` drops a rule that has its own head as a body
  literal, an exact duplicate, and a rule whose head and body equal a
  sibling's while its atoms are a proper superset of the sibling's.

Neither pass adds a rule: each output rule is an input rule with atoms
removed.  The paper's program -- what ``constraint_rewrite`` and
``apply_sequence`` return -- is this step's input.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.cset import ConstraintSet
from repro.lang.ast import Literal, Program, Rule
from repro.lang.positions import ptol

#: A bound as :meth:`Atom.box_bound` gives it: ``(value, flag)``.
Bound = tuple


def prune(
    program: Program, proved: Mapping[str, ConstraintSet]
) -> Program:
    """Both passes: implied atoms first, then the rules that left dead."""
    return drop_dead_rules(drop_implied_atoms(program, proved))


def drop_implied_atoms(
    program: Program, proved: Mapping[str, ConstraintSet]
) -> Program:
    """Drop every rule atom the kept atoms and ``proved`` imply.

    ``proved`` maps a predicate of ``program`` to a constraint all of
    its facts satisfy; a predicate it does not name gets *true*.
    """
    if not proved:
        return program
    proofs: dict[Literal, _Proof | None] = {}
    return Program(
        _without_implied(rule, proved, proofs) for rule in program
    )


class _Proof(NamedTuple):
    """What a proved constraint, renamed onto a literal, says.

    ``upper``/``lower`` hold the hull of its disjuncts' one-variable
    bounds; ``atoms`` its atoms when it is a single conjunction.
    """

    upper: dict[str, Bound]
    lower: dict[str, Bound]
    atoms: tuple[Atom, ...]
    variables: frozenset[str]


def _proof(cset: ConstraintSet) -> _Proof | None:
    """The :class:`_Proof` of ``cset``; ``None`` when it is *false*."""
    if cset.is_false():
        return None
    hull_upper: dict[str, Bound] | None = None
    hull_lower: dict[str, Bound] = {}
    for disjunct in cset.disjuncts:
        upper: dict[str, Bound] = {}
        lower: dict[str, Bound] = {}
        for atom in disjunct.atoms:
            var, high, low = atom.box_bound()
            if high is not None and (var not in upper or high < upper[var]):
                upper[var] = high
            if low is not None and (var not in lower or low > lower[var]):
                lower[var] = low
        if hull_upper is None:
            hull_upper, hull_lower = upper, lower
            continue
        hull_upper = {
            var: max(bound, upper[var])
            for var, bound in hull_upper.items()
            if var in upper
        }
        hull_lower = {
            var: min(bound, lower[var])
            for var, bound in hull_lower.items()
            if var in lower
        }
    if len(cset.disjuncts) == 1:
        (single,) = cset.disjuncts
        return _Proof(
            hull_upper, hull_lower, single.atoms, single.variables()
        )
    return _Proof(hull_upper or {}, hull_lower, (), frozenset())


def _without_implied(
    rule: Rule,
    proved: Mapping[str, ConstraintSet],
    proofs: dict[Literal, _Proof | None],
) -> Rule:
    """``rule`` less the atoms its literals' proved constraints imply.

    A one-variable atom is decided against the bounds the renamed
    constraints put on its variable.  An atom over several variables
    goes to the (memoized) solver, with the atoms still kept and the
    renamed one-disjunct constraints as its premise -- but only when
    those constraints mention every one of its variables: an atom over
    a variable no proved constraint speaks of (a head variable's
    defining equality, say) is the rule's own, and solving for it is
    what would make this pass cost more than it saves.  ``proofs``
    memoizes each literal's renamed proof over one program: the magic
    templates copy a body literal into several rules.
    """
    if rule.constraint.is_true():
        return rule
    upper: dict[str, Bound] = {}
    lower: dict[str, Bound] = {}
    premise: list[Atom] = []
    spoken: set[str] = set()
    for literal in rule.body:
        cset = proved.get(literal.pred)
        if cset is None or cset.is_true():
            continue
        if literal not in proofs:
            proofs[literal] = _proof(ptol(literal, cset))
        proof = proofs[literal]
        if proof is None:
            return rule  # the rule never fires; leave it to the engine
        for var, bound in proof.upper.items():
            if var not in upper or bound < upper[var]:
                upper[var] = bound
        for var, bound in proof.lower.items():
            if var not in lower or bound > lower[var]:
                lower[var] = bound
        premise.extend(proof.atoms)
        spoken.update(proof.variables)
    atoms = rule.constraint.atoms
    kept: list[Atom] = []
    for index, atom in enumerate(atoms):
        if _within(atom, upper, lower):
            continue
        variables = atom.variables()
        if len(variables) > 1 and variables <= spoken and (
            atom in premise
            or Conjunction(
                (*kept, *atoms[index + 1:], *premise)
            ).implies_atom(atom)
        ):
            continue
        kept.append(atom)
    if len(kept) == len(atoms):
        return rule
    return rule.with_constraint(Conjunction(kept))


def _within(
    atom: Atom, upper: Mapping[str, Bound], lower: Mapping[str, Bound]
) -> bool:
    """Do the bounds imply this one-variable atom?

    Bounds compare as ``(value, flag)`` tuples, tightest first: an
    upper bound at most the atom's, and a lower bound at least its,
    imply it.
    """
    var, high, low = atom.box_bound()
    if var is None:
        return False
    if high is not None and (var not in upper or upper[var] > high):
        return False
    if low is not None and (var not in lower or lower[var] < low):
        return False
    return True


def drop_dead_rules(program: Program) -> Program:
    """Drop the rules that can derive nothing a sibling does not.

    Purely syntactic: a rule with its own head as a body literal only
    re-derives the fact it read; of exact duplicates the first stays;
    and a rule whose head and body are a sibling's but whose atoms are
    a proper superset of the sibling's derives a subset of what the
    sibling derives.  The rules that stay keep their labels and order.
    """
    shapes: dict[tuple[Literal, tuple[Literal, ...]], list] = {}
    live: list[tuple[Rule, frozenset[Atom], list]] = []
    for rule in program:
        if rule.head in rule.body:
            continue
        siblings = shapes.setdefault((rule.head, rule.body), [])
        atoms = frozenset(rule.constraint.atoms)
        if atoms in siblings:
            continue
        siblings.append(atoms)
        live.append((rule, atoms, siblings))
    kept = [
        rule
        for rule, atoms, siblings in live
        if not any(other < atoms for other in siblings)
    ]
    if len(kept) == len(program):
        return program
    return Program(kept)
