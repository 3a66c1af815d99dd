"""Conjunctions of linear arithmetic constraints.

A :class:`Conjunction` is an immutable set of :class:`~repro.constraints.atom.Atom`
values interpreted conjunctively.  It supports the operations a CQL
bottom-up evaluator needs (Section 2 of the paper):

* exact satisfiability,
* projection onto a variable subset (existential quantifier elimination),
* implication tests against atoms, conjunctions and DNF constraint sets,
* extraction of forced ground values (used to recognize when a
  "constraint fact" is really a ground fact),
* canonicalization for cheap syntactic deduplication.

Conjunctions are hash-consed like atoms (one canonical instance per
normalized atom tuple, :mod:`repro.constraints.intern`), which makes
the per-instance lazy fields below -- satisfiability, the variable
set, the canonical form -- global memo tables keyed by identity.
Projection and implication results, which additionally depend on a
second argument, go through the bounded LRU of
:mod:`repro.constraints.cache` keyed on the interned operands.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.constraints import cache as solver_cache
from repro.constraints.atom import FALSE_ATOM, Atom, Op
from repro.constraints.intern import InternTable
from repro.constraints.linexpr import Coefficient, LinearExpr, as_fraction
from repro.constraints.project import (
    eliminate_variables,
    is_satisfiable,
    prune_parallel,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.constraints.cset import ConstraintSet


_CONJUNCTIONS = InternTable("conjunctions")


def _rebuild_conjunction(atoms: tuple) -> "Conjunction":
    """Pickle/deepcopy reconstructor: atoms re-intern, then the tuple."""
    return Conjunction(atoms)


class Conjunction:
    """An immutable, interned conjunction of normalized atoms."""

    __slots__ = (
        "_atoms", "_hash", "_sat", "_vars", "_canon", "__weakref__"
    )

    def __new__(cls, atoms: Iterable[Atom] = ()) -> "Conjunction":
        kept: list[Atom] = []
        seen: set[Atom] = set()
        false = False
        for atom in atoms:
            truth = atom.truth_value()
            if truth is True:
                continue
            if truth is False:
                false = True
                kept = []
                break
            if atom not in seen:
                seen.add(atom)
                kept.append(atom)
        if false:
            kept = [FALSE_ATOM]
        return Conjunction._intern(tuple(sorted(kept, key=Atom.sort_key)))

    @staticmethod
    def _intern(key: tuple[Atom, ...]) -> "Conjunction":
        """The one conjunction of a sorted, deduplicated atom tuple."""

        def build() -> "Conjunction":
            self = object.__new__(Conjunction)
            self._atoms = key
            self._hash = hash(key)
            self._sat = False if key == (FALSE_ATOM,) else None
            self._vars = None
            self._canon = None
            return self

        return _CONJUNCTIONS.intern(key, build)

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        # Construction happens (once) in __new__; __init__ runs on
        # every call, including intern hits, and must stay a no-op.
        pass

    def __reduce__(self):
        return (_rebuild_conjunction, (self._atoms,))

    # -- constructors -------------------------------------------------

    @staticmethod
    def true() -> "Conjunction":
        """The trivially-true value."""
        return _TRUE

    @staticmethod
    def false() -> "Conjunction":
        """The trivially-false value."""
        return _FALSE

    # -- inspection ---------------------------------------------------

    @property
    def atoms(self) -> tuple[Atom, ...]:
        """The normalized atoms, deterministically ordered."""
        return self._atoms

    def variables(self) -> frozenset[str]:
        """The variable names occurring in this object (cached)."""
        cached = self._vars
        if cached is None:
            result: set[str] = set()
            for atom in self._atoms:
                result |= atom.variables()
            cached = frozenset(result)
            self._vars = cached
        return cached

    def is_true(self) -> bool:
        """Syntactically true (no atoms)."""
        return not self._atoms

    def is_satisfiable(self) -> bool:
        """Exact satisfiability over the rationals (memoized).

        Interning makes this per-instance field a global memo: every
        syntactic respelling of the conjunction shares the one cached
        decision.
        """
        if self._sat is None:
            self._sat = is_satisfiable(self._atoms)
        return self._sat

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self):
        return iter(self._atoms)

    # -- construction -------------------------------------------------

    def conjoin(self, other: "Conjunction | Iterable[Atom]") -> "Conjunction":
        """Conjunction with more atoms or another conjunction."""
        if isinstance(other, Conjunction):
            if not other._atoms:
                return self
            if not self._atoms:
                return other
            extra: Sequence[Atom] = other._atoms
        else:
            extra = tuple(other)
            if not extra:
                return self
        return Conjunction((*self._atoms, *extra))

    def add(self, atom: Atom) -> "Conjunction":
        """Conjunction with one more atom."""
        return Conjunction((*self._atoms, atom))

    def rename(self, mapping: Mapping[str, str]) -> "Conjunction":
        """Rename variables.

        A rename that is injective on the variables maps distinct
        non-ground atoms to distinct non-ground atoms, so the renamed
        tuple needs only sorting, and it keeps the source's
        satisfiability, which a newly interned result takes over; a
        merging rename may make atoms coincide or turn ground, and takes
        the general path.
        """
        renamed = [atom.rename(mapping) for atom in self._atoms]
        names = self.variables()
        if len({mapping.get(var, var) for var in names}) < len(names):
            return Conjunction(renamed)
        result = Conjunction._intern(
            tuple(sorted(renamed, key=Atom.sort_key))
        )
        if result._sat is None:
            result._sat = self._sat
        return result

    def substitute(
        self, bindings: Mapping[str, LinearExpr]
    ) -> "Conjunction":
        """Substitute expressions for variables."""
        return Conjunction(atom.substitute(bindings) for atom in self._atoms)

    # -- projection ----------------------------------------------------

    def project(self, keep: Iterable[str]) -> "Conjunction":
        """Project onto ``keep``: exact existential quantifier elimination.

        Returns the *false* conjunction when unsatisfiable.  Results
        are memoized on ``(self, eliminated variables)`` in the global
        solver cache -- across semi-naive delta rounds the same
        interned conjunction is projected onto the same head variables
        over and over, and every repeat is a cache probe instead of a
        Fourier-Motzkin run.
        """
        keep_set = set(keep)
        elim = frozenset(self.variables() - keep_set)
        if not self._atoms:
            return self

        def compute() -> "Conjunction":
            result = eliminate_variables(self._atoms, elim)
            if result is None:
                return Conjunction.false()
            # Note: a non-None result only means no contradiction was
            # *found* during elimination; the residual atoms over the
            # kept variables may still be jointly unsatisfiable, so
            # satisfiability stays lazy.
            return Conjunction(result)

        return solver_cache.lookup(("project", self, elim), compute)

    def eliminate(self, drop: Iterable[str]) -> "Conjunction":
        """Eliminate exactly the given variables."""
        return self.project(self.variables() - set(drop))

    # -- implication -----------------------------------------------------

    def implies_atom(self, atom: Atom) -> bool:
        """Does every solution of ``self`` satisfy ``atom``?

        An unsatisfiable conjunction implies everything.
        """
        if not self.is_satisfiable():
            return True

        def compute() -> bool:
            for negated in atom.negations():
                if Conjunction((*self._atoms, negated)).is_satisfiable():
                    return False
            return True

        return solver_cache.lookup(("implies_atom", self, atom), compute)

    def implies(self, other: "Conjunction") -> bool:
        """Conjunction-to-conjunction implication."""
        if self is other:
            return True
        return all(self.implies_atom(atom) for atom in other._atoms)

    def implies_set(self, cset: "ConstraintSet") -> bool:
        """Does ``self`` imply the DNF constraint set ``cset``?

        Decided by checking ``self and not(cset)`` unsatisfiable, with the
        negation expanded disjunct-by-disjunct and pruned eagerly.
        """
        if not self.is_satisfiable():
            return True
        if self in cset.disjuncts:
            return True

        def compute() -> bool:
            return not _negation_branches_satisfiable(
                list(self._atoms), [d.atoms for d in cset.disjuncts]
            )

        return solver_cache.lookup(("implies_set", self, cset), compute)

    def equivalent(self, other: "Conjunction") -> bool:
        """Mutual implication."""
        return self.implies(other) and other.implies(self)

    # -- groundness ------------------------------------------------------

    def bounds(self, var: str) -> tuple[
        Fraction | None, bool, Fraction | None, bool
    ]:
        """Tightest ``(lower, lower_strict, upper, upper_strict)`` on ``var``.

        Requires projecting out the other variables first; ``None`` means
        unbounded in that direction.  Must only be called on a
        satisfiable conjunction.
        """
        single = self.project({var})
        lower: Fraction | None = None
        lower_strict = False
        upper: Fraction | None = None
        upper_strict = False
        for atom in single.atoms:
            coeff = atom.expr.coeff(var)
            if coeff == 0:
                continue
            bound = as_fraction(-atom.expr.constant) / coeff
            if atom.op is Op.EQ:
                return (bound, False, bound, False)
            if coeff > 0:
                if upper is None or bound < upper:
                    upper, upper_strict = bound, atom.op is Op.LT
                elif bound == upper and atom.op is Op.LT:
                    upper_strict = True
            else:
                if lower is None or bound > lower:
                    lower, lower_strict = bound, atom.op is Op.LT
                elif bound == lower and atom.op is Op.LT:
                    lower_strict = True
        return (lower, lower_strict, upper, upper_strict)

    def forced_value(self, var: str) -> Fraction | None:
        """The unique value ``var`` must take, if any."""
        lower, lower_strict, upper, upper_strict = self.bounds(var)
        if (
            lower is not None
            and lower == upper
            and not lower_strict
            and not upper_strict
        ):
            return lower
        return None

    def ground_values(
        self, variables: Iterable[str]
    ) -> dict[str, Fraction] | None:
        """Values forced for every listed variable, or ``None``.

        A constraint fact ``p(X̄; C)`` is a *ground* fact exactly when
        this returns an assignment for all of ``X̄``.
        """
        if not self.is_satisfiable():
            return None
        values: dict[str, Fraction] = {}
        for var in variables:
            value = self.forced_value(var)
            if value is None:
                return None
            values[var] = value
        return values

    def satisfied_by(self, assignment: Mapping[str, Coefficient]) -> bool:
        """Evaluate under a total variable assignment."""
        return all(atom.satisfied_by(assignment) for atom in self._atoms)

    # -- canonicalization -------------------------------------------------

    def canonical(self) -> "Conjunction":
        """A cheaper-to-compare form: parallel pruning plus full
        redundant-atom elimination (each atom implied by the others is
        dropped, scanning in sorted order for determinism).  Memoized
        per interned instance; the canonical form is its own canonical
        form."""
        cached = self._canon
        if cached is not None:
            return cached
        if not self.is_satisfiable():
            result = Conjunction.false()
        else:
            atoms = list(prune_parallel(self._atoms))
            atoms.sort(key=Atom.sort_key)
            kept: list[Atom] = []
            for index, atom in enumerate(atoms):
                others = kept + atoms[index + 1 :]
                if not Conjunction(others).implies_atom(atom):
                    kept.append(atom)
            result = Conjunction(kept)
            result._sat = True
        result._canon = result
        self._canon = result
        return result

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Conjunction):
            return NotImplemented
        # Live conjunctions are interned; structural fallback for safety.
        return self._atoms == other._atoms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Conjunction({self})"

    def __str__(self) -> str:
        if not self._atoms:
            return "true"
        return " & ".join(str(atom) for atom in self._atoms)


def _negation_branches_satisfiable(
    base: list[Atom], disjuncts: list[tuple[Atom, ...]]
) -> bool:
    """Is ``base and not(d1 or ... or dn)`` satisfiable?

    ``not(d1 or ...)`` is a conjunction of negated disjuncts; each negated
    disjunct is a disjunction of negated atoms, so the check branches.
    Branches are pruned as soon as the accumulated conjunction goes
    unsatisfiable, and a disjunct the accumulated branch already
    excludes (``base and d`` unsatisfiable means ``base`` implies
    ``not d``) is dropped without branching at all -- on pairwise
    disjoint sets, where at most one disjunct intersects any branch,
    this turns an exponential tree into a near-linear scan.

    Every satisfiability decision goes through interned conjunctions,
    so recurring subproblems (shared branch prefixes, re-checked
    disjunct intersections) are answered from the memo.
    """
    if not Conjunction(base).is_satisfiable():
        return False
    index = 0
    while index < len(disjuncts):
        if Conjunction(base + list(disjuncts[index])).is_satisfiable():
            break
        index += 1
    else:
        return True
    head = disjuncts[index]
    tail = disjuncts[index + 1 :]
    for atom in head:
        for negated in atom.negations():
            if _negation_branches_satisfiable(base + [negated], tail):
                return True
    return False


_TRUE = Conjunction(())
_FALSE = Conjunction((FALSE_ATOM,))
