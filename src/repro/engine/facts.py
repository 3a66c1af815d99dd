"""Facts: ground facts and constraint facts in canonical form.

A :class:`Fact` for an ``n``-ary predicate stores one *value* per
argument position:

* a :class:`~repro.lang.terms.Sym` -- a symbolic constant,
* a fixed numeric value, *int-first*: a plain ``int`` when it is
  integral and a :class:`fractions.Fraction` only when it is not (its
  :func:`number_key` form, as :mod:`repro.constraints.linexpr` keeps
  coefficients),
* :data:`PENDING` -- a numerically constrained position, governed by the
  fact's :class:`~repro.constraints.conjunction.Conjunction` over the
  position variables ``$1 .. $n``.

``Fraction(3) == 3`` and the two hash alike, so a caller may hand in
either; every constructor here stores the ``int``, which is what makes
hashing and comparing a fact's arguments cheap.  :func:`is_number` is
the one "is this value numeric" test (``int`` or ``Fraction``, never
``bool``).  On canonical facts a ground fact is subsumed only by an
equal one, so a relation holding no non-ground fact inserts by the
duplicate test alone (:mod:`repro.engine.relation`); neither changes
what is derived, nor the derivation count.

Canonicalization performed by :func:`make_fact` guarantees that

* the constraint mentions only PENDING positions,
* any position whose constraint forces a unique value is turned into a
  fixed numeric value (so ``is_ground`` is a syntactic check), and
* the constraint conjunction is satisfiable and redundancy-free,

which makes hash-based deduplication effective and keeps the subsumption
test (:meth:`Fact.subsumes`) simple.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr
from repro.lang.ast import Rule
from repro.lang.positions import arg_position
from repro.lang.terms import NumTerm, Sym, Var


class _Pending:
    """Singleton marker for a constrained (non-fixed) argument position."""

    _instance: "_Pending | None" = None

    def __new__(cls) -> "_Pending":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "PENDING"


PENDING = _Pending()

Value = Union[Sym, int, Fraction, _Pending]


def number_key(value: "int | Fraction") -> "int | Fraction":
    """A numeric value in its canonical, comparison-cheap form.

    Integral values become the plain ``int`` (hashed, compared and
    multiplied in C); ints and Fractions order correctly against each
    other.  Every numeric fact argument is already in this form.
    """
    return value.numerator if value.denominator == 1 else value


def is_number(value: object) -> bool:
    """Is the value numeric -- an ``int`` (not a ``bool``) or a Fraction?

    The ``int`` test goes first: ``isinstance`` against ``Fraction`` (an
    ABC) takes the slow path for anything that is not one.
    """
    return type(value) is int or isinstance(value, Fraction)


def _coerce_value(value: object) -> Value:
    if type(value) is int or value is PENDING or isinstance(value, Sym):
        return value
    if isinstance(value, Fraction):
        return number_key(value)
    if isinstance(value, bool):
        raise TypeError("booleans are not CQL values")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        return Sym(value)
    if value is None:
        return PENDING
    raise TypeError(f"cannot use {value!r} as a fact argument")


class Fact:
    """An immutable, canonical (possibly constraint) fact."""

    __slots__ = ("pred", "args", "constraint", "_hash", "_full")

    def __init__(
        self,
        pred: str,
        args: tuple[Value, ...],
        constraint: Conjunction,
    ) -> None:
        # Callers should use make_fact / Fact.ground, which canonicalize.
        self.pred = pred
        self.args = args
        self.constraint = constraint
        self._hash: int | None = None
        self._full: Conjunction | None = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def ground(pred: str, values: Iterable[object]) -> "Fact":
        """A ground fact; numbers go int-first, strings become Syms."""
        args = tuple(_coerce_value(value) for value in values)
        if any(isinstance(arg, _Pending) for arg in args):
            raise ValueError("ground facts cannot have pending positions")
        return Fact(pred, args, Conjunction.true())

    # -- inspection ---------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of argument positions."""
        return len(self.args)

    def is_ground(self) -> bool:
        """Does the object contain no PENDING position?"""
        return not any(isinstance(arg, _Pending) for arg in self.args)

    def pending_positions(self) -> tuple[int, ...]:
        """1-based positions still governed by the constraint."""
        return tuple(
            index
            for index, arg in enumerate(self.args, start=1)
            if isinstance(arg, _Pending)
        )

    def ground_tuple(self) -> tuple[Sym | int | Fraction, ...]:
        """The argument values; raises unless ground."""
        if not self.is_ground():
            raise ValueError(f"{self} is not ground")
        return self.args  # type: ignore[return-value]

    def full_conjunction(self) -> Conjunction:
        """The fact's meaning over ``$1..$n`` with numeric fixes explicit.

        Symbolic positions carry no arithmetic constraint.  Memoized:
        subsumption checks call this repeatedly per stored fact, and the
        interned result is a single shared object.
        """
        if self._full is not None:
            return self._full
        atoms: list[Atom] = list(self.constraint.atoms)
        for index, arg in enumerate(self.args, start=1):
            if is_number(arg):
                atoms.append(
                    Atom.eq(
                        LinearExpr.var(arg_position(index)),
                        LinearExpr.const(arg),
                    )
                )
        self._full = Conjunction(atoms)
        return self._full

    # -- subsumption ----------------------------------------------------

    def subsumes(self, other: "Fact") -> bool:
        """Does this fact cover every ground instance of ``other``?

        Positions are compared sort-wise: symbolic positions must match
        exactly; a PENDING position whose constraint does not mention it
        is a wildcard and covers anything (including symbols); numeric
        positions reduce to constraint implication.
        """
        if self.pred != other.pred or self.arity != other.arity:
            return False
        my_vars = self.constraint.variables()
        for index, (mine, theirs) in enumerate(
            zip(self.args, other.args), start=1
        ):
            position = arg_position(index)
            if mine is not PENDING:  # a symbol or a number
                if mine != theirs:
                    return False
            elif isinstance(theirs, Sym):
                if position in my_vars:
                    return False
            # Number / PENDING handled by implication below.
        return other.full_conjunction().implies(self.full_conjunction())

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fact):
            return NotImplemented
        return (
            self.pred == other.pred
            and self.args == other.args
            and self.constraint == other.constraint
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.pred, self.args, self.constraint))
        return self._hash

    def __repr__(self) -> str:
        return f"Fact({self})"

    def __str__(self) -> str:
        rendered: list[str] = []
        pending_index = 0
        for index, arg in enumerate(self.args, start=1):
            if isinstance(arg, _Pending):
                rendered.append(arg_position(index))
                pending_index += 1
            else:
                rendered.append(str(arg))
        inner = ", ".join(rendered)
        if self.constraint.is_true():
            return f"{self.pred}({inner})"
        return f"{self.pred}({inner}; {self.constraint})"


def make_fact(
    pred: str,
    values: Sequence[object],
    constraint: Conjunction = Conjunction.true(),
) -> Fact | None:
    """Build a canonical fact; ``None`` when the constraint is unsatisfiable.

    ``values`` entries may be Syms, strings, ints, Fractions, or
    ``None``/:data:`PENDING` for constrained positions.  The constraint
    is given over ``$1..$n`` and is projected onto the pending positions;
    positions it forces to a unique value become fixed numeric values.
    """
    args = [_coerce_value(value) for value in values]
    pending_vars = {
        arg_position(index)
        for index, arg in enumerate(args, start=1)
        if isinstance(arg, _Pending)
    }
    fixed_atoms: list[Atom] = []
    for index, arg in enumerate(args, start=1):
        if is_number(arg) and arg_position(index) in (
            constraint.variables()
        ):
            fixed_atoms.append(
                Atom.eq(
                    LinearExpr.var(arg_position(index)),
                    LinearExpr.const(arg),
                )
            )
    conjunction = constraint.conjoin(fixed_atoms).project(pending_vars)
    if not conjunction.is_satisfiable():
        return None
    # Freeze positions forced to a unique value.
    changed = True
    while changed:
        changed = False
        for index, arg in enumerate(args, start=1):
            if not isinstance(arg, _Pending):
                continue
            position = arg_position(index)
            if position not in conjunction.variables():
                continue
            forced = conjunction.forced_value(position)
            if forced is not None:
                args[index - 1] = number_key(forced)
                conjunction = conjunction.substitute(
                    {position: LinearExpr.const(forced)}
                )
                changed = True
    conjunction = conjunction.canonical()
    return Fact(pred, tuple(args), conjunction)


def ground_fact(rule: Rule) -> Fact | None:
    """The ground fact a rule states, or ``None`` unless it states one:
    it has no body and no constraint, and every head argument is a
    symbol or a numeric constant."""
    if rule.body or not rule.constraint.is_true():
        return None
    values: list[object] = []
    for arg in rule.head.args:
        if isinstance(arg, Sym):
            values.append(arg)
        elif isinstance(arg, NumTerm) and arg.is_constant():
            values.append(arg.value)
        else:
            return None
    return Fact.ground(rule.head.pred, values)


def fact_of_rule(rule: Rule) -> Fact | None:
    """The canonical fact a body-less rule derives; ``None`` if it cannot.

    What the rule evaluator emits for the rule at a cold start, built
    the same way: variable head arguments become pending positions tied
    to the rule's constraint, which :func:`make_fact` projects and
    freezes.  A magic seed ``m_p(X) :- X <= 5`` comes out as the
    constraint fact ``m_p($1; $1 <= 5)`` whether the seed *rule* fires
    or the session injects it into a warm database as a delta.
    """
    if rule.body:
        raise ValueError(f"not a fact rule: {rule}")
    values: list[object] = []
    atoms = list(rule.constraint.atoms)
    for index, arg in enumerate(rule.head.args, start=1):
        if isinstance(arg, Sym):
            values.append(arg)
        elif isinstance(arg, Var) or not arg.is_constant():
            values.append(PENDING)
            expr = arg.to_expr() if isinstance(arg, Var) else arg.expr
            atoms.append(
                Atom.eq(LinearExpr.var(arg_position(index)), expr)
            )
        else:
            values.append(arg.value)
    return make_fact(rule.head.pred, values, Conjunction(atoms))
