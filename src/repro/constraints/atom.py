"""Atomic linear arithmetic constraints (Definition 2.1).

An :class:`Atom` is a constraint ``expr op 0`` in *normalized* form:

* ``op`` is one of ``<=``, ``<`` or ``=`` (``>=``/``>`` are normalized by
  negating the expression at construction);
* the expression's coefficients are scaled to coprime **machine
  integers** with the lexicographically-first variable's coefficient
  positive (for ``=``) -- scaling for inequalities keeps the direction,
  i.e. only positive factors are applied.

Normalization makes syntactically-different spellings of the same
constraint (``2X <= 4`` vs ``X <= 2``) compare and hash equal, and --
because the scaling happens exactly once, here -- downstream arithmetic
(Fourier-Motzkin combination, parallel pruning, tightness comparison)
runs on plain integers instead of re-normalizing ``Fraction`` values at
every operation.

Atoms are additionally *hash-consed*: construction returns the one
canonical instance per normalized form from a global weak intern table
(:mod:`repro.constraints.intern`), so live atoms are semantically equal
iff identical, hashes are precomputed, and pickling or deep-copying an
atom re-interns it on the way back in.  An interned atom derives its
keys once: the sort key and variable set at interning, its negations
and its box bound on first use.  Pickling carries none of them.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from repro.constraints.intern import InternTable
from repro.constraints.linexpr import Coefficient, LinearExpr


class Op(enum.Enum):
    """Comparison operator of a normalized atom (``expr op 0``)."""

    LE = "<="
    LT = "<"
    EQ = "="

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_NEGATIONS = {Op.LE: Op.LT, Op.LT: Op.LE}

_INPUT_OPS = {
    "<=": (Op.LE, False),
    "<": (Op.LT, False),
    "=": (Op.EQ, False),
    "==": (Op.EQ, False),
    ">=": (Op.LE, True),
    ">": (Op.LT, True),
}

_OPS_BY_SYMBOL = {op.value: op for op in Op}


def normal_row(
    coeffs: Sequence[int], constant: int, op: Op
) -> tuple[tuple[int, ...], int, Op]:
    """The normal form of the integer row ``coeffs·x̄ + constant op 0``.

    ``coeffs`` is in variable-name order.  Divides out the common
    factor (gcd ignores zeros); for ``=`` the first nonzero coefficient
    (the constant, for a ground row) is made positive.  This is the one
    normalization: :class:`Atom` applies it to every expression and the
    projection kernel to every row it derives, so equal rows over one
    variable list are identical atoms.
    """
    divisor = gcd(constant, *coeffs)
    if divisor > 1:
        constant //= divisor
        coeffs = [value // divisor for value in coeffs]
    if op is Op.EQ:
        for lead in coeffs:
            if lead:
                break
        else:
            lead = constant
        if lead < 0:
            constant = -constant
            coeffs = [-value for value in coeffs]
    return tuple(coeffs), constant, op


_ATOMS = InternTable("atoms")


def _rebuild_atom(op_symbol: str, terms: tuple, constant: Coefficient):
    """Pickle/deepcopy reconstructor: re-normalizes and re-interns."""
    return Atom(LinearExpr(dict(terms), constant), _OPS_BY_SYMBOL[op_symbol])


class Atom:
    """A normalized, interned linear arithmetic constraint ``expr op 0``."""

    __slots__ = (
        "_expr", "_op", "_hash", "_dir", "_sort", "_vars", "_neg", "_box",
        "__weakref__",
    )

    def __new__(cls, expr: LinearExpr, op: Op) -> "Atom":
        if not isinstance(op, Op):
            raise TypeError(f"op must be an Op, got {op!r}")
        terms = expr.sorted_terms()
        coeffs = [value for __, value in terms]
        constant = expr.constant
        # Clear denominators (ints report denominator 1).
        scale = lcm(constant.denominator, *[v.denominator for v in coeffs])
        if scale != 1:
            coeffs = [int(value * scale) for value in coeffs]
            constant = int(constant * scale)
        coeffs, constant, __ = normal_row(coeffs, constant, op)
        names = [var for var, __ in terms]
        return Atom._intern(tuple(zip(names, coeffs)), constant, op)

    @staticmethod
    def from_row(names: Sequence[str], row: tuple) -> "Atom":
        """The atom of ``row``, in :func:`normal_row` form, over ``names``."""
        coeffs, constant, op = row
        return Atom._intern(
            tuple((var, c) for var, c in zip(names, coeffs) if c), constant, op
        )

    @staticmethod
    def _intern(terms: tuple, constant: int, op: Op) -> "Atom":
        """The one atom of a normal form; a new one derives its sort key
        and variable set here, once (the intern key holds their parts)."""
        key = (op, constant, terms)

        def build() -> "Atom":
            self = object.__new__(Atom)
            self._expr = LinearExpr(dict(terms), constant)
            self._op = op
            self._hash = hash(key)
            self._dir = self._neg = self._box = None
            self._sort = (op.value, terms, constant)
            self._vars = frozenset(var for var, __ in terms)
            return self

        return _ATOMS.intern(key, build)

    def __init__(self, expr: LinearExpr, op: Op) -> None:
        # All construction work happens (once) in __new__; __init__ runs
        # on every constructor call, including cache hits, and must not
        # touch the shared interned instance.
        pass

    def __reduce__(self):
        return (
            _rebuild_atom,
            (
                self._op.value,
                tuple(self._expr.sorted_terms()),
                self._expr.constant,
            ),
        )

    # -- constructors -------------------------------------------------

    @staticmethod
    def make(lhs: LinearExpr, op_symbol: str, rhs: LinearExpr) -> "Atom":
        """Build an atom from ``lhs op rhs`` with any of the five operators."""
        try:
            op, flip = _INPUT_OPS[op_symbol]
        except KeyError:
            raise ValueError(f"unknown comparison operator {op_symbol!r}")
        expr = lhs - rhs
        if flip:
            expr = -expr
        return Atom(expr, op)

    @staticmethod
    def le(lhs: LinearExpr, rhs: LinearExpr) -> "Atom":
        """Shorthand for ``lhs <= rhs``."""
        return Atom.make(lhs, "<=", rhs)

    @staticmethod
    def lt(lhs: LinearExpr, rhs: LinearExpr) -> "Atom":
        """Shorthand for ``lhs < rhs``."""
        return Atom.make(lhs, "<", rhs)

    @staticmethod
    def eq(lhs: LinearExpr, rhs: LinearExpr) -> "Atom":
        """Shorthand for ``lhs = rhs``."""
        return Atom.make(lhs, "=", rhs)

    @staticmethod
    def ge(lhs: LinearExpr, rhs: LinearExpr) -> "Atom":
        """Shorthand for ``lhs >= rhs``."""
        return Atom.make(lhs, ">=", rhs)

    @staticmethod
    def gt(lhs: LinearExpr, rhs: LinearExpr) -> "Atom":
        """Shorthand for ``lhs > rhs``."""
        return Atom.make(lhs, ">", rhs)

    # -- inspection ---------------------------------------------------

    @property
    def expr(self) -> LinearExpr:
        """The normalized left-hand expression (``expr op 0``)."""
        return self._expr

    @property
    def op(self) -> Op:
        """The normalized comparison operator."""
        return self._op

    def variables(self) -> frozenset[str]:
        """The variable names occurring in this object."""
        return self._vars

    def terms(self) -> tuple[tuple[str, int], ...]:
        """The variable terms in name order (the intern key's tuple)."""
        return self._sort[1]

    def is_ground(self) -> bool:
        """True when the atom mentions no variables."""
        return not self._vars

    def truth_value(self) -> bool | None:
        """``True``/``False`` for ground atoms, ``None`` otherwise."""
        if self._vars:
            return None
        constant = self._expr.constant
        if self._op is Op.LE:
            return constant <= 0
        if self._op is Op.LT:
            return constant < 0
        return constant == 0

    def is_equality(self) -> bool:
        """Is this an equality atom?"""
        return self._op is Op.EQ

    def direction(self) -> tuple[tuple, int]:
        """The atom's coprime direction vector and signed scale (cached).

        Returns ``(terms, k)`` where ``terms`` is the variable terms
        divided by ``k``, and ``k`` is the gcd of the variable
        coefficients signed so that the *direction's* leading
        coefficient is positive.  Atoms bounding the same halfspace
        direction share ``terms`` and the sign of ``k``; their relative
        tightness is ``Fraction(constant, abs(k))``.  Ground atoms
        return ``((), 1)``.
        """
        cached = self._dir
        if cached is None:
            terms = self._sort[1]
            scale = gcd(*(coeff for __, coeff in terms)) or 1
            if terms and terms[0][1] < 0:
                scale = -scale
            direction = tuple(
                (var, coeff // scale) for var, coeff in terms
            )
            cached = (direction, scale)
            self._dir = cached
        return cached

    def box_bound(self) -> tuple:
        """``(var, upper, lower)`` of a one-variable atom (cached).

        ``k*var + c op 0`` bounds ``var`` at ``-c/k``: above when
        ``k > 0``, below when ``k < 0``, both for ``=``.  A bound is
        ``(value, flag)``: the tightest upper bound is the min (flag 0 =
        strict, 1 = closed), the tightest lower bound the max (1 =
        strict, 0 = closed).  Other atoms give ``(None, None, None)``.
        """
        cached = self._box
        if cached is None:
            terms = self._sort[1]
            if len(terms) != 1:
                cached = (None, None, None)
            else:
                ((var, coeff),) = terms
                value = Fraction(-self._expr.constant, coeff)
                strict = self._op is Op.LT
                both = self._op is Op.EQ
                cached = (
                    var,
                    (value, 0 if strict else 1) if both or coeff > 0 else None,
                    (value, 1 if strict else 0) if both or coeff < 0 else None,
                )
            self._box = cached
        return cached

    # -- logic --------------------------------------------------------

    def negations(self) -> tuple["Atom", ...]:
        """Atoms whose disjunction is the negation of this atom (cached).

        ``not (e <= 0)`` is ``-e < 0``; ``not (e < 0)`` is ``-e <= 0``;
        ``not (e = 0)`` is ``e < 0 or -e < 0``.
        """
        cached = self._neg
        if cached is None:
            if self._op is Op.EQ:
                cached = (Atom(self._expr, Op.LT), Atom(-self._expr, Op.LT))
            else:
                cached = (Atom(-self._expr, _NEGATIONS[self._op]),)
            self._neg = cached
        return cached

    def substitute(self, bindings: Mapping[str, LinearExpr]) -> "Atom":
        """Substitute expressions for variables."""
        return Atom(self._expr.substitute(bindings), self._op)

    def rename(self, mapping: Mapping[str, str]) -> "Atom":
        """Rename variables.

        Renaming without a merge keeps the coefficients, so the atom
        stays coprime: the renamed terms are re-sorted, and an equality
        whose new leading coefficient is negative flips its sign.  Only
        a rename that merges two variables re-normalizes from scratch.
        """
        terms = self._sort[1]
        renamed = [(mapping.get(var, var), coeff) for var, coeff in terms]
        if len({var for var, __ in renamed}) < len(renamed):
            return Atom(self._expr.rename(mapping), self._op)
        renamed.sort()
        constant = self._expr.constant
        if self._op is Op.EQ and renamed and renamed[0][1] < 0:
            renamed = [(var, -coeff) for var, coeff in renamed]
            constant = -constant
        return Atom._intern(tuple(renamed), constant, self._op)

    def satisfied_by(self, assignment: Mapping[str, Coefficient]) -> bool:
        """Evaluate the atom under a total assignment."""
        value = self._expr.evaluate(assignment)
        if self._op is Op.LE:
            return value <= 0
        if self._op is Op.LT:
            return value < 0
        return value == 0

    # -- comparisons ----------------------------------------------------

    def _key(self) -> tuple:
        return (self._op, self._expr)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Atom):
            return NotImplemented
        # Live atoms are interned, so reaching here means "not equal";
        # compare structurally anyway for robustness.
        return self._key() == other._key()

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple:
        """A deterministic ordering key."""
        return self._sort

    def __repr__(self) -> str:
        return f"Atom({self})"

    def __str__(self) -> str:
        terms = self._expr.sorted_terms()
        op_symbol = self._op.value
        expr = self._expr
        if self._op is not Op.EQ and terms and all(
            coeff < 0 for _, coeff in terms
        ):
            # Display "-X < -c" as the friendlier "X > c".
            expr = -expr
            op_symbol = ">" if self._op is Op.LT else ">="
            terms = expr.sorted_terms()
        lhs = LinearExpr(dict(terms))
        rhs = -LinearExpr.const(expr.constant)
        return f"{lhs} {op_symbol} {rhs}"


TRUE_ATOM = Atom(LinearExpr.zero(), Op.LE)
"""A trivially-true atom (``0 <= 0``)."""

FALSE_ATOM = Atom(LinearExpr.const(1), Op.LE)
"""A trivially-false atom (``1 <= 0``)."""
