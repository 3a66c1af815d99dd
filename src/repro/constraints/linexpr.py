"""Linear expressions over named variables with exact rational coefficients.

A :class:`LinearExpr` represents ``c0 + c1*X1 + ... + cn*Xn`` where the
``ci`` are exact rationals and the ``Xi`` are variable names (plain
strings).  Expressions are immutable and hashable; all arithmetic is
exact.

Coefficients are stored as plain :class:`int` whenever they are
integral and as :class:`fractions.Fraction` only otherwise.  The two
representations are interchangeable (``Fraction(2) == 2`` and they hash
equal), but integer arithmetic is an order of magnitude cheaper than
``Fraction``'s normalizing arithmetic, and after atom normalization
(:mod:`repro.constraints.atom` scales every atom to coprime integers)
the hot paths -- Fourier-Motzkin combination, parallel-atom pruning,
hashing -- run on machine integers.  Division is the one operation that
can leave the integers; use :func:`as_fraction` (or
``Fraction(a) / b``) at division sites, never bare ``/`` on two ints.

Variables of the constraint layer are strings on purpose: the language
layer maps rule variables to their names, and predicate-constraint
machinery uses argument-position names such as ``"$1"``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Coefficient = Union[int, Fraction]

_ZERO = 0


def as_fraction(value: Coefficient) -> Fraction:
    """Coerce an exact rational (int or Fraction) to a ``Fraction``."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _as_exact(value: Coefficient) -> Coefficient:
    """Validate/canonicalize a coefficient: ints stay ints, integral
    Fractions collapse to int, floats are rejected."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator
        return value
    if isinstance(value, float):
        raise TypeError(
            "float coefficients are not allowed; use Fraction for exactness"
        )
    raise TypeError(f"cannot use {value!r} as a coefficient")


class LinearExpr:
    """An immutable linear expression ``constant + sum(coeff[v] * v)``."""

    __slots__ = ("_coeffs", "_constant", "_hash")

    def __init__(
        self,
        coeffs: Mapping[str, Coefficient] | None = None,
        constant: Coefficient = 0,
    ) -> None:
        items = {}
        if coeffs:
            for var, coeff in coeffs.items():
                if type(coeff) is not int:  # ints (not bools) are exact
                    coeff = _as_exact(coeff)
                if coeff:
                    items[var] = coeff
        self._coeffs: dict[str, Coefficient] = items
        self._constant = (
            constant if type(constant) is int else _as_exact(constant)
        )
        self._hash: int | None = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def var(name: str, coeff: Coefficient = 1) -> "LinearExpr":
        """The expression ``coeff * name``."""
        return LinearExpr({name: coeff})

    @staticmethod
    def const(value: Coefficient) -> "LinearExpr":
        """The constant expression ``value``."""
        return LinearExpr({}, value)

    @staticmethod
    def zero() -> "LinearExpr":
        """The zero expression."""
        return _ZERO_EXPR

    # -- inspection ---------------------------------------------------

    @property
    def constant(self) -> Coefficient:
        """The constant term (an exact rational: int or Fraction)."""
        return self._constant

    @property
    def coeffs(self) -> Mapping[str, Coefficient]:
        """A copy of the variable-coefficient mapping."""
        return dict(self._coeffs)

    def coeff(self, var: str) -> Coefficient:
        """The coefficient of ``var`` (zero when absent)."""
        return self._coeffs.get(var, _ZERO)

    def variables(self) -> frozenset[str]:
        """The variable names occurring in this object."""
        return frozenset(self._coeffs)

    def is_constant(self) -> bool:
        """Does the object contain no variables?"""
        return not self._coeffs

    def sorted_terms(self) -> list[tuple[str, Coefficient]]:
        """Variable terms in lexicographic variable order."""
        return sorted(self._coeffs.items())

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "LinearExpr | Coefficient") -> "LinearExpr":
        if isinstance(other, (int, Fraction)):
            return LinearExpr(self._coeffs, self._constant + other)
        if not isinstance(other, LinearExpr):
            return NotImplemented
        coeffs = dict(self._coeffs)
        for var, coeff in other._coeffs.items():
            coeffs[var] = coeffs.get(var, _ZERO) + coeff
        return LinearExpr(coeffs, self._constant + other._constant)

    __radd__ = __add__

    def __neg__(self) -> "LinearExpr":
        return LinearExpr(
            {var: -coeff for var, coeff in self._coeffs.items()},
            -self._constant,
        )

    def __sub__(self, other: "LinearExpr | Coefficient") -> "LinearExpr":
        if isinstance(other, (int, Fraction)):
            return LinearExpr(self._coeffs, self._constant - other)
        if not isinstance(other, LinearExpr):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Coefficient) -> "LinearExpr":
        return (-self) + other

    def __mul__(self, scalar: Coefficient) -> "LinearExpr":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return LinearExpr(
            {var: coeff * scalar for var, coeff in self._coeffs.items()},
            self._constant * scalar,
        )

    __rmul__ = __mul__

    # -- substitution and evaluation -----------------------------------

    def substitute(self, bindings: Mapping[str, "LinearExpr"]) -> "LinearExpr":
        """Replace each bound variable by a linear expression."""
        coeffs: dict[str, Coefficient] = {}
        constant = self._constant
        for var, coeff in self._coeffs.items():
            replacement = bindings.get(var)
            if replacement is None:
                coeffs[var] = coeffs.get(var, _ZERO) + coeff
                continue
            constant += replacement._constant * coeff
            for other, factor in replacement._coeffs.items():
                coeffs[other] = coeffs.get(other, _ZERO) + factor * coeff
        return LinearExpr(coeffs, constant)

    def rename(self, mapping: Mapping[str, str]) -> "LinearExpr":
        """Rename variables; unmapped variables are kept."""
        coeffs: dict[str, Coefficient] = {}
        for var, coeff in self._coeffs.items():
            new = mapping.get(var, var)
            coeffs[new] = coeffs.get(new, _ZERO) + coeff
        return LinearExpr(coeffs, self._constant)

    def evaluate(self, assignment: Mapping[str, Coefficient]) -> Coefficient:
        """Evaluate under a full assignment of the expression's variables."""
        total = self._constant
        for var, coeff in self._coeffs.items():
            value = assignment[var]
            if isinstance(value, float):
                raise TypeError(
                    "float values are not allowed; use Fraction for exactness"
                )
            total += coeff * value
        return total

    # -- comparisons and hashing ---------------------------------------

    def _key(self) -> tuple:
        return (self._constant, tuple(sorted(self._coeffs.items())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearExpr):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self) -> str:
        return f"LinearExpr({self})"

    def __str__(self) -> str:
        parts: list[str] = []
        for var, coeff in self.sorted_terms():
            if coeff == 1:
                term = var
            elif coeff == -1:
                term = f"-{var}"
            else:
                term = f"{coeff}*{var}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        if self._constant != 0 or not parts:
            const = self._constant
            if parts:
                sign = "+" if const >= 0 else "-"
                parts.append(f"{sign} {abs(const)}")
            else:
                parts.append(str(const))
        return " ".join(parts)


_ZERO_EXPR = LinearExpr()


def sum_exprs(exprs: Iterable[LinearExpr]) -> LinearExpr:
    """Sum an iterable of linear expressions."""
    total = LinearExpr.zero()
    for expr in exprs:
        total = total + expr
    return total
