"""Terms of the constraint query language.

A literal argument is one of:

* :class:`Var` -- a rule variable (``X``, ``Time``),
* :class:`Sym` -- an uninterpreted symbolic constant (``madison``),
* :class:`NumTerm` -- a linear arithmetic term over variables and
  rational constants (``5``, ``N - 1``, ``T1 + T2 + 30``).

Numeric constants are :class:`NumTerm` with a constant expression.
Symbolic constants unify only with themselves; numeric structure is
handled by the constraint solver, not by syntactic unification, which is
what lets bottom-up evaluation manipulate *constraint facts*.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from repro.constraints.linexpr import Coefficient, LinearExpr, as_fraction


@dataclass(frozen=True)
class Var:
    """A rule variable."""

    name: str

    def __str__(self) -> str:
        return self.name

    def to_expr(self) -> LinearExpr:
        """The variable as a linear expression."""
        return LinearExpr.var(self.name)


class Sym:
    """An uninterpreted (symbolic, non-numeric) constant.

    Interned per name in a weak-value table, so equality is ``object``'s
    identity test and the hash, ``hash((name,))``, is computed once;
    pickling and copying re-intern through the constructor.
    """

    __slots__ = ("name", "_hash", "__weakref__")

    def __new__(cls, name: str) -> "Sym":
        with _SYMS_LOCK:
            self = _SYMS.get(name)
            if self is None:
                self = _SYMS[name] = object.__new__(cls)
                self.name, self._hash = name, hash((name,))
        return self

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (Sym, (self.name,))

    def __repr__(self) -> str:
        return f"Sym(name={self.name!r})"

    def __str__(self) -> str:
        return self.name


_SYMS: "weakref.WeakValueDictionary[str, Sym]" = weakref.WeakValueDictionary()
_SYMS_LOCK = threading.Lock()


@dataclass(frozen=True)
class NumTerm:
    """A linear arithmetic term (possibly just a rational constant)."""

    expr: LinearExpr

    def __str__(self) -> str:
        return str(self.expr)

    def is_constant(self) -> bool:
        """Does the object contain no variables?"""
        return self.expr.is_constant()

    @property
    def value(self) -> Fraction:
        """The constant value; only valid when :meth:`is_constant`."""
        if not self.expr.is_constant():
            raise ValueError(f"{self} is not a numeric constant")
        return as_fraction(self.expr.constant)


Term = Union[Var, Sym, NumTerm]


def var(name: str) -> Var:
    """A variable term."""
    return Var(name)


def sym(name: str) -> Sym:
    """A symbolic-constant term."""
    return Sym(name)


def num(value: Coefficient) -> NumTerm:
    """A numeric constant term."""
    return NumTerm(LinearExpr.const(value))


def term_variables(term: Term) -> frozenset[str]:
    """The variable names occurring in a term."""
    if isinstance(term, Var):
        return frozenset((term.name,))
    if isinstance(term, NumTerm):
        return term.expr.variables()
    return frozenset()


def rename_term(term: Term, mapping: Mapping[str, str]) -> Term:
    """Rename variables in a term."""
    if isinstance(term, Var):
        return Var(mapping.get(term.name, term.name))
    if isinstance(term, NumTerm):
        return NumTerm(term.expr.rename(mapping))
    return term


def substitute_term(
    term: Term, bindings: Mapping[str, "Term"]
) -> Term:
    """Substitute terms for variables.

    A variable may be replaced by any term; inside a :class:`NumTerm`
    only :class:`Var`/:class:`NumTerm` replacements are meaningful and a
    :class:`Sym` replacement raises.
    """
    if isinstance(term, Var):
        return bindings.get(term.name, term)
    if isinstance(term, Sym):
        return term
    expr_bindings: dict[str, LinearExpr] = {}
    for name in term.expr.variables():
        replacement = bindings.get(name)
        if replacement is None:
            continue
        if isinstance(replacement, Var):
            expr_bindings[name] = replacement.to_expr()
        elif isinstance(replacement, NumTerm):
            expr_bindings[name] = replacement.expr
        else:
            raise TypeError(
                f"cannot substitute symbolic constant {replacement} into "
                f"arithmetic term {term}"
            )
    if not expr_bindings:
        return term
    return NumTerm(term.expr.substitute(expr_bindings))


def is_plain(term: Term) -> bool:
    """Is the term a variable or a (symbolic or numeric) constant?

    Normalized rules only contain plain terms in literal argument
    positions; compound arithmetic is flattened into constraints.
    """
    if isinstance(term, (Var, Sym)):
        return True
    return term.is_constant()


class FreshVars:
    """A deterministic fresh-variable factory avoiding a set of names."""

    def __init__(self, avoid: frozenset[str] | set[str], prefix: str = "V"):
        self._avoid = set(avoid)
        self._prefix = prefix
        self._counter = 0

    def next(self, hint: str | None = None) -> Var:
        """Allocate the next fresh variable."""
        prefix = hint or self._prefix
        while True:
            self._counter += 1
            name = f"{prefix}_{self._counter}"
            if name not in self._avoid:
                self._avoid.add(name)
                return Var(name)
