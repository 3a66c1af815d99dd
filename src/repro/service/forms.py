"""Query forms and the compile keys that cache their programs.

Two queries have the same *form* when they differ only in constants --
the parameterized constraint selections of Section 4: ``?-
cheaporshort(madison, seattle, T, C), C <= 150`` and ``?-
cheaporshort(chicago, dallas, T, C), C <= 90`` share one form.  Every
rewriting strategy's output is reusable across a form's instances: the
magic strategies embed the constants solely in the seed fact, which
:meth:`repro.service.session.CompiledForm.seed_rule` rebuilds per call
(:meth:`~repro.service.session.Session.prepare`).  The
constraint-propagation strategies go further: ``Constraint_rewrite``
seeds its QRP constraints with *true* for the query predicate, so their
output depends on the query predicate alone, and every form of one
predicate shares one compile (:func:`compile_key`).

The canonical form is

* the query predicate and arity,
* the bf-adornment (constants are bound -- Section 7.5),
* the literal's argument pattern with variables renamed ``V0, V1, ...``
  by first occurrence and constants generalized to typed parameter
  slots (``sym`` / ``num``), and
* the constraint *shape*: each atom's operator and canonically-renamed
  coefficient terms, with the additive constant generalized.

The partition is conservative: :class:`repro.constraints.atom.Atom`
scales coefficients to coprime integers *including* the constant, so
``2X <= 100`` (stored as ``X <= 50``) and ``2X <= 101`` land in
different forms.  Under a magic strategy, splitting a true form across
cache entries costs a recompile, never an incorrect answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import STRATEGY_SEQUENCES
from repro.lang.ast import Query
from repro.lang.normalize import normalize_query
from repro.lang.terms import NumTerm, Sym, Var
from repro.magic.adorn import query_adornment


@dataclass(frozen=True)
class QueryForm:
    """The canonical, hashable identity of a query modulo constants."""

    pred: str
    arity: int
    adornment: str
    literal_shape: tuple[tuple[str, ...], ...]
    constraint_shape: tuple[tuple, ...]

    def __str__(self) -> str:
        slots = []
        parameter = 0
        for slot in self.literal_shape:
            if slot[0] == "var":
                slots.append(slot[1])
            else:
                slots.append(f"${parameter}")
                parameter += 1
        inner = ", ".join(slots)
        shape = f" | {len(self.constraint_shape)} constraint(s)" \
            if self.constraint_shape else ""
        return f"{self.pred}({inner})^{self.adornment}{shape}"


def canonicalize(query: Query) -> tuple[QueryForm, tuple[str, ...]]:
    """The query's form plus its parameters (the generalized constants).

    The parameters are informational -- the magic seed is rebuilt from
    the actual query rather than by substituting them back.
    """
    normalized = normalize_query(query)
    renaming: dict[str, str] = {}

    def canonical_var(name: str) -> str:
        if name not in renaming:
            renaming[name] = f"V{len(renaming)}"
        return renaming[name]

    params: list[str] = []
    literal_shape: list[tuple[str, ...]] = []
    for arg in normalized.literal.args:
        if isinstance(arg, Var):
            literal_shape.append(("var", canonical_var(arg.name)))
        elif isinstance(arg, Sym):
            literal_shape.append(("sym",))
            params.append(arg.name)
        elif isinstance(arg, NumTerm) and arg.is_constant():
            literal_shape.append(("num",))
            params.append(str(arg.value))
        else:  # pragma: no cover - normalize_query flattens these
            raise ValueError(f"non-normalized query argument {arg!r}")
    # Constraint-only variables, in sorted order for determinism.
    for name in sorted(
        normalized.constraint.variables()
        - normalized.literal.variables()
    ):
        canonical_var(name)
    constraint_shape = []
    for atom in normalized.constraint.atoms:
        terms = tuple(sorted(
            (renaming.get(var, var), str(coeff))
            for var, coeff in atom.expr.sorted_terms()
        ))
        constraint_shape.append((atom.op.value, terms))
        params.append(str(atom.expr.constant))
    constraint_shape.sort()
    return (
        QueryForm(
            pred=normalized.literal.pred,
            arity=normalized.literal.arity,
            adornment=query_adornment(normalized),
            literal_shape=tuple(literal_shape),
            constraint_shape=tuple(constraint_shape),
        ),
        tuple(params),
    )


def compile_key(form: QueryForm, strategy: str) -> tuple:
    """What a compile of ``form`` under ``strategy`` depends on.

    ``(strategy, pred, arity)`` for the strategies without ``mg``; the
    magic strategies adorn the program by the form's bindings, so for
    them the key is ``(strategy, form)``.
    """
    if "mg" in STRATEGY_SEQUENCES[strategy]:
        return (strategy, form)
    return (strategy, form.pred, form.arity)
