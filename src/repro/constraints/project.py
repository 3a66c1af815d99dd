"""Exact quantifier elimination for linear arithmetic constraints.

This is the "projection" operation the paper leans on throughout
(rule application, Proposition 4.1's literal constraints, Definition 2.8's
``LTOP``): existentially quantified variables are eliminated from a
conjunction of atoms by Gaussian elimination (for equalities) followed by
Fourier-Motzkin elimination (for inequalities).  Lassez and Maher's
Fourier-based algorithm cited as [8] in the paper is exactly this scheme.

Arithmetic is *integer-scaled*: atom normalization
(:mod:`repro.constraints.atom`) guarantees coprime integer coefficient
vectors, so the Fourier-Motzkin combination of an upper atom
``a*v + ru <= 0`` (``a > 0``) and a lower atom ``b*v + rl <= 0``
(``b < 0``) is formed as the positive integer combination
``(-b)*(a*v + ru) + a*(b*v + rl) = (-b)*ru + a*rl`` -- pure integer
multiply-adds; exactness is preserved because the combination is exact
and the resulting atom re-normalizes once at construction.  ``Fraction``
appears only where division is inherent (solving an equality for a
variable) and in tightness comparisons, via explicit
``Fraction(numerator, denominator)`` construction.  The pre-overhaul
pure-``Fraction`` algorithms survive as
:mod:`repro.constraints._reference` for differential testing.

The entry point is :func:`eliminate_variables`, which returns the projected
atoms or ``None`` when the conjunction is detected to be unsatisfiable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from repro.constraints.atom import Atom, Op
from repro.constraints.linexpr import LinearExpr
from repro.governor import budget as governor
from repro.obs.recorder import count as obs_count


def _fold_ground(atoms: Iterable[Atom]) -> list[Atom] | None:
    """Drop trivially-true atoms; signal unsatisfiability on a false one."""
    kept: list[Atom] = []
    for atom in atoms:
        truth = atom.truth_value()
        if truth is None:
            kept.append(atom)
        elif truth is False:
            return None
    return kept


def _bound_of(atom: Atom) -> Fraction:
    """Tightness measure among atoms sharing a direction key.

    After dividing by the (signed) direction scale the atoms read
    ``d·x̄ (op) -c/|k|`` in the same direction, so the larger scaled
    constant ``c / |k|`` is the tighter constraint.
    """
    __, scale = atom.direction()
    return Fraction(atom.expr.constant, abs(scale))


def prune_parallel(atoms: Sequence[Atom]) -> list[Atom]:
    """Keep only the tightest atom among parallel inequality atoms.

    Equalities are kept as-is (they participate in Gaussian elimination
    and are rarely redundant against inequalities); among inequalities
    with the same direction, the largest normalized constant wins, with
    strictness breaking ties.  This is a cheap, sound redundancy filter
    applied between Fourier-Motzkin steps to curb the quadratic blowup.
    """
    best: dict[tuple, Atom] = {}
    equalities: list[Atom] = []
    seen_eq: set[Atom] = set()
    ground: list[Atom] = []
    for atom in atoms:
        if atom.is_ground():
            ground.append(atom)
            continue
        if atom.op is Op.EQ:
            if atom not in seen_eq:
                seen_eq.add(atom)
                equalities.append(atom)
            continue
        direction, scale = atom.direction()
        key = (direction, 1 if scale > 0 else -1)
        current = best.get(key)
        if current is None or current is atom:
            best[key] = atom
            continue
        new_bound = _bound_of(atom)
        old_bound = _bound_of(current)
        if new_bound > old_bound:
            best[key] = atom
        elif new_bound == old_bound and atom.op is Op.LT:
            best[key] = atom
    return ground + equalities + list(best.values())


def _solve_equality(atom: Atom, var: str) -> LinearExpr:
    """Solve the equality atom for ``var``: returns the replacing expr."""
    coeff = atom.expr.coeff(var)
    rest = atom.expr - LinearExpr.var(var, coeff)
    # The one inherent division of the pipeline: exact by construction.
    return rest * (Fraction(-1) / coeff)


def _substitute_all(
    atoms: Iterable[Atom], var: str, replacement: LinearExpr
) -> list[Atom]:
    bindings = {var: replacement}
    return [
        atom.substitute(bindings) if var in atom.variables() else atom
        for atom in atoms
    ]


def _gaussian_step(
    atoms: list[Atom], elim_vars: set[str]
) -> tuple[list[Atom], bool]:
    """Eliminate one quantified variable via an equality, if possible."""
    for index, atom in enumerate(atoms):
        if atom.op is not Op.EQ:
            continue
        candidates = sorted(atom.variables() & elim_vars)
        if not candidates:
            continue
        var = candidates[0]
        replacement = _solve_equality(atom, var)
        remaining = atoms[:index] + atoms[index + 1 :]
        substituted = _substitute_all(remaining, var, replacement)
        elim_vars.discard(var)
        return substituted, True
    return atoms, False


def _fourier_motzkin_step(atoms: list[Atom], var: str) -> list[Atom] | None:
    """Eliminate one inequality-only variable by Fourier-Motzkin."""
    uppers: list[Atom] = []  # positive coefficient of var: v bounded above
    lowers: list[Atom] = []  # negative coefficient of var: v bounded below
    equalities: list[Atom] = []
    rest: list[Atom] = []
    for atom in atoms:
        coeff = atom.expr.coeff(var)
        if coeff == 0:
            rest.append(atom)
        elif atom.op is Op.EQ:
            equalities.append(atom)
        elif coeff > 0:
            uppers.append(atom)
        else:
            lowers.append(atom)
    if equalities:
        # An equality on the variable survived the Gaussian phase only if
        # the variable was not selected; handle it here for robustness.
        replacement = _solve_equality(equalities[0], var)
        survivors = uppers + lowers + equalities[1:] + rest
        return _fold_ground(_substitute_all(survivors, var, replacement))
    combined: list[Atom] = []
    for upper in uppers:
        a_up = upper.expr.coeff(var)
        for lower in lowers:
            a_lo = lower.expr.coeff(var)
            # Positive integer combination cancelling var exactly:
            # (-a_lo) * upper + a_up * lower.
            op = (
                Op.LT
                if Op.LT in (upper.op, lower.op)
                else Op.LE
            )
            combined.append(
                Atom(
                    upper.expr * (-a_lo) + lower.expr * a_up,
                    op,
                )
            )
    folded = _fold_ground(combined)
    if folded is None:
        return None
    return rest + folded


def _pick_variable(atoms: Sequence[Atom], elim_vars: set[str]) -> str:
    """Pick the elimination variable minimizing the FM blowup estimate."""
    best_var = None
    best_cost = None
    for var in sorted(elim_vars):
        uppers = lowers = 0
        for atom in atoms:
            coeff = atom.expr.coeff(var)
            if coeff > 0:
                uppers += 1
            elif coeff < 0:
                lowers += 1
        cost = uppers * lowers - (uppers + lowers)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_var = var
    assert best_var is not None
    return best_var


def eliminate_variables(
    atoms: Iterable[Atom], elim_vars: Iterable[str]
) -> list[Atom] | None:
    """Project a conjunction of atoms onto the non-eliminated variables.

    Returns the projected atoms (mentioning no variable in ``elim_vars``)
    or ``None`` when the input conjunction is unsatisfiable.  The result
    is exact: a point over the remaining variables satisfies the result
    iff it can be extended to a point satisfying the input.
    """
    obs_count("constraint.projections")
    # Variable elimination is the constraint solver's unit of work;
    # every satisfiability check and projection passes through here,
    # so this one charge covers the whole solver surface.
    governor.charge("solver_calls", phase="solver")
    current = _fold_ground(atoms)
    if current is None:
        return None
    remaining = {
        var
        for var in elim_vars
        if any(var in atom.variables() for atom in current)
    }
    # Phase 1: Gaussian elimination through equality atoms.
    progress = True
    while progress and remaining:
        current = prune_parallel(current)
        folded = _fold_ground(current)
        if folded is None:
            return None
        current, progress = _gaussian_step(folded, remaining)
        remaining = {
            var
            for var in remaining
            if any(var in atom.variables() for atom in current)
        }
    # Phase 2: Fourier-Motzkin for the inequality-only variables.
    while remaining:
        current = prune_parallel(current)
        var = _pick_variable(current, remaining)
        step = _fourier_motzkin_step(current, var)
        if step is None:
            return None
        current = step
        remaining.discard(var)
        remaining = {
            var
            for var in remaining
            if any(var in atom.variables() for atom in current)
        }
    final = _fold_ground(prune_parallel(current))
    if final is None:
        return None
    return sorted(set(final), key=Atom.sort_key)


def _box_decides(atoms: Sequence[Atom]) -> bool | None:
    """Decide satisfiability by interval intersection, where that is exact.

    ``k*x + c op 0`` bounds ``x`` at ``-c/k`` (``=`` from both sides).
    An empty interval or a false ground atom decides ``False`` for any
    conjunction.  When every atom is such a bound or a true ground atom
    the variables are independent, so non-empty intervals decide
    ``True``; an atom coupling two variables otherwise leaves ``None``.
    """
    # A bound is keyed (value, flag): the tightest upper bound is the
    # min with 0 = strict, 1 = closed; the tightest lower bound the max
    # with 1 = strict, 0 = closed.  An interval is empty iff lower >= upper.
    lower: dict[str, tuple[Fraction, int]] = {}
    upper: dict[str, tuple[Fraction, int]] = {}
    coupled = False
    for atom in atoms:
        terms, coeff = atom.direction()
        if len(terms) != 1:
            if not terms and not atom.truth_value():
                return False
            coupled = coupled or bool(terms)
            continue
        var, strict = terms[0][0], atom.op is Op.LT
        value = Fraction(-atom.expr.constant, coeff)
        if atom.op is Op.EQ or coeff > 0:
            bound = (value, 0 if strict else 1)
            upper[var] = min(upper.get(var, bound), bound)
        if atom.op is Op.EQ or coeff < 0:
            bound = (value, 1 if strict else 0)
            lower[var] = max(lower.get(var, bound), bound)
    if any(var in upper and low >= upper[var] for var, low in lower.items()):
        return False
    return None if coupled else True


def is_satisfiable(atoms: Iterable[Atom]) -> bool:
    """Exact satisfiability over the rationals/reals."""
    obs_count("constraint.sat_checks")
    atoms = list(atoms)
    decided = _box_decides(atoms)
    if decided is not None:
        obs_count("constraint.sat_box")
        governor.charge("solver_calls", phase="solver")
        return decided
    variables: set[str] = set()
    for atom in atoms:
        variables |= atom.variables()
    return eliminate_variables(atoms, variables) is not None
