"""Exact quantifier elimination for linear arithmetic constraints.

This is the "projection" operation the paper leans on throughout
(rule application, Proposition 4.1's literal constraints, Definition 2.8's
``LTOP``): existentially quantified variables are eliminated from a
conjunction of atoms by Gaussian elimination (for equalities) followed by
Fourier-Motzkin elimination (for inequalities).  Lassez and Maher's
Fourier-based algorithm cited as [8] in the paper is exactly this scheme.

The elimination runs on *integer rows*, not on atoms.
:func:`eliminate_variables` maps its atoms once to rows over the sorted
list of their variables; a row is ``(coefficient tuple, constant, op)``
of plain ints and an :class:`~repro.constraints.atom.Op`.  Every step
is a positive integer combination of two rows:

* Gaussian substitution of the pivot equality ``eq`` (coefficient
  ``e`` on the variable) into a row with coefficient ``c`` is
  ``|e|·row − sign(e)·c·eq``;
* the Fourier-Motzkin combination of an upper row (``a > 0`` on the
  variable) and a lower row (``b < 0``) is ``(-b)·upper + a·lower``.

Each new row is brought to :func:`~repro.constraints.atom.normal_row`
form, the one normalization :class:`Atom` itself applies, so equal rows
are identical atoms and the parallel prune, the folds and the returned
projection are what the same steps on atoms would give.  Atoms are
built only for the returned projection; a satisfiability check builds
none.  No ``Fraction`` is created: tightness is compared by integer
cross-multiplication.  The pure-``Fraction`` algorithms survive as
:mod:`repro.constraints._reference` for differential testing.

The entry point is :func:`eliminate_variables`, which returns the projected
atoms or ``None`` when the conjunction is detected to be unsatisfiable.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from repro.constraints.atom import Atom, Op, normal_row
from repro.governor import budget as governor
from repro.obs.recorder import count as obs_count

#: ``(coefficient tuple, constant, op)``: ``coeffs·x̄ + constant op 0``.
Row = tuple[tuple[int, ...], int, Op]


def _rows(atoms: Sequence[Atom]) -> tuple[list[str], list[Row]]:
    """The atoms as rows over the sorted list of their variables."""
    names = sorted(set().union(*(atom.variables() for atom in atoms)))
    position = {var: index for index, var in enumerate(names)}
    rows = []
    for atom in atoms:
        coeffs = [0] * len(names)
        for var, coeff in atom.terms():
            coeffs[position[var]] = coeff
        rows.append((tuple(coeffs), atom.expr.constant, atom.op))
    return names, rows


def _holds(constant: int, op: Op) -> bool:
    """The truth of the ground row ``constant op 0``."""
    if op is Op.LE:
        return constant <= 0
    if op is Op.LT:
        return constant < 0
    return constant == 0


def _fold_ground(rows: Iterable[Row]) -> list[Row] | None:
    """Drop trivially-true rows; signal unsatisfiability on a false one."""
    kept: list[Row] = []
    for row in rows:
        coeffs, constant, op = row
        if any(coeffs):
            kept.append(row)
        elif not _holds(constant, op):
            return None
    return kept


def _prune(rows: Iterable[Row]) -> list[Row]:
    """Keep only the tightest row among parallel inequality rows.

    A row ``k·d·x̄ + c op 0`` with ``d`` primitive and ``k > 0`` is
    keyed by ``d``; among rows sharing it the largest ``c / k`` is the
    tightest, compared as ``c1·k2 > c2·k1``, with strictness breaking
    ties.  Ground rows come first, then the equalities (deduplicated,
    in order), then the kept inequalities in first-seen key order.
    """
    best: dict[tuple[int, ...], tuple[Row, int]] = {}
    equalities: dict[Row, None] = {}
    ground: list[Row] = []
    for row in rows:
        coeffs, constant, op = row
        scale = gcd(*coeffs)
        if not scale:
            ground.append(row)
            continue
        if op is Op.EQ:
            equalities[row] = None
            continue
        key = (
            coeffs if scale == 1 else tuple(c // scale for c in coeffs)
        )
        current = best.get(key)
        if current is None:
            best[key] = (row, scale)
            continue
        kept, kept_scale = current
        new_bound, old_bound = constant * kept_scale, kept[1] * scale
        if new_bound > old_bound or (new_bound == old_bound and op is Op.LT):
            best[key] = (row, scale)
    return ground + list(equalities) + [row for row, __ in best.values()]


def prune_parallel(atoms: Sequence[Atom]) -> list[Atom]:
    """Keep only the tightest atom among parallel inequality atoms.

    Equalities are kept as-is (they participate in Gaussian elimination
    and are rarely redundant against inequalities); among inequalities
    with the same direction, the largest normalized constant wins, with
    strictness breaking ties.  This is a cheap, sound redundancy filter
    applied between Fourier-Motzkin steps to curb the quadratic blowup.
    """
    __, rows = _rows(atoms)
    by_row = dict(zip(rows, atoms))
    return [by_row[row] for row in _prune(rows)]


def _combine(first: Row, m: int, second: Row, n: int, op: Op) -> Row:
    """``m·first + n·second`` in normal form (``m > 0`` keeps direction)."""
    return normal_row(
        [m * x + n * y for x, y in zip(first[0], second[0])],
        m * first[1] + n * second[1],
        op,
    )


def _gaussian_step(
    rows: list[Row], remaining: set[int]
) -> tuple[list[Row], int | None]:
    """Eliminate one quantified variable via an equality, if possible.

    The first equality mentioning a remaining variable pivots on the
    first such variable; returns the other rows with it substituted and
    the variable, or the rows unchanged and ``None``.
    """
    for index, pivot in enumerate(rows):
        if pivot[2] is not Op.EQ:
            continue
        var = min((v for v in remaining if pivot[0][v]), default=None)
        if var is None:
            continue
        e = pivot[0][var]
        sign = 1 if e > 0 else -1
        rest = rows[:index] + rows[index + 1 :]
        return [
            _combine(row, abs(e), pivot, -sign * row[0][var], row[2])
            if row[0][var]
            else row
            for row in rest
        ], var
    return rows, None


def _fourier_motzkin_step(rows: list[Row], var: int) -> list[Row] | None:
    """Eliminate one inequality-only variable by Fourier-Motzkin.

    No equality mentions ``var`` here: the Gaussian phase ends only
    once none mentions a remaining variable.
    """
    uppers: list[Row] = []  # positive coefficient of var: v bounded above
    lowers: list[Row] = []  # negative coefficient of var: v bounded below
    rest: list[Row] = []
    for row in rows:
        coeff = row[0][var]
        if coeff == 0:
            rest.append(row)
        elif coeff > 0:
            uppers.append(row)
        else:
            lowers.append(row)
    combined = [
        _combine(
            upper,
            -lower[0][var],
            lower,
            upper[0][var],
            Op.LT if Op.LT in (upper[2], lower[2]) else Op.LE,
        )
        for upper in uppers
        for lower in lowers
    ]
    folded = _fold_ground(combined)
    if folded is None:
        return None
    return rest + folded


def _fm_cost(rows: list[Row], var: int) -> int:
    """The Fourier-Motzkin blowup estimate of eliminating ``var``."""
    uppers = sum(1 for row in rows if row[0][var] > 0)
    lowers = sum(1 for row in rows if row[0][var] < 0)
    return uppers * lowers - (uppers + lowers)


def _occurring(rows: list[Row], variables: set[int]) -> set[int]:
    """The variables some row still mentions."""
    return {var for var in variables if any(row[0][var] for row in rows)}


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
    names, rows = _rows(list(atoms))
    current = _fold_ground(rows)
    if current is None:
        return None
    elim = set(elim_vars)
    remaining = {index for index, var in enumerate(names) if var in elim}
    # Phase 1: Gaussian elimination through equality rows.  Each step
    # cancels its variable from every row, so ``_occurring`` drops it.
    while remaining:
        folded = _fold_ground(_prune(current))
        if folded is None:
            return None
        current, pivot_var = _gaussian_step(folded, remaining)
        if pivot_var is None:
            break
        remaining = _occurring(current, remaining)
    # Phase 2: Fourier-Motzkin for the inequality-only variables.
    while remaining:
        current = _prune(current)
        var = min(sorted(remaining), key=lambda v: _fm_cost(current, v))
        step = _fourier_motzkin_step(current, var)
        if step is None:
            return None
        current = step
        remaining = _occurring(current, remaining)
    final = _fold_ground(_prune(current))
    if final is None:
        return None
    return sorted(
        (Atom.from_row(names, row) for row in set(final)),
        key=Atom.sort_key,
    )


def _box_decides(atoms: Sequence[Atom]) -> bool | None:
    """Decide satisfiability by interval intersection, where that is exact.

    Each atom's cached :meth:`Atom.box_bound` gives the bounds it puts
    on its one variable.  An empty interval or a false ground atom
    decides ``False`` for any conjunction.  When every atom is such a
    bound or a true ground atom the variables are independent, so
    non-empty intervals decide ``True``; an atom coupling two variables
    otherwise leaves ``None``.
    """
    # The tightest upper bound is the min, the tightest lower bound the
    # max; an interval is empty iff lower >= upper.
    lower: dict[str, tuple] = {}
    upper: dict[str, tuple] = {}
    coupled = False
    for atom in atoms:
        var, high, low = atom.box_bound()
        if var is None:
            if atom.is_ground():
                if not atom.truth_value():
                    return False
            else:
                coupled = True
            continue
        if high is not None:
            upper[var] = min(upper.get(var, high), high)
        if low is not None:
            lower[var] = max(lower.get(var, low), low)
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
