"""Fourier-Motzkin projection exactness (both directions).

``eliminate_variables`` documents an *exact* contract: a point over
the kept variables satisfies the projection **iff** it extends to a
solution of the original conjunction.  The older projection properties
in ``test_prop_constraints.py`` only check the soundness direction
(solutions survive).  These tests close the loop with the completeness
direction, using the solver itself on pinned systems as the oracle:
pinning the kept variables to a candidate point with equality atoms
and asking ``is_satisfiable`` decides "does this point extend?"
without ever needing a witness for the eliminated variables.
"""

from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from repro.constraints import project
from repro.constraints.atom import Atom, Op
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr
from repro.constraints.project import eliminate_variables, is_satisfiable

KEEP = ("X", "Y")
ELIM = ("U", "V")

coefficients = st.integers(min_value=-3, max_value=3)
constants = st.integers(min_value=-5, max_value=5)
operators = st.sampled_from(["<=", "<", ">=", ">", "="])


@st.composite
def random_atoms(draw):
    names = draw(
        st.lists(
            st.sampled_from(KEEP + ELIM),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    expr = LinearExpr.zero()
    for name in names:
        coefficient = draw(
            coefficients.filter(lambda value: value != 0)
        )
        expr = expr + LinearExpr.var(name, Fraction(coefficient))
    return Atom.make(
        expr, draw(operators), LinearExpr.const(draw(constants))
    )


@st.composite
def random_systems(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    return [draw(random_atoms()) for __ in range(n)]


def _pins(point: dict[str, Fraction]) -> list[Atom]:
    """Equality atoms forcing each kept variable to its point value."""
    return [
        Atom.make(
            LinearExpr.var(name),
            "=",
            LinearExpr.const(value),
        )
        for name, value in point.items()
    ]


def _grid_points():
    """A small rational grid over the kept variables."""
    values = [Fraction(v) for v in (-2, 0, 1)] + [Fraction(1, 2)]
    return [
        {"X": x, "Y": y} for x in values for y in values
    ]


class TestExactness:
    @given(random_systems())
    @settings(max_examples=150, deadline=None)
    def test_projection_exact_on_grid(self, atoms):
        """projected(point) iff the pinned original is satisfiable."""
        projected = eliminate_variables(atoms, ELIM)
        for point in _grid_points():
            extends = is_satisfiable(atoms + _pins(point))
            if projected is None:
                assert not extends
            else:
                holds = Conjunction(projected).satisfied_by(point)
                assert holds == extends, (
                    f"projection {projected} and original {atoms} "
                    f"disagree at {point}"
                )

    @given(random_systems())
    @settings(max_examples=150, deadline=None)
    def test_projected_atoms_mention_only_kept(self, atoms):
        projected = eliminate_variables(atoms, ELIM)
        if projected is None:
            return
        for atom in projected:
            assert atom.variables() <= set(KEEP)

    @given(random_systems())
    @settings(max_examples=150, deadline=None)
    def test_unsatisfiability_is_preserved(self, atoms):
        """None implies unsatisfiable; and an unsatisfiable input
        never projects to a satisfiable system.

        (None is not *equivalent* to unsatisfiability: when no
        eliminated variable occurs, the atoms pass through without a
        satisfiability decision -- see ``Conjunction.project``.)
        """
        projected = eliminate_variables(atoms, ELIM)
        if projected is None:
            assert not is_satisfiable(atoms)
        elif not is_satisfiable(atoms):
            assert not is_satisfiable(projected)

    @given(random_systems())
    @settings(max_examples=100, deadline=None)
    def test_projection_idempotent(self, atoms):
        """Projecting an already-projected system changes nothing
        semantically (it mentions no eliminated variable)."""
        projected = eliminate_variables(atoms, ELIM)
        if projected is None:
            return
        again = eliminate_variables(projected, ELIM)
        assert again is not None
        for point in _grid_points():
            assert Conjunction(again).satisfied_by(
                point
            ) == Conjunction(projected).satisfied_by(point)


# -- the row kernel's normal form is the atom's --------------------------

NAMES = ("U", "V", "X", "Y")
raw_rows = st.lists(
    st.integers(min_value=-6, max_value=6),
    min_size=len(NAMES),
    max_size=len(NAMES),
)
ops = st.sampled_from(list(Op))


def _atom_of(coeffs, constant, op):
    """``Atom(LinearExpr(raw row), op)``: the atom-level normalization."""
    return Atom(LinearExpr(dict(zip(NAMES, coeffs)), constant), op)


class TestNormalFormAgreement:
    """Row equality is atom identity: the kernel normalizes a combined
    row exactly as ``Atom.__new__`` normalizes the same expression, so
    the rows it derives are the atoms the atom-level steps built."""

    @given(
        raw_rows, constants, raw_rows, constants,
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=-6, max_value=6),
        ops,
    )
    @example(  # an equality whose first coefficient comes out negative
        [1, 2, 0, 0], 3, [1, 0, 1, 0], 0, 1, -2, Op.EQ
    )
    @example(  # a Gaussian pivot -3*V on an inequality: m = 3, n = 2
        [1, 2, 0, -1], 4, [0, -3, 1, 0], 2, 3, 2, Op.LE
    )
    @settings(max_examples=400, deadline=None)
    def test_combination_is_the_atom(self, a, ca, b, cb, m, n, op):
        combined = project._combine(
            (tuple(a), ca, op), m, (tuple(b), cb, Op.EQ), n, op
        )
        raw = [m * x + n * y for x, y in zip(a, b)]
        assert Atom.from_row(NAMES, combined) is _atom_of(
            raw, m * ca + n * cb, op
        )

    @given(
        raw_rows, constants, raw_rows, constants,
        st.sampled_from([Op.LE, Op.LT, Op.EQ]),
        st.sampled_from(range(len(NAMES))),
    )
    @example(  # a negative Gaussian pivot on an inequality
        [0, -3, 1, 0], 2, [1, 2, 0, -1], 4, Op.LE, 1
    )
    @settings(max_examples=400, deadline=None)
    def test_gaussian_substitution_is_the_atom(
        self, pivot, cp, row, cr, op, var
    ):
        """The kernel's pivot step equals substituting the solved
        equality into the atom, the step the atom-level solver took."""
        assume(pivot[var] != 0 and row[var] != 0)
        eq = _atom_of(pivot, cp, Op.EQ)
        atom = _atom_of(row, cr, op)
        assume(atom is not eq)
        name = NAMES[var]
        names, rows = project._rows([eq, atom])
        rest, pivoted = project._gaussian_step(rows, {names.index(name)})
        assert names[pivoted] == name
        (substituted,) = rest
        coeff = eq.expr.coeff(name)
        solved = (eq.expr - LinearExpr.var(name, coeff)) * (
            Fraction(-1) / coeff
        )
        assert Atom.from_row(names, substituted) is atom.substitute(
            {name: solved}
        )
