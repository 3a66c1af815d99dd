"""Differential tests: production solver vs the pure-Fraction oracle.

The production solver (:mod:`repro.constraints`) runs integer-scaled
Fourier-Motzkin over hash-consed forms with memoized results.  The
oracle (:mod:`repro.constraints._reference`) is the pre-overhaul
algorithm in its plainest form: explicit ``Fraction`` arithmetic, no
interning, no pruning, no caching.  They share no elimination code, so
agreement on random inputs is evidence that the fast representation
did not change semantics.

Three surfaces are differenced -- ``project``, ``satisfiable`` and
``implies_set`` -- each both with the global solver memo enabled and
with it force-disabled, so a divergence introduced *by the cache
layer* (rather than by the arithmetic) would also surface here.
Satisfiability is differenced a second time on conjunctions built for
the interval pre-check (single-variable bounds with ties, ``=`` and
ground atoms, alone and mixed with general atoms), and ``project`` and
satisfiability a third time on wider systems: five variables, up to
seven atoms, at least two equalities.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.constraints import _reference as ref
from repro.constraints import cache as solver_cache
from repro.constraints import project
from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.cset import ConstraintSet
from repro.constraints.linexpr import LinearExpr
from repro.errors import BudgetExceeded
from repro.governor import Budget
from repro.governor.budget import governed

VARS = ["X", "Y", "Z"]

coefficients = st.integers(min_value=-4, max_value=4)
constants = st.integers(min_value=-6, max_value=6)
operators = st.sampled_from(["<=", "<", ">=", ">", "="])


@st.composite
def linear_exprs(draw):
    coeffs = {var: Fraction(draw(coefficients)) for var in VARS}
    return LinearExpr(coeffs, Fraction(draw(constants)))


@st.composite
def random_atoms(draw):
    expr = draw(linear_exprs())
    op = draw(operators)
    return Atom.make(expr, op, LinearExpr.const(draw(constants)))


@st.composite
def random_conjunctions(draw, max_atoms: int = 4):
    n = draw(st.integers(min_value=0, max_value=max_atoms))
    return Conjunction([draw(random_atoms()) for _ in range(n)])


@st.composite
def bound_atoms(draw):
    """``k*V op c``: one variable, so the interval pre-check applies."""
    coeff = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    return Atom.make(
        LinearExpr.var(draw(st.sampled_from(VARS)), coeff),
        draw(operators),
        LinearExpr.const(draw(st.integers(min_value=-3, max_value=3))),
    )


@st.composite
def ground_atoms(draw):
    return Atom.make(
        LinearExpr.const(draw(st.integers(min_value=-2, max_value=2))),
        draw(operators),
        LinearExpr.const(draw(st.integers(min_value=-2, max_value=2))),
    )


@st.composite
def tied_bounds(draw):
    """Two bounds on one variable at one value: strict/non-strict ties."""
    var = LinearExpr.var(draw(st.sampled_from(VARS)))
    value = LinearExpr.const(draw(st.integers(min_value=-2, max_value=2)))
    return [
        Atom.make(var, draw(operators), value),
        Atom.make(var, draw(operators), value),
    ]


@st.composite
def box_conjunctions(draw, mixed: bool = False):
    pieces = [bound_atoms(), ground_atoms(), tied_bounds()]
    if mixed:
        pieces.append(random_atoms())
    atoms = []
    for piece in draw(st.lists(st.one_of(*pieces), max_size=5)):
        atoms.extend(piece if isinstance(piece, list) else [piece])
    return atoms


WIDE_VARS = ["U", "V", "X", "Y", "Z"]
wide_coefficients = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.sampled_from([k, -k])
)


@st.composite
def wide_atoms(draw, op: str):
    """An atom over up to four of five variables, coefficients ±1..4."""
    names = draw(
        st.lists(
            st.sampled_from(WIDE_VARS), min_size=1, max_size=4, unique=True
        )
    )
    expr = LinearExpr(
        {name: draw(wide_coefficients) for name in names},
        draw(constants),
    )
    return Atom.make(expr, op, LinearExpr.zero())


@st.composite
def wide_conjunctions(draw):
    """Five variables, up to seven atoms, at least two equalities: the
    shapes that reach multi-pivot Gaussian runs and ties in the choice
    of the Fourier-Motzkin variable."""
    n_eq = draw(st.integers(min_value=2, max_value=4))
    n_other = draw(st.integers(min_value=0, max_value=7 - n_eq))
    atoms = [draw(wide_atoms("=")) for __ in range(n_eq)]
    atoms += [draw(wide_atoms(draw(operators))) for __ in range(n_other)]
    return Conjunction(atoms)


def _both_cache_modes(check):
    """Run ``check()`` with the solver memo enabled and disabled."""
    stats = solver_cache.stats()
    was_enabled = bool(stats["enabled"])
    try:
        solver_cache.configure(enabled=True)
        check()
        solver_cache.configure(enabled=False)
        check()
    finally:
        solver_cache.configure(enabled=was_enabled)


class TestSatisfiable:
    @given(random_conjunctions())
    @settings(max_examples=250, deadline=None)
    def test_matches_reference(self, conjunction):
        expected = ref.satisfiable(conjunction.atoms)

        def check():
            assert conjunction.is_satisfiable() == expected

        _both_cache_modes(check)

    @given(st.lists(random_atoms(), max_size=4))
    @settings(max_examples=250, deadline=None)
    def test_matches_reference_on_raw_atoms(self, atoms):
        # Route through a *fresh* conjunction each call so the lazy
        # per-object satisfiability field starts cold too.
        expected = ref.satisfiable(atoms)

        def check():
            assert Conjunction(atoms).is_satisfiable() == expected

        _both_cache_modes(check)


class TestBoxPreCheck:
    """The interval pre-check decides exactly what elimination does."""

    @staticmethod
    def _check_against_reference(atoms):
        expected = ref.satisfiable(atoms)
        variables = set().union(*(atom.variables() for atom in atoms))

        def check():
            assert project.is_satisfiable(atoms) == expected
            assert (
                project.eliminate_variables(atoms, variables) is not None
            ) == expected

        _both_cache_modes(check)

    @given(box_conjunctions())
    @settings(max_examples=300, deadline=None)
    def test_bounds_only_match_reference(self, atoms):
        self._check_against_reference(atoms)

    @given(box_conjunctions(mixed=True))
    @settings(max_examples=300, deadline=None)
    def test_mixed_conjunctions_match_reference(self, atoms):
        self._check_against_reference(atoms)

    def test_box_decided_check_charges_one_solver_call(self):
        x = LinearExpr.var("X")
        atoms = [Atom.le(x, LinearExpr.const(3)),
                 Atom.gt(x, LinearExpr.const(1))]
        tracer = obs.Tracer()
        meter = Budget(max_solver_calls=10).meter()
        with governed(meter), obs.recording(tracer):
            assert project.is_satisfiable(atoms)
        assert meter.spent["solver_calls"] == 1
        counters = tracer.metrics.counters
        assert counters["constraint.sat_box"] == 1
        assert counters["constraint.sat_checks"] == 1
        assert "constraint.projections" not in counters
        with governed(Budget(max_solver_calls=0).meter()):
            with pytest.raises(BudgetExceeded):
                project.is_satisfiable(atoms)


class TestProject:
    @given(random_conjunctions(), st.sets(st.sampled_from(VARS)))
    @settings(max_examples=250, deadline=None)
    def test_matches_reference(self, conjunction, keep):
        expected = ref.project(conjunction.atoms, keep)

        def check():
            projected = conjunction.project(keep)
            if expected is None:
                assert not projected.is_satisfiable()
                return
            assert projected.variables() <= set(keep)
            produced = ref.from_atoms(projected.atoms)
            assert ref.equivalent_vecs(produced, expected)

        _both_cache_modes(check)

    @given(random_conjunctions())
    @settings(max_examples=100, deadline=None)
    def test_project_everything_is_sat_check(self, conjunction):
        projected = conjunction.project(())
        assert projected.is_satisfiable() == ref.satisfiable(
            conjunction.atoms
        )
        if projected.is_satisfiable():
            assert projected.variables() == frozenset()


class TestWideSystems:
    """``project`` and satisfiability on the wider systems."""

    @given(wide_conjunctions(), st.sets(st.sampled_from(WIDE_VARS)))
    @settings(max_examples=300, deadline=None)
    def test_project_matches_reference(self, conjunction, keep):
        expected = ref.project(conjunction.atoms, keep)

        def check():
            projected = conjunction.project(keep)
            if expected is None:
                assert not projected.is_satisfiable()
                return
            assert projected.variables() <= set(keep)
            produced = ref.from_atoms(projected.atoms)
            assert ref.equivalent_vecs(produced, expected)

        _both_cache_modes(check)

    @given(wide_conjunctions())
    @settings(max_examples=300, deadline=None)
    def test_satisfiable_matches_reference(self, conjunction):
        expected = ref.satisfiable(conjunction.atoms)

        def check():
            atoms = list(conjunction.atoms)
            assert project.is_satisfiable(atoms) == expected
            assert Conjunction(atoms).is_satisfiable() == expected

        _both_cache_modes(check)


class TestImpliesSet:
    @given(
        random_conjunctions(max_atoms=3),
        st.lists(random_conjunctions(max_atoms=2), max_size=2),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, conjunction, disjuncts):
        cset = ConstraintSet(disjuncts)
        # The oracle expands over the *same* disjuncts the production
        # test sees (ConstraintSet drops unsatisfiable ones up front).
        expected = ref.implies_set(
            conjunction.atoms,
            [d.atoms for d in cset.disjuncts],
        )

        def check():
            assert conjunction.implies_set(cset) == expected

        _both_cache_modes(check)

    @given(random_conjunctions(max_atoms=3), random_atoms())
    @settings(max_examples=200, deadline=None)
    def test_implies_atom_matches_reference(self, conjunction, atom):
        expected = ref.implies_vec(
            ref.from_atoms(conjunction.atoms), ref.from_atom(atom)
        )

        def check():
            assert conjunction.implies_atom(atom) == expected

        _both_cache_modes(check)


class TestMemoTransparency:
    @given(random_conjunctions(), st.sets(st.sampled_from(VARS)))
    @settings(max_examples=150, deadline=None)
    def test_warm_lookup_equals_cold_compute(self, conjunction, keep):
        """The second (memoized) answer is the first answer, exactly."""
        stats = solver_cache.stats()
        was_enabled = bool(stats["enabled"])
        try:
            solver_cache.configure(enabled=True)
            solver_cache.clear()
            cold = conjunction.project(keep)
            warm = conjunction.project(keep)
            assert warm is cold  # interning makes this identity
            assert (
                conjunction.is_satisfiable()
                == conjunction.is_satisfiable()
            )
        finally:
            solver_cache.configure(enabled=was_enabled)
