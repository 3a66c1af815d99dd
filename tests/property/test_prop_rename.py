"""Property tests of the rename paths: renaming is not solving.

A change of variable names keeps an atom's coefficients, so the
constraint layer renames an interned form directly instead of
re-normalizing it (docs/constraints.md, "Renaming is not solving").
These tests pin each shortcut to the general construction it replaces:

* ``Atom.rename`` yields the *identical* atom to re-normalizing the
  renamed expression -- also when the leading variable of an equality
  changes (its sign flips) and when two variables merge (the general
  path);
* ``Conjunction.rename`` yields the identical conjunction to building
  it from the renamed atoms, injective or merging;
* ``ptol`` of a literal with no arithmetic argument, which renames,
  returns the same interned conjunctions as substituting;
* ``ltop`` of a literal with distinct variables, which projects onto
  the literal's own variables, is equivalent disjunct by disjunct to
  the fresh-variable construction of Definition 2.8.
"""

from hypothesis import given, settings, strategies as st

from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.cset import ConstraintSet
from repro.constraints.linexpr import LinearExpr
from repro.lang.ast import Literal
from repro.lang.positions import _ltop_fresh, arg_position, ltop, ptol
from repro.lang.terms import NumTerm, Sym, Var

VARS = ["W", "X", "Y", "Z"]
#: Rename targets: the variables themselves (merges), names sorting
#: before and after them (a new leading variable), and positions.
TARGETS = VARS + ["A", "Q", "$1", "$2"]

coefficients = st.integers(min_value=-4, max_value=4)
constants = st.integers(min_value=-6, max_value=6)
operators = st.sampled_from(["<=", "<", ">=", ">", "="])


@st.composite
def atoms_over(draw, names):
    coeffs = {name: draw(coefficients) for name in names}
    return Atom.make(
        LinearExpr(coeffs), draw(operators), LinearExpr.const(draw(constants))
    )


@st.composite
def conjunctions_over(draw, names, max_atoms=3):
    count = draw(st.integers(min_value=0, max_value=max_atoms))
    return Conjunction([draw(atoms_over(names)) for _ in range(count)])


@st.composite
def constraint_sets_over(draw, names):
    count = draw(st.integers(min_value=1, max_value=3))
    return ConstraintSet(
        [draw(conjunctions_over(names)) for _ in range(count)]
    )


mappings = st.dictionaries(st.sampled_from(VARS), st.sampled_from(TARGETS))
injective_mappings = st.permutations(TARGETS).map(
    lambda targets: dict(zip(VARS, targets))
)


class TestAtomRename:
    @given(atoms_over(VARS), st.one_of(mappings, injective_mappings))
    @settings(max_examples=600, deadline=None)
    def test_rename_is_the_normalized_renaming(self, atom, mapping):
        assert atom.rename(mapping) is Atom(atom.expr.rename(mapping), atom.op)

    def test_equality_whose_leading_variable_changes_flips(self):
        # X - Y = 0 with X -> Z leads with -Y: normalized, Y - Z = 0.
        atom = Atom.eq(LinearExpr.var("X"), LinearExpr.var("Y"))
        renamed = atom.rename({"X": "Z"})
        assert renamed is Atom.eq(LinearExpr.var("Y"), LinearExpr.var("Z"))
        assert renamed.terms() == (("Y", 1), ("Z", -1))

    def test_merging_rename_renormalizes(self):
        # X + Y <= 2 with X -> Y is 2Y <= 2, i.e. Y <= 1.
        atom = Atom.le(
            LinearExpr({"X": 1, "Y": 1}), LinearExpr.const(2)
        )
        renamed = atom.rename({"X": "Y"})
        assert renamed is Atom.le(LinearExpr.var("Y"), LinearExpr.const(1))
        # X - Y = 0 with X -> Y cancels to the true atom.
        equal = Atom.eq(LinearExpr.var("X"), LinearExpr.var("Y"))
        assert equal.rename({"X": "Y"}).truth_value() is True


class TestConjunctionRename:
    @given(conjunctions_over(VARS, max_atoms=4), mappings)
    @settings(max_examples=300, deadline=None)
    def test_rename_is_the_conjunction_of_renamed_atoms(
        self, conjunction, mapping
    ):
        expected = Conjunction(atom.rename(mapping) for atom in conjunction)
        assert conjunction.rename(mapping) is expected

    @given(conjunctions_over(VARS, max_atoms=4), injective_mappings)
    @settings(max_examples=200, deadline=None)
    def test_injective_rename_keeps_every_atom(self, conjunction, mapping):
        renamed = conjunction.rename(mapping)
        assert renamed is Conjunction(
            Atom(atom.expr.rename(mapping), atom.op) for atom in conjunction
        )
        assert len(renamed) == len(conjunction)


@st.composite
def variable_literals(draw):
    """A literal of variables (repeats allowed) and symbols."""
    arity = draw(st.integers(min_value=1, max_value=3))
    args = [
        draw(st.one_of(
            st.sampled_from(VARS).map(Var),
            st.just(Sym("a")),
        ))
        for _ in range(arity)
    ]
    return Literal("p", tuple(args))


@st.composite
def any_literals(draw):
    """A literal of variables, symbols, constants and sums."""
    arity = draw(st.integers(min_value=1, max_value=3))
    terms = st.one_of(
        st.sampled_from(VARS).map(Var),
        st.sampled_from(VARS).map(Var),
        st.just(Sym("a")),
        constants.map(lambda c: NumTerm(LinearExpr.const(c))),
        st.sampled_from(VARS).map(
            lambda var: NumTerm(LinearExpr({var: 1}, 1))
        ),
    )
    return Literal("p", tuple(draw(terms) for _ in range(arity)))


class TestPtolRename:
    @given(variable_literals(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_variable_arguments_rename_like_substitution(
        self, literal, data
    ):
        positions = [arg_position(i) for i in range(1, literal.arity + 1)]
        cset = data.draw(constraint_sets_over(positions))
        bindings = {
            arg_position(index): arg.to_expr()
            for index, arg in enumerate(literal.args, start=1)
            if isinstance(arg, Var)
        }
        symbolic = {
            arg_position(index)
            for index, arg in enumerate(literal.args, start=1)
            if isinstance(arg, Sym)
        }
        expected = ConstraintSet(
            disjunct.substitute(bindings)
            for disjunct in cset.disjuncts
            if not disjunct.variables() & symbolic
        )
        result = ptol(literal, cset)
        assert len(result.disjuncts) == len(expected.disjuncts)
        for got, want in zip(result.disjuncts, expected.disjuncts):
            assert got is want


class TestLtopShortcut:
    @given(any_literals(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_ltop_equals_fresh_construction(self, literal, data):
        cset = data.draw(constraint_sets_over(VARS))
        for disjunct in cset.disjuncts:
            single = ConstraintSet.of(disjunct)
            got = ltop(literal, single).disjuncts
            want = _ltop_fresh(literal, single).disjuncts
            assert len(got) == len(want) <= 1
            for left, right in zip(got, want):
                assert left.equivalent(right), (literal, disjunct)

    def test_repeated_variable_equates_positions(self):
        literal = Literal("p", (Var("X"), Var("X")))
        (disjunct,) = ltop(literal, ConstraintSet.of(Conjunction())).disjuncts
        equal = Atom.eq(LinearExpr.var("$1"), LinearExpr.var("$2"))
        assert disjunct.implies_atom(equal)
