"""Property tests of the hash-consing layer (atoms, conjunctions, symbols).

The invariants the engine leans on:

* *canonicality* -- constructing a form from any semantically equal
  presentation (scaled coefficients, flipped operators, permuted or
  duplicated atoms) yields the **same object**, and two live objects
  are equal iff they are identical;
* *stable hashing* -- the hash is precomputed from the canonical key
  and survives pickling;
* *re-interning* -- pickle and ``copy.deepcopy`` round-trips resolve
  back to the canonical instance (this is what keeps forms canonical
  across the shard-worker process boundary);
* *boundedness* -- the tables hold weak references, so dropping every
  strong reference lets entries be collected (no unbounded growth).
"""

import copy
import gc
import pickle
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.codec import decode_fact, encode_fact
from repro.constraints import _reference as ref
from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.intern import TABLES
from repro.constraints.linexpr import LinearExpr
from repro.engine.facts import Fact
from repro.lang import terms
from repro.lang.terms import Sym

VARS = ["X", "Y", "Z"]

coefficients = st.integers(min_value=-4, max_value=4)
constants = st.integers(min_value=-6, max_value=6)
operators = st.sampled_from(["<=", "<", ">=", ">", "="])
scalars = st.fractions(
    min_value=Fraction(1, 6), max_value=Fraction(6)
)


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


class TestAtomInterning:
    @given(linear_exprs(), operators, constants, scalars)
    @settings(max_examples=300, deadline=None)
    def test_scaling_yields_same_object(self, lhs, op, rhs, factor):
        """``k * (e op c)`` for ``k > 0`` is the *identical* atom."""
        base = Atom.make(lhs, op, LinearExpr.const(rhs))
        scaled = Atom.make(
            lhs * factor, op, LinearExpr.const(Fraction(rhs) * factor)
        )
        assert scaled is base
        assert hash(scaled) == hash(base)

    @given(linear_exprs(), operators, constants)
    @settings(max_examples=200, deadline=None)
    def test_operator_flip_yields_same_object(self, lhs, op, rhs):
        """``e <= c`` and ``-e >= -c`` are one canonical atom."""
        flipped = {"<=": ">=", "<": ">", ">=": "<=", ">": "<", "=": "="}
        base = Atom.make(lhs, op, LinearExpr.const(rhs))
        other = Atom.make(
            lhs * Fraction(-1),
            flipped[op],
            LinearExpr.const(Fraction(-rhs)),
        )
        assert other is base

    @given(random_atoms(), random_atoms())
    @settings(max_examples=300, deadline=None)
    def test_identity_iff_equality(self, first, second):
        assert (first is second) == (first == second)
        if first is not second:
            assert hash(first) != hash(second) or first != second

    @given(random_atoms(), random_atoms())
    @settings(max_examples=150, deadline=None)
    def test_distinct_objects_with_shared_vars_differ_semantically(
        self, first, second
    ):
        """Two distinct interned non-ground atoms over the same variable
        set never have identical solution sets (canonical scaling would
        have merged them)."""
        if first is second:
            return
        if first.is_ground() or second.is_ground():
            return
        if first.variables() != second.variables():
            return
        assert not ref.equivalent_vecs(
            ref.from_atoms([first]), ref.from_atoms([second])
        )


class TestConjunctionInterning:
    @given(st.lists(random_atoms(), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_order_and_duplicates_irrelevant(self, atoms):
        base = Conjunction(atoms)
        shuffled = Conjunction(list(reversed(atoms)) + atoms)
        assert shuffled is base
        assert hash(shuffled) == hash(base)

    @given(random_conjunctions(), random_conjunctions())
    @settings(max_examples=200, deadline=None)
    def test_identity_iff_equality(self, first, second):
        assert (first is second) == (first == second)

    @given(random_conjunctions())
    @settings(max_examples=100, deadline=None)
    def test_conjoin_with_self_is_identity(self, conjunction):
        assert conjunction.conjoin(conjunction) is conjunction


class TestReinterning:
    @given(random_atoms())
    @settings(max_examples=150, deadline=None)
    def test_atom_pickle_roundtrip_reinterns(self, atom):
        clone = pickle.loads(pickle.dumps(atom))
        assert clone is atom
        assert hash(clone) == hash(atom)

    @given(random_conjunctions())
    @settings(max_examples=150, deadline=None)
    def test_conjunction_pickle_roundtrip_reinterns(self, conjunction):
        clone = pickle.loads(pickle.dumps(conjunction))
        assert clone is conjunction

    @given(random_conjunctions())
    @settings(max_examples=100, deadline=None)
    def test_deepcopy_reinterns(self, conjunction):
        assert copy.deepcopy(conjunction) is conjunction
        for atom in conjunction.atoms:
            assert copy.deepcopy(atom) is atom


sym_names = st.text(min_size=1, max_size=6)


class TestSymInterning:
    """Symbolic constants are interned per name, outside ``TABLES``
    (``constraints.interned_forms`` counts constraint forms only)."""

    @given(sym_names)
    @settings(max_examples=100, deadline=None)
    def test_one_instance_per_name(self, name):
        assert Sym(name) is Sym(name)
        assert hash(Sym(name)) == hash((name,))

    @given(sym_names)
    @settings(max_examples=100, deadline=None)
    def test_copies_and_codec_return_the_canonical_instance(self, name):
        symbol = Sym(name)
        clone = pickle.loads(pickle.dumps(symbol))
        assert clone is symbol
        assert hash(clone) == hash(symbol)
        assert copy.copy(symbol) is symbol
        assert copy.deepcopy(symbol) is symbol
        fact = Fact.ground("p", (symbol, 1))
        decoded = decode_fact(encode_fact(fact))
        assert decoded == fact
        assert decoded.args[0] is symbol

    def test_never_equal_to_a_plain_value(self):
        assert Sym("a") != "a"
        assert "a" != Sym("a")
        assert Sym("1") != 1
        assert 1 != Sym("1")

    def test_dropped_syms_are_collected(self):
        gc.collect()
        baseline = len(terms._SYMS)
        unique = [Sym(f"only-here-{number}") for number in range(500)]
        assert len(terms._SYMS) >= baseline + 500
        del unique
        gc.collect()
        assert len(terms._SYMS) <= baseline + 50

    def test_not_a_constraint_intern_table(self):
        Sym("x")
        assert "syms" not in TABLES
        assert set(TABLES) == {"atoms", "conjunctions"}


class TestBoundedness:
    def test_dropped_atoms_are_collected(self):
        """The intern table does not grow without bound: entries die
        with their last strong reference."""
        gc.collect()
        baseline = len(TABLES["atoms"])
        unique = [
            Atom.make(
                LinearExpr({"Q": Fraction(1)}, Fraction(0)),
                "<=",
                LinearExpr.const(Fraction(value, 7)),
            )
            for value in range(1000, 1500)
        ]
        grown = len(TABLES["atoms"])
        assert grown >= baseline + 500
        del unique
        gc.collect()
        assert len(TABLES["atoms"]) <= baseline + 50

    def test_dropped_conjunctions_are_collected(self):
        gc.collect()
        baseline = len(TABLES["conjunctions"])
        unique = [
            Conjunction(
                [
                    Atom.make(
                        LinearExpr({"Q": Fraction(1)}, Fraction(0)),
                        "<=",
                        LinearExpr.const(Fraction(value, 11)),
                    )
                ]
            )
            for value in range(2000, 2400)
        ]
        grown = len(TABLES["conjunctions"])
        assert grown >= baseline + 400
        del unique
        gc.collect()
        assert len(TABLES["conjunctions"]) <= baseline + 50
