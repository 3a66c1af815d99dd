"""Unit tests for atomic constraints: normalization, negation, truth."""

import copy
import gc
import pickle
from fractions import Fraction

import pytest

from repro.constraints.atom import Atom, FALSE_ATOM, Op, TRUE_ATOM
from repro.constraints.intern import TABLES
from repro.constraints.linexpr import LinearExpr


X = LinearExpr.var("X")
Y = LinearExpr.var("Y")
c = LinearExpr.const


class TestNormalization:
    def test_ge_becomes_le(self):
        atom = Atom.ge(X, c(2))
        assert atom.op is Op.LE
        assert atom == Atom.le(-X, c(-2))

    def test_gt_becomes_lt(self):
        assert Atom.gt(X, c(0)).op is Op.LT

    def test_scaling_to_coprime_integers(self):
        assert Atom.le(2 * X, c(4)) == Atom.le(X, c(2))
        assert Atom.le(X * Fraction(1, 3), c(1)) == Atom.le(X, c(3))

    def test_scaling_preserves_direction(self):
        # -2X <= 4 is X >= -2, NOT X <= -2.
        atom = Atom.le(-2 * X, c(4))
        assert atom.satisfied_by({"X": 0})
        assert not atom.satisfied_by({"X": -3})

    def test_equality_sign_canonical(self):
        assert Atom.eq(X - Y, c(0)) == Atom.eq(Y - X, c(0))

    def test_make_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            Atom.make(X, "!=", c(0))


class TestTruth:
    def test_ground_true(self):
        assert Atom.le(c(1), c(2)).truth_value() is True
        assert Atom.eq(c(3), c(3)).truth_value() is True

    def test_ground_false(self):
        assert Atom.lt(c(2), c(2)).truth_value() is False
        assert Atom.eq(c(1), c(2)).truth_value() is False

    def test_nonground_unknown(self):
        assert Atom.le(X, c(2)).truth_value() is None

    def test_constants(self):
        assert TRUE_ATOM.truth_value() is True
        assert FALSE_ATOM.truth_value() is False


class TestNegation:
    def test_negate_le(self):
        (negated,) = Atom.le(X, c(2)).negations()
        assert negated.satisfied_by({"X": 3})
        assert not negated.satisfied_by({"X": 2})

    def test_negate_lt(self):
        (negated,) = Atom.lt(X, c(2)).negations()
        assert negated.satisfied_by({"X": 2})
        assert not negated.satisfied_by({"X": 1})

    def test_negate_eq_gives_two_branches(self):
        branches = Atom.eq(X, c(2)).negations()
        assert len(branches) == 2
        satisfied = [b.satisfied_by({"X": 1}) for b in branches]
        assert any(satisfied)
        satisfied_at_2 = [b.satisfied_by({"X": 2}) for b in branches]
        assert not any(satisfied_at_2)


class TestPerAtomCaches:
    """Keys an interned atom derives once, and what pickling carries."""

    @staticmethod
    def _filled(atom):
        atom.negations()
        atom.box_bound()
        atom.direction()
        return atom

    def test_negations_is_one_tuple(self):
        for atom in (Atom.le(X, Y), Atom.lt(X, c(1)), Atom.eq(X, c(2))):
            assert atom.negations() is atom.negations()

    @pytest.mark.parametrize("make", [Atom.le, Atom.lt, Atom.ge, Atom.gt])
    def test_negating_twice_gives_the_atom(self, make):
        atom = make(X + 2 * Y, c(3))
        (negated,) = atom.negations()
        assert negated.negations() == (atom,)

    def test_keys_match_the_expression(self):
        atom = Atom.le(3 * Y - X, c(4))
        assert atom.sort_key() == (
            "<=", tuple(atom.expr.sorted_terms()), atom.expr.constant
        )
        assert atom.variables() == atom.expr.variables() == {"X", "Y"}
        assert atom.terms() == (("X", -1), ("Y", 3))

    def test_box_bound(self):
        assert Atom.le(2 * X, c(3)).box_bound() == (
            "X", (Fraction(3, 2), 1), None
        )
        assert Atom.gt(X, c(1)).box_bound() == ("X", None, (1, 1))
        assert Atom.eq(X, c(2)).box_bound() == ("X", (2, 1), (2, 0))
        assert Atom.le(X, Y).box_bound() == (None, None, None)
        assert TRUE_ATOM.box_bound() == (None, None, None)

    @pytest.mark.parametrize(
        "clone", [lambda a: pickle.loads(pickle.dumps(a)), copy.deepcopy]
    )
    def test_copy_of_a_filled_atom_is_the_atom(self, clone):
        atom = self._filled(Atom.eq(X - 2 * Y, c(5)))
        assert clone(atom) is atom

    def test_reduce_carries_no_cache(self):
        atom = self._filled(Atom.lt(X + Y, c(1)))
        __, payload = atom.__reduce__()
        assert payload == ("<", (("X", 1), ("Y", 1)), -1)

    def test_negated_pair_is_collected(self):
        """The negation cache is liveness, not a leak: a dropped atom
        and its cached negation leave the intern table together."""
        gc.collect()
        baseline = len(TABLES["atoms"])
        atoms = [Atom.le(X, c(Fraction(n, 13))) for n in range(9000, 9100)]
        for atom in atoms:
            (negated,) = atom.negations()
            negated.negations()
        assert len(TABLES["atoms"]) >= baseline + 200
        del atoms, atom, negated
        gc.collect()
        assert len(TABLES["atoms"]) == baseline


class TestSubstitution:
    def test_substitute(self):
        atom = Atom.le(X + Y, c(6)).substitute({"Y": c(4)})
        assert atom == Atom.le(X, c(2))

    def test_rename(self):
        atom = Atom.le(X, c(2)).rename({"X": "Z"})
        assert atom.variables() == {"Z"}

    def test_satisfied_by_fraction(self):
        atom = Atom.lt(2 * X, c(1))
        assert atom.satisfied_by({"X": Fraction(1, 3)})
        assert not atom.satisfied_by({"X": Fraction(1, 2)})


class TestDisplay:
    def test_simple(self):
        assert str(Atom.le(X, c(2))) == "X <= 2"

    def test_negative_direction_flipped_for_display(self):
        assert str(Atom.gt(X, c(0))) == "X > 0"
        assert str(Atom.ge(X, c(1))) == "X >= 1"

    def test_multivariable(self):
        assert str(Atom.le(X + Y, c(6))) == "X + Y <= 6"
