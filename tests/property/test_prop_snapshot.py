"""Property tests for :mod:`repro.codec`: the fact encoding and the seal.

Durability is only as good as the codec: a fact that does not survive
``encode_fact``/``decode_fact`` bit-identically is a fact recovery
silently alters.  Facts here are drawn adversarially -- exact
:class:`~fractions.Fraction` numbers with large numerators, integers
past 2^64, negative and degenerate intervals, symbols spelled like
numbers and JSON literals (the compact form tells a symbol from a
number from a pending slot by JSON type alone), several coupled
PENDING positions -- and every one must round-trip to an *equal* fact
with an *equal* constraint, including through a JSON serialize/parse
cycle (what the files and the pipe actually carry).

The seal half covers the recovery contract under random damage: any
single-byte corruption or truncation of a sealed line is either caught
or leaves the decoded payload identical, and multi-record logs damaged
at a random mid-file record always recover exactly the valid prefix.
"""

from __future__ import annotations

import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.codec import decode_fact, encode_fact, frozen, seal, unseal
from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr
from repro.engine.facts import make_fact


def pos(i):
    return LinearExpr.var(f"${i}")


fractions = st.one_of(
    st.builds(
        Fraction,
        st.integers(min_value=-10**9, max_value=10**9),
        st.integers(min_value=1, max_value=10**6),
    ),
    st.integers(min_value=-(2**80), max_value=2**80).map(Fraction),
)

symbols = st.one_of(
    st.text(alphabet="abcdefgxyz_", min_size=1, max_size=8),
    # Spelled like the other three argument kinds.
    st.sampled_from(
        ["3", "3/2", "-1", "null", "true", "[1,2]", "$1", ""]
    ),
)


@st.composite
def mixed_facts(draw):
    """Facts mixing symbols, exact fractions, and constrained slots."""
    arity = draw(st.integers(min_value=1, max_value=4))
    args = []
    pending_positions = []
    for position in range(1, arity + 1):
        kind = draw(st.sampled_from(["sym", "num", "pending"]))
        if kind == "sym":
            args.append(draw(symbols))
        elif kind == "num":
            args.append(draw(fractions))
        else:
            args.append(None)
            pending_positions.append(position)
    atoms = []
    for position in pending_positions:
        # A (possibly negative, possibly degenerate, possibly
        # *empty*) interval around the pending position; make_fact
        # normalizes or rejects, and whatever it accepts must
        # round-trip.
        lower = draw(fractions)
        width = draw(
            st.one_of(
                st.just(Fraction(0)),
                fractions.map(abs),
            )
        )
        low = Atom.lt if draw(st.booleans()) else Atom.le
        high = Atom.lt if draw(st.booleans()) else Atom.le
        atoms.append(low(LinearExpr.const(lower), pos(position)))
        atoms.append(
            high(pos(position), LinearExpr.const(lower + width))
        )
    if len(pending_positions) > 1 and draw(st.booleans()):
        # Couple two pending positions, so neither interval alone
        # describes the fact.
        first, second = pending_positions[:2]
        atoms.append(Atom.le(pos(first), pos(second)))
    return make_fact("p", args, Conjunction(atoms))


class TestCodecRoundTrip:
    @given(mixed_facts())
    @settings(max_examples=200, deadline=None)
    def test_fact_round_trips_bit_identically(self, fact):
        if fact is None:  # unsatisfiable draw: nothing to persist
            return
        rebuilt = decode_fact(encode_fact(fact))
        assert rebuilt == fact
        assert rebuilt.constraint == fact.constraint
        assert rebuilt.args == fact.args

    @given(mixed_facts())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_survives_json_serialization(self, fact):
        if fact is None:
            return
        wire = json.loads(json.dumps(encode_fact(fact)))
        assert decode_fact(wire) == fact

    @given(mixed_facts())
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_deterministic(self, fact):
        if fact is None:
            return
        assert encode_fact(fact) == encode_fact(fact)
        # ... and canonical: a parsed copy has the same identity.
        wire = json.loads(json.dumps(encode_fact(fact)))
        assert frozen(wire) == frozen(encode_fact(fact))

    @given(mixed_facts())
    @settings(max_examples=150, deadline=None)
    def test_decoded_forms_reintern_to_one_instance(self, fact):
        """Constraint forms survive the process boundary *canonically*.

        A shard worker receives facts through this codec (over JSON),
        never through pickle; the decoded constraint must be the one
        interned instance so identity-based equality, precomputed
        hashes, and the solver memo all work on the receiving side
        exactly as they do on the sender.
        """
        if fact is None:
            return
        rebuilt = decode_fact(json.loads(json.dumps(encode_fact(fact))))
        assert rebuilt.constraint is fact.constraint
        for ours, theirs in zip(
            fact.constraint.atoms, rebuilt.constraint.atoms
        ):
            assert theirs is ours


class TestFramingIntegrity:
    @given(mixed_facts(), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_framed_record_parses_back(self, fact, epoch):
        facts = [] if fact is None else [encode_fact(fact)]
        line = seal({"epoch": epoch, "facts": facts})
        assert "\n" not in line
        assert unseal(line) == {"epoch": epoch, "facts": facts}

    @given(
        mixed_facts(),
        st.integers(min_value=0, max_value=10**6),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_single_byte_damage_never_changes_the_body(
        self, fact, epoch, data
    ):
        payload = {
            "epoch": epoch,
            "facts": [] if fact is None else [encode_fact(fact)],
        }
        line = seal(payload)
        index = data.draw(
            st.integers(min_value=0, max_value=len(line) - 1)
        )
        replacement = data.draw(
            st.one_of(
                st.sampled_from('x7"}{:, 0af'),
                st.characters(max_codepoint=255),
            )
        )
        damaged = line[:index] + replacement + line[index + 1:]
        if damaged == line:
            return
        try:
            body = unseal(damaged)
        except ValueError:
            return  # caught: damage detected, record dropped
        # Undetected damage must be a no-op.
        assert body == payload

    @given(mixed_facts(), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_no_truncation_of_a_sealed_line_changes_the_payload(
        self, fact, epoch
    ):
        payload = {
            "epoch": epoch,
            "facts": [] if fact is None else [encode_fact(fact)],
        }
        line = seal(payload)
        for cut in range(len(line)):
            try:
                body = unseal(line[:cut])
            except ValueError:
                continue
            assert body == payload

    @given(
        st.lists(mixed_facts(), min_size=2, max_size=6),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_mid_log_damage_recovers_the_exact_valid_prefix(
        self, facts, data
    ):
        import tempfile

        from repro.serve.snapshot import Snapshotter

        directory = tempfile.mkdtemp(prefix="repro-wal-")
        snap = Snapshotter(directory, "prog1")
        encoded = [
            [] if fact is None else [encode_fact(fact)]
            for fact in facts
        ]
        with open(snap._log_path, "w") as handle:
            for epoch, payload in enumerate(encoded, start=1):
                handle.write(
                    seal({"epoch": epoch, "facts": payload}) + "\n"
                )
        victim = data.draw(
            st.integers(min_value=0, max_value=len(encoded) - 2)
        )
        with open(snap._log_path) as handle:
            lines = handle.read().splitlines()
        lines[victim] = lines[victim][: len(lines[victim]) // 2]
        with open(snap._log_path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        try:
            entries, damage = snap._scan_log()
            assert [entry["epoch"] for entry in entries] == list(
                range(1, victim + 1)
            )
            assert damage is not None
            assert damage["line"] == victim + 1
            assert not damage["torn_tail"]
            assert damage["records_dropped"] == len(encoded) - victim
        finally:
            import shutil

            shutil.rmtree(directory, ignore_errors=True)
