"""One encoding, one seal: how a fact crosses a process or a crash.

All the durable and sharded layers must guarantee about the paper's
constraint fact ``p(X; C)`` (Section 2) is that it crosses a boundary
bit-identically, so subsumption still deduplicates after a recovery or
an exchange round.  This module owns the three decisions behind that;
the WAL, snapshots and cluster manifests (:mod:`repro.serve.snapshot`,
:mod:`repro.shard.snapshot`), the pipe frame
(:mod:`repro.shard.protocol`) and the exchange dedup
(:mod:`repro.shard.exchange`) call it and spell nothing themselves.

**The fact encoding** is one positional JSON array per fact, ``[pred,
args, atoms]``.  An argument is a string for a symbol, an int for an
integral number, ``[numerator, denominator]`` for any other rational
and ``null`` for a PENDING position -- four JSON types, so a symbol
spelled ``"3"`` or ``"null"`` is never mistaken for a number or a
pending slot.  An atom is ``[op, constant, [[var, coeff], ...]]``,
terms in variable order, atoms in the conjunction's canonical order.
Decoding goes through the interning constructors, so a decoded
constraint *is* the receiver's canonical instance.  There is no JSON
object inside, hence no key order to normalise: equal facts encode to
equal arrays, and :func:`frozen` of an encoded fact is its identity.

**The seal** is one newline-free line, ``"%08x <compact-json>"``: the
CRC32 of the payload bytes *as written*, a space, the payload.  It
covers every byte (a snapshot's ``schema`` included) and verifying it
never re-serialises.  A line that fails :func:`unseal` is damage,
never an older format; :data:`SCHEMA` versions what an *intact*
snapshot or manifest holds.

**The bytes and the checksum** under the seal (:func:`dumps`,
:func:`loads`, :data:`crc32`) also sit under the one other framing
there is: a pipe needs a length prefix where a log needs
line-terminated records.
"""

from __future__ import annotations

import json
import zlib
from fractions import Fraction

from repro.constraints.atom import Atom, Op
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr
from repro.engine.facts import PENDING, Fact, number_key
from repro.errors import SnapshotError
from repro.lang.terms import Sym

#: The one format version: what a sealed snapshot or manifest holds.
SCHEMA = "repro-snap/v3"

#: The checksum behind the seal and the pipe frame.
crc32 = zlib.crc32


# -- bytes ------------------------------------------------------------


def dumps(payload: object) -> bytes:
    """The compact (ASCII) JSON bytes every boundary writes."""
    return json.dumps(payload, separators=(",", ":")).encode("ascii")


def loads(data: bytes) -> object:
    """Parse bytes :func:`dumps` wrote; ``ValueError`` otherwise."""
    return json.loads(data.decode("utf-8"))


def seal(payload: object) -> str:
    """One checksummed, newline-free line holding ``payload``."""
    data = dumps(payload)
    return f"{crc32(data):08x} {data.decode('ascii')}"


def unseal(text: str) -> object:
    """The payload of a sealed line; ``ValueError`` on any damage.

    Verified over the bytes as read (a byte that is not ASCII was
    never written) before anything is parsed.
    """
    body = text[9:]
    computed = f"{crc32(body.encode('ascii')):08x}"
    if text[:9] != computed + " ":
        raise ValueError(
            f"crc mismatch (stored {text[:8]!r}, computed {computed})"
        )
    return json.loads(body)


# -- facts ------------------------------------------------------------


def _encode_number(value: object) -> "int | list[int]":
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator
        return [value.numerator, value.denominator]
    raise TypeError(f"cannot encode {value!r} as a fact value")


def _decode_number(entry: object) -> "int | Fraction":
    """The int-first value of an encoded number (``int`` if integral)."""
    if type(entry) is int:
        return entry
    if (
        type(entry) is list
        and len(entry) == 2
        and type(entry[0]) is int
        and type(entry[1]) is int
    ):
        return number_key(Fraction(entry[0], entry[1]))
    raise ValueError(f"not a number: {entry!r}")


def encode_fact(fact: Fact) -> list:
    """The JSON-ready array for one (possibly constraint) fact."""
    args: list = []
    for arg in fact.args:
        if isinstance(arg, Sym):
            args.append(arg.name)
        elif arg is PENDING:
            args.append(None)
        else:
            args.append(_encode_number(arg))
    atoms = [
        [
            atom.op.value,
            _encode_number(atom.expr.constant),
            [
                [var, _encode_number(coeff)]
                for var, coeff in atom.expr.sorted_terms()
            ],
        ]
        for atom in fact.constraint.atoms
    ]
    return [fact.pred, args, atoms]


def _decode_atom(entry: list) -> Atom:
    op, constant, terms = entry
    coeffs = {}
    for var, coeff in terms:
        if type(var) is not str:
            raise ValueError(f"not a variable name: {var!r}")
        coeffs[var] = _decode_number(coeff)
    return Atom(LinearExpr(coeffs, _decode_number(constant)), Op(op))


def decode_fact(entry: list) -> Fact:
    """Rebuild a fact :func:`encode_fact` produced.

    The encoded fact was canonical (it came out of a live database),
    so the direct :class:`Fact` constructor is sound here -- running
    ``make_fact`` again would only re-derive the same normal form.
    Anything else is a :class:`~repro.errors.SnapshotError`.
    """
    try:
        pred, args, atoms = entry
        if type(pred) is not str or type(args) is not list:
            raise ValueError(f"not [pred, args, atoms]: {entry!r}")
        values = tuple(
            Sym(arg) if type(arg) is str
            else PENDING if arg is None
            else _decode_number(arg)
            for arg in args
        )
        constraint = Conjunction([_decode_atom(atom) for atom in atoms])
        return Fact(pred, values, constraint)
    except (TypeError, ValueError, ZeroDivisionError) as error:
        raise SnapshotError(
            f"malformed fact in snapshot data: {error}"
        ) from error


def frozen(entry: list) -> tuple:
    """The hashable identity of an encoded fact (nested tuples)."""
    return tuple(
        frozen(item) if type(item) is list else item for item in entry
    )
