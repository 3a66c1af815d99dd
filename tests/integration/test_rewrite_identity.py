"""Rewritten programs are pinned: a compile-path change must not move them.

Work on the rewrite path -- the solver, the constraint fixpoints of
``core/``, fold/unfold -- is meant to make a compile cheaper, never to
change what it produces.  This pins, for every strategy, a digest of
``str(optimize(...))`` on generated programs (``generate_case`` seeds
0-59, plus 346, whose ``qrp`` compile meets a symbol in a disjunctive
fold), on the flights program and on Examples 4.1 and 5.1.

``STEPS`` pins the programs Section 7's steps return -- the compile
without its last step, :func:`repro.core.prune.prune` -- at the values
commit ``ed32d12`` produces.  ``PINNED`` pins the programs that run:
they were re-pinned when that last step started dropping dead rules
and the atoms ``pred`` proved, leaving the labels of the rules it
keeps as they were.  Both moved for ``case-3`` alone when the ``qrp``
step started dropping the rules that mention a predicate whose QRP
constraint is false (``p0`` and ``p1`` there: 10 rules became 2).

Re-pin only for a change that is *meant* to alter a rewritten program,
and say so in its change note, as with ``PINNED`` in
``test_count_invariance.py``: the assertion message carries the new
digest.  To see *what* moved, diff ``str(optimize(...)[0])`` of the
named input against a checkout of the parent commit.
"""

import hashlib

import pytest

from repro import driver
from repro.conformance.generator import generate_case
from repro.driver import STRATEGIES, optimize
from repro.lang.parser import parse_program, parse_query
from repro.workloads.flights import flights_program

EXAMPLE_41 = """
q(X) :- p1(X, Y), p2(Y), X + Y <= 6, X >= 2.
p1(X, Y) :- b1(X, Y).
p2(X) :- b2(X).
"""

EXAMPLE_51 = """
q(X, Y) :- a(X, Y), X <= 10, Y <= X.
a(X, Y) :- p(X, Y), Y <= X.
a(X, Y) :- a(X, Z), Z <= X, a(Z, Y), Y <= Z.
"""


def _input(name):
    if name == "flights":
        return flights_program(), parse_query(
            "?- cheaporshort(madison, seattle, T, C)."
        )
    if name == "example-4.1":
        return parse_program(EXAMPLE_41).relabeled(), parse_query(
            "?- q(X)."
        )
    if name == "example-5.1":
        return parse_program(EXAMPLE_51).relabeled(), parse_query(
            "?- q(X, Y)."
        )
    case = generate_case(int(name.removeprefix("case-")))
    return case.program, case.query


def _digest(name):
    """One digest over the input's rewrite under every strategy."""
    program, query = _input(name)
    text = "".join(
        f"== {strategy}\n{optimize(program, query, strategy)[0]}\n"
        for strategy in STRATEGIES
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: input -> sha256 prefix of its steps' programs under all six
#: strategies, pruning left out.
STEPS = {
    "case-0": "e666600b5479e438",
    "case-1": "f5590b9420b49eb9",
    "case-10": "3cb108f9ad535817",
    "case-11": "96004df8433cde6b",
    "case-12": "cb12218181e01fcd",
    "case-13": "d238f06e6558d704",
    "case-14": "d207712f0af9d3d1",
    "case-15": "4fb6a7fcbf342733",
    "case-16": "5e415c3ddde779aa",
    "case-17": "c0a5cc445686bcae",
    "case-18": "5b6b892e6462abbf",
    "case-19": "5e3161142d263ac9",
    "case-2": "d2c3900ec792ebf6",
    "case-20": "1846eac3263d3f4b",
    "case-21": "a37dd236d3c5155d",
    "case-22": "ed10c511396dac5b",
    "case-23": "95bad1496018c752",
    "case-24": "422475f6cc00e4fb",
    "case-25": "be9322de6294a66a",
    "case-26": "77793f7172cde7ad",
    "case-27": "3f05a13c1bb03a6e",
    "case-28": "11c128ad44fca0dd",
    "case-29": "1bf5b4fb366385c9",
    "case-3": "bcc830022a174791",
    "case-30": "80d9afb5c08855be",
    "case-31": "9b4d525e6a12780d",
    "case-32": "ce3f169faa8cfc8f",
    "case-33": "33db5acb01c6eabd",
    "case-34": "c527f2fc6d498678",
    "case-346": "033de204a178e918",
    "case-35": "fe87a2e067f26f7b",
    "case-36": "73977b36ca6bbade",
    "case-37": "8dc0af5aa67bb511",
    "case-38": "24dc9239acdc007c",
    "case-39": "a56c874f53c1a903",
    "case-4": "b96ee6be968c533e",
    "case-40": "c3ed14beea374719",
    "case-41": "b76079e7a714765b",
    "case-42": "92ccf0f7a7756990",
    "case-43": "1d65db800a6a6546",
    "case-44": "2be028eac19bc8ba",
    "case-45": "9e763460f473e3b3",
    "case-46": "2ea48449d5f7efed",
    "case-47": "47b8f60f7f53cf89",
    "case-48": "6a2bf46e514396dc",
    "case-49": "6fec782bff21b3c8",
    "case-5": "eae51b8d93173de3",
    "case-50": "bb8fffb6eff1f6ab",
    "case-51": "8ba5c61431be4ba7",
    "case-52": "c0c3cd45715f28b5",
    "case-53": "1a12334fc57dbfe1",
    "case-54": "1aefdcdfb1f404a4",
    "case-55": "a15a8f07d67236fb",
    "case-56": "75af3f71764aecbb",
    "case-57": "9de8ed08d58a07f1",
    "case-58": "e47a4f2a9c9871bc",
    "case-59": "c1f2582f2c8cc61d",
    "case-6": "f71992a9d51d8ef8",
    "case-7": "ad0b724254b17f43",
    "case-8": "d1439cdd6d71f0fc",
    "case-9": "7638c62075191f72",
    "example-4.1": "53fd666a00fc8e2d",
    "example-5.1": "1ffa24d302df50a0",
    "flights": "233dec80407a4dcd",
}

#: input -> sha256 prefix of its rewrites under all six strategies.
PINNED = {
    "case-0": "20b5e4921ab1e7c1",
    "case-1": "08a93dca6d4bea6d",
    "case-10": "820c52985411eeae",
    "case-11": "eeb17cf503d2e66a",
    "case-12": "c18afc023b1b242e",
    "case-13": "25b93cbd4bf2f2aa",
    "case-14": "ff6f475a9bd7f629",
    "case-15": "e3ea1be758ed5225",
    "case-16": "3f544b593d4ce3d1",
    "case-17": "9d111ad341957d41",
    "case-18": "0745447f8c706a30",
    "case-19": "f0b12049834e5dd5",
    "case-2": "b427a30028472dd6",
    "case-20": "14f3909570723692",
    "case-21": "3ea4acf97b168e74",
    "case-22": "59779d09957e2038",
    "case-23": "d161b3f9b7a2048f",
    "case-24": "45907fcd670902d0",
    "case-25": "bec8a4449ccc574c",
    "case-26": "0ce0e523462ca7af",
    "case-27": "2a81392d9d84809e",
    "case-28": "34163574ad5d2204",
    "case-29": "050caf44833fe485",
    "case-3": "86062b3c1ebb63dc",
    "case-30": "f0b263cc5823cc19",
    "case-31": "718b1b9371c92e16",
    "case-32": "6d4aa3e2ed82ee60",
    "case-33": "33db5acb01c6eabd",
    "case-34": "a6f3d5e05ac27537",
    "case-346": "144ef8a8c2460ca1",
    "case-35": "fe87a2e067f26f7b",
    "case-36": "339fba675dc8798f",
    "case-37": "8dc0af5aa67bb511",
    "case-38": "4b3e32f0727873ce",
    "case-39": "7cb2e2734c6f9451",
    "case-4": "06796308f9430cbc",
    "case-40": "c3ed14beea374719",
    "case-41": "a7b6157be9dd0082",
    "case-42": "92ccf0f7a7756990",
    "case-43": "dac540c559464d50",
    "case-44": "34131534c8d6d113",
    "case-45": "45bbab9e02ee3489",
    "case-46": "4ba43f0e90120b83",
    "case-47": "043ce3a0953615f8",
    "case-48": "e70adf4e2965ab5f",
    "case-49": "d5892650a5c8dfb0",
    "case-5": "b4cba0d4afdbff6a",
    "case-50": "34b5b73c442f7e84",
    "case-51": "8df90c1cb03afb52",
    "case-52": "daf7717aebb867ed",
    "case-53": "f276e93d98cc1f38",
    "case-54": "eb1ad944122a4233",
    "case-55": "c69e3e4e0513d181",
    "case-56": "6e0fc6f6c0b8f134",
    "case-57": "2addf3c6ed2443e1",
    "case-58": "e69febac520aa6d6",
    "case-59": "ff8c71a62813740e",
    "case-6": "f71992a9d51d8ef8",
    "case-7": "c275eaf79040a697",
    "case-8": "4e54e40050a764e3",
    "case-9": "017ad00594014936",
    "example-4.1": "53fd666a00fc8e2d",
    "example-5.1": "912999eaa9adab2a",
    "flights": "49bc39e25be3484b",
}


def test_every_input_is_pinned():
    assert len(PINNED) == 60 + 1 + 3
    assert set(STEPS) == set(PINNED)
    assert STRATEGIES == (
        "none", "pred", "qrp", "rewrite", "magic", "optimal"
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_rewrites_match_the_pin(name):
    digest = _digest(name)
    assert digest == PINNED[name], (
        f"{name}: rewritten programs moved (now {digest!r}); re-pin "
        "only for a change meant to alter a rewrite"
    )


@pytest.mark.parametrize("name", sorted(STEPS))
def test_steps_programs_match_the_pin(name, monkeypatch):
    monkeypatch.setattr(driver, "prune", lambda program, proved: program)
    digest = _digest(name)
    assert digest == STEPS[name], (
        f"{name}: the steps' programs moved (now {digest!r})"
    )
