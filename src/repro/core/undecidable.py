"""The Section 3 reduction: finiteness of minimum constraints is undecidable.

Theorem 3.1 reduces the halting problem to deciding whether the minimum
predicate constraint of a predicate has a finite representation.  The
reduction transforms a logic program over one constant ``a`` and one
unary function symbol ``f`` into a CQL program:

* every occurrence of ``a`` becomes the numeric constant ``0``;
* every term ``f(X)`` becomes a fresh variable ``Y`` with the
  constraints ``X >= 0`` and ``Y = X + 2``.

Facts of the encoded predicate are then exactly the even naturals
``0, 2, 4, ...`` reached by the original program, so the minimum
predicate constraint for ``p`` is the (possibly infinite) disjunction
``V_i ($1 = 2i)`` and is finite iff the model of ``p`` is finite.

We cannot implement an undecidable decision procedure, but we *can*
implement the reduction itself and exhibit both behaviours, which is
what the tests do: a terminating source program gives a finite minimum
constraint our fixpoint reaches, and the canonical diverging instance
(``p(a).  p(f(X)) :- p(X).``) makes the fixpoint enumerate one new
disjunct per iteration, never converging -- the concrete phenomenon the
theorem is about.

Nothing under ``src/`` imports it: it ships because it is the Theorem
3.1 encoding ``docs/paper_map.md`` cites, exercised by
``tests/unit/test_undecidable.py`` and (as the diverging input the
widening must survive) ``tests/unit/test_widening.py``.
"""

from __future__ import annotations

import re

from repro.lang.ast import Program
from repro.lang.parser import parse_program


def _encode_functional_terms(text: str) -> str:
    """Rewrite ``f(...)`` nests and ``a`` into the CQL encoding.

    Operates on program text for clarity: ``f(X)`` becomes a fresh
    variable constrained by ``X >= 0`` and the +2 step; nested
    applications unfold outside-in.  Only single-variable-or-constant
    arguments are supported (the Sebelik-Stepanek normal form).
    """
    lines = []
    fresh = [0]

    def fresh_var() -> str:
        """Allocate the next fresh encoding variable."""
        fresh[0] += 1
        return f"F{fresh[0]}"

    for raw in text.strip().splitlines():
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        constraints: list[str] = []
        while True:
            match = re.search(r"f\(([A-Za-z0-9_]+)\)", line)
            if match is None:
                break
            inner = match.group(1)
            if inner == "a":
                inner = "0"
            variable = fresh_var()
            constraints.append(f"{inner} >= 0")
            constraints.append(f"{variable} = {inner} + 2")
            line = line[: match.start()] + variable + line[match.end():]
        line = re.sub(r"\ba\b", "0", line)
        if constraints:
            suffix = ", ".join(constraints)
            if ":-" in line:
                line = line[:-1] + ", " + suffix + "."
            else:
                head = line[:-1]
                line = f"{head} :- {suffix}."
        lines.append(line)
    return "\n".join(lines)


def encode_logic_program(text: str) -> Program:
    """The Theorem 3.1 encoding of a one-constant/one-function program."""
    return parse_program(_encode_functional_terms(text))


def diverging_instance() -> Program:
    """``p(a). p(f(X)) :- p(X).`` encoded: infinite minimum constraint.

    Its minimum predicate constraint is ``($1=0) | ($1=2) | ...``; the
    generation fixpoint adds one disjunct per iteration forever.
    """
    return encode_logic_program(
        """
        p(a).
        p(f(X)) :- p(X).
        """
    )


def converging_instance(steps: int = 3) -> Program:
    """A bounded variant whose minimum constraint is finite.

    ``p`` holds of ``0, 2, ..., 2*steps`` only (the recursion is guarded
    by ``X <= 2*(steps-1)``), so the fixpoint converges.
    """
    bound = 2 * (steps - 1)
    return parse_program(
        f"""
        p(0).
        p(Y) :- p(X), X >= 0, X <= {bound}, Y = X + 2.
        """
    )
