"""The service facade: text in, :class:`Response` out.

:class:`Engine` wraps a :class:`~repro.service.session.Session` with
parsing, so callers can speak CQL source::

    from repro.service import Engine

    engine = Engine.from_text(PROGRAM_TEXT, strategy="rewrite")
    response = engine.query("?- reach(a, X), X <= 10.")
    print(response.answer_strings)
    engine.add_facts("edge(a, b, 3).")

Parse failures, unknown predicates, budget exhaustion and every other
deliberate error come back as error responses carrying the ``REPRO_*``
code -- the engine object stays usable afterwards.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.config import (
    DEFAULT_EVAL_ITERATIONS,
    DEFAULT_REWRITE_ITERATIONS,
)
from repro.engine.facts import Fact, ground_fact
from repro.errors import ReproError, UsageError
from repro.governor import Budget
from repro.lang.ast import Program, Query
from repro.lang.parser import parse_program, parse_program_and_queries, parse_query
from repro.service.cache import DEFAULT_CACHE_SIZE
from repro.service.session import Response, Session


def parse_facts(text: str) -> list[Fact]:
    """Ground facts from fact-only source text; anything else (a parse
    failure, a rule, a non-ground fact) raises ``ReproError``."""
    try:
        program = parse_program(text)
    except ReproError:
        raise
    except ValueError as error:
        raise UsageError(str(error)) from None
    facts = []
    for rule in program:
        fact = ground_fact(rule)
        if fact is None:
            raise UsageError(f"not a ground fact: {rule}")
        facts.append(fact)
    return facts


def parse_query_text(text: str) -> Query:
    """The query of one ``?- ...`` request text; a parse failure
    raises ``ReproError`` (a bare ``ValueError`` as ``REPRO_USAGE``)."""
    try:
        return parse_query(text)
    except ReproError:
        raise
    except ValueError as error:
        raise UsageError(str(error)) from None


class Engine:
    """A long-lived query engine over one loaded program."""

    def __init__(
        self,
        program: Program,
        strategy: str = "rewrite",
        max_iterations: int = DEFAULT_REWRITE_ITERATIONS,
        eval_iterations: int = DEFAULT_EVAL_ITERATIONS,
        budget: Budget | None = None,
        on_limit: str = "truncate",
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self.session = Session(
            program,
            strategy=strategy,
            max_iterations=max_iterations,
            eval_iterations=eval_iterations,
            budget=budget,
            on_limit=on_limit,
            cache_size=cache_size,
        )
        #: Queries that appeared in the loaded program text (populated
        #: by :meth:`from_text`), for callers: batch mode does not run
        #: them.
        self.initial_queries: list[Query] = []

    @classmethod
    def from_text(cls, text: str, **options) -> "Engine":
        """An engine over a program text (``?-`` queries kept aside)."""
        program, queries = parse_program_and_queries(text)
        engine = cls(program, **options)
        engine.initial_queries = queries
        return engine

    @classmethod
    def from_file(cls, path: str, **options) -> "Engine":
        """An engine over a program file."""
        with open(path) as handle:
            return cls.from_text(handle.read(), **options)

    # -- requests -----------------------------------------------------

    def query(self, query: Query | str) -> Response:
        """Answer a query (a :class:`Query` or ``?- ...`` source text)."""
        if isinstance(query, str):
            try:
                query = parse_query_text(query)
            except ReproError as error:
                return self.session._error_response(error)
        return self.session.query(query)

    def add_facts(self, facts: str | Iterable[Fact]) -> Response:
        """Load new EDB facts (source text or :class:`Fact` objects)."""
        if isinstance(facts, str):
            try:
                facts = parse_facts(facts)
            except ReproError as error:
                return self.session._error_response(error)
        return self.session.add_facts(facts)

    def add_ground(self, pred: str, values: Iterable[object]) -> Response:
        """Load one ground fact from plain Python values."""
        return self.session.add_facts([Fact.ground(pred, values)])

    def batch(self, lines: Iterable[str]) -> Iterator[Response]:
        """Process batch-protocol lines (see :mod:`repro.service.batch`)."""
        from repro.service.batch import classify

        for line in lines:
            request = classify(line)
            if request is None:
                continue
            kind, text = request
            if kind == "query":
                yield self.query(text)
            else:
                yield self.add_facts(text)

    def stats(self) -> dict:
        """The session's operational snapshot."""
        return self.session.stats()
