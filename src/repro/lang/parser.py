"""A text parser for CQL programs.

Syntax (close to the paper's, ASCII-ized)::

    % comments run to end of line
    cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
    flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                          T = T1 + T2 + 30, C = C1 + C2.
    fib(0, 1).
    ?- cheaporshort(madison, seattle, T, C).

Identifiers starting with an upper-case letter or ``_`` are variables;
lower-case identifiers are predicate names (in predicate position) or
symbolic constants (in argument position).  Numeric literals may be
integers, decimals or rationals (``3/4``) and are parsed exactly.
Comparison operators: ``<``, ``<=``, ``=``, ``>=``, ``>``.
Arithmetic: ``+``, ``-``, scalar ``*``, and parentheses.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, NamedTuple

from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr
from repro.errors import ReproError
from repro.lang.ast import Literal, Program, Query, Rule
from repro.lang.terms import NumTerm, Sym, Term, Var


class ParseError(ReproError, ValueError):
    """Raised on malformed program text, with line/column context."""

    code = "REPRO_PARSE"
    exit_code = 2

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int
    rule: Rule | None = None  # the finished rule of a ``fact`` token


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>[%\#][^\n]*)
  | (?P<arrow>:-)
  | (?P<query>\?-)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<op><=|>=|==|<|>|=)
  | (?P<punct>[(),.+\-*/;:])
    """,
    re.VERBOSE,
)


_ARG = r"[ \t]*(?:[a-z][A-Za-z0-9_']*|\d+)[ \t]*"

#: One ground fact on one line: ``name(arg, ...).``, each ``arg`` a
#: lower-case symbol or an unsigned integer.
_FACT_RE = re.compile(
    rf"([a-z][A-Za-z0-9_']*)\(((?:{_ARG},)*{_ARG})\)[ \t]*\."
)


def _fact_rule(match: re.Match) -> Rule:
    """The rule the full parser builds for a :data:`_FACT_RE` match."""
    args: list[Term] = []
    for arg in match.group(2).split(","):
        arg = arg.strip(" \t")
        if arg[0].isdigit():
            args.append(NumTerm(LinearExpr.const(Fraction(int(arg)))))
        else:
            args.append(Sym(arg))
    return Rule(Literal(match.group(1), tuple(args)), (), Conjunction.true())


def _tokenize(text: str) -> Iterator[_Token]:
    line = 1
    line_start = 0
    position = 0
    boundary = True  # at the start of a statement
    while position < len(text):
        if boundary:
            fact = _FACT_RE.match(text, position)
            if fact is not None:
                yield _Token(
                    "fact",
                    fact.group(),
                    line,
                    position - line_start + 1,
                    _fact_rule(fact),
                )
                position = fact.end()
                continue
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(
                f"unexpected character {text[position]!r}",
                line,
                position - line_start + 1,
            )
        kind = match.lastgroup
        value = match.group()
        column = position - line_start + 1
        position = match.end()
        if kind in ("ws", "comment"):
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = position - len(value.rsplit("\n", 1)[-1])
            continue
        assert kind is not None
        boundary = value == "."
        yield _Token(kind, value, line, column)
    yield _Token("eof", "", line, position - line_start + 1)


class _Parser:
    def __init__(self, text: str) -> None:
        self._tokens = list(_tokenize(text))
        self._index = 0

    # -- token helpers ----------------------------------------------------

    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _next(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str, text: str | None = None) -> _Token:
        token = self._peek()
        if token.kind != kind or (text is not None and token.text != text):
            expected = text if text is not None else kind
            raise ParseError(
                f"expected {expected!r}, found {token.text!r}",
                token.line,
                token.column,
            )
        return self._next()

    def _at(self, kind: str, text: str | None = None) -> bool:
        token = self._peek()
        return token.kind == kind and (text is None or token.text == text)

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message, token.line, token.column)

    # -- grammar -----------------------------------------------------------

    def program(self) -> tuple[Program, list[Query]]:
        """Parse a whole program plus queries."""
        rules: list[Rule] = []
        queries: list[Query] = []
        while not self._at("eof"):
            if self._at("query"):
                queries.append(self.query())
            else:
                rules.append(self.rule())
        return Program(rules), queries

    def rule(self) -> Rule:
        """Parse one rule (with optional label)."""
        if self._at("fact"):
            return self._next().rule
        label = None
        if (
            self._peek().kind == "ident"
            and self._tokens[self._index + 1].kind == "punct"
            and self._tokens[self._index + 1].text == ":"
        ):
            label = self._next().text
            self._next()
        head = self._literal()
        body: list[Literal] = []
        atoms: list[Atom] = []
        if self._at("arrow"):
            self._next()
            self._body_items(body, atoms)
        self._expect("punct", ".")
        return Rule(head, tuple(body), Conjunction(atoms), label)

    def query(self) -> Query:
        """Parse one ``?- ...`` query."""
        self._expect("query")
        body: list[Literal] = []
        atoms: list[Atom] = []
        self._body_items(body, atoms)
        self._expect("punct", ".")
        if len(body) != 1:
            raise self._error(
                f"a query must contain exactly one ordinary literal, "
                f"found {len(body)}"
            )
        return Query(body[0], Conjunction(atoms))

    def _body_items(
        self, body: list[Literal], atoms: list[Atom]
    ) -> None:
        while True:
            item = self._body_item()
            if isinstance(item, Literal):
                body.append(item)
            else:
                atoms.append(item)
            if self._at("punct", ","):
                self._next()
                continue
            break

    def _body_item(self) -> Literal | Atom:
        # A lower-case identifier followed by "(" (or by "," / "." with
        # no operator) is an ordinary literal; anything else starts an
        # arithmetic comparison.
        token = self._peek()
        if token.kind == "ident" and not _is_variable_name(token.text):
            following = self._tokens[self._index + 1]
            if following.kind == "punct" and following.text == "(":
                return self._literal()
            if following.kind in ("punct", "arrow", "eof") and (
                following.text in (",", ".")
            ):
                self._next()
                return Literal(token.text, ())
        lhs = self._arith_expr()
        op_token = self._peek()
        if op_token.kind != "op":
            raise self._error("expected a comparison operator")
        self._next()
        rhs = self._arith_expr()
        symbol = "=" if op_token.text == "==" else op_token.text
        return Atom.make(_require_numeric(lhs, op_token), symbol,
                         _require_numeric(rhs, op_token))

    def _literal(self) -> Literal:
        name_token = self._expect("ident")
        if _is_variable_name(name_token.text):
            raise ParseError(
                f"predicate names must be lower-case, got {name_token.text!r}",
                name_token.line,
                name_token.column,
            )
        if not self._at("punct", "("):
            return Literal(name_token.text, ())
        self._next()
        args: list[Term] = [self._term()]
        while self._at("punct", ","):
            self._next()
            args.append(self._term())
        self._expect("punct", ")")
        return Literal(name_token.text, tuple(args))

    def _term(self) -> Term:
        token = self._peek()
        if token.kind == "ident" and not _is_variable_name(token.text):
            following = self._tokens[self._index + 1]
            if following.text not in ("+", "-", "*", "/"):
                self._next()
                return Sym(token.text)
            raise ParseError(
                "symbolic constants cannot appear in arithmetic",
                token.line,
                token.column,
            )
        expr = self._arith_expr()
        if isinstance(expr, Sym):  # pragma: no cover - defended above
            return expr
        variables = sorted(expr.variables())
        if len(variables) == 1 and expr == LinearExpr.var(variables[0]):
            return Var(variables[0])
        return NumTerm(expr)

    # -- arithmetic expressions ---------------------------------------------

    def _arith_expr(self) -> LinearExpr:
        expr = self._arith_term()
        while self._at("punct", "+") or self._at("punct", "-"):
            operator = self._next().text
            rhs = self._arith_term()
            expr = expr + rhs if operator == "+" else expr - rhs
        return expr

    def _arith_term(self) -> LinearExpr:
        expr = self._arith_factor()
        while self._at("punct", "*") or self._at("punct", "/"):
            operator = self._next().text
            rhs = self._arith_factor()
            if operator == "*":
                if rhs.is_constant():
                    expr = expr * rhs.constant
                elif expr.is_constant():
                    expr = rhs * expr.constant
                else:
                    raise self._error(
                        "only scalar multiplication is linear"
                    )
            else:
                if not rhs.is_constant() or rhs.constant == 0:
                    raise self._error(
                        "division only by a nonzero constant"
                    )
                expr = expr * (Fraction(1) / rhs.constant)
        return expr

    def _arith_factor(self) -> LinearExpr:
        token = self._peek()
        if token.kind == "number":
            self._next()
            if "." in token.text:
                whole, frac = token.text.split(".")
                value = Fraction(int(whole or 0)) + Fraction(
                    int(frac), 10 ** len(frac)
                )
            else:
                value = Fraction(int(token.text))
            return LinearExpr.const(value)
        if token.kind == "ident":
            self._next()
            if not _is_variable_name(token.text):
                raise ParseError(
                    "symbolic constants cannot appear in arithmetic",
                    token.line,
                    token.column,
                )
            return LinearExpr.var(token.text)
        if self._at("punct", "("):
            self._next()
            expr = self._arith_expr()
            self._expect("punct", ")")
            return expr
        if self._at("punct", "-"):
            self._next()
            return -self._arith_factor()
        if self._at("punct", "+"):
            self._next()
            return self._arith_factor()
        raise self._error(f"unexpected token {token.text!r}")


def _is_variable_name(name: str) -> bool:
    return name[0].isupper() or name[0] == "_"


def _require_numeric(expr: LinearExpr, token: _Token) -> LinearExpr:
    if isinstance(expr, LinearExpr):
        return expr
    raise ParseError(  # pragma: no cover - defended in _term
        "comparisons require numeric operands", token.line, token.column
    )


def parse_program(text: str) -> Program:
    """Parse the rules of a program (queries in the text are rejected)."""
    program, queries = _Parser(text).program()
    if queries:
        raise ValueError(
            "program text contains a query; use parse_program_and_queries"
        )
    return program


def parse_program_and_queries(text: str) -> tuple[Program, list[Query]]:
    """Parse rules and any number of ``?- ...`` queries."""
    return _Parser(text).program()


def parse_rule(text: str) -> Rule:
    """Parse a single rule (or fact)."""
    program, queries = _Parser(text).program()
    if queries or len(program) != 1:
        raise ValueError("expected exactly one rule")
    return program.rules[0]


def parse_query(text: str) -> Query:
    """Parse a single ``?- ...`` query."""
    program, queries = _Parser(text).program()
    if len(program) != 0 or len(queries) != 1:
        raise ValueError("expected exactly one query")
    return queries[0]
