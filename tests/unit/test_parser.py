"""Unit tests for the CQL parser."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.conformance.generator import case_from_text, generate_case
from repro.constraints.atom import Atom
from repro.constraints.linexpr import LinearExpr
from repro.lang.ast import Literal
from repro.lang.parser import (
    ParseError,
    _tokenize,
    parse_program,
    parse_program_and_queries,
    parse_query,
    parse_rule,
)
from repro.lang.terms import NumTerm, Sym, Var


class TestRules:
    def test_fact(self):
        rule = parse_rule("fib(0, 1).")
        assert rule.is_fact
        assert rule.head.pred == "fib"
        assert rule.head.args == (
            NumTerm(LinearExpr.const(0)),
            NumTerm(LinearExpr.const(1)),
        )

    def test_rule_with_body_and_constraints(self):
        rule = parse_rule("q(X) :- p(X, Y), X + Y <= 6, X >= 2.")
        assert [lit.pred for lit in rule.body] == ["p"]
        assert len(rule.constraint) == 2

    def test_symbolic_constants(self):
        rule = parse_rule("leg(madison, chicago).")
        assert rule.head.args == (Sym("madison"), Sym("chicago"))

    def test_variables_uppercase(self):
        rule = parse_rule("p(X, Time, _under).")
        assert all(isinstance(arg, Var) for arg in rule.head.args)

    def test_arithmetic_argument(self):
        rule = parse_rule("fib(N, X1 + X2) :- fib(N - 1, X1), fib(N - 2, X2).")
        head_arg = rule.head.args[1]
        assert isinstance(head_arg, NumTerm)
        assert head_arg.expr == (
            LinearExpr.var("X1") + LinearExpr.var("X2")
        )

    def test_scalar_multiplication_and_division(self):
        rule = parse_rule("p(X) :- 2 * X <= 5, X / 2 >= 1.")
        assert len(rule.constraint) == 2

    def test_decimal_constants_exact(self):
        rule = parse_rule("p(X) :- X <= 0.5.")
        (atom,) = rule.constraint.atoms
        assert atom == Atom.le(
            LinearExpr.var("X"), LinearExpr.const(Fraction(1, 2))
        )

    def test_parenthesized_arithmetic(self):
        rule = parse_rule("p(X, Y) :- X <= 2 * (Y + 1).")
        (atom,) = rule.constraint.atoms
        assert atom.satisfied_by({"X": 4, "Y": 1})
        assert not atom.satisfied_by({"X": 5, "Y": 1})

    def test_zero_arity_literal(self):
        rule = parse_rule("go :- ready, p(X).")
        assert rule.head == Literal("go", ())
        assert rule.body[0] == Literal("ready", ())

    def test_comments_ignored(self):
        program = parse_program(
            """
            % a comment
            p(X) :- q(X).  # another comment
            """
        )
        assert len(program) == 1


class TestQueries:
    def test_query_with_constants(self):
        query = parse_query("?- cheaporshort(madison, seattle, T, C).")
        assert query.literal.pred == "cheaporshort"
        assert query.literal.args[0] == Sym("madison")

    def test_query_with_constraint(self):
        query = parse_query("?- X > 10, p(X, Y).")
        assert len(query.constraint) == 1

    def test_program_and_queries(self):
        program, queries = parse_program_and_queries(
            """
            p(X) :- q(X).
            ?- p(3).
            """
        )
        assert len(program) == 1
        assert len(queries) == 1


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_program("p(X) :- q(X) & r(X).")

    def test_uppercase_predicate_rejected(self):
        with pytest.raises(ParseError):
            parse_program("P(X) :- q(X).")

    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse_program("p(X) :- q(X)")

    def test_symbol_in_arithmetic_rejected(self):
        with pytest.raises(ParseError):
            parse_program("p(X) :- X <= madison.")

    def test_nonlinear_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_program("p(X, Y) :- X * Y <= 1.")

    def test_division_by_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_program("p(X) :- X / 0 <= 1.")

    def test_error_carries_location(self):
        try:
            parse_program("p(X) :-\n  q(X) ~ .")
        except ParseError as error:
            assert error.line == 2
        else:  # pragma: no cover
            raise AssertionError("expected a ParseError")

    def test_query_in_parse_program_rejected(self):
        with pytest.raises(ValueError):
            parse_program("?- p(X).")


class TestRoundTrip:
    def test_print_and_reparse(self, flights_program):
        text = str(flights_program)
        reparsed = parse_program(text)
        assert len(reparsed) == len(flights_program)
        assert reparsed.predicates() == flights_program.predicates()

    def test_corpus_and_generated_programs(self):
        corpus = Path(__file__).resolve().parent.parent / "conformance"
        programs = [
            case_from_text(path.read_text()).program
            for path in sorted((corpus / "corpus").glob("*.cql"))
        ]
        programs += [generate_case(seed).program for seed in range(100)]
        for program in programs:
            assert parse_program(str(program)) == program


_SYMBOL = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)
_INTEGER = st.from_regex(r"[0-9]{1,6}", fullmatch=True)
_BLANK = st.sampled_from(["", " ", "\t", " \t  "])


@st.composite
def _fact_parts(draw):
    """A predicate name and argument texts with blanks around them."""
    arguments = draw(
        st.lists(st.one_of(_SYMBOL, _INTEGER), min_size=1, max_size=5)
    )
    return draw(_SYMBOL), [
        draw(_BLANK) + argument + draw(_BLANK) for argument in arguments
    ]


def _kinds(text):
    return [token.kind for token in _tokenize(text)]


def _value_types(rule):
    return [
        (type(arg), type(arg.expr.constant))
        if isinstance(arg, NumTerm) else (type(arg), None)
        for arg in rule.head.args
    ]


class TestGroundFactLines:
    """A one-line ground fact skips the tokenizer and the grammar."""

    @given(_fact_parts())
    def test_fast_path_builds_the_full_parsers_rule(self, parts):
        name, arguments = parts
        line = f"{name}({','.join(arguments)})."
        split = f"{name}(\n{','.join(arguments)})."
        assert _kinds(line) == ["fact", "eof"]
        assert "fact" not in _kinds(split)
        fast, full = parse_rule(line), parse_rule(split)
        assert fast == full
        assert hash(fast) == hash(full)
        assert repr(fast) == repr(full)
        assert _value_types(fast) == _value_types(full)

    @pytest.mark.parametrize(
        "text, printed",
        [
            ("p(-3).", "p(-3)."),
            ("p(1.5).", "p(3/2)."),
            ("p(3/4).", "p(3/4)."),
            ("l: p(a).", "l: p(a)."),
            ("p(X).", "p(X)."),
            ("p.", "p."),
            ("f(X) :-\n g(a, 1).", "f(X) :- g(a, 1)."),
        ],
    )
    def test_other_lines_take_the_full_parser(self, text, printed):
        assert "fact" not in _kinds(text)
        assert str(parse_program(text)) == printed

    def test_statement_boundaries(self):
        text = "p(a).\tq(1).  r(X) :- p(X).\n% c\ns(b).\n?- r(a)."
        assert _kinds(text)[:2] == ["fact", "fact"]
        assert _kinds(text).count("fact") == 3
        program, queries = parse_program_and_queries(text)
        assert [rule.head.pred for rule in program] == ["p", "q", "r", "s"]
        assert len(queries) == 1

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("p(a).\nq(1, b).\nr(c).\n% note\ns(X) :- t(X) ~ u.\n", 5, 14),
            ("p(a).\np(b).\np(c).\n% note\np(d, ).\n", 5, 6),
            ("p(a).\tq(1).  r(b). % c\n  s(c)..\n", 2, 8),
        ],
    )
    def test_errors_after_fact_lines_keep_their_location(
        self, text, line, column
    ):
        with pytest.raises(ParseError) as caught:
            parse_program(text)
        assert (caught.value.line, caught.value.column) == (line, column)
