"""Unit tests for the paper-style result rendering."""

from repro.engine import Database, evaluate
from repro.engine.report import render_comparison, render_derivation_table
from repro.lang.parser import parse_program
from repro.workloads.fib import fib_magic_program


class TestDerivationTable:
    def test_table1_shape(self):
        result = evaluate(
            fib_magic_program(5).program, max_iterations=9, provenance=True
        )
        table = render_derivation_table(result, title="Table 1")
        assert table.startswith("Table 1")
        assert "m_fib($1, 5)" in table
        assert "does not terminate" in table
        assert "*" in table  # discarded facts marked

    def test_table2_shape(self):
        result = evaluate(
            fib_magic_program(5, optimized=True).program,
            max_iterations=30, provenance=True,
        )
        table = render_derivation_table(result, title="Table 2")
        assert "fixpoint after iteration" in table

    def test_iteration_numbers_present(self):
        program = parse_program(
            "tc(X, Y) :- edge(X, Y).\n"
            "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
        )
        edb = Database.from_ground({"edge": [(1, 2), (2, 3)]})
        table = render_derivation_table(
            evaluate(program, edb, provenance=True)
        )
        for number in ("0", "1"):
            assert f"\n{number}" in table


class TestComparison:
    def test_columns_and_rows(self):
        program = parse_program(
            "tc(X, Y) :- edge(X, Y).\n"
            "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
        )
        edb = Database.from_ground({"edge": [(1, 2), (2, 3)]})
        table = render_comparison(
            {
                "naive": evaluate(program, edb, strategy="naive"),
                "seminaive": evaluate(program, edb),
            },
            predicates=["tc"],
        )
        assert "naive" in table and "seminaive" in table
        assert "tc facts" in table
        assert "derivations" in table

    def test_non_terminating_marked(self):
        result = evaluate(fib_magic_program(5).program, max_iterations=5)
        table = render_comparison({"magic": result})
        assert "NO" in table
