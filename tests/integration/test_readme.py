"""The README's snippets must run as printed; what the docs cite must exist."""

import functools
import glob
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

from repro import (
    Database,
    constraint_rewrite,
    evaluate,
    gen_qrp_constraints,
    parse_program,
)


def test_readme_quickstart():
    program = parse_program(
        """
        q(X) :- p1(X, Y), p2(Y), X + Y <= 6, X >= 2.
        p1(X, Y) :- b1(X, Y).
        p2(X) :- b2(X).
        """
    )
    qrp, _ = gen_qrp_constraints(program, "q")
    assert str(qrp["p2"]) == "($1 <= 4)"
    rewritten = constraint_rewrite(program, "q").program
    edb = Database.from_ground(
        {"b1": [(2, 3), (9, 9)], "b2": [(3,), (9,)]}
    )
    result = evaluate(rewritten, edb)
    assert [fact.args for fact in result.facts("q")] == [(2,)]


def test_readme_cli_program_text():
    """The README's CLI snippet, run through the driver."""
    from repro.driver import run_text

    text = """
    cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
    cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
    flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost),
                                    Cost > 0, Time > 0.
    flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                          T = T1 + T2 + 30, C = C1 + C2.
    singleleg(madison, chicago, 50, 100).
    singleleg(chicago, seattle, 150, 40).
    ?- cheaporshort(madison, seattle, T, C).
    """
    for strategy in ("rewrite", "optimal"):
        (outcome,) = run_text(text, strategy=strategy)
        assert outcome.answer_strings == ["C = 140, T = 230"]


def test_readme_service_snippet():
    """The README's query-service snippet, outputs as printed."""
    from repro.service import Engine

    engine = Engine.from_text("""
        cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
        cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
        flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost),
                                        Cost > 0, Time > 0.
        flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                              T = T1 + T2 + 30, C = C1 + C2.
        singleleg(madison, chicago, 50, 100).
        singleleg(chicago, seattle, 150, 40).
    """, strategy="rewrite")

    first = engine.query("?- cheaporshort(madison, seattle, T, C).")
    assert first.answer_strings == ["C = 140, T = 230"]

    again = engine.query("?- cheaporshort(chicago, seattle, T, C).")
    assert (again.cached, again.warm) == (True, True)

    engine.add_facts("singleleg(seattle, portland, 60, 5).")
    onward = engine.query("?- cheaporshort(madison, portland, T, C).")
    assert onward.resumed
    assert onward.answer_strings == ["C = 145, T = 320"]


# -- every path, symbol and flag the docs cite must exist ------------------

ROOT = Path(__file__).resolve().parents[2]
#: benchmarks/perf/README.md is frozen with the ruler; CHANGES.md and
#: ROADMAP.md are history.
DOCUMENTS = sorted(
    [ROOT / "README.md", ROOT / "EXPERIMENTS.md", ROOT / "DESIGN.md"]
    + list((ROOT / "docs").glob("*.md"))
)
CITED_PATH = re.compile(
    r"(?<![\w/.-])("
    r"(?:src|tests|benchmarks|docs|examples)/[\w./*-]*"
    r"|[A-Z][A-Za-z_]*\.(?:md|jsonl?)"
    r"|pyproject\.toml|setup\.py"
    r")"
)
#: ``tests/x.py::TestY::test_z`` -- each name must be defined in the file.
CITED_NODE = re.compile(r"((?:tests|benchmarks)/[\w./-]+\.py)((?:::\w+)+)")
CITED_SYMBOL = re.compile(r"(?<![\w/.-])repro(?:\.[A-Za-z_]\w*)+")
CITED_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]+")
FLAG_LITERAL = re.compile(r"\"(--[a-z][a-z0-9-]+)\"")
#: Cited flags of tools that are not this repository's (pip).
FOREIGN_FLAGS = {"--no-build-isolation"}


def _resolves(dotted: str) -> bool:
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


@functools.cache
def _known_flags() -> frozenset[str]:
    """Every ``"--flag"`` literal in the repository's own programs."""
    return frozenset(FOREIGN_FLAGS).union(*(
        FLAG_LITERAL.findall(source.read_text())
        for folder in ("src", "benchmarks")
        for source in (ROOT / folder).rglob("*.py")
    ))


def _defines(path: str, names: str) -> bool:
    """Does ``path`` define every name of a ``::A::b`` test id?"""
    source = (ROOT / path).read_text()
    return all(
        re.search(rf"(?:class|def) {name}\b", source)
        for name in names.split("::")[1:]
    )


@pytest.mark.parametrize(
    "document", DOCUMENTS, ids=lambda path: str(path.relative_to(ROOT))
)
def test_cited_paths_symbols_and_flags_exist(document):
    text = document.read_text()
    missing = sorted(
        {
            path for path in CITED_PATH.findall(text)
            if not glob.glob(str(ROOT / path.rstrip(".")))
        }
        | {
            path + names for path, names in CITED_NODE.findall(text)
            if (ROOT / path).exists() and not _defines(path, names)
        }
        | {
            symbol for symbol in CITED_SYMBOL.findall(text)
            if not _resolves(symbol)
        }
        | set(CITED_FLAG.findall(text)) - _known_flags()
    )
    assert not missing, f"{document.name} cites {missing}"


# -- every documented command line parses with the real parser -------------

COMMAND = re.compile(r"^(?:\$\s+)?python -m repro\b(.*)$")
#: A shell substitution stands for the value the shell computes; the
#: docs use it for integer seeds only.
SUBSTITUTION = re.compile(r"\$\([^)]*\)")


def _documented_commands() -> list[tuple[str, str]]:
    """``(where, arguments)`` of every ``python -m repro`` line in a
    code block of the docs, continuation lines joined."""
    commands = []
    for document in DOCUMENTS:
        in_block, held = False, None
        for number, line in enumerate(
            document.read_text().splitlines(), start=1
        ):
            if line.lstrip().startswith("```"):
                in_block = not in_block
                continue
            if held is not None:
                where, text = held
                held = None
                line = text + " " + line.strip()
            else:
                where = f"{document.relative_to(ROOT)}:{number}"
                match = COMMAND.match(line.strip()) if in_block else None
                if match is None:
                    continue
                line = match.group(1)
            if line.rstrip().endswith("\\"):
                held = (where, line.rstrip()[:-1])
            else:
                commands.append((where, line))
    return commands


def _parser_for(arguments: list[str]):
    """The real parser of the command's subcommand, and its argv."""
    from repro.__main__ import build_parser
    from repro.conformance.cli import build_parser as conformance
    from repro.serve.cli import build_parser as serve

    if arguments and arguments[0] in ("serve", "conformance"):
        chosen = serve if arguments[0] == "serve" else conformance
        return chosen(), arguments[1:]
    return build_parser(), arguments


DOCUMENTED_COMMANDS = _documented_commands()


def test_the_docs_show_commands_of_every_parser():
    subcommands = {
        (shlex.split(text, comments=True) or ["repro"])[0]
        for __, text in DOCUMENTED_COMMANDS
    }
    assert {"serve", "conformance"} <= subcommands
    assert len(DOCUMENTED_COMMANDS) >= 20


@pytest.mark.parametrize(
    "where, text",
    DOCUMENTED_COMMANDS,
    ids=[where for where, __ in DOCUMENTED_COMMANDS],
)
def test_documented_command_parses(where, text, capsys):
    arguments = shlex.split(SUBSTITUTION.sub("0", text), comments=True)
    parser, argv = _parser_for(arguments)
    try:
        parser.parse_args(argv)
    except SystemExit as exit:
        if exit.code != 0:  # --version and --help exit 0
            pytest.fail(
                f"{where}: `python -m repro {text.strip()}` does not "
                f"parse: {capsys.readouterr().err.strip()}"
            )
