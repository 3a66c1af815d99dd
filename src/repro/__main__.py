"""Command-line interface: ``python -m repro program.cql``.

The file contains CQL rules, ground facts, and one or more queries::

    % flights.cql
    cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
    ...
    singleleg(madison, chicago, 50, 100).
    ?- cheaporshort(madison, seattle, T, C).

Options select the optimization strategy (Section 7's vocabulary),
resource budgets (wall-clock deadline, fact/solver/iteration caps with
an ``--on-limit`` degradation policy), and diagnostics (rewritten
program, per-iteration derivation trace, evaluation statistics,
structured traces and metrics).

Exit status (see ``docs/robustness.md`` for the full contract):

* ``0`` -- success: every query answered exactly (or via a sound
  over-approximating fallback, reported as ``approximated``);
* ``1`` -- truncated: an evaluation stopped early (iteration cap or
  resource budget); the partial answers printed are sound but may be
  incomplete, and are labeled ``truncated:<resource>``;
* ``2`` -- unusable input: usage, file, parse, or transform error;
* ``3`` -- hard resource failure: budget exhausted under
  ``--on-limit=fail``, a diverging fixpoint, or an injected fault.
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.cli import add_session_arguments, session_options
from repro.driver import run_text
from repro.errors import ReproError, exit_code_for
from repro.governor.faults import faulty_recorder


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Optimize and evaluate constraint-query-language programs "
            "(Srivastava & Ramakrishnan, 'Pushing Constraint "
            "Selections', PODS 1992)."
        ),
        epilog=(
            "subcommands: 'repro conformance --seed N --count K' runs "
            "the differential conformance harness (docs/testing.md); "
            "'repro serve PROGRAM --workers N' serves batch requests "
            "through a supervised worker pool (docs/serving.md)."
        ),
    )
    parser.add_argument(
        "file",
        help="program file with rules, ground facts and ?- queries "
        "('-' for stdin)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="with --strategy auto, print the planner's pick and its "
        "reason for each query",
    )
    add_session_arguments(parser, "the whole run")
    parser.add_argument(
        "--batch",
        metavar="FILE",
        help="serve a stream of requests from FILE ('-' for stdin) "
        "through one long-lived session (docs/service.md): one query "
        "(?- ...) or fact line per input line, one JSON result per "
        "output line; budgets apply per request",
    )
    parser.add_argument(
        "--show-program",
        action="store_true",
        help="print the optimized program before evaluating",
    )
    parser.add_argument(
        "--derivations",
        action="store_true",
        help="print the per-iteration derivation log",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print evaluation statistics",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record a structured trace of the run and write it as "
        "Chrome trace-event JSON (open in chrome://tracing or "
        "ui.perfetto.dev)",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        help="write a machine-readable JSON-lines run report "
        "(spans, counters, timers)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the span summary tree and operation counters",
    )
    parser.add_argument(
        "--describe",
        action="store_true",
        help="print the static program analysis (SCCs, range "
        "restriction, inferred constraints) and exit",
    )
    return parser


def _run_batch_mode(arguments, text: str) -> int:
    """Serve ``--batch`` requests through a long-lived Engine.

    One JSON result per request line on stdout.  Returns 0 when every
    request succeeded completely, 1 when any request errored or
    returned an incomplete answer set -- either way the session
    survives every failure (``docs/service.md``).
    """
    from repro.service import Engine
    from repro.service.batch import run_batch

    engine = Engine.from_text(
        text, cache_size=arguments.cache_size, **session_options(arguments)
    )
    if arguments.batch == "-":
        return run_batch(engine, sys.stdin, sys.stdout)
    with open(arguments.batch) as handle:
        return run_batch(engine, handle, sys.stdout)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "conformance":
        from repro.conformance.cli import main as conformance_main

        return conformance_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.cli import main as serve_main

        return serve_main(argv[1:])
    arguments = build_parser().parse_args(argv)
    if arguments.batch is not None:
        # One-shot output flags: a batch answers in JSON lines only.
        for flag in ("show_program", "derivations", "explain", "stats"):
            if getattr(arguments, flag):
                print(
                    f"repro: --{flag.replace('_', '-')} cannot be used "
                    "with --batch",
                    file=sys.stderr,
                )
                return 2
    if arguments.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(arguments.file) as handle:
                text = handle.read()
        except OSError as error:
            print(f"repro: {error}", file=sys.stderr)
            return 2
    if arguments.describe:
        from repro.core.inspect import describe, render_description
        from repro.driver import split_edb
        from repro.lang.parser import parse_program_and_queries

        try:
            program, queries = parse_program_and_queries(text)
        except ValueError as error:
            print(f"repro: {error}", file=sys.stderr)
            return 2
        rules, __ = split_edb(program)
        query_pred = (
            queries[0].literal.pred if queries else None
        )
        print(render_description(describe(rules, query_pred)))
        return 0

    from repro import obs

    observing = bool(
        arguments.trace or arguments.report or arguments.metrics
    )
    tracer = obs.Tracer() if observing else None
    try:
        recorder = faulty_recorder(
            arguments.faults,
            tracer if tracer is not None else obs.get_recorder(),
        )
    except ReproError as error:
        print(f"repro: {error}", file=sys.stderr)
        return exit_code_for(error)
    export_failed = False

    def export():
        nonlocal export_failed
        tracer.finish()
        for path, writer in (
            (arguments.trace, obs.write_chrome_trace),
            (arguments.report, obs.write_run_report),
        ):
            if path:
                try:
                    writer(path, tracer)
                except OSError as error:
                    print(f"repro: {error}", file=sys.stderr)
                    export_failed = True

    outcomes = None
    batch_status = 0
    try:
        with obs.recording(recorder):
            if arguments.batch is not None:
                batch_status = _run_batch_mode(arguments, text)
            else:
                outcomes = run_text(text, **session_options(arguments))
    except OSError as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"repro: [{error.code}] {error}", file=sys.stderr)
        return exit_code_for(error)
    except ValueError as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2
    finally:
        # Export whatever was recorded even when the run failed, so a
        # partial trace is still inspectable.
        if tracer is not None:
            export()
    status = batch_status
    for outcome in outcomes or ():
        print(f"?- {outcome.query.literal}.")
        if arguments.show_program:
            print("-- optimized program "
                  f"(strategy={outcome.strategy}) --")
            print(outcome.program)
            print("--")
        if arguments.derivations:
            print(outcome.result.trace())
        if arguments.explain:
            if outcome.plan is not None:
                print(outcome.plan.explain())
            else:
                print(
                    "note: --explain shows a plan only with "
                    "--strategy auto",
                    file=sys.stderr,
                )
        for note in outcome.notes:
            print(f"note: {note}", file=sys.stderr)
        if outcome.answers:
            for answer in outcome.answer_strings:
                print(f"  {answer}")
        else:
            print("  no")
        if outcome.completeness != "complete":
            print(f"  completeness: {outcome.completeness}")
        if arguments.stats:
            print(f"  [{outcome.result.stats.summary()}]")
        if not outcome.result.reached_fixpoint:
            status = 1
    if arguments.metrics and tracer is not None:
        print()
        print(obs.summary_tree(tracer, max_depth=4))
    if export_failed:
        return 2
    if arguments.trace:
        print(f"trace written to {arguments.trace}", file=sys.stderr)
    if arguments.report:
        print(f"report written to {arguments.report}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
