"""One front door: each decision a request meets on its way in lives once.

``repro`` and ``repro serve`` share one flag set (``repro.cli``), one
fault recorder (``repro.governor.faults``), one request-line reader
(``repro.service.batch``) and one error response
(``Response.failure``).  This guard fails when a second spelling of any
of them appears under ``src/``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _modules_calling(matches) -> set[str]:
    """The ``src/`` modules with at least one call ``matches`` accepts."""
    found = set()
    for source in SRC.rglob("*.py"):
        tree = ast.parse(source.read_text())
        if any(
            isinstance(node, ast.Call) and matches(node)
            for node in ast.walk(tree)
        ):
            found.add(source.relative_to(SRC).as_posix())
    return found


def _name(func: ast.expr) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _first_arg(node: ast.Call) -> object:
    if node.args and isinstance(node.args[0], ast.Constant):
        return node.args[0].value
    return None


def test_the_session_flags_are_declared_once():
    declaring = _modules_calling(
        lambda node: _name(node.func) == "add_argument"
        and _first_arg(node) == "--strategy"
    )
    assert declaring == {"cli.py"}


def test_a_fault_spec_is_parsed_once():
    parsing = _modules_calling(
        lambda node: isinstance(node.func, ast.Attribute)
        and node.func.attr == "from_spec"
        and _name(node.func.value) == "FaultPlan"
    )
    assert parsing == {"governor/faults.py"}


def test_error_responses_are_built_in_the_session_module_only():
    # The differ's ``Mismatch(kind="error")`` is a verdict, not a
    # ``Response``.
    building = _modules_calling(
        lambda node: _name(node.func) != "Mismatch"
        and any(
            keyword.arg == "kind"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value == "error"
            for keyword in node.keywords
        )
    )
    assert building == {"service/session.py"}


def test_a_request_line_is_classified_once():
    classifying = _modules_calling(
        lambda node: _name(node.func) == "startswith"
        and _first_arg(node) == "?-"
    )
    assert classifying == {"service/batch.py"}
