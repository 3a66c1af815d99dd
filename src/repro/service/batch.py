"""The ``--batch`` line protocol: stream requests, one JSON result each.

Input lines:

* blank lines and lines starting with ``%`` or ``#`` are skipped;
* a line starting with ``?-`` is a query;
* any other line is one or more ground facts (``edge(a, b, 3).``).

Each processed line yields exactly one JSON object on its own output
line (the rendering of :meth:`repro.service.session.Response.to_dict`)::

    {"type": "answers", "query": "...", "answers": [...],
     "completeness": "complete", "cached": true, "warm": true}
    {"type": "facts", "added": 2}
    {"type": "error", "code": "REPRO_PARSE", "message": "..."}

Errors never stop the stream -- the session survives and later lines
still run.  :func:`run_batch` returns the CLI exit status: ``0`` when
every request succeeded, ``1`` when any request errored or returned a
truncated answer set.  An ``approximated`` answer under an explicitly
requested ``--on-limit widen`` policy is the *expected* degraded
outcome -- the caller asked for sound over-approximation as the
fallback -- so it exits 0; under any other policy it still exits 1.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, TYPE_CHECKING

from repro.service.session import Response

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.engine import Engine


def classify(line: str) -> tuple[str, str] | None:
    """``(kind, text)`` of one request line -- ``kind`` is ``"query"``
    or ``"facts"`` -- or ``None`` for blanks and comments."""
    stripped = line.strip()
    if not stripped or stripped.startswith(("%", "#")):
        return None
    return "query" if stripped.startswith("?-") else "facts", stripped


def degraded_status(response: Response, on_limit: str) -> int:
    """The exit-status contribution of one response (0 or 1).

    Errors and truncations always count as failures; an
    ``approximated`` answer counts only when the session policy is not
    ``widen`` (under ``widen`` the caller explicitly requested the
    approximation as the degraded outcome).
    """
    if not response.ok:
        return 1
    if response.kind != "answers":
        return 0
    if response.completeness.startswith("truncated"):
        return 1
    if response.completeness == "approximated" and on_limit != "widen":
        return 1
    return 0


def print_response(response: Response, on_limit: str, out: IO[str]) -> int:
    """Print one response as its JSON line; returns its
    :func:`degraded_status`."""
    print(json.dumps(response.to_dict()), file=out, flush=True)
    return degraded_status(response, on_limit)


def run_batch(
    engine: "Engine",
    lines: Iterable[str],
    out: IO[str],
) -> int:
    """Stream every line through the engine, printing JSON results."""
    status = 0
    on_limit = engine.session.on_limit
    for response in engine.batch(lines):
        status |= print_response(response, on_limit, out)
    return status
