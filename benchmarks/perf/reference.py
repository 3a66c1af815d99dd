"""Reference answers that share nothing with the engine under test.

Flights (Examples 1.1/4.3): a flight is any forward path of legs; its
time is the sum of the leg times plus a 30-minute connection per
intermediate stop, its cost the sum of the leg costs, and
``cheaporshort`` keeps the flights with time <= 240 or cost <= 150.
The generated networks are layered DAGs, so plain path enumeration
terminates.  No parser, relation, solver or fixpoint of ``repro`` is
involved: the input is the generator's own tuples and the output is
compared with the *rendered* answer strings of a response.

Generated programs (``compile-forms``) are checked against
``repro.conformance.oracle``, the harness's deliberately naive ground
evaluator, which shares nothing with ``repro.engine`` either.
"""

from __future__ import annotations

CONNECTION_MINUTES = 30
MAX_TIME = 240
MAX_COST = 150

Leg = tuple[str, str, int, int]


class FlightReference:
    """The EDB as plain adjacency lists, grown as loads are issued."""

    def __init__(self, legs: "list[Leg] | tuple[Leg, ...]" = ()) -> None:
        self._out: dict[str, list[Leg]] = {}
        self.add(legs)

    def add(self, legs: "list[Leg] | tuple[Leg, ...]") -> None:
        for leg in legs:
            self._out.setdefault(leg[0], []).append(leg)

    def flights_from(self, src: str) -> set[tuple[str, int, int]]:
        """Every (destination, time, cost) reachable from ``src``."""
        found: set[tuple[str, int, int]] = set()
        stack = [(src, -CONNECTION_MINUTES, 0)]
        while stack:
            city, time, cost = stack.pop()
            for __, dst, leg_time, leg_cost in self._out.get(city, ()):
                if leg_time <= 0 or leg_cost <= 0:
                    continue
                arrived = (
                    dst,
                    time + CONNECTION_MINUTES + leg_time,
                    cost + leg_cost,
                )
                if arrived not in found:
                    found.add(arrived)
                    stack.append(arrived)
        return found

    def cheaporshort(
        self, src: "str | None", dst: "str | None"
    ) -> frozenset[str]:
        """Answers of ``?- cheaporshort(src, dst, T, C).`` as the
        service renders them; ``None`` leaves the position free (the
        query then binds ``S`` or ``D``)."""
        sources = [src] if src is not None else sorted(self._out)
        rendered = set()
        for source in sources:
            for city, time, cost in self.flights_from(source):
                if dst is not None and city != dst:
                    continue
                if time > MAX_TIME and cost > MAX_COST:
                    continue
                parts = [f"C = {cost}"]
                if dst is None:
                    parts.append(f"D = {city}")
                if src is None:
                    parts.append(f"S = {source}")
                parts.append(f"T = {time}")
                rendered.add(", ".join(parts))
        return frozenset(rendered)

    def singleleg(self, src: str) -> frozenset[str]:
        """Answers of ``?- singleleg(src, D, T, C).``."""
        return frozenset(
            f"C = {cost}, D = {dst}, T = {time}"
            for __, dst, time, cost in self._out.get(src, ())
        )
