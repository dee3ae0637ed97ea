"""In-memory spans and counts around the library's public entry points.

While installed, the tracer wraps ``lrfix.cpctplus.repair_search``,
``lrfix.parser.panic_recover`` and ``Cactus.push`` from outside the
library.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import lrfix.cpctplus
import lrfix.parser
from lrfix.cactus import Cactus


@dataclass
class SearchCall:
    """One ``repair_search`` call, with a copy of its inputs."""

    span: int
    stack: list[int]
    tok_ids: list[int]
    offset: int
    budget_s: float
    outcome: object        # SearchOutcome or None
    seconds: float
    pushes: int

    @property
    def within_budget(self) -> bool:
        """Did the search end by itself rather than at its deadline?

        Only such calls do a fixed amount of work for a given input.
        """
        return self.outcome is not None or self.seconds < self.budget_s


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.calls: list[SearchCall] = []
        self.pushes = 0
        self.parent: int | None = None  # span that the next wrapped call belongs to
        self._ids = 0

    def new_id(self) -> int:
        self._ids += 1
        return self._ids

    def record(self, sid: int, parent: int | None, name: str, start: float, end: float) -> None:
        self.spans.append((sid, parent, name, start, end))

    @contextmanager
    def installed(self):
        search, panic, push = lrfix.cpctplus.repair_search, lrfix.parser.panic_recover, Cactus.push
        tracer = self

        def counted_push(node, value):
            tracer.pushes += 1
            return push(node, value)

        def traced_search(table, stack, tok_ids, offset, params=None, **kw):
            stack_copy = list(stack)  # parse() mutates the live stack after the call
            pushes0 = tracer.pushes
            sid = tracer.new_id()
            t0 = perf_counter()
            out = search(table, stack, tok_ids, offset, params, **kw)
            t1 = perf_counter()
            tracer.record(sid, tracer.parent, "cpctplus.repair_search", t0, t1)
            budget = kw.get("budget_s")
            if budget is None:
                budget = params.timeout_s
            tracer.calls.append(SearchCall(
                sid, stack_copy, tok_ids, offset, budget, out, t1 - t0,
                tracer.pushes - pushes0,
            ))
            return out

        def traced_panic(*args):
            sid = tracer.new_id()
            t0 = perf_counter()
            out = panic(*args)
            tracer.record(sid, tracer.parent, "parser.panic_recover", t0, perf_counter())
            return out

        lrfix.cpctplus.repair_search = traced_search
        lrfix.parser.panic_recover = traced_panic
        Cactus.push = counted_push
        try:
            yield self
        finally:
            lrfix.cpctplus.repair_search = search
            lrfix.parser.panic_recover = panic
            Cactus.push = push

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "start": start, "end": end}) + "\n")
