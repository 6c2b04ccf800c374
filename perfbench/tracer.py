"""In-memory span recorder used by the benchmark's traced runs.

Spans are recorded around calls into the program's public functions by
replacing those functions, from outside, with timing wrappers; nothing
in the program itself changes. Each span holds its name, start and end
(perf_counter seconds), the index of the enclosing span (-1 at the top)
and the run id shared by every span of one process. Spans stay in memory
until dump() writes them out once, when the traced process ends.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

FIELDS = ["name", "start", "end", "parent", "run_id"]


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (e.g. around an import)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, start, end, parent, self.run_id))

    def wrap(self, func, name: str, after=None):
        """Timing wrapper around func; after(args, result) runs outside the span."""
        spans, stack, run_id = self.spans, self._stack, self.run_id

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, run_id)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def install(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr, and every name bound to it in aquafel modules."""
        func = getattr(owner, attr)
        wrapper = self.wrap(func, name, after)
        setattr(owner, attr, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("aquafel"):
                continue
            for key, value in list(vars(module).items()):
                if value is func:
                    setattr(module, key, wrapper)

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def dump(self, path) -> None:
        """Write two JSON lines: the spans, then the counters, among them
        "trace.dump_s", the time the first line took to serialise and write."""
        start = perf_counter()
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)
            fh.write("\n")
            fh.flush()
            self.counters["trace.dump_s"] = perf_counter() - start
            json.dump(self.counters, fh)
