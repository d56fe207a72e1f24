"""Outside-in span recorder for the traced benchmark run.

The package has no tracing of its own, so the benchmark wraps public
functions at the place where the calling module looks them up (a module
attribute or a class attribute) and records one span per call.  Spans are
kept in memory as ``[name, start, end, parent, info]`` lists and written out
once the run has finished.  Calls made outside an operation span (set-up,
the benchmark's own output checks) pass straight through unrecorded.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

SpanName = str | Callable[[tuple, dict], str]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def patch(
        self,
        owner: Any,
        attr: str,
        name: SpanName,
        info: Callable[[Any], Any] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span.

        ``name`` is a span name or a function of the call's arguments;
        ``info`` extracts a JSON-serialisable detail from the return value.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not stack:
                return original(*args, **kwargs)
            span = [name if isinstance(name, str) else name(args, kwargs),
                    0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def op(self) -> Iterator[None]:
        """Root span of one benchmark operation; only inside it are calls recorded."""
        span = ["op", perf_counter(), 0.0, -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def summary(self) -> dict[str, dict[str, Any]]:
        """Per span name: call count, total seconds, self seconds (total
        minus the time covered by direct child spans), each call's duration
        and info, and call counts by outermost caller (the span directly
        under the operation that the call happened inside)."""
        child = [0.0] * len(self.spans)
        outer: list[str] = []
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
            # spans are stored in start order, so a parent precedes its children
            if parent < 0 or self.spans[parent][3] < 0:
                outer.append(name)
            else:
                outer.append(outer[parent])
        out: dict[str, dict[str, Any]] = {}
        for i, (name, start, end, _, info) in enumerate(self.spans):
            row = out.setdefault(name, {
                "calls": 0, "total_s": 0.0, "self_s": 0.0,
                "durations": [], "infos": [], "by_outer": {},
            })
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            row["durations"].append(end - start)
            row["infos"].append(info)
            row["by_outer"][outer[i]] = row["by_outer"].get(outer[i], 0) + 1
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start and duration in microseconds
        relative to the first span, parent index, info."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(json.dumps([
                    name, round((start - origin) * 1e6, 1),
                    round((end - start) * 1e6, 1), parent, info,
                ]) + "\n")
