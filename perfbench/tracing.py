"""In-memory spans for the benchmark.

A span is (name, parent, start, end). The benchmark opens spans around
its own calls into the program; in a traced run it also replaces layer
functions with wrappers that open a span per call (``wrap``), and puts
the originals back afterwards (``unwrap_all``). Nothing under ``src/``
is edited: the wrappers live only in the benchmark process.

A span name is ``<layer>.<what>``; a layer's self time is the time its
spans cover minus the time their child spans cover.
"""
from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter(), None])
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid][3] = time.perf_counter()

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per call."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with self.span(name):
                return orig(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # --- queries -----------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, to query only spans recorded after it."""
        return len(self.spans)

    def durations(self, name: str, since: int = 0, until: int | None = None) -> list[float]:
        return [s[3] - s[2] for s in self.spans[since:until] if s[0] == name and s[3] is not None]

    def count(self, name: str, since: int = 0, until: int | None = None) -> int:
        return sum(1 for s in self.spans[since:until] if s[0] == name)

    def total(self, name: str, since: int = 0, until: int | None = None) -> float:
        return sum(self.durations(name, since, until))

    def best(self, name: str, windows: list[tuple[int, int]]) -> list[float]:
        """Per operation, the fastest of its repeats. Each (first, end)
        span-index window in ``windows`` bounds a round that ran the same
        operations in the same order; a slow spell on the machine rarely
        covers every round."""
        rounds = [self.durations(name, a, b) for a, b in windows]
        return [min(xs) for xs in zip(*rounds)]

    def self_time_by_layer(self, since: int = 0, until: int | None = None) -> dict[str, float]:
        end = len(self.spans) if until is None else until
        child = [0.0] * len(self.spans)
        for s in self.spans[since:end]:
            if s[1] >= since and s[3] is not None:
                child[s[1]] += s[3] - s[2]
        out: dict[str, float] = {}
        for i in range(since, end):
            name, _, t0, t1 = self.spans[i]
            if t1 is not None:
                layer = name.split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + (t1 - t0) - child[i]
        return out

    def dump(self, path) -> None:
        """Write spans as JSON lines: name, parent, start and end in
        seconds since the tracer was made."""
        with open(path, "w") as f:
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "parent": parent,
                    "start": t0 - self.t0, "end": None if t1 is None else t1 - self.t0,
                }) + "\n")


def p50(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def p90(xs: list[float]) -> float:
    """90th percentile (inclusive interpolation) or 0.0 when empty."""
    if not xs:
        return 0.0
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]
