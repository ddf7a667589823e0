"""In-memory spans around the benchmark's calls into quditwalk.

Spans sit only at the harness's own call sites: a span wraps one public
function call, and its layer is the quditwalk module that defines the
function.  Work a function does in another module (the density inside
``rescaled_density``, the coin inside ``evolve``) is charged to the layer the
harness called.  Each job is a root span of layer ``harness``; the calls it
makes are its children, so the job's self time is harness glue.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str  # "<layer>.<function>"
    job: str
    parent: int | None
    start: float
    end: float
    tag: str = ""

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(fn) -> str:
    """quditwalk.density.continuous_density -> density."""
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    """Runs calls, recording a span around each one when enabled.

    Disabled, a call goes straight through, so untraced passes pay one
    attribute test per call.  Spans stay in memory until the run writes
    them out.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._job = ""

    def call(self, fn, *args, tag: str = ""):
        if not self.enabled:
            return fn(*args)
        return self.span(f"{layer_of(fn)}.{fn.__name__}", fn, *args, tag=tag)

    def span(self, name: str, fn, *args, tag: str = ""):
        if not self.enabled:
            return fn(*args)
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, self._job, parent, start, end, tag))

    def job(self, job_id: str, fn):
        """Run one job as a root span; its calls become child spans."""
        self._job = job_id
        try:
            return self.span("harness.job", fn, self)
        finally:
            self._job = ""


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = {s.sid: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own
