"""In-memory spans for the traced run, and the self-time arithmetic.

A span records a name, a start, an end, its parent span and the run id.
Spans stay in memory until the run ends and are then written out as
JSON.  The benchmark never edits the program: :meth:`Tracer.wrap`
replaces a public function at the module attribute its callers look it
up from, so the program calls the wrapper without knowing it.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    sid: int
    run: str
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread and asyncio task of one process.

    The parent of a new span is the innermost open span of the same
    thread or asyncio task (a context variable); work handed to another
    thread starts a new root.
    """

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    @contextmanager
    def span(self, name: str, **attrs: Any):
        parent = self._current.get()
        sp = Span(
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=None if parent is None else parent.sid,
            sid=next(self._ids),
            run=self.run,
            attrs=attrs,
        )
        token = self._current.set(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(sp)

    def wrapped(
        self, fn: Callable, name: str, on_result: Callable[..., None] | None = None
    ) -> Callable:
        """``fn`` inside a ``name`` span (a coroutine function stays one).

        ``on_result(span, result, *args, **kwargs)`` may add attributes
        once the call returns.
        """
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                with tracer.span(name) as sp:
                    result = await fn(*args, **kwargs)
                    if on_result is not None:
                        on_result(sp, result, *args, **kwargs)
                    return result

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with tracer.span(name) as sp:
                    result = fn(*args, **kwargs)
                    if on_result is not None:
                        on_result(sp, result, *args, **kwargs)
                    return result

        return wrapper

    def wrap(
        self, owner: Any, attr: str, name: str, on_result: Callable[..., None] | None = None
    ) -> None:
        """Replace ``owner.attr`` (a module function, method or classmethod)
        by :meth:`wrapped`."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrapped(raw.__func__, name, on_result)))
        else:
            setattr(owner, attr, self.wrapped(raw, name, on_result))

    def dump(self) -> list[dict[str, Any]]:
        return [asdict(s) for s in self.spans]


def load(records: Iterable[dict[str, Any]]) -> list[Span]:
    return [Span(**r) for r in records]


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Overlapping intervals count once, which is what makes self time
    correct when children run concurrently (asyncio tasks, threads).
    """
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    kids = children_of(spans)
    return {
        s.sid: s.dur - covered(((c.start, c.end) for c in kids.get(s.sid, ())), s.start, s.end)
        for s in spans
    }


def nearest(span: Span, name: str, by_id: dict[int, Span]) -> Span | None:
    """The closest ancestor of ``span`` called ``name``."""
    p = by_id.get(span.parent) if span.parent is not None else None
    while p is not None and p.name != name:
        p = by_id.get(p.parent) if p.parent is not None else None
    return p


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` with no ancestor of the same name.

    A layer that calls itself (a tiered cache asking its own tiers) then
    counts its time once.
    """
    by_id = {s.sid: s for s in spans}
    return [s for s in spans if s.name == name and nearest(s, name, by_id) is None]
