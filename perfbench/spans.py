"""In-memory span recorder that times the verifier's layers from outside.

The benchmark never edits ``src/``: it wraps each layer's public entry
point where its caller looks it up (a class attribute, or the name a
module bound with ``from ... import``) and records one span per call.
A span is ``(id, parent, name, start, end, thread, ctx)``.  The parent
is found through the calling thread's stack of open spans, so spans on
a daemon worker thread nest under that thread's request span; a root
span can also claim a parent opened on another thread (:meth:`link`).
A call into a layer already open on top of the same thread's stack
(recursion, or one method of the layer calling another) is not
recorded again: the outer span already covers it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict, namedtuple
from typing import Callable, Iterable, Optional

_clock = time.perf_counter

Span = namedtuple("Span", "id parent name start end thread ctx")


class Tracer:
    """Records spans; :meth:`install` wraps entry points and
    :meth:`uninstall` restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []
        self._links: dict = {}
        self._links_lock = threading.Lock()

    # ----------------------------------------------------------- context

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_ctx(self, ctx) -> None:
        """Tag the spans this thread closes from now on with ``ctx`` (the
        id of the module or request being worked on)."""
        self._local.ctx = ctx

    def link(self, key, span_id: int) -> None:
        """Make ``span_id`` the parent of the root span that next claims
        ``key`` with :meth:`claim`, on whatever thread opens it."""
        with self._links_lock:
            self._links[key] = span_id

    def claim(self, key) -> Optional[int]:
        with self._links_lock:
            return self._links.pop(key, None)

    # ------------------------------------------------------------- spans

    def open(self, name: str, parent: Optional[int] = None) -> list:
        """Open a span on this thread; returns the handle for :meth:`close`."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        frame = [next(self._ids), parent, name, _clock()]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> Span:
        end = _clock()
        self._stack().pop()
        span = Span(frame[0], frame[1], frame[2], frame[3], end,
                    threading.get_ident(), getattr(self._local, "ctx", None))
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn: Callable,
             parent_key: Optional[Callable] = None,
             on_return: Optional[Callable] = None) -> Callable:
        """``fn``, recording a span named ``name`` around each outermost
        call.  ``parent_key(args, kwargs)`` returns the :meth:`link` key
        (also used as the ctx) of calls that do work for another thread;
        ``on_return(result)`` sees what each recorded call returned."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][2] == name:
                return fn(*args, **kwargs)
            parent = None
            if parent_key is not None:
                key = parent_key(args, kwargs)
                tracer.set_ctx(key)
                parent = tracer.claim(key)
            frame = tracer.open(name, parent)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def install(self, targets: Iterable[tuple]) -> None:
        """Wrap every ``(owner, attribute, span name[, options])``, where
        ``owner`` is a class or a module and ``options`` holds keyword
        arguments of :meth:`wrap`."""
        for target in targets:
            owner, attr, name = target[:3]
            options = target[3] if len(target) > 3 else {}
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            setattr(owner, attr, self.wrap(name, original, **options))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


# ---------------------------------------------------------------- analysis

def union_length(intervals: Iterable[tuple]) -> float:
    """Total length covered by ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clip(spans, start: float, end: float) -> list:
    out = []
    for s in spans:
        lo, hi = max(s.start, start), min(s.end, end)
        if hi > lo:
            out.append((lo, hi))
    return out


def self_times(spans: Iterable[Span]) -> dict:
    """Span id -> self time: its duration minus the part of its interval
    that its child spans cover.  Children may run on other threads and
    overlap one another; each covered instant is subtracted once."""
    spans = list(spans)
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {s.id: (s.end - s.start)
            - union_length(_clip(children.get(s.id, ()), s.start, s.end))
            for s in spans}


def layer_totals(spans: Iterable[Span]) -> dict:
    """Span name -> ``{"calls": n, "self_s": seconds}``."""
    spans = list(spans)
    selfs = self_times(spans)
    out: dict = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[s.id]
    return out


def uncovered_share(spans: Iterable[Span], start: float, end: float) -> float:
    """Share of the wall-clock window ``[start, end]`` no span covers."""
    window = end - start
    if window <= 0:
        return 0.0
    return max(0.0, 1.0 - union_length(_clip(spans, start, end)) / window)
