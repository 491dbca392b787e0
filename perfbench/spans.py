"""Host-clock spans around layer entry points, installed and removed in place.

A :class:`Patcher` swaps functions and methods for wrappers and puts every
original back on :meth:`Patcher.restore`.  :class:`SpanRecorder` makes the
wrappers: each call records one :class:`Span` (name, start, end, parent) on
``time.perf_counter_ns``, kept in memory until the run ends.
:func:`self_times` subtracts child coverage from each span and
:func:`chrome_trace` writes the spans as a Chrome-trace / Perfetto JSON.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

#: Attribute set on every wrapper, so leftovers can be found after restore.
MARK = "__perfbench_wrapped__"


class Span:
    """One call of a wrapped entry point, on the host clock."""

    __slots__ = ("name", "start_ns", "end_ns", "parent", "work")

    def __init__(self, name: str, start_ns: int, end_ns: int, parent: int,
                 work: int = 0) -> None:
        self.name = name
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.parent = parent    # index of the enclosing span, -1 at the root
        self.work = work        # layer-defined work count (e.g. cache lines)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Records nested spans from the wrappers it makes (one thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, label=None, work=None):
        """A wrapper of ``fn`` recording a span per call.

        ``label(args, kwargs)`` appends ``.<label>`` to the span name;
        ``work(args, kwargs)`` stores a work count on the span.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = Span(name if label is None else f"{name}.{label(args, kwargs)}",
                        0, 0, stack[-1] if stack else -1,
                        0 if work is None else work(args, kwargs))
            stack.append(len(spans))
            spans.append(span)
            span.start_ns = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end_ns = clock()
                stack.pop()

        return marked(wrapper, fn)


def marked(wrapper, fn):
    """Give ``wrapper`` the metadata of ``fn`` and the leftover-search mark."""
    functools.update_wrapper(wrapper, fn)
    setattr(wrapper, MARK, True)
    return wrapper


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part its direct children cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(
                (span.start_ns, span.end_ns))
    return [
        span.duration_ns - _covered(children.get(i, []), span.start_ns,
                                    span.end_ns)
        for i, span in enumerate(spans)
    ]


def chrome_trace(spans: list[Span], path, metadata: dict) -> None:
    """Write ``spans`` as Chrome-trace complete events with self times."""
    selfs = self_times(spans)
    origin = min((s.start_ns for s in spans), default=0)
    events = [{
        "name": span.name, "ph": "X", "pid": 1, "tid": 1, "cat": "host",
        "ts": (span.start_ns - origin) / 1000.0,
        "dur": span.duration_ns / 1000.0,
        "args": {"self_us": own / 1000.0,
                 "parent": spans[span.parent].name if span.parent >= 0 else None},
    } for span, own in zip(spans, selfs)]
    doc = {"traceEvents": events, "displayTimeUnit": "ms",
           "otherData": metadata}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


class Patcher:
    """Replaces attributes in place and restores every original."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object, bool]] = []

    def replace(self, owner, attr: str, new) -> None:
        own = vars(owner)
        had_own = attr in own
        original = own[attr] if had_own else getattr(owner, attr)
        self._saved.append((owner, attr, original, had_own))
        setattr(owner, attr, new)

    def wrap_method(self, cls: type, attr: str, make) -> bool:
        """Wrap a plain-function method ``cls.attr`` with ``make(fn)``."""
        raw = inspect.getattr_static(cls, attr, None)
        if not inspect.isfunction(raw):
            return False
        self.replace(cls, attr, make(raw))
        return True

    def wrap_function(self, module, attr: str, make, package: str) -> bool:
        """Wrap ``module.attr`` and every alias of it in ``package``'s modules.

        Modules that did ``from x import f`` hold their own reference, so the
        same object is replaced wherever a loaded module of ``package``
        binds it.
        """
        fn = getattr(module, attr, None)
        if not inspect.isfunction(fn):
            return False
        wrapper = make(fn)
        prefix = package + "."
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(prefix)):
                continue
            for alias, value in list(vars(mod).items()):
                if value is fn:
                    self.replace(mod, alias, wrapper)
        return True

    @property
    def installed(self) -> int:
        return len(self._saved)

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            owner, attr, original, had_own = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def leftover_wrappers(package: str) -> list[str]:
    """Every wrapper still reachable from ``package``'s modules and classes."""
    found = []
    prefix = package + "."
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(prefix)):
            continue
        for attr, value in list(vars(mod).items()):
            if getattr(value, MARK, False):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                for meth, raw in list(vars(value).items()):
                    if getattr(raw, MARK, False):
                        found.append(f"{name}.{attr}.{meth}")
    return found
