"""Spans recorded around calls into tokcomp's modules, from outside them.

A `Target` names a function by the attribute its callers look it up by
(for example ``tokcomp.pipeline`` / ``block_forward``: the pipeline calls
the name it imported, not ``toymodel.block_forward``).  `Tracer.install`
swaps each such attribute for a wrapper that records a `Span` and puts the
original back on `uninstall`.  A target whose attribute no longer exists is
remembered in `Tracer.missing` and skipped, so a later refactor that removes
a name degrades one metric to ``missing`` instead of failing the run.

Spans are kept in memory (one list per tracer) and written out by the
caller when the run ends.  Self time is a span's duration minus the part of
its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One wrapped attribute.

    owner is a dotted path: a module (``tokcomp.pipeline``) or a class inside
    one (``tokcomp.tokens.TokenGrid``).  count, when given, is called as
    ``count(args, kwargs, result)`` after the call returns and its dict is
    stored on the span.
    """

    owner: str
    attr: str
    span: str
    count: Callable | None = None


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "counts")

    def __init__(self, name, start, end, parent, item, counts=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.item = item
        self.counts = counts

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_doc(self, index: int) -> dict:
        counts = {k: v for k, v in (self.counts or {}).items()
                  if isinstance(v, (int, float, bool))}
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "item": self.item, "counts": counts}


def _resolve(owner: str):
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Installs wrappers for a list of targets and collects their spans."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self.item = -1
        self._starts: list[int] = []     # index of each begun item's first span
        self._slot: dict[int, int] = {}  # item -> its position in _starts
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, item: int) -> None:
        """Attribute every span from now on to `item`."""
        self.item = item
        self._slot[item] = len(self._starts)
        self._starts.append(len(self.spans))

    def clear(self) -> None:
        self.spans.clear()
        self._starts.clear()
        self._slot.clear()

    def install(self) -> "Tracer":
        for t in self.targets:
            owner = _resolve(t.owner)
            # look in the owner's own namespace: for a class, an inherited
            # attribute would be replaced by a copy that shadows it
            namespace = vars(owner) if owner is not None else {}
            if t.attr not in namespace:
                self.missing.add(t.span)
                continue
            original = namespace[t.attr]
            self._saved.append((owner, t.attr, original))
            setattr(owner, t.attr, self._wrap(original, t.span, t.count))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, name, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.item)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return wrapper

    def item_spans(self, item: int) -> list[tuple[int, Span]]:
        """(index, span) pairs of one begun item, in start order."""
        slot = self._slot.get(item)
        if slot is None:
            return []
        start = self._starts[slot]
        end = self._starts[slot + 1] if slot + 1 < len(self._starts) else len(self.spans)
        return [(j, self.spans[j]) for j in range(start, end)]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's, and overlapping children
    are counted once, so the result never goes below zero.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, run_start, run_end = 0.0, None, None
        for a, b in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                           for c in children.get(i, ())):
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(s.duration - covered)
    return out


def outermost(spans: list[Span], indexed: list[tuple[int, Span]], names) -> list[Span]:
    """Spans named in `names` with no ancestor that is also named in `names`.

    `spans` is the tracer's full list (parents are indices into it);
    `indexed` is the subset to search, as from `Tracer.item_spans`.
    """
    names = set(names)
    out = []
    for _, s in indexed:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out
