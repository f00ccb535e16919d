"""In-memory span recorder that times calls into driftvec from outside.

A :class:`Tracer` replaces a function at one lookup name (a module
attribute) with a wrapper that records a span: name, start, end and the
index of the enclosing span. Names bound by ``from x import f`` are
separate lookups, so a function is patched at each of them. Spans stay
in memory until :meth:`Tracer.dump` writes them.

Self time of a span is its duration minus the part of it that its child
spans cover.
"""

import functools
import gzip
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []       # (owner, attribute, original)

    def call(self, name, fn, /, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        return self._span(name, fn, args, kwargs, None)

    def _span(self, name, fn, args, kwargs, count):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            self._stack.pop()
        if count is not None:
            count(args, kwargs, result)
        return result

    def add(self, key, amount):
        self.counts[key] += amount

    def patch(self, owner, attribute, name, count=None):
        """Replace ``owner.attribute`` by a span-recording wrapper;
        ``count(args, kwargs, result)`` may add work counts through
        :meth:`add` after each call."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._span(name, original, args, kwargs, count)

        setattr(owner, attribute, wrapper)
        self._patched.append((owner, attribute, original))

    def restore(self):
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def dump(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans):
    """Per-span self time: duration minus the union of child intervals.

    ``spans`` holds ``(name, start, end, parent)`` entries whose parent
    is an index into the same list, or -1 for a root.
    """
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children[i]):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out

