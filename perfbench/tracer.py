"""Outside-in tracer: timing spans around nfadsim's public calls.

The package carries no instrumentation of its own.  The tracer replaces every
binding of a traced function across the loaded ``nfadsim`` modules with a
wrapper that records a span (name, start, end, parent), and puts the original
objects back on exit.  Every binding matters because the package imports by
name: ``link_metrics`` and ``make_detector`` are module globals of
``nfadsim.optimize``, ``timeline_to_ps`` is one of ``nfadsim.detector``, and
the package attribute ``nfadsim.optimize`` is the function, not the module
(so modules are looked up with ``importlib.import_module``).  Kernels are
called through the ``_kernels`` module attribute, which is also a binding.

A span's self time is its duration minus the durations of its direct child
spans; calls are single-threaded, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, NamedTuple, Optional

PACKAGE = "nfadsim"


class Site(NamedTuple):
    """One traced function: span name, defining module, attribute, counter.

    ``count(args, result)``, when given, returns a work count derived from
    the call's inputs and outputs (clicks, pulses, bytes, ...).
    """

    span: str
    module: str
    attr: str
    count: Optional[Callable] = None


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int          # index of the enclosing span, -1 for a root span


def package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def bindings(func):
    """Every (module, name) in the loaded package whose value is ``func``."""
    found = []
    for module in package_modules():
        for name, value in list(vars(module).items()):
            if value is func:
                found.append((module, name))
    return found


def resolve(site: Site):
    return getattr(importlib.import_module(site.module), site.attr)


class Patch:
    """Replace every binding of some functions; ``restore`` undoes it."""

    def __init__(self):
        self._saved = []          # (module, name, original)

    def replace(self, func, wrapper) -> None:
        sites = bindings(func)
        if not sites:
            raise RuntimeError(f"no binding of {func!r} found to patch")
        for module, name in sites:
            self._saved.append((module, name, func))
            setattr(module, name, wrapper)

    def restore(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)

    def restored(self) -> bool:
        return all(getattr(m, n) is orig for m, n, orig in self._saved)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, sites):
        self.sites = list(sites)
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patch: Optional[Patch] = None

    def reset(self) -> None:
        self.spans = []
        self.counts = {}
        self._stack.clear()

    def _wrap(self, site: Site, func):
        clock = time.perf_counter_ns
        stack = self._stack
        name = site.span
        count = site.count

        @functools.wraps(func)
        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent)
            if count is not None:
                self.counts[name] = self.counts.get(name, 0) \
                    + count(args, result)
            return result

        return traced

    def __enter__(self):
        self._patch = Patch()
        try:
            for site in self.sites:
                func = resolve(site)
                self._patch.replace(func, self._wrap(site, func))
        except BaseException:
            self._patch.restore()
            raise
        return self

    def __exit__(self, *exc):
        self._patch.restore()
        return False

    def restored(self) -> bool:
        return self._patch is not None and self._patch.restored()


class LayerTotals(NamedTuple):
    calls: int
    total_s: float
    self_s: float


def summarize(spans) -> tuple[dict[str, LayerTotals], float]:
    """Per-name totals and self times, and the time covered by root spans."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end_ns - span.start_ns
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    own: dict[str, int] = {}
    covered = 0
    for index, span in enumerate(spans):
        dur = span.end_ns - span.start_ns
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0) + dur
        own[span.name] = own.get(span.name, 0) + dur - child_ns[index]
        if span.parent < 0:
            covered += dur
    layers = {n: LayerTotals(calls[n], total[n] / 1e9, own[n] / 1e9)
              for n in calls}
    return layers, covered / 1e9
