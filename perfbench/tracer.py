"""Spans around calls into projifs, recorded from outside the package.

`install` replaces every public function of the projifs modules with a
timing wrapper, in every module namespace that holds the same function
object (`cli` and `furstenberg` import names directly, so patching only the
defining module would miss their calls), and wraps `ProductTable.__init__`,
`level` and `norms` on the class.  `geometry` is left alone: `classify` and
`fixed_points` run tens of thousands of times per scan, so wrapping them
would distort what is measured; their cost shows in their callers' self
time.  Generator functions are skipped too, because a span would close
before the generator does its work.

Spans are kept in memory as [name, start, end, parent] and written out when
the pass ends.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import sys
import threading
import time
import types
import weakref

PACKAGE = "projifs"
SKIP_MODULES = {f"{PACKAGE}.geometry", f"{PACKAGE}.errors"}
TABLE_METHODS = ("__init__", "level", "norms")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: collections.Counter = collections.Counter()
        self._local = threading.local()
        self._built = weakref.WeakKeyDictionary()

    def wrap(self, name: str, fn, count=None):
        """A wrapper that records one span per call of `fn`; `count(args,
        result)` then adds to the counters."""
        spans, local = self.spans, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    # -- counters taken from return values ---------------------------------

    def _count_level(self, args, result):
        table, n = args
        built = self._built.setdefault(table, set())
        if n in built:
            self.counters["semigroup.ProductTable.level.cache_hits"] += 1
        else:
            built.add(n)
            self.counters["semigroup.ProductTable.level.words_built"] += len(result)

    def _count_multicone(self, args, result):
        self.counters["cones.find_invariant_multicone.passes"] += result.iterations
        if result.cone is not None:
            self.counters["cones.find_invariant_multicone.arcs"] += len(result.cone.arcs)

    def _count_orbit(self, args, result):
        self.counters["attractor.attractor_points_orbit.dropped"] += result.dropped
        self.counters["attractor.attractor_points_orbit.samples"] += (
            len(result) + result.dropped)

    def _count_fixedpoint(self, args, result):
        self.counters["attractor.attractor_points_fixedpoint.points"] += len(result)

    def counter_for(self, name: str):
        return {
            "semigroup.ProductTable.level": self._count_level,
            "cones.find_invariant_multicone": self._count_multicone,
            "attractor.attractor_points_orbit": self._count_orbit,
            "attractor.attractor_points_fixedpoint": self._count_fixedpoint,
        }.get(name)

    # -- results ------------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, and inclusive seconds of the
        outermost spans (recursive calls are not counted twice)."""
        child_time = collections.defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[id(parent)] += end - start
        out: dict[str, dict[str, float]] = collections.defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for span in self.spans:
            name, start, end, parent = span
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[id(span)]
            ancestor = parent
            while ancestor is not None and ancestor[0] != name:
                ancestor = ancestor[3]
            if ancestor is None:
                row["total_s"] += end - start
        return dict(out)

    def dump(self, path) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [[name, start, end, None if parent is None else index[id(parent)]]
                for name, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": rows}, fh)


def _layer_name(fn) -> str:
    return f"{fn.__module__.removeprefix(PACKAGE + '.')}.{fn.__qualname__}"


def install(tracer: Tracer) -> None:
    """Wrap projifs's public functions and the ProductTable methods."""
    modules = [m for n, m in list(sys.modules.items())
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    wrappers: dict[int, object] = {}
    for module in modules:
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            home = value.__module__
            if not home.startswith(PACKAGE + ".") or home in SKIP_MODULES:
                continue
            if inspect.isgeneratorfunction(value):
                continue
            if id(value) not in wrappers:
                name = _layer_name(value)
                wrappers[id(value)] = tracer.wrap(name, value, tracer.counter_for(name))
            setattr(module, attr, wrappers[id(value)])
    table = sys.modules[f"{PACKAGE}.semigroup"].ProductTable
    for method in TABLE_METHODS:
        fn = getattr(table, method)
        name = _layer_name(fn)
        setattr(table, method, tracer.wrap(name, fn, tracer.counter_for(name)))
