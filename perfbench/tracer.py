"""Per-layer timing for circsep without editing its code.

``Tracer`` rebinds the names that one circsep module imports from another
(``circsep.cli.enumerate_gap``, ``circsep.verify.evaluate_point``, ...) to
wrappers that time each call, and puts every original back on exit.  Every
timed call is a span; a span's self time is its duration minus the time of
the spans it caused, so the self times of all layers add up to the time of
the outermost span (``cli``, one CLI call).  Iterators returned by a wrapped
function are wrapped too, and each ``next`` on them is a span of the same
layer, so lazy work is charged to the layer that does it.

Spans are aggregated per layer as they close (self time, total time, calls);
counts and samples are kept beside them.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter, defaultdict

_DONE = object()

# (module that imports the name, name, layer it is charged to)
TIMED = (
    ("cli", "enumerate_gap", "enumeration.enumerate_gap"),
    ("verify", "enumerate_gap", "enumeration.enumerate_gap"),
    ("bijection", "enumerate_gap", "enumeration.enumerate_gap"),
    ("cli", "count_by_enumeration", "enumeration.count_by_enumeration"),
    ("verify", "count_by_enumeration", "enumeration.count_by_enumeration"),
    ("cli", "count_system_convolution", "counting.count_system_convolution"),
    ("verify", "count_system_convolution", "counting.count_system_convolution"),
    ("cli", "count_system_fixed_recursive", "counting.count_system_fixed_recursive"),
    ("verify", "count_system_fixed_recursive", "counting.count_system_fixed_recursive"),
    ("cli", "count_system", "counting.closed"),
    ("cli", "count_system_fixed", "counting.closed"),
    ("verify", "count_system", "counting.closed"),
    ("verify", "count_system_fixed", "counting.closed"),
    ("verify", "count_circle", "counting.closed"),
    ("verify", "count_circle_fixed", "counting.closed"),
    ("cli", "zig", "bijection.zig"),
    ("cli", "zag", "bijection.zag"),
    ("bijection", "is_s_separated", "core.is_s_separated"),
    ("verify", "check_bijectivity", "bijection.check_bijectivity"),
    ("verify", "grid_points", "verify.grid_points"),
    ("cli", "render_table", "verify.render_table"),
)

# generators whose top-level yields are counted but not timed
COUNTED = (
    ("enumeration", "compositions", "enumeration.compositions"),
    ("counting", "compositions", "enumeration.compositions"),
)

# verify's own per-point dispatcher; each point is charged to its check
POINTS = ("verify", "evaluate_point")

# fixed here rather than read from circsep.verify, so the metric names stay
# those that BENCHMARK.json lists
CHECKS = ("circle", "circle-fixed", "system", "system-fixed", "recursion",
          "convolution", "fixed-sum", "fixed-sum-printed", "bijection",
          "double-count", "divisibility")


class Tracer:
    """Context manager that installs the wrappers and aggregates spans."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)
        self._stack = [0.0]  # time of child spans, one slot per open span
        self._inside: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def span(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` as one span of ``layer``."""
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(layer, time.perf_counter() - t0)

    def _close(self, layer: str, duration: float) -> None:
        stack = self._stack
        self.self_s[layer] += duration - stack.pop()
        self.total_s[layer] += duration
        self.calls[layer] += 1
        stack[-1] += duration

    def _timed_iter(self, layer: str, it, started: float):
        stack = self._stack
        n = 0
        try:
            while True:
                stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    item = next(it, _DONE)
                finally:
                    t1 = time.perf_counter()
                    self._close(layer + ".next", t1 - t0)
                if item is _DONE:
                    return
                if n == 0:
                    self.samples[layer + ".first_ms"].append((t1 - started) * 1e3)
                n += 1
                yield item
        finally:
            self.counts[layer + ".yielded"] += n

    def _counted_iter(self, name: str, it):
        n = 0
        try:
            while True:
                self._inside.add(name)
                try:
                    item = next(it, _DONE)
                finally:
                    self._inside.discard(name)
                if item is _DONE:
                    return
                n += 1
                yield item
        finally:
            self.counts[name + ".yielded"] += n

    # -- wrappers ------------------------------------------------------------

    def _timed(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = self.span(layer, fn, *args, **kwargs)
            if layer == "enumeration.enumerate_gap":
                return self._timed_iter(layer, result, started)
            if layer == "enumeration.count_by_enumeration":
                self.counts[layer + ".counted"] += result
            elif layer in ("bijection.zig", "bijection.zag"):
                self.samples["bijection.switch_order"].append(result[1].order)
            return result
        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if name in self._inside:  # a recursive call inside a counted one
                return fn(*args, **kwargs)
            return self._counted_iter(name, fn(*args, **kwargs))
        return wrapper

    def _per_point(self, fn):
        def wrapper(point):
            layer = f"verify.check.{point[0]}"
            self.counts[layer + ".points"] += 1
            return self.span(layer, fn, point)
        return wrapper

    def __enter__(self) -> "Tracer":
        wrappers = [(m, n, lambda f, layer=layer: self._timed(layer, f))
                    for m, n, layer in TIMED]
        wrappers += [(m, n, lambda f, name=name: self._counted(name, f))
                     for m, n, name in COUNTED]
        wrappers.append((*POINTS, self._per_point))
        for m, n, wrap in wrappers:
            module = _module(m)
            if hasattr(module, n):  # a name the code no longer has reads as 0
                original = getattr(module, n)
                self._saved.append((module, n, original))
                setattr(module, n, wrap(original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass (counts and times divided by
        ``passes``; ratios, medians and maxima as measured)."""
        def per_pass(value):
            return value / passes

        def self_time(layer):
            return per_pass(self.self_s[layer] + self.self_s[layer + ".next"])

        out: dict[str, float] = {}
        gap = "enumeration.enumerate_gap"
        yielded = self.counts[gap + ".yielded"]
        out[gap + ".self_s"] = self_time(gap)
        out[gap + ".yielded"] = per_pass(yielded)
        out[gap + ".us_per_selection"] = (
            self_time(gap) / per_pass(yielded) * 1e6 if yielded else 0.0)
        first = self.samples[gap + ".first_ms"]
        out[gap + ".first_ms"] = statistics.median(first) if first else 0.0
        out["enumeration.compositions.yielded"] = per_pass(
            self.counts["enumeration.compositions.yielded"])
        cbe = "enumeration.count_by_enumeration"
        counted = self.counts[cbe + ".counted"]
        out[cbe + ".self_s"] = self_time(cbe)
        out[cbe + ".counted"] = per_pass(counted)
        out[cbe + ".ns_per_selection"] = (
            self_time(cbe) / per_pass(counted) * 1e9 if counted else 0.0)
        for layer in ("counting.count_system_convolution",
                      "counting.count_system_fixed_recursive", "counting.closed",
                      "bijection.zig", "bijection.zag", "core.is_s_separated",
                      "bijection.check_bijectivity"):
            out[layer + ".self_s"] = self_time(layer)
            out[layer + ".calls"] = per_pass(self.calls[layer])
        orders = self.samples["bijection.switch_order"]
        out["bijection.switch_order.mean"] = statistics.fmean(orders) if orders else 0.0
        out["bijection.switch_order.max"] = float(max(orders, default=0))
        for check in CHECKS:
            layer = f"verify.check.{check}"
            out[layer + ".self_s"] = self_time(layer)
            out[layer + ".points"] = per_pass(self.counts[layer + ".points"])
        out["verify.grid_points.self_s"] = self_time("verify.grid_points")
        out["verify.render_table.self_s"] = self_time("verify.render_table")
        out["cli.self_s"] = self_time("cli")
        return out

    def switch_order_histogram(self) -> dict[int, int]:
        return dict(sorted(Counter(self.samples["bijection.switch_order"]).items()))


def _module(name: str):
    return importlib.import_module(f"circsep.{name}")
