"""Spans and counts around the package's public entry points, from outside.

The benchmark never edits the package: `Tracer.install` swaps module and
class attributes for wrappers that record a span (name, start, end, parent
span, trial id) and add to named counters, and `Tracer.uninstall` puts the
originals back.  Spans stay in memory until the run ends.

The wrapped boundaries, one per layer on the separation path:

    sources     draw_source, mix              (as the benchmark calls them)
    preprocess  center_and_whiten             (as `optimizers` calls it)
    density     gaussian_density_nd           (as `objective` calls it)
    objective   CcsObjective build, value, value_and_gradient
    optimizers  separate                      (as the benchmark calls it)

Scoring with the `metrics` module is timed by the benchmark itself with
`Tracer.span`.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self, chunk_rows: int, ccsica_modules):
        # query rows per block of the marginal kernel sum, to size its temporary
        self.chunk_rows = int(chunk_rows)
        # the package's sources, objective and optimizers modules
        self.modules = ccsica_modules
        # (name, start, end, parent index or -1, trial id)
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: Counter = Counter()
        self.trial = "setup"
        self.peak_call_bytes = 0
        self.max_chunk_bytes = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.trial))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.trial)

    # -- installing and removing the wrappers ----------------------------------

    def install(self) -> None:
        """Wrap the entry points listed in the module docstring."""
        sources, objective, optimizers = self.modules
        self._wrap(sources, "draw_source", self._plain("sources.draw"))
        self._wrap(sources, "mix", self._plain("sources.mix"))
        self._wrap(optimizers, "center_and_whiten", self._plain("preprocess.center_and_whiten"))
        self._wrap(objective, "gaussian_density_nd", self._plain("density.joint"))
        self._wrap(optimizers, "separate", self._separate)
        cls = objective.CcsObjective
        self._wrap(cls, "__init__", self._build)
        self._wrap(cls, "value", self._evaluation("objective.value"))
        self._wrap(cls, "value_and_gradient", self._evaluation("objective.value_and_gradient"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    # -- wrapper factories -------------------------------------------------------

    def _plain(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                self.counts[name + ".calls"] += 1
                with self.span(name):
                    return original(*args, **kwargs)
            return wrapper
        return make

    def _separate(self, original):
        def wrapper(x, algorithm="jacobi", *args, **kwargs):
            self.counts["optimizers.separate.calls"] += 1
            builds = self.counts["objective.build.calls"]
            with self.span("optimizers.separate"):
                result = original(x, algorithm, *args, **kwargs)
            # GD iterations, or Jacobi sweeps
            self.counts["optimizers.iterations"] += int(result.n_iter)
            if algorithm == "jacobi":
                # the Jacobi solver builds one objective per pair visit
                self.counts["optimizers.jacobi.pair_visits"] += self.counts["objective.build.calls"] - builds
            return result
        return wrapper

    def _build(self, original):
        def wrapper(obj, *args, **kwargs):
            self.counts["objective.build.calls"] += 1
            with self.span("objective.build"), self._errors():
                original(obj, *args, **kwargs)
            self.counts["objective.build.joint_terms"] += obj.n_points * obj.n_refs
        return wrapper

    def _evaluation(self, name: str):
        def make(original):
            def wrapper(obj, w):
                self.counts[name + ".calls"] += 1
                self.counts[name + ".marginal_terms"] += obj.n_channels * obj.n_points * obj.n_refs
                rows = min(obj.n_points, self.chunk_rows)
                self.max_chunk_bytes = max(self.max_chunk_bytes, 8 * rows * obj.n_refs)
                if not tracemalloc.is_tracing():
                    with self.span(name), self._errors():
                        return original(obj, w)
                # the peak above what was held before the call
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                try:
                    with self.span(name), self._errors():
                        return original(obj, w)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    self.peak_call_bytes = max(self.peak_call_bytes, peak - held)
            return wrapper
        return make

    @contextmanager
    def _errors(self):
        try:
            yield
        except Exception as exc:
            self.counts["objective.errors"] += 1
            self.counts["objective.errors." + type(exc).__name__] += 1
            raise

    # -- summaries ---------------------------------------------------------------

    def busy(self, first: int = 0) -> Counter:
        """Busy and self seconds per span name, over the spans from index
        `first` on; self time excludes the time of child spans."""
        children: Counter = Counter()
        for _, start, end, parent, _ in self.spans[first:]:
            if parent >= first:
                children[parent] += end - start
        out: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans[first:], first):
            out[name + ".busy_s"] += end - start
            out[name + ".self_s"] += end - start - children[index]
        return out

