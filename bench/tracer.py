"""Per-layer tracing of convolvium from outside the package.

`Tracer.install()` replaces each traced public function with a wrapper in
every convolvium module namespace that binds it (a `from .exact import
binomial` copies the name into `sums`, `kernels`, `verify`, `closed_forms`
and `cli`, so patching `exact` alone would miss most calls) and patches
`Kernel.__call__` on the class. Nothing under `src/` changes.

Hot leaves (1.3M `binomial` calls in one `verify all`) are aggregated as a
call count plus self time per layer, never as one span per call. Spans are
kept only for requests, `run_all` and suites. Self time is a call's duration
minus the durations of the traced calls it made, computed with a per-thread
stack; every thread also keeps its own tables, so `--jobs 2` runs lose no
counts to races between threads.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict

# layer name -> (module, attribute) of each traced function
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "exact.binomial": (("exact", "binomial"),),
    "exact.central_binomial": (("exact", "central_binomial"),),
    "exact.numbers": (
        ("exact", "catalan"),
        ("exact", "super_catalan"),
        ("exact", "half_super_catalan"),
        ("exact", "gessel"),
        ("exact", "smallest_clearing_factor"),
    ),
    "kernels.build": (("kernels", "random_kernel"), ("kernels", "binomial_pair_kernel")),
    "sums.direct_sum": (("sums", "direct_sum"),),
    "sums.m_sum": (("sums", "m_sum"),),
    "sums.m_sum_lift": (("sums", "m_sum_lift"),),
    "sums.theorem2_transform": (("sums", "theorem2_transform"),),
    "closed_forms.eval": (("closed_forms", "closed_form"),),
    "paths.count": (("paths", "count_paths"),),
    "paths.enumerate": (("paths", "enumerate_paths"),),
    "verify.run_all": (("verify", "run_all"),),
    "verify.suite": (("verify", "run_suite"),),
    "verify.report": (("verify", "reports_to_json"), ("verify", "reports_to_csv")),
    "cli": (("cli", "main"),),
}

# the lru_cache'd number families whose cache_info() feeds exact.numbers.hit_ratio
CACHED_NUMBERS = ("catalan", "super_catalan", "gessel")

_SPAN_LAYERS = frozenset({"verify.run_all", "verify.suite", "cli"})


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [child_seconds, span_id or None]
        self.agg: dict[str, list] = defaultdict(lambda: [0, 0.0])  # layer -> [calls, self_s]
        self.suite: str | None = None
        self.suite_kernel_evals: dict[str, int] = defaultdict(int)


class Tracer:
    """Collects per-layer counts, self times and spans for one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._originals: dict[str, object] = {}
        self._pool_parent: int | None = None
        self._request: int | None = None
        self.spans: list[dict] = []
        self.suites: dict[str, dict] = {}
        self.run_all_calls: list[dict] = []

    # ------------------------------------------------------------ per thread

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def _open_span(self, st: _ThreadState, name: str) -> dict:
        parent = next((f[1] for f in reversed(st.stack) if f[1] is not None), self._pool_parent)
        with self._lock:
            span = {
                "id": len(self.spans),
                "parent": parent,
                "request": self._request,
                "name": name,
                "thread": threading.get_ident(),
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(span)
        return span

    # -------------------------------------------------------------- wrapping

    def _wrap(self, layer: str, fn):
        state = self._state
        perf = time.perf_counter
        spans = layer in _SPAN_LAYERS
        tracer = self

        def traced(*args, **kwargs):
            st = state()
            span = tracer._open_span(st, layer) if spans else None
            frame = [0.0, span["id"] if span else None]
            st.stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                st.stack.pop()
                if st.stack:
                    st.stack[-1][0] += dt
                entry = st.agg[layer]
                entry[0] += 1
                entry[1] += dt - frame[0]
                if span is not None:
                    span["end"] = t0 + dt

        return traced

    def _wrap_kernel_call(self, fn):
        inner = self._wrap("kernels.eval", fn)
        state = self._state

        def kernel_call(kernel, n, k, a):
            st = state()
            if st.suite is not None:
                st.suite_kernel_evals[st.suite] += 1
            return inner(kernel, n, k, a)

        return kernel_call

    def _wrap_run_suite(self, fn):
        inner = self._wrap("verify.suite", fn)
        state = self._state
        tracer = self

        def run_suite(name, *args, **kwargs):
            st = state()
            outer, st.suite = st.suite, name
            before = st.suite_kernel_evals[name]
            t0 = time.perf_counter()
            try:
                report = inner(name, *args, **kwargs)
            finally:
                st.suite = outer
            seconds = time.perf_counter() - t0
            with tracer._lock:
                tracer.suites[name] = {
                    "s": seconds,
                    "cases": report.cases_checked,
                    "kernel_evals": st.suite_kernel_evals[name] - before,
                }
            return report

        return run_suite

    def _wrap_run_all(self, fn):
        inner = self._wrap("verify.run_all", fn)
        tracer = self

        def run_all(*args, **kwargs):
            outer = tracer._pool_parent
            # suites on pool threads start with an empty stack; the run_all
            # span about to open is their parent
            tracer._pool_parent = len(tracer.spans)
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._pool_parent = outer
                tracer.run_all_calls.append(
                    {"s": time.perf_counter() - t0, "workers": max(1, kwargs.get("jobs", 1))}
                )

        return run_all

    def install(self) -> None:
        """Wrap every traced function wherever a convolvium module binds it."""
        for mod_name in {mod for targets in LAYERS.values() for mod, _ in targets}:
            importlib.import_module(f"convolvium.{mod_name}")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "convolvium" or name.startswith("convolvium."))]
        for layer, targets in LAYERS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules[f"convolvium.{mod_name}"], attr)
                if layer == "verify.suite":
                    wrapper = self._wrap_run_suite(original)
                elif layer == "verify.run_all":
                    wrapper = self._wrap_run_all(original)
                else:
                    wrapper = self._wrap(layer, original)
                self._originals[attr] = original
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)
        kernel_class = sys.modules["convolvium.kernels"].Kernel
        kernel_class.__call__ = self._wrap_kernel_call(kernel_class.__call__)

    # ------------------------------------------------------------- requests

    def request(self, name: str, fn, *args):
        """Run one request under its own span; returns fn's result."""
        st = self._state()
        self._request = len(self.spans)
        span = self._open_span(st, f"request:{name}")
        frame = [0.0, span["id"]]
        st.stack.append(frame)
        try:
            return fn(*args)
        finally:
            st.stack.pop()
            span["end"] = time.perf_counter()
            self._request = None

    # -------------------------------------------------------------- results

    def layer_totals(self) -> dict[str, list]:
        """layer -> [calls, self_s], summed over every thread."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for st in self._threads:
            for layer, (calls, self_s) in st.agg.items():
                out[layer][0] += calls
                out[layer][1] += self_s
        return dict(out)

    def cache_hits(self) -> tuple[int, int]:
        """(hits, lookups) over the lru caches of CACHED_NUMBERS."""
        hits = lookups = 0
        for attr in CACHED_NUMBERS:
            info = self._originals[attr].cache_info()
            hits += info.hits
            lookups += info.hits + info.misses
        return hits, lookups

    def summary(self) -> dict:
        return {
            "layers": self.layer_totals(),
            "cache": self.cache_hits(),
            "suites": self.suites,
            "run_all": self.run_all_calls,
            "spans": self.spans,
        }
