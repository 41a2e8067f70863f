"""Layer spans recorded from outside the library.

Nothing under ``src/`` is edited.  While a traced pass runs, ``patched``
replaces the names through which one flipdist module calls into another with
wrappers that record a span per call, and puts the originals back afterwards.
The benchmark's own top-level calls (parse, scan, oracle, witness checks) go
through ``Tracer.wrap`` directly.

A span is (id, name, start, end, parent id).  Spans stay in memory until the
pass ends, when ``fold`` reduces them to per-name call counts, total time and
self time (total minus the time covered by child spans) and drops them.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

from flipdist import _kernel, flipdag, geometry, instances, oracle, solver


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn, outcome=None):
        """fn with a span around every call.  With ``outcome``, the span is
        also recorded under ``name.<outcome(result)>``, which splits a layer's
        time by what its calls returned."""
        spans, open_ids = self.spans, self._open

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = open_ids[-1] if open_ids else -1
            open_ids.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_ids.pop()
                spans.append((sid, name, start, end, parent))
            if outcome is not None:
                spans.append((-1, f"{name}.{outcome(result)}", start, end, -2))
            return result

        return traced

    def count(self, name: str, fn):
        """fn with a call counter and no span, for calls too cheap to time."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def fold(self) -> dict[str, dict[str, float]]:
        """Per-name {calls, s, self_s} for the spans recorded so far, plus the
        counters as {calls}; then forget them.  Outcome splits (parent -2)
        carry no self time because their child spans belong to the main span."""
        child_s: defaultdict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, name, start, end, parent in self.spans:
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            if parent != -2:
                row["self_s"] += end - start - child_s.get(sid, 0.0)
        for name, calls in self.counts.items():
            out[name] = {"calls": calls}
        self.spans.clear()
        self.counts.clear()
        return out


def _accepted(result) -> str:
    return "accept" if result is not None else "reject"


def _answer(result) -> str:
    return "yes" if result is not None else "no"


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route flipdist's inter-module calls through the tracer for the duration."""
    run_fns: dict[str, object] = {}
    kernel_for = _kernel.kernel_for

    def traced_kernel_for(name):
        if name not in run_fns:
            run_fns[name] = tracer.wrap("kernel.run_composition", kernel_for(name), _accepted)
        return run_fns[name]

    targets = [
        (geometry.PointSet, "__init__", tracer.wrap("geometry.PointSet", geometry.PointSet.__init__)),
        (instances, "build", tracer.wrap("triangulation.build", instances.build)),
        (_kernel, "make_prep", tracer.wrap("kernel.make_prep", _kernel.make_prep)),
        (_kernel, "kernel_for", traced_kernel_for),
        (solver, "search_exact", tracer.wrap("solver.search_exact", solver.search_exact, _answer)),
        (solver, "_package", tracer.wrap("solver._package", solver._package)),
        (oracle, "flip", tracer.wrap("triangulation.flip", oracle.flip)),
        (flipdag, "flip", tracer.wrap("triangulation.flip", flipdag.flip)),
        (oracle, "canonical_key", tracer.count("triangulation.canonical_key", oracle.canonical_key)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, fn in targets:
            setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
