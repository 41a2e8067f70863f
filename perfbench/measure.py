"""Timed passes over one workload's cases, answer checks, and the metrics.

A pass parses every instance text (set-up), scans each instance with
``search_upto`` (solve), runs the oracle BFS on it (oracle), and replays the
witness, builds its dependency DAG and replays a few seeded topological orders
(check).  The phases run one after another and every call is timed on its
own.  Passes repeat until the time budget is spent.  A phase's reported time
is the sum over instances of each instance's median across passes, and
``solve_p50_ms`` is the median over instances of those medians.

One operation is one instance in one pass.  It fails when a call raises, the
scan's distance differs from the pinned reference, the witness length differs
from the distance, the witness does not replay to the target, a reordering
check fails, or the oracle disagrees with the reference.
"""

from __future__ import annotations

import difflib
import gc
import hashlib
import random
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace

from flipdist import flipdag, instances, oracle, solver

import tracing
from workloads import expected_oracle

END_TO_END = {
    "setup_s": "s", "solve_s": "s", "solve_p50_ms": "ms", "oracle_s": "s",
    "check_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "geometry.PointSet.calls": "count", "geometry.PointSet.s": "s",
    "triangulation.build.calls": "count", "triangulation.build.s": "s",
    "triangulation.flip.calls": "count", "triangulation.flip.s": "s",
    "triangulation.canonical_key.calls": "count",
    "instances.parse.self_s": "s",
    "kernel.make_prep.calls": "count", "kernel.make_prep.s": "s",
    "solver.search_exact.calls": "count", "solver.search_exact.s": "s",
    "solver.search_exact.no_s": "s", "solver.search_exact.yes_s": "s",
    "kernel.run_composition.calls": "count", "kernel.run_composition.s": "s",
    "solver.accept_ratio": "ratio",
    "solver._package.s": "s",
    "flipdag.replay.s": "s", "flipdag.build_dag.s": "s", "flipdag.check_reordering.s": "s",
    "oracle.bfs_distance.calls": "count", "oracle.bfs_distance.s": "s",
    "oracle.bfs_distance.self_s": "s",
    "trace.overhead_s": "s",
}
# Topological orders of each witness DAG that the check phase replays.
REORDERINGS = 4


def plain_api() -> SimpleNamespace:
    return SimpleNamespace(
        parse=instances.parse, search_upto=solver.search_upto, bfs_distance=oracle.bfs_distance,
        replay=flipdag.replay, build_dag=flipdag.build_dag,
        topological_sorts_sample=flipdag.topological_sorts_sample,
        check_reordering=flipdag.check_reordering)


def traced_api(tracer: tracing.Tracer) -> SimpleNamespace:
    api = plain_api()
    for attr, name in (("parse", "instances.parse"), ("search_upto", "solver.search_upto"),
                       ("bfs_distance", "oracle.bfs_distance"), ("replay", "flipdag.replay"),
                       ("build_dag", "flipdag.build_dag"),
                       ("check_reordering", "flipdag.check_reordering")):
        setattr(api, attr, tracer.wrap(name, getattr(api, attr)))
    return api


PHASES = ("setup", "solve", "oracle", "check")

# On a shared host the interpreter's speed drifts by 20-30% between runs a
# minute apart, moving every phase together, which no statistic taken inside
# one run removes.  So a fixed calibration probe that does not touch flipdist
# runs after every timed call, and each pass's times are rescaled to the speed
# at which the probe takes CAL_REF_S: scaled = raw * CAL_REF_S / median probe.
CAL_REF_S = 0.001
_CAL_RNG = random.Random(1)
_CAL_SEQS = tuple([_CAL_RNG.randrange(40) for _ in range(150)] for _ in range(2))


def calibration_probe() -> float:
    """Seconds for a dict-and-integer loop plus a pure-Python stdlib matcher."""
    t = perf_counter()
    table: dict[int, int] = {}
    for i in range(3000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + (i & 7)
    difflib.SequenceMatcher(None, *_CAL_SEQS, autojunk=False).ratio()
    return perf_counter() - t


@dataclass
class Pass:
    """Per-instance seconds of each phase, failures and witnesses of one pass."""

    times: dict[str, dict[int, float]] = field(default_factory=lambda: {ph: {} for ph in PHASES})
    probes: list[float] = field(default_factory=list)
    failed: dict[int, str] = field(default_factory=dict)
    witnesses: dict[int, str] = field(default_factory=dict)

    @property
    def scale(self) -> float:
        """Factor from raw seconds to seconds at the reference probe speed."""
        return CAL_REF_S / statistics.median(self.probes)

    @property
    def raw_s(self) -> float:
        return sum(sum(by_case.values()) for by_case in self.times.values())


def _fail(p: Pass, i: int, why: str) -> None:
    p.failed.setdefault(i, why)


def _timed(p: Pass, phase: str, i: int, fn, *args):
    """fn(*args), timed into p.times[phase][i]; None after recording a raise."""
    t = perf_counter()
    try:
        return fn(*args)
    except Exception as exc:
        _fail(p, i, f"{phase} raised {exc!r}")
        return None
    finally:
        p.times[phase][i] = perf_counter() - t
        p.probes.append(calibration_probe())


def run_pass(api, cases, refs, order, seed: int) -> Pass:
    """One pass over the cases in ``order``, phase by phase."""
    p = Pass()
    parsed = {i: _timed(p, "setup", i, api.parse, cases[i].text) for i in order}
    parsed = {i: inst for i, inst in parsed.items() if inst is not None}
    found = {i: _timed(p, "solve", i, api.search_upto, inst.t_start, inst.t_end, inst.k)
             for i, inst in parsed.items()}
    bfs = {i: _timed(p, "oracle", i, api.bfs_distance, inst.t_start, inst.t_end, cases[i].oracle_cap)
           for i, inst in parsed.items()}

    def check(seq, i):
        end = api.replay(seq)
        perms = api.topological_sorts_sample(api.build_dag(seq), REORDERINGS, seed * 1009 + i)
        return end, all(api.check_reordering(seq, perm) for perm in perms)

    checked = {i: _timed(p, "check", i, check, res.sequence, i)
               for i, res in found.items() if res is not None}

    for i in order:
        if i not in parsed or i in p.failed:
            continue
        res, ref = found[i], refs[i]
        if res is None or res.k != ref:
            _fail(p, i, f"distance {None if res is None else res.k}, reference {ref}")
            continue
        p.witnesses[i] = "; ".join(str(rec) for rec in res.sequence.flips)
        want = expected_oracle(ref, cases[i].oracle_cap)
        got = bfs[i] and bfs[i][0]
        if got != want:
            _fail(p, i, f"oracle says {got}, expected {want}")
        if len(res.sequence) != res.k:
            _fail(p, i, f"witness has {len(res.sequence)} flips for distance {res.k}")
        end, reorders = checked[i]
        if end != parsed[i].t_end:
            _fail(p, i, "witness does not replay to the target")
        if not reorders:
            _fail(p, i, "a topological reordering of the witness fails")
    return p


def witness_digest(cases, p: Pass) -> str:
    """Hash of every witness in pool order, so it is comparable across seeds."""
    h = hashlib.sha256()
    for i, case in enumerate(cases):
        h.update(f"{case.label}: {p.witnesses.get(i, '-')}\n".encode("utf-8"))
    return h.hexdigest()


def _layer_value(fold: dict, metric: str) -> float:
    """A PER_LAYER metric from one traced pass's fold: ``<span>.<key>`` with
    key calls, s or self_s, and ``.no_s``/``.yes_s`` for outcome splits."""
    if metric == "solver.accept_ratio":
        tried = _layer_value(fold, "kernel.run_composition.calls")
        return _layer_value(fold, "kernel.run_composition.accept.calls") / tried if tried else 0.0
    span, _, key = metric.rpartition(".")
    if key in ("no_s", "yes_s"):
        span, key = f"{span}.{key[:-2]}", "s"
    return fold.get(span, {}).get(key, 0)


def _case_medians(passes: list[Pass], phase: str) -> list[float]:
    """Each instance's median time in ``phase`` across passes.  Summed, they
    estimate one pass's phase time; unlike the per-pass total, one slow pass
    moves the estimate only through the instances it slowed."""
    out = []
    for i in sorted({i for p in passes for i in p.times[phase]}):
        runs = [p for p in passes if i in p.times[phase]]
        out.append(statistics.median(p.times[phase][i] * p.scale for p in runs))
    return out


def measure(cases, refs, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for ``seconds`` (at least one; with trace, at least one
    untraced/traced pair) and summarise them.

    Returns the benchmark's result object (correct, attempted, failed,
    metrics) plus report fields: ``passes``, ``raw_pass_s`` and ``scale``
    (medians over untraced passes), ``samples``, ``witness_digest`` and
    ``failures``.
    """
    order = list(range(len(cases)))
    random.Random(seed).shuffle(order)
    plain = plain_api()
    tracer = tracing.Tracer()
    traced = traced_api(tracer)

    untraced_passes: list[Pass] = []
    traced_passes: list[Pass] = []
    folds: list[dict] = []
    start = perf_counter()
    while True:
        gc.collect()
        untraced_passes.append(run_pass(plain, cases, refs, order, seed))
        if trace:
            gc.collect()
            with tracing.patched(tracer):
                traced_passes.append(run_pass(traced, cases, refs, order, seed))
            folds.append(tracer.fold())
        elapsed = perf_counter() - start
        rounds = len(untraced_passes)
        if elapsed * (rounds + 1) / rounds > seconds:
            break

    passes = untraced_passes + traced_passes
    failures = [f"{cases[i].label}: {why}" for p in passes for i, why in sorted(p.failed.items())]
    digests = {witness_digest(cases, p) for p in passes}

    if trace:
        metrics = {name: statistics.median(_layer_value(f, name) * (p.scale if unit == "s" else 1)
                                           for f, p in zip(folds, traced_passes))
                   for name, unit in PER_LAYER.items() if name != "trace.overhead_s"}
        # Unscaled: the two kinds of pass alternate, so drift hits both alike.
        metrics["trace.overhead_s"] = (statistics.median(p.raw_s for p in traced_passes)
                                       - statistics.median(p.raw_s for p in untraced_passes))
        units = PER_LAYER
    else:
        per_case = {ph: _case_medians(untraced_passes, ph) for ph in PHASES}
        metrics = {f"{ph}_s": sum(per_case[ph]) for ph in PHASES}
        metrics["solve_p50_ms"] = statistics.median(per_case["solve"]) * 1000.0
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    if len(digests) > 1:
        failures.append("witnesses differ between passes of one run")
    return {
        "correct": not failures,
        "attempted": len(cases) * len(passes),
        "failed": sum(len(p.failed) for p in passes),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "passes": len(untraced_passes),
        "raw_pass_s": statistics.median(p.raw_s for p in untraced_passes),
        "scale": statistics.median(p.scale for p in untraced_passes),
        "samples": sum(len(p.times["solve"]) for p in untraced_passes),
        "witness_digest": sorted(digests)[0],
        "failures": failures,
    }
