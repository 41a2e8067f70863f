"""Benchmark inputs: one fixed instance pool per workload.

Each pool is regenerated on every run from fixed generator parameters with the
library's own public generators, then checked against ``pinned.json``: the
SHA-256 of the concatenated instance texts and one reference flip distance per
instance.  A generator change that alters a single byte stops the run instead
of silently swapping the inputs a before/after comparison runs on.

The pools do not depend on the benchmark's ``--seed``.  The seed only orders
the instances within a pass and picks the topological orders the witness
check replays, so every seed costs the same work and the run-to-run spread
measures the machine, not instance difficulty.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from flipdist import (
    Instance,
    build,
    gen_convex,
    gen_random_points,
    initial_triangulation,
    make_edge,
    random_walk_triangulation,
    serialize,
)

PINNED = Path(__file__).with_name("pinned.json")

# `flipdist solve`'s default scan bound; every fan pair is within it.
FAN_K_MAX = 10


class PinMismatch(Exception):
    """Regenerated inputs differ from the pinned digest or reference count."""


@dataclass(frozen=True)
class Case:
    """One instance: its file text (whose k line bounds the solver's scan) and
    the depth cap of the oracle BFS run on it."""

    label: str
    text: str
    oracle_cap: int


def expected_oracle(ref: int, cap: int):
    """What ``bfs_distance(..., cap)`` must report for reference distance ref:
    the distance when it is within the cap, else None (distance > cap)."""
    return ref if ref <= cap else None


def _fan(ps, v: int):
    """The fan triangulation from vertex v of the convex polygon 0..n-1."""
    n = len(ps)
    edges = {make_edge(i, (i + 1) % n) for i in range(n)}
    edges |= {make_edge(v, j) for j in range(n) if (j - v) % n not in (0, 1, n - 1)}
    return build(ps, sorted(edges))


def convex_fans(n: int, targets, oracle_cap: int) -> list[Case]:
    """fan(0) -> fan(v) on gen_convex(n), whose scan triangulation is fan(0)."""
    ps = gen_convex(n)
    start = initial_triangulation(ps)
    return [Case(f"fan0-fan{v}", serialize(Instance(ps, start, _fan(ps, v), FAN_K_MAX)), oracle_cap)
            for v in targets]


def random_cross(specs) -> list[Case]:
    """The `verify --mode cross` shape: (n, seed, walk) -> gen_random_points
    (bound 1000), a seeded random walk from the scan triangulation, and an
    oracle BFS deep enough to reach the target."""
    out = []
    for n, seed, walk in specs:
        ps = gen_random_points(n, seed, 1000)
        start = initial_triangulation(ps)
        end = random_walk_triangulation(start, walk, seed)
        out.append(Case(f"random-n{n}-s{seed}-w{walk}", serialize(Instance(ps, start, end, walk)), walk))
    return out


def large_n(specs, oracle_cap: int) -> list[Case]:
    """(kind, n, seed, walk) with kind "random" (gen_random_points, bound 2^20)
    or "convex" (gen_convex); the oracle only proves distance > oracle_cap."""
    out = []
    for kind, n, seed, walk in specs:
        ps = gen_random_points(n, seed, 1 << 20) if kind == "random" else gen_convex(n)
        start = initial_triangulation(ps)
        end = random_walk_triangulation(start, walk, seed)
        out.append(Case(f"{kind}-n{n}-s{seed}-w{walk}", serialize(Instance(ps, start, end, walk)),
                        oracle_cap))
    return out


# Full-size pools.  Sizes keep one pass at a few seconds on the pure kernel,
# so a run holds several passes and reports their median.
POOLS = {
    # fan0 -> fan1 is the one d=9 pair that stays under ~2 s; fan2..fan6 are d=8.
    # The full-depth oracle costs ~3.7 s per pair, so it runs capped at depth 4
    # and must prove distance > 4.
    "convex-fans": lambda: convex_fans(12, range(1, 7), oracle_cap=4),
    # n and walk length cycle through 10..12 and 7..10 over 24 fixed seeds.
    "random-cross": lambda: random_cross([(10 + s % 3, s, 7 + s % 4) for s in range(24)]),
    # Depth-1 BFS: every flip copies O(n) state, which is the cost under test.
    "large-n": lambda: large_n([("random", 300, 1, 6), ("convex", 300, 2, 4)], oracle_cap=1),
}


def digest(cases: list[Case]) -> str:
    h = hashlib.sha256()
    for case in cases:
        h.update(case.text.encode("utf-8"))
    return h.hexdigest()


def load(name: str, pinned_path: Path = PINNED) -> tuple[list[Case], list[int], str]:
    """Regenerate the named pool and check it against its pins.

    Returns the cases, their reference distances and the pool digest.  Raises
    PinMismatch when the regenerated bytes or the instance count disagree.
    """
    cases = POOLS[name]()
    pin = json.loads(pinned_path.read_text(encoding="utf-8"))[name]
    got = digest(cases)
    if got != pin["sha256"]:
        raise PinMismatch(f"{name}: regenerated inputs hash to {got}, pinned {pin['sha256']}")
    refs = pin["references"]
    if len(refs) != len(cases):
        raise PinMismatch(f"{name}: {len(cases)} instances but {len(refs)} pinned references")
    return cases, refs, got
