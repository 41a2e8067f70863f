"""The missing-edge lower bound: a search budget below the number of start
edges missing from the target is a NO without search, and both kernels cut
branches whose remaining flips cannot cover the edges still missing.

The cut removes only branches that cannot accept, so the first accepting run
in search order is unchanged.  The expected witnesses below are literal: they
were produced by the search before the bound existed, and both kernels must
still return them flip for flip.
"""

from __future__ import annotations

import pytest

from flipdist import _kernel
from flipdist.flipdag import replay
from flipdist.instances import gen_convex, gen_random_points, initial_triangulation, random_walk_triangulation
from flipdist.solver import flip_distance_upto, search_exact, search_upto
from flipdist.triangulation import build, make_edge

BACKENDS = ["pure"] + (["compiled"] if _kernel.compiled_available() else [])


@pytest.fixture
def backend(request, monkeypatch):
    """The kernel the solver runs on: "pure" hides the compiled one, as on a
    machine without a C compiler."""
    if request.param == "pure":
        monkeypatch.setattr(_kernel, "_core", None)
    assert _kernel.resolve_backend(12) == request.param
    return request.param


def fan(ps, v: int):
    """The fan triangulation from vertex v of the convex polygon 0..n-1."""
    n = len(ps)
    edges = {make_edge(i, (i + 1) % n) for i in range(n)}
    edges |= {make_edge(v, j) for j in range(n) if (j - v) % n not in (0, 1, n - 1)}
    return build(ps, sorted(edges))


def flips_of(res) -> list[tuple[int, int, int, int]]:
    return [(*rec.underlying, *rec.resulting) for rec in res.sequence.flips]


# fan(0) -> fan(v) on gen_convex(12): v -> (composition, flips); the distance
# equals the bound on every pair
FAN_WITNESSES = {
    1: ((1, 1, 1, 1, 1, 1, 1, 1, 1),
        [(0, 2, 1, 3), (0, 3, 1, 4), (0, 4, 1, 5), (0, 5, 1, 6), (0, 6, 1, 7),
         (0, 7, 1, 8), (0, 8, 1, 9), (0, 9, 1, 10), (0, 10, 1, 11)]),
    2: ((1, 1, 1, 1, 1, 1, 1, 1),
        [(0, 3, 2, 4), (0, 4, 2, 5), (0, 5, 2, 6), (0, 6, 2, 7), (0, 7, 2, 8),
         (0, 8, 2, 9), (0, 9, 2, 10), (0, 10, 2, 11)]),
    3: ((1, 1, 1, 1, 1, 1, 1, 1),
        [(0, 2, 1, 3), (0, 4, 3, 5), (0, 5, 3, 6), (0, 6, 3, 7), (0, 7, 3, 8),
         (0, 8, 3, 9), (0, 9, 3, 10), (0, 10, 3, 11)]),
    4: ((2, 1, 1, 1, 1, 1, 1),
        [(0, 3, 2, 4), (0, 2, 1, 4), (0, 5, 4, 6), (0, 6, 4, 7), (0, 7, 4, 8),
         (0, 8, 4, 9), (0, 9, 4, 10), (0, 10, 4, 11)]),
    5: ((3, 1, 1, 1, 1, 1),
        [(0, 4, 3, 5), (0, 3, 2, 5), (0, 2, 1, 5), (0, 6, 5, 7), (0, 7, 5, 8),
         (0, 8, 5, 9), (0, 9, 5, 10), (0, 10, 5, 11)]),
    6: ((4, 1, 1, 1, 1),
        [(0, 5, 4, 6), (0, 4, 3, 6), (0, 3, 2, 6), (0, 2, 1, 6), (0, 7, 6, 8),
         (0, 8, 6, 9), (0, 9, 6, 10), (0, 10, 6, 11)]),
}

# (n, seed, walk, bound, composition, flips): gen_random_points(n, seed, 1000),
# scan triangulation, random walk of `walk` steps with the same seed; the
# distance (the witness length) is above the bound on every one
WALK_WITNESSES = [
    (10, 32, 8, 5, (5, 1),
     [(2, 4, 1, 7), (1, 2, 0, 7), (4, 7, 1, 5), (1, 7, 0, 5), (0, 1, 5, 6), (7, 9, 2, 5)]),
    (10, 137, 9, 6, (1, 2, 2, 1, 1),
     [(1, 5, 3, 8), (2, 8, 1, 7), (1, 8, 3, 7), (2, 7, 1, 4), (2, 4, 0, 1), (3, 5, 8, 9),
      (1, 7, 3, 4)]),
    (11, 196, 8, 7, (2, 1, 1, 1, 1, 1, 1),
     [(6, 9, 0, 1), (0, 9, 1, 5), (1, 2, 3, 6), (1, 9, 3, 5), (2, 3, 6, 7), (3, 7, 6, 8),
      (6, 10, 2, 5), (3, 6, 1, 8)]),
    (10, 267, 8, 6, (1, 1, 1, 1, 2, 1),
     [(0, 1, 2, 4), (0, 2, 4, 5), (0, 4, 5, 7), (1, 4, 2, 8), (7, 8, 4, 6), (4, 7, 5, 6),
      (2, 4, 5, 8)]),
    (11, 300, 9, 6, (1, 1, 4, 1),
     [(1, 6, 0, 5), (1, 7, 3, 10), (7, 9, 3, 5), (5, 7, 3, 8), (5, 8, 3, 6), (5, 6, 0, 3),
      (3, 5, 0, 9)]),
    (10, 360, 9, 7, (1, 1, 3, 1, 1, 1),
     [(1, 4, 5, 8), (1, 8, 5, 6), (7, 8, 3, 6), (6, 7, 2, 3), (2, 6, 0, 3), (3, 5, 4, 9),
      (4, 5, 8, 9), (5, 8, 6, 9)]),
    (11, 369, 8, 5, (2, 2, 1, 1),
     [(0, 8, 1, 3), (0, 1, 3, 10), (6, 9, 2, 5), (2, 6, 5, 8), (3, 8, 1, 4), (1, 3, 4, 10)]),
]


def walk_pair(n: int, seed: int, walk: int):
    start = initial_triangulation(gen_random_points(n, seed, 1000))
    return start, random_walk_triangulation(start, walk, seed)


def bound(start, end) -> int:
    return len(start.edges - end.edges)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("v", sorted(FAN_WITNESSES))
def test_fan_witnesses_unchanged(v, backend):
    ps = gen_convex(12)
    start, end = initial_triangulation(ps), fan(ps, v)
    parts, flips = FAN_WITNESSES[v]
    res = search_upto(start, end, 10)
    assert res is not None
    assert res.k == bound(start, end) == len(flips)
    assert res.composition.parts == parts
    assert flips_of(res) == flips


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("n,seed,walk,lower,parts,flips", WALK_WITNESSES,
                         ids=[f"n{w[0]}-s{w[1]}-w{w[2]}" for w in WALK_WITNESSES])
def test_walk_witnesses_unchanged(n, seed, walk, lower, parts, flips, backend):
    start, end = walk_pair(n, seed, walk)
    assert bound(start, end) == lower < len(flips)
    res = search_upto(start, end, walk)
    assert res is not None
    assert res.k == len(flips)
    assert res.composition.parts == parts
    assert flips_of(res) == flips
    assert replay(res.sequence) == end


def test_below_bound_skips_the_kernel(monkeypatch):
    def forbidden(*args):
        raise AssertionError("make_prep called below the lower bound")

    monkeypatch.setattr(_kernel, "make_prep", forbidden)
    for n, seed, walk, lower, _, _ in WALK_WITNESSES:
        start, end = walk_pair(n, seed, walk)
        for k in range(lower):
            assert search_exact(start, end, k) is None
    ps = gen_convex(12)
    start, end = initial_triangulation(ps), fan(ps, 1)
    for k in range(bound(start, end)):
        assert search_exact(start, end, k) is None


def test_scan_starts_at_the_bound(monkeypatch):
    # the budgets the kernel is asked, and one prep for the whole scan
    asked, preps = [], []
    real_prep, real_kernel_for = _kernel.make_prep, _kernel.kernel_for

    def recording_prep(t_start, t_end):
        preps.append(real_prep(t_start, t_end))
        return preps[-1]

    def recording_kernel_for(name):
        run = real_kernel_for(name)

        def recording(prep, k):
            asked.append(k)
            return run(prep, k)
        return recording

    monkeypatch.setattr(_kernel, "make_prep", recording_prep)
    monkeypatch.setattr(_kernel, "kernel_for", recording_kernel_for)
    n, seed, walk, lower, _, flips = WALK_WITNESSES[0]
    start, end = walk_pair(n, seed, walk)
    assert flip_distance_upto(start, end, walk) == len(flips)
    assert asked == list(range(lower, len(flips) + 1))
    assert len(preps) == 1
    asked.clear()
    assert flip_distance_upto(start, end, lower - 1) is None
    assert asked == [] and len(preps) == 1

