"""Input validation against the cubic reference checks it replaced.

``PointSet`` finds collinear triples by reduced directions, ``build``
accepts an edge set by a local certificate and ``gen_random_points`` tests a
candidate against one set of directions.  The reference functions below are
the earlier all-triples, all-pairs and all-pairs-per-candidate versions,
kept verbatim as oracles: on every input both must raise the same exception
type with the same message, or return equal values.  The guards at the end
fail if a cubic loop comes back on valid inputs.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import flipdist
from flipdist import geometry, instances, triangulation
from flipdist.errors import (
    BadIndex,
    ExhaustedRetries,
    FlipDistError,
    NotMaximal,
    NotPlanar,
    TooLarge,
    ValidationError,
)
from flipdist.geometry import (
    COORD_BOUND,
    Point,
    PointSet,
    convex_hull_edges,
    orient,
    segments_properly_cross,
)
from flipdist.instances import _RETRY_BUDGET, gen_convex, gen_random_points, initial_triangulation
from flipdist.triangulation import (
    Edge,
    Triangle,
    Triangulation,
    build,
    flip,
    is_flippable,
    make_edge,
    make_triangle,
)

SIZES = range(3, 10)
BOUNDS = (6, 20, 1000)
SEEDS = range(12)


class BadIncidence(ValidationError):
    """Raised only by the reference build, on paths no input reaches."""


def reference_pointset(points) -> None:
    """The checks of PointSet.__init__ with the O(n^3) collinearity loop."""
    pts = tuple(points)
    if len(pts) < 3:
        raise ValidationError(f"need at least 3 points, got {len(pts)}")
    for i, p in enumerate(pts):
        if p.id != i:
            raise ValidationError(f"point ids must be dense 0..n-1; index {i} has id {p.id}")
        if abs(p.x) > COORD_BOUND or abs(p.y) > COORD_BOUND:
            raise ValidationError(f"point {i} coordinate exceeds +-2^30")
    seen: dict[tuple[int, int], int] = {}
    for p in pts:
        key = (p.x, p.y)
        if key in seen:
            raise ValidationError(f"points {seen[key]} and {p.id} coincide at {key}")
        seen[key] = p.id
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if orient(pts[i], pts[j], pts[k]) == 0:
                    raise ValidationError(f"points {i}, {j}, {k} are collinear")


def _empty_triangle(ps: PointSet, u: int, v: int, w: int) -> bool:
    """No point of ps strictly inside triangle (u, v, w)."""
    pu, pv, pw = ps[u], ps[v], ps[w]
    if orient(pu, pv, pw) < 0:
        pv, pw = pw, pv
    for p in ps:
        if p.id in (u, v, w):
            continue
        if orient(pu, pv, p) > 0 and orient(pv, pw, p) > 0 and orient(pw, pu, p) > 0:
            return False
    return True


def reference_build(ps: PointSet, edge_list) -> tuple[frozenset, frozenset, dict]:
    """build with the all-pairs crossing test and the empty-triangle scan, as
    its (edges, triangles, tri_of)."""
    n = len(ps)
    edges: set[Edge] = set()
    for a, b in edge_list:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise BadIndex(f"bad edge ({a}, {b}) for {n} points")
        edges.add(make_edge(a, b))

    hull = convex_hull_edges(ps)
    expected = 3 * n - 3 - len(hull)
    if len(edges) != expected:
        raise NotMaximal(f"{len(edges)} edges, expected 3n-3-h = {expected}")

    ordered = sorted(edges)
    for i, e1 in enumerate(ordered):
        seg1 = (ps[e1[0]], ps[e1[1]])
        for e2 in ordered[i + 1:]:
            if segments_properly_cross(seg1, (ps[e2[0]], ps[e2[1]])):
                raise NotPlanar(f"edges {e1} and {e2} cross")

    # Faces are exactly the empty triangles whose three sides are present.
    tri_of: dict[Edge, list[Triangle]] = {e: [] for e in edges}
    triangles: set[Triangle] = set()
    for a, b in ordered:
        for w in range(n):
            if w in (a, b):
                continue
            if make_edge(a, w) in edges and make_edge(b, w) in edges and _empty_triangle(ps, a, b, w):
                triangles.add(make_triangle(a, b, w))
    for tri in triangles:
        u, v, w = tri
        for e in (make_edge(u, v), make_edge(u, w), make_edge(v, w)):
            tri_of[e].append(tri)

    for e, tris in tri_of.items():
        want = 1 if e in hull else 2
        if len(tris) != want:
            raise BadIncidence(f"edge {e} bounds {len(tris)} triangles, expected {want}")
    if len(triangles) != 2 * n - 2 - len(hull):
        raise BadIncidence(f"{len(triangles)} triangles, expected 2n-2-h = {2 * n - 2 - len(hull)}")

    frozen = {e: tuple(sorted(tris)) for e, tris in tri_of.items()}
    return frozenset(edges), frozenset(triangles), frozen


def reference_gen_random_points(n: int, seed: int, bound: int) -> PointSet:
    """gen_random_points testing each candidate against every accepted pair."""
    if bound < 1 or bound > COORD_BOUND:
        raise TooLarge(f"bound {bound} outside [1, {COORD_BOUND}]")
    rng = random.Random(seed)
    points: list[Point] = []
    taken: set[tuple[int, int]] = set()
    budget = _RETRY_BUDGET
    while len(points) < n:
        if budget == 0:
            raise ExhaustedRetries(f"no general-position placement after {_RETRY_BUDGET} draws")
        budget -= 1
        x, y = rng.randint(0, bound), rng.randint(0, bound)
        if (x, y) in taken:
            continue
        cand = Point(len(points), x, y)
        if any(orient(points[i], points[j], cand) == 0
               for i in range(len(points)) for j in range(i + 1, len(points))):
            continue
        points.append(cand)
        taken.add((x, y))
    return PointSet(points)


def outcome(fn, *args):
    """fn's result, or the type and message of the flipdist error it raised."""
    try:
        return fn(*args)
    except FlipDistError as exc:
        return type(exc), str(exc)


def assert_same_build(ps: PointSet, edges: list[Edge]) -> bool:
    """Both builds agree on ``edges``; returns whether they accepted it."""
    want, got = outcome(reference_build, ps, edges), outcome(build, ps, edges)
    if not isinstance(got, Triangulation):
        assert got == want, edges  # the same error type and message
        return False
    assert (got.edges, got.triangles, got.tri_of) == want, edges
    return True


def random_coords(rng: random.Random, n: int, bound: int) -> list[tuple[int, int]]:
    """n grid points, repeats allowed; in two sets of three, two or three of
    them are put on lines through earlier ones, so collinear inputs with
    several triples are common at every bound."""
    planted = min(n - 2, rng.choice((0, 2, 3)))
    coords = [(rng.randint(0, bound), rng.randint(0, bound)) for _ in range(n - planted)]
    for _ in range(planted):
        (px, py), (qx, qy) = rng.sample(coords, 2)
        m = rng.choice((-1, 2, 3))
        coords.insert(rng.randrange(len(coords) + 1), (px + m * (qx - px), py + m * (qy - py)))
    return coords


def walk(ps: PointSet, rng: random.Random) -> Triangulation:
    """A random flip walk from the scan triangulation, up to 2n flips."""
    tri = initial_triangulation(ps)
    for _ in range(rng.randint(0, 2 * len(ps))):
        options = [e for e in sorted(tri.edges) if is_flippable(tri, e)]
        if not options:
            break
        tri, _ = flip(tri, rng.choice(options))
    return tri


class TestPointSetDifferential:
    def test_random_point_sets(self):
        rng = random.Random(0)
        collinear = 0
        for n, bound, _ in itertools.product(SIZES, BOUNDS, range(40)):
            points = [Point(i, x, y) for i, (x, y) in enumerate(random_coords(rng, n, bound))]
            want = outcome(reference_pointset, points)
            got = outcome(PointSet, points)
            if want is None:
                assert isinstance(got, PointSet) and got.points == tuple(points)
            else:
                assert got == want, points
                collinear += "collinear" in want[1]
        assert collinear > 300  # the collinear-triple message is well covered

    @pytest.mark.parametrize("coords,first", [
        # under 0, points 2 and 3 share a direction before 1 and 4 do
        ([(0, 0), (1, 0), (0, 1), (0, 2), (2, 0)], (0, 1, 4)),
        # no triple starts at 0; two start at 1
        ([(7, 0), (0, 0), (2, 1), (1, 3), (4, 2), (2, 6)], (1, 2, 4)),
    ])
    def test_first_of_several_collinear_triples(self, coords, first):
        points = [Point(i, x, y) for i, (x, y) in enumerate(coords)]
        message = "points {}, {}, {} are collinear".format(*first)
        assert outcome(reference_pointset, points) == (ValidationError, message)
        with pytest.raises(ValidationError) as info:
            PointSet(points)
        assert str(info.value) == message


class TestBuildDifferential:
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_edge_sets(self, bound):
        accepted = rejected = 0
        for n, seed in itertools.product(SIZES, SEEDS):
            rng = random.Random(f"{n}/{seed}/{bound}")
            ps = gen_random_points(n, seed, bound)
            pairs = list(itertools.combinations(range(n), 2))
            valid = sorted(walk(ps, rng).edges)
            assert assert_same_build(ps, valid)
            accepted += 1
            for _ in range(3):
                # one or two edges swapped for other point pairs
                swapped = rng.sample(valid, min(rng.randint(1, 2), len(valid)))
                others = [p for p in pairs if p not in valid]
                mutated = [e for e in valid if e not in swapped]
                mutated += rng.sample(others, min(len(swapped), len(others)))
                # a random sample of exactly 3n-3-h pairs
                sampled = rng.sample(pairs, len(valid))
                for edges in (mutated, sampled):
                    ok = assert_same_build(ps, edges)
                    accepted += ok
                    rejected += not ok
        assert accepted > len(SIZES) * len(SEEDS) and rejected > len(SIZES) * len(SEEDS)

    def test_right_counts_on_one_side(self):
        # Every edge bounds as many candidate faces as in a triangulation, but
        # (0, 1), (0, 4) and (1, 4) bound both of theirs on the same side.
        ps = PointSet.from_coords([(151, 692), (630, 366), (173, 567), (729, 676), (622, 186),
                                   (393, 299)])
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5), (2, 5), (3, 4), (4, 5)]
        assert outcome(build, ps, edges) == (NotPlanar, "edges (0, 4) and (1, 2) cross")
        assert not assert_same_build(ps, edges)


class TestGenRandomPointsDifferential:
    def test_same_draws_and_decisions(self):
        for n, bound, seed in itertools.product(SIZES, BOUNDS, range(4)):
            want = outcome(reference_gen_random_points, n, seed, bound)
            assert outcome(gen_random_points, n, seed, bound) == want

    def test_same_exhaustion(self):
        assert outcome(gen_random_points, 5, 0, 1) == outcome(reference_gen_random_points, 5, 0, 1)


def _forbidden(*args, **kwargs):
    raise AssertionError("a quadratic or cubic validation loop ran on valid input")


class TestComplexityGuards:
    """Deterministic stand-ins for timing: valid inputs must never reach the
    cubic collinearity loop or the all-pairs crossing test."""

    @pytest.mark.parametrize("ps", [gen_convex(300), gen_random_points(300, 1, 1 << 20)],
                             ids=["convex", "random"])
    def test_build_skips_crossing_tests(self, ps, monkeypatch):
        edges = sorted(initial_triangulation(ps).edges)
        monkeypatch.setattr(triangulation, "segments_properly_cross", _forbidden)
        assert build(ps, edges).edges == frozenset(edges)

    def test_point_sets_skip_orient(self, monkeypatch):
        convex = gen_convex(300).coords()
        monkeypatch.setattr(geometry, "orient", _forbidden)
        monkeypatch.setattr(instances, "orient", _forbidden)
        assert len(PointSet.from_coords(convex)) == 300
        assert len(gen_random_points(300, 1, 1 << 20)) == 300


OPTIMIZED_SCRIPT = """
from flipdist import NotPlanar, PointSet, build, triangulation
assert False, "asserts are stripped"
ps = PointSet.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
edges = [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)]
try:
    build(ps, edges)
except NotPlanar as exc:
    print("NotPlanar:", exc)
# a crossing test that finds nothing must still stop the build
triangulation.segments_properly_cross = lambda e1, e2: False
try:
    build(ps, edges)
except AssertionError:
    print("AssertionError")
"""


def test_crossing_rejected_under_python_O():
    src = str(Path(flipdist.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT], capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["NotPlanar: edges (0, 2) and (1, 3) cross", "AssertionError"]
