"""Input validation against the cubic reference checks it replaced.

``PointSet`` finds collinear triples by float slopes with an exact
fallback, ``build`` accepts an edge set by a local certificate and
``gen_random_points`` tests a candidate against one set of slopes.  The
reference functions below are the earlier all-triples, all-pairs and
all-pairs-per-candidate versions, kept verbatim as oracles: on every input
both must raise the same exception type with the same message, or return
equal values.  ``build`` is also held to its own earlier version, which
checked each candidate face at its sides one lookup at a time: the apex
maps must be equal item for item, in order.  The guards at the end fail if
a cubic loop, the exact collinearity fallback or an orientation test per
face comes back on valid inputs.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Iterable

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
    direction,
    orient,
    segments_properly_cross,
)
from flipdist.instances import (
    _RETRY_BUDGET,
    Instance,
    gen_convex,
    gen_random_points,
    initial_triangulation,
    parse,
    random_walk_triangulation,
    serialize,
)
from flipdist.triangulation import (
    ApexMap,
    Edge,
    Triangle,
    Triangulation,
    build,
    flip,
    is_flippable,
    make_edge,
)

from conftest import make_triangle, tri_of

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


def reference_certificate_build(ps: PointSet, edge_list: Iterable[Edge]) -> Triangulation:
    """build with the per-face consistency lookups it had before the face
    count, verbatim."""
    n = len(ps)
    edges: dict[Edge, None] = {}  # insertion order: a sorted input stays sorted, and sorts in O(n)
    for a, b in edge_list:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise BadIndex(f"bad edge ({a}, {b}) for {n} points")
        edges[make_edge(a, b)] = None

    hull = convex_hull_edges(ps)
    expected = 3 * n - 3 - len(hull)
    if len(edges) != expected:
        raise NotMaximal(f"{len(edges)} edges, expected 3n-3-h = {expected}")

    xy = ps.coords()
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    apex: ApexMap = {}
    for a, b in (ordered := sorted(edges)):
        (xa, ya), (xb, yb) = xy[a], xy[b]
        dx, dy = xb - xa, yb - ya
        nearest = {1: -1, -1: -1}
        for w in adj[a] & adj[b]:
            xw, yw = xy[w]
            side = 1 if dx * (yw - ya) > dy * (xw - xa) else -1  # never 0 in general position
            c = nearest[side]
            # w is nearer to ab than the apex so far iff that apex lies past w around a
            if c < 0 or ((xw - xa) * (xy[c][1] - ya) - (yw - ya) * (xy[c][0] - xa)) * side > 0:
                nearest[side] = w
        c, d = sorted(nearest.values())
        apex[a, b] = (d, c) if c < 0 else (c, d)
    # candidate abw is aw's and bw's on its side iff they list b and a as apexes
    consistent = all(w < 0 or b in apex[make_edge(a, w)] and a in apex[make_edge(b, w)]
                     for (a, b), pair in apex.items() for w in pair)
    if not consistent or not all(c >= 0 and (d < 0) == (e in hull) for e, (c, d) in apex.items()):
        pts = ps.points
        for i, e1 in enumerate(ordered):
            seg1 = (pts[e1[0]], pts[e1[1]])
            for e2 in ordered[i + 1:]:
                if segments_properly_cross(seg1, (pts[e2[0]], pts[e2[1]])):
                    raise NotPlanar(f"edges {e1} and {e2} cross")
        raise AssertionError("non-crossing maximal edge set failed the triangulation certificate")
    # each edge bounds its own candidates and, having passed, no others: apex holds the faces
    return Triangulation(ps, apex)


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
    earlier = outcome(reference_certificate_build, ps, edges)
    if not isinstance(got, Triangulation):
        assert got == want == earlier, edges  # the same error type and message
        return False
    assert list(got.apex.items()) == list(earlier.apex.items()), edges
    assert (got.edges, got.triangles, tri_of(got)) == want, edges
    # and its apex map holds the reference's third vertices, (c, d) with c < d
    # or (c, -1) on the hull
    apexes = {(a, b): sorted(sum(t) - a - b for t in tris) for (a, b), tris in want[2].items()}
    assert got.apex == {e: (v[0], -1) if len(v) == 1 else tuple(v) for e, v in apexes.items()}, edges
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

    @pytest.mark.parametrize("coords,want", [
        # from (0, 0) both slopes round to the float 1 - 2^-30, but no three
        # points are collinear
        ([(0, 0), (2 ** 30, 2 ** 30 - 1), (2 ** 30 - 1, 2 ** 30 - 2)], None),
        # the same collision at 0, then a triple on the line y = x - 1
        ([(0, 0), (2 ** 30, 2 ** 30 - 1), (2 ** 30 - 1, 2 ** 30 - 2), (2 ** 30 - 2, 2 ** 30 - 3)],
         (ValidationError, "points 1, 2, 3 are collinear")),
    ])
    def test_slopes_that_round_to_one_float(self, coords, want):
        assert (2 ** 30 - 1) / 2 ** 30 == (2 ** 30 - 2) / (2 ** 30 - 1)
        points = [Point(i, x, y) for i, (x, y) in enumerate(coords)]
        assert outcome(reference_pointset, points) == want
        got = outcome(PointSet, points)
        if want is None:
            assert isinstance(got, PointSet) and got.points == tuple(points)
        else:
            assert got == want

    def test_non_integer_coordinates(self):
        # the slope proof needs exact differences: a float is refused, as math.gcd refuses it
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            PointSet([Point(0, 0, 0), Point(1, 1, 0.5), Point(2, 2, 3)])
        # from_coords refuses the same values instead of truncating them
        for coords, kind in [([(0.9, 0), (5, 0), (3, 7)], "float"),
                             ([(0, 0), (5, 0.2), (3, 7)], "float"),
                             ([(0, 0), (5, 0), ("3", 7)], "str")]:
            with pytest.raises(TypeError, match=f"'{kind}' object cannot be interpreted as an integer"):
                PointSet.from_coords(coords)

    def test_coordinate_bound(self, monkeypatch):
        # the origin and points a few units from a corner (+-2^30, +-2^30):
        # their slopes from the origin round to few floats, so the exact
        # fallback runs often; some sets get a triple planted on a line
        exact = []
        monkeypatch.setattr(geometry, "direction", lambda *d: exact.append(d) or direction(*d))
        rng = random.Random(1)
        fallback_accepted = collinear = 0
        for n, _ in itertools.product(range(3, 9), range(60)):
            sx, sy = rng.choice((-1, 1)), rng.choice((-1, 1))
            coords = [(0, 0)] + [(COORD_BOUND - rng.randrange(12), COORD_BOUND - rng.randrange(12))
                                 for _ in range(n - 1)]
            if n > 3 and rng.random() < 0.5:
                (qx, qy), (dx, dy) = coords[1], (rng.randrange(3), rng.randrange(1, 3))
                coords[-2:] = [(qx - dx, qy - dy), (qx - 2 * dx, qy - 2 * dy)]
            points = [Point(i, sx * x, sy * y) for i, (x, y) in enumerate(coords)]
            want = outcome(reference_pointset, points)
            exact.clear()
            got = outcome(PointSet, points)
            if want is None:
                assert isinstance(got, PointSet) and got.points == tuple(points)
                fallback_accepted += bool(exact)
            else:
                assert got == want, points
                collinear += "collinear" in want[1]
        assert fallback_accepted > 30 and collinear > 100


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

    # Every edge has as many candidate faces as in a triangulation, but one
    # candidate is the candidate of only two of its three sides.
    @pytest.mark.parametrize("coords,edges,crossing", [
        # (1, 2, 3), from (1, 2), is (1, 3)'s but not (2, 3)'s
        ([(2, 4), (3, 3), (2, 6), (0, 0), (6, 3)],
         [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], "(0, 4) and (1, 2)"),
        # (1, 2, 4), from (2, 4), is (1, 4)'s but not (1, 2)'s
        ([(1, 6), (6, 4), (4, 0), (5, 3), (2, 5)],
         [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)], "(0, 3) and (1, 4)"),
    ])
    def test_candidate_of_two_of_its_sides(self, coords, edges, crossing):
        ps = PointSet.from_coords(coords)
        assert outcome(build, ps, edges) == (NotPlanar, f"edges {crossing} cross")
        assert not assert_same_build(ps, edges)


    # Each set has the right edge count and is rejected by one part of the
    # certificate alone: a copy of build without that part accepts it.
    @pytest.mark.parametrize("coords,edges,crossing", [
        # the face count: only hull edges have one candidate, but the faces
        # (0, 1, 3), (0, 2, 3) and (1, 2, 4) are each listed by two sides, so
        # 3 * |faces| = 18 where 2m - h = 15
        pytest.param([(3, 5), (6, 2), (3, 11), (0, 1), (2, 3)],
                     [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
                     "(0, 3) and (2, 4)", id="face-count"),
        # one-sided edges off the hull: without the hull edge (2, 3), both
        # diagonals of the convex quadrilateral have one candidate; only
        # their placeholders (-2, 0, 2) and (-2, 1, 3) break the count,
        # 3 * 4 where 2 * 5 - 4 = 6
        pytest.param([(3, 5), (6, 2), (3, 0), (1, 2)], [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
                     "(0, 2) and (1, 3)", id="hull-edge-missing"),
        # edges without a candidate: (1, 4) and the hull edges (0, 5), (3, 4)
        # and (4, 5); only their placeholders (-1, a, b) break the count,
        # 3 * 8 where 2 * 9 - 6 = 12
        pytest.param([(0, 0), (1, 1), (2, 4), (3, 9), (4, 16), (5, 25)],
                     [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5)],
                     "(0, 2) and (1, 4)", id="no-candidate"),
    ])
    def test_one_part_rejects(self, coords, edges, crossing):
        ps = PointSet.from_coords(coords)
        assert outcome(build, ps, edges) == (NotPlanar, f"edges {crossing} cross")
        assert not assert_same_build(ps, edges)

    def test_benchmark_shaped_inputs(self):
        # the point sets and walks of the benchmark's pools, from the public
        # generators with the same parameters
        convex = gen_convex(12)
        cases = [(convex, sorted(convex_hull_edges(convex) | {make_edge(v, j) for j in range(12)
                                                               if (j - v) % 12 not in (0, 1, 11)}))
                 for v in range(12)]
        walks = [(gen_random_points(10 + s % 3, s, 1000), s, 7 + s % 4) for s in range(24)]
        walks += [(gen_random_points(300, 1, 1 << 20), 1, 6), (gen_convex(300), 2, 4)]
        for ps, seed, steps in walks:
            start = initial_triangulation(ps)
            cases += [(ps, sorted(t.edges)) for t in (start, random_walk_triangulation(start, steps, seed))]
        for ps, edges in cases:
            items = list(build(ps, edges).apex.items())
            assert [e for e, _ in items] == edges
            assert items == list(reference_certificate_build(ps, edges).apex.items())
            assert list(build(ps, edges[::-1]).apex.items()) == items
            if len(ps) <= 12:  # the cubic reference takes about a second at 300 points
                assert assert_same_build(ps, edges)
        assert len(cases) == 12 + 2 * 26


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
    cubic collinearity loop, the exact fallback behind the float slopes, the
    all-pairs crossing test or an orientation test per face in build."""

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
        # distinct float slopes settle these sets without the exact fallback
        monkeypatch.setattr(geometry, "direction", _forbidden)
        assert len(PointSet.from_coords(convex)) == 300
        assert len(gen_random_points(300, 1, 1 << 20)) == 300

    @pytest.mark.parametrize("ps", [gen_convex(300), gen_random_points(300, 1, 1 << 20)],
                             ids=["convex", "random"])
    def test_build_orients_only_for_the_hull(self, ps, monkeypatch):
        # fresh copies: a point set keeps its hull once computed
        edges = sorted(initial_triangulation(ps).edges)
        calls = []
        for module in (geometry, triangulation):
            if hasattr(module, "orient"):
                monkeypatch.setattr(module, "orient", lambda *pqr: calls.append(pqr) or orient(*pqr))
        convex_hull_edges(PointSet(ps.points))
        hull_calls = len(calls)
        assert hull_calls >= len(ps)
        assert build(PointSet(ps.points), edges).edges == frozenset(edges)
        assert len(calls) == 2 * hull_calls  # none per edge or candidate face

    def test_parse_computes_the_hull_once(self, monkeypatch):
        ps = gen_random_points(300, 1, 1 << 20)
        start = initial_triangulation(ps)
        text = serialize(Instance(ps, start, random_walk_triangulation(start, 6, 1)))
        calls = []
        monkeypatch.setattr(geometry, "orient", lambda *pqr: calls.append(pqr) or orient(*pqr))
        convex_hull_edges(PointSet(ps.points))
        hull_calls = len(calls)
        inst = parse(text)  # builds the start and the target on one point set
        assert hull_calls > 0 and len(calls) == 2 * hull_calls
        assert convex_hull_edges(inst.ps) is convex_hull_edges(inst.ps)
        assert len(calls) == 2 * hull_calls


OPTIMIZED_SCRIPT = """
from flipdist import NotPlanar, PointSet, ValidationError, build, triangulation
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
try:
    PointSet.from_coords([(0, 0), (3, 1), (1, 5), (6, 2)])
except ValidationError as exc:
    print("ValidationError:", exc)
# two slopes from (0, 0) round to one float; the exact fallback accepts the set
print(len(PointSet.from_coords([(0, 0), (2 ** 30, 2 ** 30 - 1), (2 ** 30 - 1, 2 ** 30 - 2)])), "points")
"""


def test_crossing_rejected_under_python_O():
    src = str(Path(flipdist.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT], capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["NotPlanar: edges (0, 2) and (1, 3) cross", "AssertionError",
                                        "ValidationError: points 0, 1, 3 are collinear", "3 points"]
