import random

import pytest

from flipdist.errors import (
    BadIndex,
    EdgeAbsent,
    NotFlippable,
    NotMaximal,
    NotPlanar,
    ValidationError,
)
from flipdist.geometry import convex_hull_edges
from flipdist.instances import gen_convex, gen_random_points, initial_triangulation
from flipdist.triangulation import (
    FlipRecord,
    build,
    canonical_key,
    edge_neighbors,
    flip,
    is_flippable,
)

SQUARE_HULL = [(0, 1), (1, 2), (2, 3), (0, 3)]


def pentagon_fan():
    ps = gen_convex(5)
    return ps, build(ps, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (0, 3)])


class TestBuild:
    def test_square_with_diagonal(self, square_ps):
        tri = build(square_ps, SQUARE_HULL + [(0, 2)])
        assert tri.edges == {(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)}
        assert tri.triangles == {(0, 1, 2), (0, 2, 3)}

    def test_hull_only_not_maximal(self, square_ps):
        with pytest.raises(NotMaximal):
            build(square_ps, SQUARE_HULL)

    def test_pentagon_fan_counts(self):
        ps, tri = pentagon_fan()
        assert len(tri.edges) == 3 * 5 - 3 - 5 == 7
        assert len(tri.triangles) == 2 * 5 - 2 - 5 == 3

    def test_bad_index(self, square_ps):
        with pytest.raises(BadIndex):
            build(square_ps, SQUARE_HULL + [(0, 9)])
        with pytest.raises(BadIndex):
            build(square_ps, SQUARE_HULL + [(2, 2)])

    def test_crossing_edges(self, square_ps):
        # right count, but both diagonals in place of one hull edge
        with pytest.raises(NotPlanar):
            build(square_ps, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])

    def test_duplicate_edges_collapse(self, square_ps):
        # (2, 0) canonicalizes to (0, 2); the set build deduplicates them
        tri = build(square_ps, SQUARE_HULL + [(0, 2), (2, 0)])
        assert tri == build(square_ps, SQUARE_HULL + [(0, 2)])

    def test_euler_counts_on_random_sets(self):
        for seed in range(4):
            ps = gen_random_points(8, seed, 500)
            tri = initial_triangulation(ps)
            h = len(convex_hull_edges(ps))
            assert len(tri.edges) == 3 * 8 - 3 - h
            assert len(tri.triangles) == 2 * 8 - 2 - h


class TestIsFlippable:
    def test_square_diagonal(self, square_tris):
        assert is_flippable(square_tris[0], (0, 2))

    def test_hull_edges_never(self, square_tris):
        for e in SQUARE_HULL:
            assert not is_flippable(square_tris[0], e)

    def test_pentagon_fan_interior(self):
        _, tri = pentagon_fan()
        assert is_flippable(tri, (0, 2))

    def test_pinned_point_blocks_all_flips(self, pinned_tri):
        # one point inside a triangle: every interior edge has a reflex quad
        assert not any(is_flippable(pinned_tri, e) for e in pinned_tri.edges)


class TestFlip:
    def test_square(self, square_tris):
        with_02, with_13 = square_tris
        flipped, rec = flip(with_02, (0, 2))
        assert flipped == with_13
        assert rec == FlipRecord(underlying=(0, 2), resulting=(1, 3))

    def test_involution(self, square_tris):
        flipped, rec = flip(square_tris[0], (0, 2))
        back, rec2 = flip(flipped, rec.resulting)
        assert back == square_tris[0]
        assert rec2 == FlipRecord(underlying=(1, 3), resulting=(0, 2))
        assert canonical_key(back) == canonical_key(square_tris[0])

    def test_pentagon_fan_matches_rebuild(self):
        ps, tri = pentagon_fan()
        flipped, rec = flip(tri, (0, 2))
        assert rec.resulting == (1, 3)
        assert len(flipped.edges) == 7
        assert flipped == build(ps, sorted(flipped.edges))

    def test_not_flippable_hull(self, square_tris):
        with pytest.raises(NotFlippable):
            flip(square_tris[0], (0, 1))

    def test_not_flippable_reflex(self, pinned_tri):
        with pytest.raises(NotFlippable):
            flip(pinned_tri, (0, 3))

    def test_locality(self):
        ps, tri = pentagon_fan()
        flipped, rec = flip(tri, (0, 3))
        assert tri.edges - flipped.edges == {rec.underlying}
        assert flipped.edges - tri.edges == {rec.resulting}
        assert len(tri.triangles - flipped.triangles) == 2
        assert len(flipped.triangles - tri.triangles) == 2

    def test_record_rejects_degenerate(self):
        with pytest.raises(ValidationError):
            FlipRecord(underlying=(0, 2), resulting=(0, 2))
        with pytest.raises(ValidationError):
            FlipRecord(underlying=(0, 2), resulting=(0, 3))


class TestEdgeNeighbors:
    def test_square_diagonal(self, square_tris):
        assert edge_neighbors(square_tris[0], (0, 2)) == [(0, 1), (1, 2), (0, 3), (2, 3)]

    def test_square_hull_edge(self, square_tris):
        assert edge_neighbors(square_tris[0], (0, 1)) == [(0, 2), (1, 2)]

    def test_pentagon_fan(self):
        _, tri = pentagon_fan()
        assert edge_neighbors(tri, (0, 2)) == [(0, 1), (1, 2), (0, 3), (2, 3)]

    def test_absent_edge(self, square_tris):
        with pytest.raises(EdgeAbsent):
            edge_neighbors(square_tris[0], (1, 3))

    def test_order_matches_triangle_enumeration(self):
        # independent derivation from the triangle set alone
        for seed in range(4):
            ps = gen_random_points(9, seed, 500)
            tri = initial_triangulation(ps)
            for e in sorted(tri.edges):
                a, b = e
                incident = sorted(t for t in tri.triangles if a in t and b in t)
                want = []
                for t in incident:
                    want.extend(sorted(
                        tuple(sorted((u, v))) for u in t for v in t
                        if u < v and tuple(sorted((u, v))) != e))
                assert edge_neighbors(tri, e) == want


class TestCanonicalKey:
    def test_input_order_irrelevant(self, square_ps):
        a = build(square_ps, SQUARE_HULL + [(0, 2)])
        b = build(square_ps, [(0, 2)] + SQUARE_HULL[::-1])
        assert canonical_key(a) == canonical_key(b)

    def test_flip_changes_key(self, square_tris):
        flipped, _ = flip(square_tris[0], (0, 2))
        assert canonical_key(flipped) != canonical_key(square_tris[0])

    def test_involution_restores_key(self, square_tris):
        flipped, rec = flip(square_tris[0], (0, 2))
        back, _ = flip(flipped, rec.resulting)
        assert canonical_key(back) == canonical_key(square_tris[0])


class TestFlipWalkInvariants:
    def test_long_random_walks_preserve_structure(self):
        rng = random.Random(7)
        for n, seed in [(7, 1), (9, 2), (11, 3)]:
            ps = gen_random_points(n, seed, 900)
            tri = initial_triangulation(ps)
            h = len(convex_hull_edges(ps))
            for _ in range(60):
                options = [e for e in sorted(tri.edges) if is_flippable(tri, e)]
                e = rng.choice(options)
                nxt, rec = flip(tri, e)
                assert len(nxt.edges) == 3 * n - 3 - h
                assert len(nxt.triangles) == 2 * n - 2 - h
                assert rec.underlying == e and rec.resulting in nxt.edges
                back, _ = flip(nxt, rec.resulting)
                assert back == tri
                tri = nxt
