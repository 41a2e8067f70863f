import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipdist import geometry
from flipdist.errors import ValidationError
from flipdist.geometry import (
    COORD_BOUND,
    Point,
    PointSet,
    convex_hull_edges,
    orient,
    segments_properly_cross,
)
from flipdist.instances import gen_convex, gen_random_points

from conftest import strictly_convex_quad


def P(x, y, pid=0):
    return Point(pid, x, y)


coord = st.integers(min_value=-1000, max_value=1000)
point = st.builds(P, coord, coord)


class TestOrient:
    def test_counterclockwise(self):
        assert orient(P(0, 0), P(1, 0), P(0, 1)) == 1

    def test_clockwise(self):
        assert orient(P(0, 0), P(0, 1), P(1, 0)) == -1

    def test_collinear(self):
        assert orient(P(0, 0), P(1, 1), P(2, 2)) == 0

    @given(point, point, point)
    @settings(max_examples=200)
    def test_antisymmetric_under_swaps(self, p, q, r):
        s = orient(p, q, r)
        assert orient(q, p, r) == -s
        assert orient(p, r, q) == -s
        assert orient(r, q, p) == -s

    @given(point, point, point)
    @settings(max_examples=200)
    def test_cyclic_invariance(self, p, q, r):
        assert orient(p, q, r) == orient(q, r, p) == orient(r, p, q)

    def test_exact_at_coordinate_bound(self):
        b = COORD_BOUND
        # a barely-clockwise triple that floats would misjudge
        assert orient(P(-b, -b), P(b, b), P(b - 1, b)) == 1
        assert orient(P(-b, -b), P(b, b), P(b, b - 1)) == -1


class TestStrictlyConvexQuad:
    """The reference predicate in conftest that the oracle and replay tests
    check the library's flip rule against."""

    def test_unit_square(self):
        assert strictly_convex_quad(P(0, 0), P(1, 0), P(1, 1), P(0, 1))

    def test_reflex_quad(self):
        # (1,1) lies inside triangle (0,0),(2,0),(1,3)
        assert not strictly_convex_quad(P(0, 0), P(2, 0), P(1, 1), P(1, 3))

    def test_collinear_triple_rejected(self):
        assert not strictly_convex_quad(P(0, 0), P(2, 0), P(4, 0), P(1, 5))

    def test_rotation_and_reversal_invariance(self):
        quad = [P(0, 0), P(5, 1), P(6, 7), P(-1, 5)]
        expected = strictly_convex_quad(*quad)
        for shift in range(4):
            rotated = quad[shift:] + quad[:shift]
            assert strictly_convex_quad(*rotated) == expected
            assert strictly_convex_quad(*rotated[::-1]) == expected

    def test_crossing_order_is_not_convex(self):
        # same four corners, non-cyclic order
        assert not strictly_convex_quad(P(0, 0), P(1, 1), P(1, 0), P(0, 1))


class TestSegmentsProperlyCross:
    def test_x_crossing(self):
        assert segments_properly_cross((P(0, 0), P(2, 2)), (P(0, 2), P(2, 0)))

    def test_shared_endpoint(self):
        assert not segments_properly_cross((P(0, 0), P(1, 1)), (P(1, 1), P(2, 0)))

    def test_disjoint(self):
        assert not segments_properly_cross((P(0, 0), P(1, 0)), (P(3, 0), P(4, 1)))

    def test_endpoint_touching_interior(self):
        assert not segments_properly_cross((P(0, 0), P(4, 0)), (P(2, 0), P(2, 5)))

    def test_symmetric(self):
        e1, e2 = (P(0, 0), P(3, 3)), (P(0, 3), P(3, 0))
        assert segments_properly_cross(e1, e2) == segments_properly_cross(e2, e1)


class TestPointSet:
    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            PointSet.from_coords([(0, 0), (1, 0)])

    def test_non_dense_ids(self):
        with pytest.raises(ValidationError):
            PointSet([Point(0, 0, 0), Point(2, 1, 0), Point(1, 0, 1)])

    def test_duplicate_coordinates(self):
        with pytest.raises(ValidationError):
            PointSet.from_coords([(0, 0), (1, 1), (0, 0)])

    def test_collinear_triple(self):
        with pytest.raises(ValidationError):
            PointSet.from_coords([(0, 0), (1, 1), (2, 2), (5, 0)])

    def test_coordinate_bound(self):
        with pytest.raises(ValidationError):
            PointSet.from_coords([(0, 0), (1, 0), (0, COORD_BOUND + 1)])
        assert len(PointSet.from_coords([(0, 0), (1, 0), (0, COORD_BOUND)])) == 3

    def test_equality_and_hash(self):
        a = PointSet.from_coords([(0, 0), (1, 0), (0, 1)])
        b = PointSet.from_coords([(0, 0), (1, 0), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != PointSet.from_coords([(0, 0), (1, 0), (1, 1)])


def hull_oracle(ps: PointSet) -> set[tuple[int, int]]:
    """Brute force: (i, j) is a hull edge iff all other points are strictly
    on one side."""
    n = len(ps)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            signs = {orient(ps[i], ps[j], ps[k]) for k in range(n) if k not in (i, j)}
            if signs <= {1} or signs <= {-1}:
                edges.add((i, j))
    return edges


class TestConvexHullEdges:
    def test_triangle(self):
        ps = PointSet.from_coords([(0, 0), (3, 0), (1, 2)])
        assert convex_hull_edges(ps) == {(0, 1), (0, 2), (1, 2)}

    @pytest.mark.parametrize("coords", [[(0, 0), (1, -2), (3, 0)], [(3, 0), (0, 0), (1, 2)],
                                        [(1, 2), (1, -2), (0, 0)]])
    def test_triangles_either_way_round(self, coords):
        assert convex_hull_edges(PointSet.from_coords(coords)) == {(0, 1), (0, 2), (1, 2)}

    def test_computed_once_per_point_set(self, monkeypatch):
        ps = gen_random_points(30, 2, 1000)
        calls = []
        monkeypatch.setattr(geometry, "orient", lambda *pqr: calls.append(pqr) or orient(*pqr))
        hull = convex_hull_edges(ps)
        assert isinstance(hull, frozenset) and hull == hull_oracle(ps) and calls
        first = len(calls)
        assert convex_hull_edges(ps) is hull and len(calls) == first
        assert convex_hull_edges(PointSet(ps.points)) == hull and len(calls) == 2 * first

    def test_square(self):
        ps = PointSet.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert convex_hull_edges(ps) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_parabola_five_points(self):
        got = convex_hull_edges(gen_convex(5))
        assert got == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}

    def test_interior_point_excluded(self):
        ps = PointSet.from_coords([(0, 0), (10, 0), (5, 9), (5, 3)])
        assert convex_hull_edges(ps) == {(0, 1), (0, 2), (1, 2)}

    @pytest.mark.parametrize("n,seed", [(5, 0), (6, 1), (8, 2), (10, 3), (12, 4)])
    def test_matches_brute_force(self, n, seed):
        ps = gen_random_points(n, seed, 60)
        assert convex_hull_edges(ps) == hull_oracle(ps)

    def test_convex_position_all_on_hull(self):
        assert len(convex_hull_edges(gen_convex(20))) == 20
