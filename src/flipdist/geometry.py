"""Exact integer predicates over planar point sets.

All tests reduce to the sign of a 2x2 cross-product determinant.  With
coordinates capped at 2^30 in absolute value the determinant of any three
points fits comfortably in a signed 64-bit word, so every predicate here is
exact (this also keeps the compiled kernel overflow-free).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index
from typing import Iterable, Optional, Sequence

from .errors import ValidationError

# Keeps 3-point determinants within 2^62 < 2^63 - 1.
COORD_BOUND = 2**30


@dataclass(frozen=True)
class Point:
    """A planar point with a dense 0-based id and exact integer coordinates."""

    id: int
    x: int
    y: int


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of (q - p) x (r - p): +1 counterclockwise, -1 clockwise, 0 collinear."""
    det = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def direction(dx: int, dy: int) -> tuple[int, int]:
    """The line through p and q = p + (dx, dy) != p as a reduced integer
    direction with a fixed sign: for any r other than p, the points p, q, r
    are collinear iff direction(q - p) == direction(r - p)."""
    g = math.gcd(dx, dy)
    if dx < 0 or (dx == 0 and dy < 0):
        g = -g
    return dx // g, dy // g


def _slopes_distinct(x: int, y: int, coords: Sequence[tuple[int, int]]) -> bool:
    """True when the float slopes from (x, y), a point not in coords, to
    the points of coords are pairwise distinct, which proves no two of them
    on one line through (x, y).

    Differences of coordinates within 2^30 are exact doubles and division
    rounds correctly, so points on one line get equal float slopes (math.inf
    when vertical, 0.0 == -0.0): distinct slopes prove the lines distinct.
    """
    return len({(qy - y) / (qx - x) if qx != x else math.inf for qx, qy in coords}) == len(coords)


def _slope_repeat(xs: Sequence[int], ys: Sequence[int], start: int) -> int:
    """The first i >= start whose slopes to the later points are not
    distinct (:func:`_slopes_distinct`), or -1.  ``_core.slope_repeat`` is
    its compiled twin and returns the same index."""
    coords = list(zip(xs, ys))
    for i in range(start, len(coords)):
        if not _slopes_distinct(xs[i], ys[i], coords[i + 1:]):
            return i
    return -1


def _shared_line(x: int, y: int, coords: Sequence[tuple[int, int]]) -> Optional[tuple[int, int]]:
    """The first pair of positions j < k in ``coords`` whose points lie on one
    line through (x, y), a point not in coords, or None.

    Only a repeated float slope runs the exact :func:`direction` test.
    """
    if _slopes_distinct(x, y, coords):
        return None
    # first[d] is the first position in direction d; the smallest hit is the first pair
    first: dict[tuple[int, int], int] = {}
    hits = [(j, k) for k, (qx, qy) in enumerate(coords)
            if (j := first.setdefault(direction(qx - x, qy - y), k)) != k]
    return min(hits, default=None)


def segments_properly_cross(e1: tuple[Point, Point], e2: tuple[Point, Point]) -> bool:
    """True iff the open segments intersect; touching at endpoints does not count."""
    a, b = e1
    c, d = e2
    if orient(a, b, c) * orient(a, b, d) >= 0:
        return False
    return orient(c, d, a) * orient(c, d, b) < 0


class PointSet:
    """An ordered, validated collection of points in general position.

    Validation enforces: n >= 3, integer coordinates within +-2^30, all
    coordinate pairs distinct, and no three points collinear: the float
    slopes from each point to the later ones prove them on distinct lines
    unless two are equal, and only then are exact reduced directions
    compared (:func:`_shared_line`).  The slope screen that finds such a
    point is ``_core.slope_repeat`` when the compiled extension is loaded
    and :func:`_slope_repeat` otherwise; both return the same index, and
    the exact test and its messages are Python's either way.  A collinear
    input is reported by its lexicographically first triple.
    Degenerate inputs are rejected outright because flips across collinear
    quadrilaterals are undefined.  ``xs`` and ``ys`` are the coordinate
    tuples by id, which the flip predicate and ``build`` read.
    """

    __slots__ = ("points", "xs", "ys", "_hull")

    def __init__(self, points: Iterable[Point]):
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
        # no (x, y) tuple per point: set-up allocates fewer objects for the collector
        xs = tuple([index(p.x) for p in pts])
        ys = tuple([index(p.y) for p in pts])
        # at call time: _kernel imports this module through triangulation
        from ._kernel import _core
        repeat = _slope_repeat if _core is None else _core.slope_repeat
        i = -1
        while (i := repeat(xs, ys, i + 1)) >= 0:
            if pair := _shared_line(xs[i], ys[i], list(zip(xs[i + 1:], ys[i + 1:]))):
                j, k = pair
                raise ValidationError(f"points {i}, {i + 1 + j}, {i + 1 + k} are collinear")
        self.points = pts
        self.xs, self.ys = xs, ys
        self._hull: Optional[frozenset[tuple[int, int]]] = None  # filled by convex_hull_edges

    @classmethod
    def from_coords(cls, coords: Sequence[tuple[int, int]]) -> "PointSet":
        return cls(Point(i, index(x), index(y)) for i, (x, y) in enumerate(coords))

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"PointSet({len(self.points)} points)"

    def coords(self) -> list[tuple[int, int]]:
        return [(p.x, p.y) for p in self.points]


def convex_hull_edges(ps: PointSet) -> frozenset[tuple[int, int]]:
    """Edges of the convex hull of ``ps`` as canonical ``(a, b)`` index pairs, a < b.

    Andrew's monotone chain on the exact orientation predicate.  General
    position means no collinear hull chains, so the hull is unambiguous.
    A point set is immutable, so its hull is computed on the first call
    only and kept on it.
    """
    if ps._hull is not None:
        return ps._hull
    pts = sorted(ps.points, key=lambda p: (p.x, p.y))

    def half_chain(ordered: list[Point]) -> list[Point]:
        chain: list[Point] = []
        for p in ordered:
            while len(chain) >= 2 and orient(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half_chain(pts)
    upper = half_chain(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    edges = set()
    for i, p in enumerate(hull):
        q = hull[(i + 1) % len(hull)]
        edges.add((p.id, q.id) if p.id < q.id else (q.id, p.id))
    ps._hull = frozenset(edges)
    return ps._hull
