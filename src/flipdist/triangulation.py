r"""Triangulations of a planar point set and the edge-flip primitive.

A triangulation is stored as its canonical edge set plus the edge -> incident
triangles map.  Flipping an interior edge replaces the diagonal of the strictly
convex quadrilateral formed by its two triangles:

        c                 c
       / \               /|\
      / 1 \             / | \
     a-----b    ->     a 1|2 b        flip of (a,b) yields (c,d);
      \ 2 /             \ | /         the entries of the five edges of
       \ /               \|/          the quadrilateral change, no others.
        d                 d

Triangulation values are immutable: ``flip`` applies ``flip_step``, the O(1)
in-place change of an ``(edges, tri_of)`` pair, to C-level copies of the
input's, so search code may branch freely without undo bookkeeping.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import (
    BadIndex,
    EdgeAbsent,
    NotFlippable,
    NotMaximal,
    NotPlanar,
    PointSetMismatch,
    ValidationError,
)
from .geometry import PointSet, convex_hull_edges, orient, segments_properly_cross, strictly_convex_quad

Edge = tuple[int, int]
Triangle = tuple[int, int, int]
TriOf = dict[Edge, tuple[Triangle, ...]]


def make_edge(a: int, b: int) -> Edge:
    """Canonical (min, max) form."""
    return (a, b) if a < b else (b, a)


def make_triangle(u: int, v: int, w: int) -> Triangle:
    return tuple(sorted((u, v, w)))  # type: ignore[return-value]


@dataclass(frozen=True)
class FlipRecord:
    """One flip: the edge removed (underlying) and the edge inserted (resulting)."""

    underlying: Edge
    resulting: Edge

    def __post_init__(self):
        involved = set(self.underlying) | set(self.resulting)
        if self.underlying == self.resulting or len(involved) != 4:
            raise ValidationError(f"degenerate flip record {self.underlying} -> {self.resulting}")

    def __str__(self) -> str:
        (a, b), (c, d) = self.underlying, self.resulting
        return f"{a}-{b} -> {c}-{d}"


class Triangulation:
    """Immutable triangulation value.  Use :func:`build` to construct one
    from raw edges; ``flip`` produces derived values directly."""

    __slots__ = ("ps", "edges", "tri_of", "_key")

    def __init__(self, ps: PointSet, edges: frozenset[Edge], tri_of: TriOf):
        self.ps = ps
        self.edges = edges
        self.tri_of = tri_of
        self._key: Optional[bytes] = None

    @property
    def triangles(self) -> frozenset[Triangle]:
        return frozenset(t for tris in self.tri_of.values() for t in tris)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triangulation):
            return NotImplemented
        return self.ps == other.ps and self.edges == other.edges

    def __repr__(self) -> str:
        return f"Triangulation({len(self.ps)} points, {len(self.edges)} edges)"


def build(ps: PointSet, edge_list: Iterable[Edge]) -> Triangulation:
    """Validate an edge set and assemble the full triangulation value.

    Raises BadIndex for out-of-range endpoints and NotMaximal if the edge
    count differs from 3n - 3 - h.  With the count right, the edges form a
    triangulation iff no two properly cross, so NotPlanar is the only error
    left, and a local certificate decides it.  For each edge and side, the
    common neighbour of its endpoints angularly nearest to the edge gives a
    candidate face.  The edges are accepted iff every hull edge bounds one
    candidate and every other edge bounds two, one on each side.  Then each
    point of the hull is covered equally often (crossing an edge leaves one
    candidate and enters one), and once, as next to a hull edge: the
    candidates tile the hull, so no edges cross, and they are the faces.
    Only a rejected certificate runs the all-pairs crossing test, which
    names the first crossing pair.
    """
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

    pts = ps.points
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    triangles: set[Triangle] = set()
    for a, b in edges:
        pa, pb = pts[a], pts[b]
        apex = {1: -1, -1: -1}
        for w in adj[a] & adj[b]:
            side = orient(pa, pb, pts[w])
            # w is nearer to ab than the apex so far iff that apex lies past w around a
            if apex[side] < 0 or orient(pa, pts[w], pts[apex[side]]) == side:
                apex[side] = w
        triangles.update(make_triangle(a, b, w) for w in apex.values() if w >= 0)

    tri_of: dict[Edge, list[Triangle]] = {e: [] for e in edges}
    sides = dict.fromkeys(edges, 0)  # sum over incident candidates of the apex's side
    for tri in triangles:
        u, v, w = tri
        s = orient(pts[u], pts[v], pts[w])
        for e, side in (((u, v), s), ((u, w), -s), ((v, w), s)):
            tri_of[e].append(tri)
            sides[e] += side
    if not all(len(tris) == 1 if e in hull else len(tris) == 2 and sides[e] == 0
               for e, tris in tri_of.items()):
        ordered = sorted(edges)
        for i, e1 in enumerate(ordered):
            seg1 = (pts[e1[0]], pts[e1[1]])
            for e2 in ordered[i + 1:]:
                if segments_properly_cross(seg1, (pts[e2[0]], pts[e2[1]])):
                    raise NotPlanar(f"edges {e1} and {e2} cross")
        raise AssertionError("non-crossing maximal edge set failed the triangulation certificate")

    frozen = {e: tuple(sorted(tris)) for e, tris in tri_of.items()}
    return Triangulation(ps, frozenset(edges), frozen)


def _require_edge(tri: Triangulation, e: Edge) -> Edge:
    e = make_edge(*e)
    if e not in tri.edges:
        raise EdgeAbsent(f"edge {e} not in triangulation")
    return e


def quad_around(tri: Triangulation, e: Edge) -> Optional[tuple[int, int]]:
    """Apex vertices (min, max) of the two triangles at an interior edge,
    or None for a hull edge."""
    e = _require_edge(tri, e)
    tris = tri.tri_of[e]
    if len(tris) == 1:
        return None
    a, b = e
    apexes = [next(v for v in t if v != a and v != b) for t in tris]
    return (min(apexes), max(apexes))


def is_flippable(tri: Triangulation, e: Edge) -> bool:
    """An edge flips iff it is interior and its quadrilateral is strictly convex."""
    quad = quad_around(tri, e)
    if quad is None:
        return False
    a, b = make_edge(*e)
    c, d = quad
    ps = tri.ps
    return strictly_convex_quad(ps[a], ps[c], ps[b], ps[d])


def flip_step(ps: PointSet, edges: set[Edge], tri_of: TriOf, e: Edge) -> Optional[Edge]:
    """Flip edge e of an (edges, tri_of) pair in place, in O(1), and return
    the edge inserted; or return None, changing nothing, when e is not a
    canonical edge of the pair or does not flip (see ``is_flippable``)."""
    tris = tri_of.get(e)
    if tris is None or len(tris) != 2:
        return None
    a, b = e
    gone = {sum(t) - a - b: t for t in tris}  # apex -> its triangle
    c, d = sorted(gone)
    if not strictly_convex_quad(ps[a], ps[c], ps[b], ps[d]):
        return None
    born = {a: make_triangle(a, c, d), b: make_triangle(b, c, d)}
    for x, y in ((a, c), (b, c), (a, d), (b, d)):
        side = make_edge(x, y)
        tri_of[side] = tuple(sorted([born[x] if t == gone[y] else t for t in tri_of[side]]))
    del tri_of[e]
    tri_of[(c, d)] = (born[a], born[b])  # sorted, as a < b
    edges.remove(e)
    edges.add((c, d))
    return c, d


def flip(tri: Triangulation, e: Edge) -> tuple[Triangulation, FlipRecord]:
    """Replace diagonal e with the opposite diagonal of its quadrilateral."""
    e = _require_edge(tri, e)
    edges, tri_of = set(tri.edges), dict(tri.tri_of)
    new_edge = flip_step(tri.ps, edges, tri_of, e)
    if new_edge is None:
        raise NotFlippable(f"edge {e} is not flippable")
    return Triangulation(tri.ps, frozenset(edges), tri_of), FlipRecord(e, new_edge)


def edge_neighbors(tri: Triangulation, e: Edge) -> list[Edge]:
    """The other edges of e's incident triangles, in a fixed deterministic
    order: triangles sorted by canonical triple, then the two non-e edges of
    each triangle in lexicographic order.  Length 2 for hull edges, 4 for
    interior ones.  This order is what gives move directions their meaning
    in the search, so it must never change.
    """
    e = _require_edge(tri, e)
    a, b = e
    out: list[Edge] = []
    for t in tri.tri_of[e]:  # already sorted canonically
        w = next(v for v in t if v != a and v != b)
        out.extend(sorted((make_edge(a, w), make_edge(b, w))))
    return out


def necessary_edges(tri: Triangulation, target: Triangulation) -> list[Edge]:
    """Edges of ``tri`` absent from ``target``, sorted lexicographically.
    Each of these must be flipped at some point to reach the target."""
    if tri.ps != target.ps:
        raise PointSetMismatch("triangulations are over different point sets")
    return sorted(tri.edges - target.edges)


def canonical_key(tri: Triangulation) -> bytes:
    """Content key: the sorted edge list packed to bytes.  Equal keys iff
    equal edge sets; used for BFS deduplication."""
    if tri._key is None:
        tri._key = b"".join(struct.pack("<II", a, b) for a, b in sorted(tri.edges))
    return tri._key
