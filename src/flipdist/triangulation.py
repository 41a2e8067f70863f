r"""Triangulations of a planar point set and the edge-flip primitive.

A triangulation is stored as its apex map alone: each canonical edge (a, b)
maps to (c, d), the third vertices of its two triangles, with c < d, or to
(c, -1) when the edge is on the hull.  These are the (a, b, c, d) rows both
search kernels read, and the edge set is the map's keys.  Flipping an
interior edge replaces the diagonal of the strictly convex quadrilateral
around it:

        c                 c
       / \               /|\
      /   \             / | \
     a-----b    ->     a  |  b        flip of (a,b) yields (c,d), whose
      \   /             \ | /         apexes are (a,b); each of the four
       \ /               \|/          sides ac, bc, ad, bd swaps one apex
        d                 d           (b for d, or a for c), no others.

This is Python's one flip rule: ``_flips_into`` decides whether an edge
flips and into which diagonal, and ``_apply_flip`` makes the O(1) in-place
change, which the same call on the created edge undoes.  Replay, the oracle,
``flip`` and the pure search kernel all flip through it, and ``_apply_flip``
raises AssertionError on a map that contradicts itself.

Triangulation values are immutable: ``flip`` applies ``flip_step`` to a
C-level copy of the input's map, so callers may branch freely without undo
bookkeeping.  The map is the only stored state, and ``edges`` is a live view
of its keys, so no code may mutate a triangulation's map or hand one map to
two values.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, KeysView, Optional, Sequence

from .errors import (
    BadIndex,
    EdgeAbsent,
    NotFlippable,
    NotMaximal,
    NotPlanar,
    ValidationError,
)
from .geometry import PointSet, convex_hull_edges, segments_properly_cross

Edge = tuple[int, int]
Triangle = tuple[int, int, int]
ApexMap = dict[Edge, tuple[int, int]]


def make_edge(a: int, b: int) -> Edge:
    """Canonical (min, max) form."""
    return (a, b) if a < b else (b, a)


def _make_triangle(u: int, v: int, w: int) -> Triangle:
    return tuple(sorted((u, v, w)))  # type: ignore[return-value]


@dataclass(frozen=True)
class FlipRecord:
    """One flip: the edge removed (underlying) and the edge inserted (resulting)."""

    underlying: Edge
    resulting: Edge

    def __post_init__(self):
        if self.underlying == self.resulting or len({*self.underlying, *self.resulting}) != 4:
            raise ValidationError(f"degenerate flip record {self.underlying} -> {self.resulting}")

    def __str__(self) -> str:
        (a, b), (c, d) = self.underlying, self.resulting
        return f"{a}-{b} -> {c}-{d}"


class Triangulation:
    """Immutable triangulation value.  Use :func:`build` to construct one
    from raw edges; ``flip`` produces derived values directly."""

    __slots__ = ("ps", "apex")

    def __init__(self, ps: PointSet, apex: ApexMap):
        self.ps = ps
        self.apex = apex

    @property
    def edges(self) -> KeysView[Edge]:
        """The canonical edges, as a read-only set-like view of the apex map."""
        return self.apex.keys()

    @property
    def triangles(self) -> frozenset[Triangle]:
        return frozenset(_make_triangle(a, b, w) for (a, b), pair in self.apex.items()
                         for w in pair if w >= 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triangulation):
            return NotImplemented
        return self.ps == other.ps and self.apex.keys() == other.apex.keys()

    def __repr__(self) -> str:
        return f"Triangulation({len(self.ps)} points, {len(self.edges)} edges)"


def _apex_rows(xs: Sequence[int], ys: Sequence[int], ordered: Sequence[Edge],
               hull: frozenset[Edge]) -> tuple[list[tuple[int, int]], int]:
    """The certificate of :func:`build` over sorted canonical edges in
    general position: each edge's apex row (c, d), as the map stores it, in
    ``ordered`` order, and the number of distinct entries its sides list,
    real faces and placeholders together.  ``_core.apex_rows`` is its
    compiled twin and returns the same values."""
    adj: list[set[int]] = [set() for _ in range(len(xs))]
    for a, b in ordered:
        adj[a].add(b)
        adj[b].add(a)
    rows: list[tuple[int, int]] = []
    faces: set[Triangle] = set()  # and placeholders: (-1, a, b) if c < 0, (-2, a, b) if d < 0
    for a, b in ordered:
        xa, ya = xs[a], ys[a]
        dx, dy = xs[b] - xa, ys[b] - ya
        c = d = -1  # the nearest common neighbours left and right of a -> b so far
        for w in adj[a] & adj[b]:
            ux, uy = xs[w] - xa, ys[w] - ya
            # w is nearer to ab than the apex so far iff that apex lies past w around a
            if dx * uy > dy * ux:  # left; never collinear in general position
                if c < 0 or ux * cy > uy * cx:
                    c, cx, cy = w, ux, uy
            elif d < 0 or ux * ey < uy * ex:
                d, ex, ey = w, ux, uy
        if c < 0 or 0 <= d < c:
            c, d = d, c
        rows.append((c, d))
        faces.add((a, b, c) if b < c else (a, c, b) if a < c else (c, a, b))
        if d >= 0:
            faces.add((a, b, d) if b < d else (a, d, b) if a < d else (d, a, b))
        elif (a, b) not in hull:
            faces.add((-2, a, b))
    return rows, len(faces)


def build(ps: PointSet, edge_list: Iterable[Edge]) -> Triangulation:
    """Validate an edge set and assemble the full triangulation value.

    Raises BadIndex for out-of-range endpoints and NotMaximal unless there
    are m = 3n - 3 - h edges; then they form a triangulation iff no two
    cross, and a local certificate decides it.  Each side of an edge lists
    its candidate face, from its ends' common neighbour angularly nearest to
    it there, or a placeholder no other side lists; a hull edge's outer side
    lists nothing.  A real face is listed at most once by each of its sides
    and by no other edge, so with h' hull edges present and p placeholders,
    3 * |faces| >= 2m - h' + 2p, with equality iff all three sides list each
    real face.  So the certificate, 3 * |faces| == 2m - h, holds iff h' = h,
    p = 0 and that equality hold, as in a triangulation.  Then the candidates
    cover the hull once (crossing an edge leaves one and enters one), so
    they are the faces and no edges cross.  Only a failed certificate runs
    the all-pairs crossing test, which names the first crossing pair.

    The rows and the count come from ``_core.apex_rows`` when the compiled
    extension is loaded and from :func:`_apex_rows` otherwise; both return
    the same values, and every check, message and fallback here is Python's
    either way.  The map lists the edges in sorted order, keyed by the
    caller's own tuples where they are plain canonical ones.
    """
    n = len(ps)
    edges: dict[Edge, None] = {}  # insertion order: a sorted input stays sorted, and sorts in O(n)
    for e in edge_list:
        a, b = e
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise BadIndex(f"bad edge ({a}, {b}) for {n} points")
        if a > b or type(e) is not tuple:  # else key by the caller's tuple: one allocation less
            e = (a, b) if a < b else (b, a)
        edges[e] = None

    hull = convex_hull_edges(ps)
    if len(edges) != (expected := 3 * n - 3 - len(hull)):
        raise NotMaximal(f"{len(edges)} edges, expected 3n-3-h = {expected}")
    # at call time: _kernel imports this module
    from ._kernel import _core
    certificate = _apex_rows if _core is None else _core.apex_rows
    rows, listed = certificate(ps.xs, ps.ys, ordered := sorted(edges), hull)
    if 3 * listed != 2 * len(edges) - len(hull):
        pts = ps.points
        for e1, e2 in combinations(ordered, 2):
            if segments_properly_cross((pts[e1[0]], pts[e1[1]]), (pts[e2[0]], pts[e2[1]])):
                raise NotPlanar(f"edges {e1} and {e2} cross")
        raise AssertionError("non-crossing maximal edge set failed the triangulation certificate")
    return Triangulation(ps, dict(zip(ordered, rows)))


def _require_edge(tri: Triangulation, e: Edge) -> Edge:
    e = make_edge(*e)
    if e not in tri.apex:
        raise EdgeAbsent(f"edge {e} not in triangulation")
    return e


def _quad_sides(e: Edge, c: int, d: int) -> list[Edge]:
    """The sides (a, c), (b, c), (a, d), (b, d) of the quadrilateral around
    e = (a, b) with apexes c < d, canonical; only the first two when d < 0."""
    a, b = e
    return [make_edge(x, y) for y in (c, d) if y >= 0 for x in (a, b)]


def _flips_into(xs: Sequence[int], ys: Sequence[int], apex: ApexMap, e: Edge) -> Optional[Edge]:
    """The diagonal that canonical edge e of the apex map flips into: the
    other diagonal of its quadrilateral, or None when e is a hull edge or the
    quadrilateral is not strictly convex.  ``xs``, ``ys`` are the point
    set's coordinate tuples."""
    c, d = apex[e]
    if d < 0:
        return None
    a, b = e
    xc, yc = xs[c], ys[c]
    dx, dy = xs[d] - xc, ys[d] - yc
    # c, d lie on opposite sides of e: convex iff e's ends lie strictly on opposite sides of cd
    cross = (dx * (ys[a] - yc) - dy * (xs[a] - xc)) * (dx * (ys[b] - yc) - dy * (xs[b] - xc))
    return (c, d) if cross < 0 else None


def is_flippable(tri: Triangulation, e: Edge) -> bool:
    """An edge flips iff it is interior and its quadrilateral is strictly convex."""
    ps = tri.ps
    return _flips_into(ps.xs, ps.ys, tri.apex, _require_edge(tri, e)) is not None


def _apply_flip(apex: ApexMap, e: Edge, g: Edge) -> tuple[Edge, Edge, Edge, Edge]:
    """Flip e into g, its ``_flips_into`` result, in place; return the four
    sides in ``_quad_sides`` order.  ``_apply_flip(apex, g, e)`` undoes it
    exactly, as apex[g] is then e.  A side whose pair lacks the apex it
    replaces contradicts the map and raises AssertionError, as a missing side
    raises KeyError; both are plain raises, so ``python -O`` keeps them.
    Written out side by side, as this step runs for every flip of every
    replay, oracle child and pure-kernel search node."""
    a, b = e
    c, d = g
    ac = (a, c) if a < c else (c, a)
    bc = (b, c) if b < c else (c, b)
    ad = (a, d) if a < d else (d, a)
    bd = (b, d) if b < d else (d, b)
    # side ac's triangle abc becomes acd, so its apex b becomes d; likewise bc, ad, bd.
    # The replaced apex is the first of the pair, or the second, which is then not -1.
    x, y = apex[ac]
    if x == b:
        apex[ac] = (d, y) if y < 0 or d < y else (y, d)
    elif y == b:
        apex[ac] = (x, d) if x < d else (d, x)
    else:
        raise AssertionError("apex table corrupted")
    x, y = apex[bc]
    if x == a:
        apex[bc] = (d, y) if y < 0 or d < y else (y, d)
    elif y == a:
        apex[bc] = (x, d) if x < d else (d, x)
    else:
        raise AssertionError("apex table corrupted")
    x, y = apex[ad]
    if x == b:
        apex[ad] = (c, y) if y < 0 or c < y else (y, c)
    elif y == b:
        apex[ad] = (x, c) if x < c else (c, x)
    else:
        raise AssertionError("apex table corrupted")
    x, y = apex[bd]
    if x == a:
        apex[bd] = (c, y) if y < 0 or c < y else (y, c)
    elif y == a:
        apex[bd] = (x, c) if x < c else (c, x)
    else:
        raise AssertionError("apex table corrupted")
    del apex[e]
    apex[g] = e
    return ac, bc, ad, bd


def flip_step(ps: PointSet, apex: ApexMap, e: Edge) -> Optional[Edge]:
    """Flip edge e of an apex map in place, in O(1), and return the edge
    inserted; or return None, changing nothing, when e is not a canonical
    edge of the map or does not flip (``_flips_into``, then ``_apply_flip``)."""
    if e not in apex or (g := _flips_into(ps.xs, ps.ys, apex, e)) is None:
        return None
    _apply_flip(apex, e, g)
    return g


def flip(tri: Triangulation, e: Edge) -> tuple[Triangulation, FlipRecord]:
    """Replace diagonal e with the opposite diagonal of its quadrilateral."""
    e = _require_edge(tri, e)
    apex = tri.apex.copy()
    new_edge = flip_step(tri.ps, apex, e)
    if new_edge is None:
        raise NotFlippable(f"edge {e} is not flippable")
    return Triangulation(tri.ps, apex), FlipRecord(e, new_edge)


def edge_neighbors(tri: Triangulation, e: Edge) -> list[Edge]:
    """The other edges of e's incident triangles, in a fixed deterministic
    order: the quadrilateral's sides as ``_quad_sides`` lists them, which is
    the triangles sorted by canonical triple, then the two non-e edges of
    each triangle in lexicographic order.  Length 2 for hull edges, 4 for
    interior ones.  This order is what gives move directions their meaning
    in the search, so it must never change.
    """
    e = _require_edge(tri, e)
    return _quad_sides(e, *tri.apex[e])


def canonical_key(tri: Triangulation) -> bytes:
    """Content key: the sorted edge list packed to bytes.  Equal keys iff
    equal edge sets; used to list a flip graph's states in a fixed order."""
    return b"".join(struct.pack("<II", a, b) for a, b in sorted(tri.apex))
