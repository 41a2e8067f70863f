"""Brute-force ground truth for flip distance.

Breadth-first search over the flip graph, whose vertices are the
triangulations of the point set and whose edges are single flips.  The graph
is connected, so BFS from any seed reaches everything; it is also
combinatorially explosive, which is why ``bfs_distance`` takes a hard depth
cap instead of running unbounded.

A BFS state is keyed by the edges in which it differs from the start: each
call gives an edge the next free bit of an int when it first sees the edge,
and a key is the XOR of the bits of ``T Δ start``.  Flipping ``e`` into ``g``
maps key ``k`` to ``k ^ bit(e) ^ bit(g)``, so a neighbour's key costs no
``flip``, and keys grow with the edges the search touched, not with n^2.

Each state carries its move table, {flippable edge e: edge g it flips into}.
A child copies its parent's, maps ``g`` back to ``e`` (the new diagonal
always flips back) and tests again only the four sides of the flipped
quadrilateral, the only edges whose triangles changed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import PointSetMismatch
from .flipdag import FlipSequence
from .geometry import PointSet
from .triangulation import Edge, FlipRecord, Triangulation, _flips_into, _quad_sides, canonical_key, flip


@dataclass(frozen=True)
class FlipGraphStats:
    """Order, exact diameter, and the ordered-pair distance histogram of a
    flip graph.  The histogram counts all order^2 pairs, distance 0 included."""

    order: int
    diameter: int
    distance_histogram: dict[int, int]


def _move_table(tri: Triangulation) -> dict[Edge, Edge]:
    """The move table of tri: {flippable edge e: the edge g it flips into}."""
    pts, apex = tri.ps.points, tri.apex
    return {e: g for e in apex if (g := _flips_into(pts, apex, e)) is not None}


def _flip_with_moves(tri: Triangulation, e: Edge,
                     moves: dict[Edge, Edge]) -> tuple[Triangulation, dict[Edge, Edge]]:
    """flip(tri, e) and its move table, from tri's table ``moves``.  The new
    diagonal g flips back into e, and only the four sides of the quadrilateral
    change triangles, so only they are tested again."""
    child = flip(tri, e)[0]
    out = dict(moves)
    g = out.pop(e)
    out[g] = e
    for side in _quad_sides(e, *g):
        if (h := _flips_into(child.ps.points, child.apex, side)) is None:
            out.pop(side, None)
        else:
            out[side] = h
    return child, out


# One BFS level entry: the state with ``key`` is flip(parent, edge) and moves is
# parent's move table, or the root ``parent`` itself when edge and moves are None.
_Entry = tuple[Triangulation, Optional[Edge], int, Optional[dict[Edge, Edge]]]
# key -> (parent key, edge flipped in the parent, edge it inserted); None at the root
_Seen = dict[int, Optional[tuple[int, Edge, Edge]]]


def _chain(seen: _Seen, key: int) -> list[tuple[Edge, Edge]]:
    """The (flipped, inserted) edge pairs on the parent chain from ``key`` up
    to its side's root, nearest to ``key`` first."""
    out = []
    while (step := seen[key]) is not None:
        key, e, g = step
        out.append((e, g))
    return out


def bfs_distance(t_start: Triangulation, t_end: Triangulation,
                 cap: int) -> Optional[tuple[int, FlipSequence]]:
    """Exact flip distance with one shortest witness, or None if it exceeds cap.

    Bidirectional, level-synchronous BFS over the keys and move tables of
    the module docstring.  Each round expands every state of the smaller
    frontier (the start side on a tie) and stops at the first key the other
    side has seen.  Before the round the balls of radius d_s around the start
    and d_t around the target were disjoint, so the distance exceeds
    d_s + d_t, while the path through the meeting key has length at most
    d_s + 1 + d_t: it is shortest.  The search gives up once d_s + d_t
    reaches cap.  A state is built with ``flip``, and its move table updated
    at the four sides of that flip, only when its level is expanded, so the
    last level is never built.  The witness is the forward parent chain from
    the start, then the backward chain to the target, read off the stored
    (flipped, inserted) pairs.
    """
    if t_start.ps != t_end.ps:
        raise PointSetMismatch("triangulations are over different point sets")
    bits: dict[Edge, int] = {}  # edge -> its bit, the next free one at first sight
    end_key = 0
    for e in t_start.edges ^ t_end.edges:
        end_key |= bits.setdefault(e, 1 << len(bits))
    if end_key == 0:
        return 0, FlipSequence(start=t_start, flips=())

    seen: tuple[_Seen, _Seen] = ({0: None}, {end_key: None})
    levels: list[list[_Entry]] = [[(t_start, None, 0, None)], [(t_end, None, end_key, None)]]
    depth = [0, 0]
    while depth[0] + depth[1] < cap:
        side = 0 if len(levels[0]) <= len(levels[1]) else 1
        mine, other = seen[side], seen[1 - side]
        nxt_level: list[_Entry] = []
        for parent, edge, key, moves in levels[side]:
            if edge is None:
                tri, moves = parent, _move_table(parent)
            else:
                tri, moves = _flip_with_moves(parent, edge, moves)
            for e in sorted(moves):  # the fixed order keeps witnesses deterministic
                g = moves[e]
                nxt = key ^ bits.setdefault(e, 1 << len(bits)) ^ bits.setdefault(g, 1 << len(bits))
                if nxt not in mine:
                    mine[nxt] = (key, e, g)
                    if nxt in other:
                        return _witness(t_start, seen, nxt)
                    nxt_level.append((tri, e, nxt, moves))
        levels[side] = nxt_level
        depth[side] += 1
    return None


def _witness(t_start: Triangulation, seen: tuple[_Seen, _Seen],
             meet: int) -> tuple[int, FlipSequence]:
    # forward: the flips from the start to meet; backward: each state's
    # inserted edge flips it back to its parent, one step nearer the target
    flips = [FlipRecord(underlying=e, resulting=g) for e, g in reversed(_chain(seen[0], meet))]
    flips += [FlipRecord(underlying=g, resulting=e) for e, g in _chain(seen[1], meet)]
    return len(flips), FlipSequence(start=t_start, flips=tuple(flips))


def _closure(seed: Triangulation) -> dict[frozenset[Edge], Triangulation]:
    """Every triangulation reachable from seed, keyed by its edge set."""
    out = {frozenset(seed.apex): seed}
    frontier = deque(out.items())
    while frontier:
        key, tri = frontier.popleft()
        for e, g in _move_table(tri).items():
            if (nxt := key ^ {e, g}) not in out:
                out[nxt] = flip(tri, e)[0]
                frontier.append((nxt, out[nxt]))
    return out


def enumerate_all(ps: PointSet, seed_tri: Triangulation) -> list[bytes]:
    """Canonical keys of every triangulation of ps (flip closure of the seed),
    sorted for determinism."""
    if seed_tri.ps != ps:
        raise PointSetMismatch("seed triangulation is over a different point set")
    return sorted(canonical_key(tri) for tri in _closure(seed_tri).values())


def graph_stats(ps: PointSet, seed_tri: Triangulation) -> FlipGraphStats:
    """Order, diameter, and distance histogram by all-pairs BFS over the full
    flip graph.  Feasible for small point sets only."""
    if seed_tri.ps != ps:
        raise PointSetMismatch("seed triangulation is over a different point set")
    nodes = _closure(seed_tri)
    index = {key: i for i, key in enumerate(nodes)}  # int vertices keep the all-pairs BFS cheap
    adjacency = [[index[key ^ {e, g}] for e, g in _move_table(tri).items()]
                 for key, tri in nodes.items()]

    histogram: dict[int, int] = {}
    diameter = 0
    for source in range(len(adjacency)):
        dist = {source: 0}
        frontier = deque([source])
        while frontier:
            key = frontier.popleft()
            for other in adjacency[key]:
                if other not in dist:
                    dist[other] = dist[key] + 1
                    frontier.append(other)
        if len(dist) != len(adjacency):  # explicit, so it holds under python -O
            raise AssertionError("flip graph must be connected")
        for d in dist.values():
            histogram[d] = histogram.get(d, 0) + 1
            diameter = max(diameter, d)
    return FlipGraphStats(order=len(nodes), diameter=diameter, distance_histogram=histogram)
