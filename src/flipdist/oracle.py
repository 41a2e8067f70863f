"""Brute-force ground truth for flip distance.

Breadth-first search over the flip graph, whose vertices are the
triangulations of the point set and whose edges are single flips.  The graph
is connected, so BFS from any seed reaches everything; it is also
combinatorially explosive, which is why ``bfs_distance`` takes a hard depth
cap instead of running unbounded.

A state is keyed by its edge set as a Python int with bit ``a*n + b`` set for
each edge ``(a, b)``, ``a < b``.  Flipping ``e`` into ``g`` maps key ``k`` to
``k ^ bit(e) ^ bit(g)``, and ``_moves`` reads ``e`` and ``g`` off ``tri_of``,
so a neighbour's key costs neither ``flip`` nor ``canonical_key``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import PointSetMismatch
from .flipdag import FlipSequence
from .geometry import PointSet, strictly_convex_quad
from .triangulation import Edge, FlipRecord, Triangulation, canonical_key, flip


@dataclass(frozen=True)
class FlipGraphStats:
    """Order, exact diameter, and the ordered-pair distance histogram of a
    flip graph.  The histogram counts all order^2 pairs, distance 0 included."""

    order: int
    diameter: int
    distance_histogram: dict[int, int]


def _bit(e: Edge, n: int) -> int:
    return 1 << (e[0] * n + e[1])


def _key(tri: Triangulation) -> int:
    n = len(tri.ps)
    return sum(_bit(e, n) for e in tri.edges)


def _moves(tri: Triangulation, key: int) -> Iterator[tuple[Edge, Edge, int]]:
    """(e, g, key of flip(tri, e)) for every flippable edge e, in sorted edge
    order, where g is the edge the flip inserts and ``key`` is tri's key.  The
    fixed order keeps witnesses deterministic."""
    ps, tri_of, n = tri.ps, tri.tri_of, len(tri.ps)
    for e in sorted(tri.edges):
        tris = tri_of[e]
        if len(tris) != 2:
            continue
        a, b = e
        c, d = sorted(v for t in tris for v in t if v != a and v != b)
        if strictly_convex_quad(ps[a], ps[c], ps[b], ps[d]):
            yield e, (c, d), key ^ _bit(e, n) ^ _bit((c, d), n)


# One BFS level entry: the state with ``key`` is flip(parent, edge), or the
# root ``parent`` itself when edge is None.  It is built only when expanded.
_Entry = tuple[Triangulation, Optional[Edge], int]
# key -> (parent key, edge flipped in the parent, edge it inserted); None at the root
_Seen = dict[int, Optional[tuple[int, Edge, Edge]]]


def _expand(level: list[_Entry], seen: _Seen) -> Iterator[_Entry]:
    """Build each state of ``level`` and yield the entries of its neighbours
    missing from ``seen``, recording each there as it is yielded."""
    for parent, edge, key in level:
        tri = parent if edge is None else flip(parent, edge)[0]
        for e, g, nxt in _moves(tri, key):
            if nxt not in seen:
                seen[nxt] = (key, e, g)
                yield tri, e, nxt


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

    Bidirectional, level-synchronous BFS over edge-bitmask keys.  Each round
    expands every state of the smaller frontier (the start side on a tie) and
    stops at the first key the other side has seen.  Before the round the
    balls of radius d_s around the start and d_t around the target were
    disjoint, so the distance exceeds d_s + d_t, while the path through the
    meeting key has length at most d_s + 1 + d_t: it is shortest.  The search
    gives up once d_s + d_t reaches cap.  A state is built with ``flip`` only
    when its level is expanded, so the last level is never built.  The
    witness is the forward parent chain from the start, then the backward
    chain to the target, read off the stored (flipped, inserted) pairs.
    """
    if t_start.ps != t_end.ps:
        raise PointSetMismatch("triangulations are over different point sets")
    roots = (_key(t_start), _key(t_end))
    if roots[0] == roots[1]:
        return 0, FlipSequence(start=t_start, flips=())

    seen: tuple[_Seen, _Seen] = ({roots[0]: None}, {roots[1]: None})
    levels = [[(t_start, None, roots[0])], [(t_end, None, roots[1])]]
    depth = [0, 0]
    while depth[0] + depth[1] < cap:
        side = 0 if len(levels[0]) <= len(levels[1]) else 1
        other = seen[1 - side]
        nxt_level = []
        for entry in _expand(levels[side], seen[side]):
            if entry[2] in other:
                return _witness(t_start, seen, entry[2])
            nxt_level.append(entry)
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


def _closure(seed: Triangulation) -> dict[int, Triangulation]:
    out = {_key(seed): seed}
    frontier = deque(out.items())
    while frontier:
        key, tri = frontier.popleft()
        for e, _, nxt in _moves(tri, key):
            if nxt not in out:
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
    adjacency: dict[int, list[int]] = {
        key: [nxt for _, _, nxt in _moves(tri, key)]
        for key, tri in nodes.items()
    }

    histogram: dict[int, int] = {}
    diameter = 0
    for source in adjacency:
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
