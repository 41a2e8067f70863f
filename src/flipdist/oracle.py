"""Brute-force ground truth for flip distance.

Breadth-first search over the flip graph, whose vertices are the
triangulations of the point set and whose edges are single flips.  The graph
is connected, so BFS from any seed reaches everything; it is also
combinatorially explosive, which is why ``bfs_distance`` takes a hard depth
cap instead of running unbounded.

A BFS state is a bare apex map, keyed by the edges in which it differs from
the start: each call gives an edge the next free bit of an int when it first
sees the edge, and a key is the XOR of the bits of ``T Δ start``, so keys
grow with the edges the search touched, not with n^2.

Each state carries its move table, {flippable edge e: (edge g it flips into,
mask bit(e) ^ bit(g))}, and a neighbour's key is ``key ^ mask``.  A full
table lists every flippable edge of the state; a lean one only those that
its far root lacks, the only ones the bounds closest to the missing-edge
count can use (``bfs_distance``).  A child copies its parent's map and
table, applies the known flip, maps ``g`` back to ``e`` (the new diagonal
always flips back) and tests again only the four sides of the flipped
quadrilateral, the only edges whose triangles changed; in a lean table the
new diagonal and the sides count only if the far root lacks them.

Keys also give a free lower bound.  All triangulations of a point set have
the same number of edges and a flip removes exactly one, so a state with key
K is at least ``popcount(K ^ root_key) / 2`` flips from either root.  The
search runs once per distance bound, from the start's count of missing
edges up, and drops every state that the bound rules out.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import PointSetMismatch, ValidationError
from .flipdag import FlipSequence
from .geometry import PointSet
from .triangulation import (ApexMap, Edge, FlipRecord, Triangulation, _apply_flip, _flips_into,
                            canonical_key, flip)


@dataclass(frozen=True)
class FlipGraphStats:
    """Order, exact diameter, and the ordered-pair distance histogram of a
    flip graph.  The histogram counts all order^2 pairs, distance 0 included."""

    order: int
    diameter: int
    distance_histogram: dict[int, int]


def _move_table(xs: Sequence[int], ys: Sequence[int], apex: ApexMap, bits: dict[Edge, int],
                edges: Optional[Iterable[Edge]] = None) -> _Moves:
    """The move table of an apex map, over all its edges or over ``edges``
    only; an edge's bit is the next free one at first sight."""
    return {e: (g, bits.setdefault(e, 1 << len(bits)) ^ bits.setdefault(g, 1 << len(bits)))
            for e in (apex if edges is None else edges)
            if (g := _flips_into(xs, ys, apex, e)) is not None}


def _flip_with_moves(xs: Sequence[int], ys: Sequence[int], apex: ApexMap, e: Edge,
                     moves: _Moves, bits: dict[Edge, int],
                     missing: Optional[int] = None) -> tuple[ApexMap, _Moves]:
    """A copy of ``apex`` with e flipped, and its move table from ``moves``,
    the table of ``apex``: only the four sides of the quadrilateral change
    triangles, so only they are tested again.  With ``missing``, the child's
    key XOR its far root's key, both tables are lean: they hold only edges
    missing from the far root, so the new diagonal is kept, and a side
    tested, only if its bit is in ``missing`` (an edge with no bit is in
    both roots)."""
    child, out = apex.copy(), moves.copy()
    g, mask = out.pop(e)
    if missing is None or missing & bits[g]:
        out[g] = e, mask
    for s in _apply_flip(child, e, g):  # the sides of the quadrilateral
        if missing is not None and not missing & bits.get(s, 0):
            continue
        if (h := _flips_into(xs, ys, child, s)) is None:
            out.pop(s, None)
        else:
            out[s] = h, bits.setdefault(s, 1 << len(bits)) ^ bits.setdefault(h, 1 << len(bits))
    return child, out


_Moves = dict[Edge, tuple[Edge, int]]
# One BFS level entry: the state with ``key`` is the flip of edge in the apex map
# parent, whose move table is moves; or a root map, with moves None, when edge is None.
_Entry = tuple[ApexMap, Optional[Edge], int, Optional[_Moves]]
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

    One bidirectional, level-synchronous BFS over the keys and move tables
    of the module docstring for each bound from the start's missing-edge
    count up to cap.  Within a bound, each round expands every state of the
    smaller frontier (the start side on a tie) and stops at the first key the
    other side has seen; the path through it has length at most d_s + 1 + d_t,
    and the bound gives up once d_s + d_t reaches it or a frontier is empty.
    A child at depth g is stored only if g plus its missing-edge count
    against the far root is at most the bound.  Every state of a path of
    length at most the bound passes that test at its depth on that path, so
    the bound meets whenever the distance is at most the bound: the first
    bound that meets is the distance, and the meeting path is shortest.  A
    cap below the start's count returns None before any move table exists.

    A bound's root slack is the bound minus the start's missing-edge count,
    and a state's slack is the bound minus its depth and its count against
    the far root, at least 0 in every stored state.  A flip of a missing
    edge into an edge of the far root lowers the count by one and into
    another edge leaves it; a flip of a shared edge raises it by one, as the
    new diagonal crosses that edge and so is missing too.  Down a path the
    slack therefore stays or drops by 1 or 2, never grows, and in the first
    two bounds, at root slack 0 and 1, a shared-edge flip ends below 0.
    Those bounds run on lean move tables, which list only the flippable
    missing edges; the bounds from root slack 2 up keep full tables.
    Leaving those moves out changes no witness.  When one side expands its
    depth-g level, the other side's depth is at most bound - g - 1, so every
    key it has seen lies that many flips at most from this side's far root,
    its count there is at most as large, and as a depth-(g + 1) child it
    passes the bound test.  A key the other side has seen is thus never a
    left-out move, the moves kept stay in sorted order, and the stored
    states, the meeting key and the witness are those of full tables.

    A state is made only when its level is expanded, and the round that
    reaches the bound stores only the key it meets at: the seen sets are
    disjoint, so it is the first key the other side has seen.  Each root's
    move table is computed once per call and kind, a lean one from its
    missing edges alone, and shared by every bound of that kind.  The
    witness is the forward parent chain from the start, then the backward
    chain to the target, read off the stored (flipped, inserted) pairs.
    """
    if t_start.ps != t_end.ps:
        raise PointSetMismatch("triangulations are over different point sets")
    if cap < 0:
        raise ValidationError(f"negative depth cap {cap}")
    bits: dict[Edge, int] = {}  # edge -> its bit, the next free one at first sight
    end_key = 0
    for e in t_start.edges ^ t_end.edges:
        end_key |= bits.setdefault(e, 1 << len(bits))
    if end_key == 0:
        return 0, FlipSequence(start=t_start, flips=())

    xs, ys, far = t_start.ps.xs, t_start.ps.ys, (end_key, 0)  # the key of each side's far root
    roots = (t_start.apex, t_end.apex)
    tables: dict[tuple[int, bool], _Moves] = {}  # (side, lean) -> that root's move table
    low = end_key.bit_count() // 2  # the start's missing-edge count
    for bound in range(low, cap + 1):
        lean = bound - low <= 1  # the root slack is at most 1
        depth = [0, 0]
        seen: tuple[_Seen, _Seen] = ({0: None}, {end_key: None})
        levels: list[list[_Entry]] = [[(roots[0], None, 0, None)], [(roots[1], None, end_key, None)]]
        while all(levels) and (rounds_left := bound - depth[0] - depth[1]) > 0:
            side = 0 if len(levels[0]) <= len(levels[1]) else 1
            mine, other, far_key = seen[side], seen[1 - side], far[side]
            # a child at depth g stays if g + popcount(key ^ far_key) / 2 <= bound
            spare = 2 * (bound - depth[side] - 1)
            nxt_level: list[_Entry] = []
            for apex, edge, key, moves in levels[side]:
                if edge is not None:
                    apex, moves = _flip_with_moves(xs, ys, apex, edge, moves, bits,
                                                   key ^ far_key if lean else None)
                elif (moves := tables.get((side, lean))) is None:  # a root, first in this kind
                    edges = apex.keys() - roots[1 - side].keys() if lean else None  # missing ones
                    moves = tables[side, lean] = _move_table(xs, ys, apex, bits, edges)
                for e in sorted(moves):  # the fixed order keeps witnesses deterministic
                    g, mask = moves[e]
                    if (nxt := key ^ mask) in other:  # so not in mine: the seen sets stay disjoint
                        mine[nxt] = (key, e, g)
                        return _witness(t_start, seen, nxt)
                    if (rounds_left > 1 and nxt not in mine  # the last round expands nothing
                            and (nxt ^ far_key).bit_count() <= spare):
                        mine[nxt] = (key, e, g)
                        nxt_level.append((apex, e, nxt, moves))
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
        for e, (g, _) in _move_table(tri.ps.xs, tri.ps.ys, tri.apex, {}).items():
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
    adjacency = [[index[key ^ {e, g}]
                  for e, (g, _) in _move_table(tri.ps.xs, tri.ps.ys, tri.apex, {}).items()]
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
