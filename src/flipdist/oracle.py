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

Each expanded state has a move table, {flippable edge e: (edge g it flips
into, mask bit(e) ^ bit(g))}, and a neighbour's key is ``key ^ mask``.  A
full table lists every flippable edge of the state; a lean one only those
that its far root lacks, the only ones a state at slack 1 or less can use
(``bfs_distance``).  A lean state's child copies its parent's map and table,
applies the known flip, keeps the new diagonal (it always flips back) if the
far root lacks it and tests again only such sides of the flipped
quadrilateral, the only edges whose triangles changed.  Every other state
builds its table from its own map.

Keys also give a free lower bound.  All triangulations of a point set have
the same number of edges and a flip removes exactly one, so a state with key
K is at least ``popcount(K ^ root_key) / 2`` flips from either root.  The
search runs once per distance bound, from the start's count of missing
edges up, and drops every state that the bound rules out.

``_flip_graph`` holds a whole flip graph instead, for ``graph_stats`` and
the tests' ground truth: one BFS from a seed over the same keys and full
move tables lists every triangulation and its neighbours, and one BFS from
each triangulation over that integer adjacency fills its row of the
distance matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

from .errors import PointSetMismatch, ValidationError
from .flipdag import FlipSequence
from .geometry import PointSet
from .triangulation import ApexMap, Edge, FlipRecord, Triangulation, _apply_flip, _flips_into
# flip and canonical_key are unused here but stay module names: perfbench/tracing.py patches them
from .triangulation import canonical_key, flip  # noqa: F401


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
                     moves: Optional[_Moves], bits: dict[Edge, int],
                     missing: int) -> tuple[ApexMap, Optional[_Moves]]:
    """A copy of ``apex`` with e flipped into ``apex[e]``, and the child's lean
    move table from ``moves``, the lean table of ``apex``, or None without
    one.  A lean table holds only edges whose bit is in ``missing``, the
    child's key XOR its far root's key (an edge with no bit is in both
    roots); only the four sides of the quadrilateral change triangles, so
    the new diagonal is kept, and a side tested again, only if it is missing."""
    child, g = apex.copy(), apex[e]
    sides = _apply_flip(child, e, g)
    if moves is None:
        return child, None
    out = moves.copy()
    mask = out.pop(e)[1]
    if missing & bits[g]:
        out[g] = e, mask
    for s in sides:
        if missing & bits.get(s, 0):
            if (h := _flips_into(xs, ys, child, s)) is None:
                out.pop(s, None)
            else:
                out[s] = h, bits.setdefault(s, 1 << len(bits)) ^ bits.setdefault(h, 1 << len(bits))
    return child, out


_Moves = dict[Edge, tuple[Edge, int]]
# One BFS level entry: the state with ``key`` is the flip of edge in the apex map
# parent, with the parent's move table if lean, else None; or a root map, when edge is None.
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
    smaller frontier (the start side on a tie) in the order it was stored,
    each trying its moves in sorted edge order, and stops at the first key
    the other side has seen; the path through it has length at most
    d_s + 1 + d_t, and the bound gives up once d_s + d_t reaches it or a
    frontier is empty.
    A child at depth g is stored only if g plus its missing-edge count
    against the far root is at most the bound.  Every state of a path of
    length at most the bound passes that test at its depth on that path, so
    the bound meets whenever the distance is at most the bound: the first
    bound that meets is the distance, and the meeting path is shortest.  A
    cap below the start's count returns None before any move table exists.

    A state's slack is the bound minus its depth and its count against the
    far root, at least 0 in every stored state.  A flip of a missing edge
    into an edge of the far root lowers the count by one and into another
    edge leaves it; a flip of a shared edge raises it by one, as the new
    diagonal crosses that edge and so is missing too.  Down a path the slack
    therefore stays or drops by 1 or 2, never grows, and from a state at
    slack 0 or 1 a shared-edge flip ends below 0.  Such a state is lean: its
    table lists only its flippable missing edges, and its children, lean
    too, carry it on.  Every other state, a root or a child of a state at
    slack 2 or more, builds its table from its own map: lean by that rule,
    otherwise full.  Leaving moves out changes no witness.
    When one side expands its depth-g level, the other side's depth is at
    most bound - g - 1, so every key it has seen lies that many flips at most
    from this side's far root, its count there is at most as large, and as
    a depth-(g + 1) child it passes the bound test.  A key the other side has
    seen is thus never a left-out move, the moves kept stay in sorted order,
    and the stored states, the meeting key and the witness are those of full
    tables.

    A state is made only when its level is expanded, and the round that
    reaches the bound stores only the key it meets at: the seen sets are
    disjoint, so it is the first key the other side has seen.  The witness
    is the forward parent chain from the start, then the backward chain to
    the target, read off the stored (flipped, inserted) pairs.
    Triangulations over different point sets raise PointSetMismatch, and a
    negative cap raises ValidationError.
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
    for bound in range(end_key.bit_count() // 2, cap + 1):
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
                lean = (missing := key ^ far_key).bit_count() >= spare  # its slack is at most 1
                if edge is not None:
                    apex, moves = _flip_with_moves(xs, ys, apex, edge, moves, bits, missing)
                if moves is None:  # a root or a full state's child: built from the state itself
                    edges = apex.keys() - roots[1 - side].keys() if lean else None  # missing ones
                    moves = _move_table(xs, ys, apex, bits, edges)
                for e in sorted(moves):  # the fixed order keeps witnesses deterministic
                    g, mask = moves[e]
                    if (nxt := key ^ mask) in other:  # so not in mine: the seen sets stay disjoint
                        mine[nxt] = (key, e, g)
                        return _witness(t_start, seen, nxt)
                    if (rounds_left > 1 and nxt not in mine  # the last round expands nothing
                            and (nxt ^ far_key).bit_count() <= spare):
                        mine[nxt] = (key, e, g)
                        nxt_level.append((apex, e, nxt, moves if lean else None))
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


def _flip_graph(seed: Triangulation) -> tuple[list[Triangulation], list[list[int]]]:
    """Every triangulation reachable from seed (seed itself among them),
    sorted by edge list, and the matrix of flip distances between them:
    dist[i][j] is the distance from the i-th to the j-th.  Feasible for
    small point sets only."""
    xs, ys = seed.ps.xs, seed.ps.ys
    bits: dict[Edge, int] = {}
    maps: dict[int, ApexMap] = {0: seed.apex}  # key, as in bfs_distance -> the state's map
    neighbours: dict[int, list[int]] = {}
    frontier = [0]  # a BFS queue: it grows as it is read
    for key in frontier:
        apex = maps[key]
        neighbours[key] = out = []
        for e, (g, mask) in _move_table(xs, ys, apex, bits).items():
            out.append(nxt := key ^ mask)
            if nxt not in maps:
                maps[nxt] = child = apex.copy()
                _apply_flip(child, e, g)
                frontier.append(nxt)
    keys = sorted(maps, key=lambda key: sorted(maps[key]))
    index = {key: i for i, key in enumerate(keys)}
    adjacency = [[index[other] for other in neighbours[key]] for key in keys]
    dist = []
    for source in range(len(keys)):
        row = [-1] * len(keys)
        row[source] = 0
        queue = [source]
        for u in queue:
            for v in adjacency[u]:
                if row[v] < 0:
                    row[v] = row[u] + 1
                    queue.append(v)
        if -1 in row:  # explicit, so it holds under python -O
            raise AssertionError("flip graph must be connected")
        dist.append(row)
    tris = [seed if key == 0 else Triangulation(seed.ps, maps[key]) for key in keys]
    return tris, dist


def graph_stats(ps: PointSet, seed_tri: Triangulation) -> FlipGraphStats:
    """Order, diameter, and distance histogram of the full flip graph, read
    off ``_flip_graph``'s distance matrix.  Feasible for small point sets only."""
    if seed_tri.ps != ps:
        raise PointSetMismatch("seed triangulation is over a different point set")
    _, dist = _flip_graph(seed_tri)
    counts = Counter(chain.from_iterable(dist))
    return FlipGraphStats(order=len(dist), diameter=max(counts),
                          distance_histogram=dict(sorted(counts.items())))
