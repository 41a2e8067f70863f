"""Flip-graph BFS oracle tests.

Small convex point sets have closed-form flip graphs (Catalan vertex counts,
the pentagon's graph is a 5-cycle), so most checks here compare against those
and against the distance matrix of ``oracle._flip_graph``, a plain BFS from
every state that shares only the move table with ``bfs_distance``.  The
bidirectional ``bfs_distance`` is also compared with three searches it
replaced, each kept below verbatim: the one-sided BFS as ``reference_bfs_distance``; the
bidirectional BFS over ``a*n + b`` edge-bitmask keys that rebuilt every move
of every state, as ``bitmask_bfs_distance``; and the bound-pruned BFS whose
every state listed all of its flippable edges, as ``table_bfs_distance``.  At
every cap all four must agree on whether the target is within reach and on
the distance.  Against the first two the witnesses may differ, as the
bound-pruned search keeps smaller frontiers and so may meet at another state;
its witness is required to be shortest, to replay to the target and to repeat
on a second call.  Against ``table_bfs_distance`` the witnesses must be
identical: a state lists only its missing edges iff its slack is at most 1,
and then drops only moves that the bound rules out.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import tracemalloc
from collections import Counter, deque
from pathlib import Path
from typing import Iterator, Optional, Sequence

import pytest

from flipdist import oracle, triangulation
from flipdist.errors import PointSetMismatch, ValidationError
from flipdist.flipdag import FlipSequence, replay
from flipdist.geometry import Point, convex_hull_edges
from flipdist.instances import (
    Instance,
    gen_convex,
    gen_random_points,
    initial_triangulation,
    parse,
    random_walk_triangulation,
    serialize,
)
from flipdist.oracle import _flip_graph, bfs_distance, graph_stats
from flipdist.solver import search_upto
from flipdist.triangulation import (
    ApexMap,
    Edge,
    FlipRecord,
    Triangulation,
    _apply_flip,
    build,
    canonical_key,
    edge_neighbors,
    flip,
    is_flippable,
)

from conftest import convex_pair, strictly_convex_quad, tri_of
from test_prune import fan


def _neighbors(tri: Triangulation) -> list[tuple[Triangulation, FlipRecord]]:
    # sorted edge order keeps BFS witnesses deterministic
    out = []
    for e in sorted(tri.edges):
        if is_flippable(tri, e):
            out.append(flip(tri, e))
    return out


def reference_bfs_distance(t_start: Triangulation, t_end: Triangulation,
                           cap: int) -> Optional[tuple[int, FlipSequence]]:
    """Exact flip distance with one shortest witness, or None if it exceeds cap.

    Deduplicates on canonical edge-set keys; parent pointers reconstruct the
    witness sequence.
    """
    if t_start.ps != t_end.ps:
        raise PointSetMismatch("triangulations are over different point sets")
    target = canonical_key(t_end)
    start_key = canonical_key(t_start)
    if start_key == target:
        return 0, FlipSequence(start=t_start, flips=())

    # key -> (parent key, flip that got here from the parent)
    seen: dict[bytes, Optional[tuple[bytes, FlipRecord]]] = {start_key: None}
    frontier: deque[tuple[Triangulation, int]] = deque([(t_start, 0)])
    found_depth: Optional[int] = None
    while frontier:
        tri, depth = frontier.popleft()
        if depth >= cap:
            break
        for nxt, rec in _neighbors(tri):
            key = canonical_key(nxt)
            if key in seen:
                continue
            seen[key] = (canonical_key(tri), rec)
            if key == target:
                found_depth = depth + 1
                frontier.clear()
                break
            frontier.append((nxt, depth + 1))
    if found_depth is None:
        return None

    recs: list[FlipRecord] = []
    key = target
    while key != start_key:
        parent_key, rec = seen[key]  # type: ignore[misc]
        recs.append(rec)
        key = parent_key
    recs.reverse()
    return found_depth, FlipSequence(start=t_start, flips=tuple(recs))


# bitmask_bfs_distance and its helpers, as bfs_distance was before states
# carried move tables and keys took compact per-call bits.  ``_moves`` reads
# the triangle map triangulations stored then, now derived by conftest.tri_of.
def _bit(e: Edge, n: int) -> int:
    return 1 << (e[0] * n + e[1])


def _key(tri: Triangulation) -> int:
    n = len(tri.ps)
    return sum(_bit(e, n) for e in tri.edges)


def _moves(tri: Triangulation, key: int) -> Iterator[tuple[Edge, Edge, int]]:
    """(e, g, key of flip(tri, e)) for every flippable edge e, in sorted edge
    order, where g is the edge the flip inserts and ``key`` is tri's key.  The
    fixed order keeps witnesses deterministic."""
    ps, triangle_map, n = tri.ps, tri_of(tri), len(tri.ps)
    for e in sorted(tri.edges):
        tris = triangle_map[e]
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


def bitmask_bfs_distance(t_start: Triangulation, t_end: Triangulation,
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


# table_bfs_distance and its helpers, as bfs_distance was before lean move
# tables: every state's table lists all of its flippable edges.  Verbatim but
# for the names; ``_table_flips_into`` is the flip test of that time, which read
# coordinates from the point tuple.
def _table_flips_into(pts: Sequence[Point], apex: ApexMap, e: Edge) -> Optional[Edge]:
    """The diagonal that canonical edge e of the apex map flips into: the
    other diagonal of its quadrilateral, or None when e is a hull edge or the
    quadrilateral is not strictly convex.  ``pts`` is the point tuple."""
    c, d = apex[e]
    if d < 0:
        return None
    pa, pb, pc, pd = pts[e[0]], pts[e[1]], pts[c], pts[d]
    dx, dy = pd.x - pc.x, pd.y - pc.y
    # c, d lie on opposite sides of e: convex iff e's ends lie strictly on opposite sides of cd
    cross = (dx * (pa.y - pc.y) - dy * (pa.x - pc.x)) * (dx * (pb.y - pc.y) - dy * (pb.x - pc.x))
    return (c, d) if cross < 0 else None


def _table_move_table(pts: Sequence[Point], apex: ApexMap, bits: dict[Edge, int]) -> _TableMoves:
    """The move table of an apex map; an edge's bit is the next free one at first sight."""
    return {e: (g, bits.setdefault(e, 1 << len(bits)) ^ bits.setdefault(g, 1 << len(bits)))
            for e in apex if (g := _table_flips_into(pts, apex, e)) is not None}


def _table_flip_with_moves(pts: Sequence[Point], apex: ApexMap, e: Edge, moves: _TableMoves,
                           bits: dict[Edge, int]) -> tuple[ApexMap, _TableMoves]:
    """A copy of ``apex`` with e flipped, and its move table from ``moves``,
    the table of ``apex``: only the four sides of the quadrilateral change
    triangles, so only they are tested again."""
    child, out = apex.copy(), moves.copy()
    g, mask = out.pop(e)
    out[g] = e, mask
    for s in _apply_flip(child, e, g):  # the sides of the quadrilateral
        if (h := _table_flips_into(pts, child, s)) is None:
            out.pop(s, None)
        else:
            out[s] = h, bits.setdefault(s, 1 << len(bits)) ^ bits.setdefault(h, 1 << len(bits))
    return child, out


_TableMoves = dict[Edge, tuple[Edge, int]]
# One BFS level entry: the state with ``key`` is the flip of edge in the apex map
# parent, whose move table is moves; or a root map, with its table once computed,
# when edge is None.
_TableEntry = tuple[ApexMap, Optional[Edge], int, Optional[_TableMoves]]


def table_bfs_distance(t_start: Triangulation, t_end: Triangulation,
                       cap: int) -> Optional[tuple[int, FlipSequence]]:
    """Exact flip distance with one shortest witness, or None if it exceeds cap.

    One bidirectional, level-synchronous BFS over the keys and move tables
    of the oracle's module docstring for each bound from the start's missing-edge
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

    A state is made only when its level is expanded, and the round that
    reaches the bound stores only the key it meets at: the seen sets are
    disjoint, so it is the first key the other side has seen.  Each root's
    move table is computed once per call and shared by every bound.  The
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

    pts, far = t_start.ps.points, (end_key, 0)  # the key of each side's far root
    roots: list[_TableEntry] = [(t_start.apex, None, 0, None), (t_end.apex, None, end_key, None)]
    for bound in range(end_key.bit_count() // 2, cap + 1):
        depth = [0, 0]
        seen: tuple[_Seen, _Seen] = ({0: None}, {end_key: None})
        levels = [[roots[0]], [roots[1]]]
        while all(levels) and (rounds_left := bound - depth[0] - depth[1]) > 0:
            side = 0 if len(levels[0]) <= len(levels[1]) else 1
            mine, other, far_key = seen[side], seen[1 - side], far[side]
            # a child at depth g stays if g + popcount(key ^ far_key) / 2 <= bound
            spare = 2 * (bound - depth[side] - 1)
            nxt_level: list[_TableEntry] = []
            for apex, edge, key, moves in levels[side]:
                if edge is not None:
                    apex, moves = _table_flip_with_moves(pts, apex, edge, moves, bits)
                elif moves is None:  # a root, expanded for the first time in this call
                    moves = _table_move_table(pts, apex, bits)
                    roots[side] = apex, None, key, moves
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


def pentagon_fan(apex: int):
    ps = gen_convex(5)
    hull = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    diags = [tuple(sorted((apex, v))) for v in range(5)
             if v != apex and abs(v - apex) not in (1, 4)]
    return build(ps, hull + diags)


class TestBfsDistance:
    def test_identical_triangulations(self, square_tris):
        tri = square_tris[0]
        result = bfs_distance(tri, tri, cap=0)
        assert result is not None
        dist, seq = result
        assert dist == 0
        assert len(seq) == 0
        assert replay(seq) == tri

    def test_square_single_flip(self, square_tris):
        a, b = square_tris
        dist, seq = bfs_distance(a, b, cap=5)
        assert dist == 1
        assert len(seq) == 1
        assert replay(seq) == b

    def test_cap_below_distance_returns_none(self, square_tris):
        a, b = square_tris
        assert bfs_distance(a, b, cap=0) is None

    def test_cap_exactly_at_distance(self, square_tris):
        a, b = square_tris
        result = bfs_distance(a, b, cap=1)
        assert result is not None and result[0] == 1

    def test_pentagon_disjoint_fans(self):
        # fans whose diagonal sets are disjoint sit two flips apart
        a, b = pentagon_fan(0), pentagon_fan(1)
        dist, seq = bfs_distance(a, b, cap=5)
        assert dist == 2
        assert replay(seq) == b

    def test_pentagon_adjacent_fans(self):
        # fan(0) and fan(2) share diagonal (0,2), one flip apart
        a, b = pentagon_fan(0), pentagon_fan(2)
        dist, _ = bfs_distance(a, b, cap=5)
        assert dist == 1

    def test_witness_replays_on_random_instances(self):
        for seed in range(4):
            ps = gen_random_points(7, seed=seed, bound=500)
            start = initial_triangulation(ps)
            end = random_walk_triangulation(start, steps=5, seed=seed + 50)
            result = bfs_distance(start, end, cap=5)
            assert result is not None
            dist, seq = result
            assert dist <= 5
            assert len(seq) == dist
            assert replay(seq) == end

    def test_symmetry(self):
        tris, _ = _flip_graph(convex_pair(6)[1])
        for a in tris[:4]:
            for b in tris[-4:]:
                da, _ = bfs_distance(a, b, cap=10)
                db, _ = bfs_distance(b, a, cap=10)
                assert da == db

    def test_triangle_inequality(self):
        tris, _ = _flip_graph(convex_pair(5)[1])
        dist = {(i, j): bfs_distance(a, b, cap=10)[0]
                for i, a in enumerate(tris) for j, b in enumerate(tris)}
        for i in range(len(tris)):
            for j in range(len(tris)):
                for via in range(len(tris)):
                    assert dist[i, j] <= dist[i, via] + dist[via, j]

    def test_mismatched_point_sets(self, square_tris):
        other = initial_triangulation(gen_convex(4))
        with pytest.raises(PointSetMismatch):
            bfs_distance(square_tris[0], other, cap=3)


def convex_pairs():
    for n in range(4, 8):
        tris, _ = _flip_graph(convex_pair(n)[1])
        yield from ((a, b) for a in tris for b in tris)


def walk_pairs():
    for seed in range(40):
        ps = gen_random_points(8 + seed % 4, seed=seed, bound=1000)
        start = initial_triangulation(ps)
        yield start, random_walk_triangulation(start, steps=4 + seed % 5, seed=seed + 500)


def assert_same_as_bitmask(start, end, cap):
    """bfs_distance finds the target within cap exactly when the bitmask and
    the one-sided reference BFS do, at the same distance; its witness has
    that length, replays to the target and repeats on a second call."""
    got = bfs_distance(start, end, cap)
    want = bitmask_bfs_distance(start, end, cap)
    ref = reference_bfs_distance(start, end, cap)
    assert (got is None) == (want is None) == (ref is None)
    if got is not None:
        d, seq = got
        assert d == want[0] == ref[0] == len(seq)
        assert replay(seq) == end
        assert bfs_distance(start, end, cap) == got
    return got


def assert_shortest(start, end, cap):
    """bfs_distance agrees with both kept BFSes at cap, gives the distance d
    at cap d and None at every cap below."""
    got = assert_same_as_bitmask(start, end, cap)
    if got is None:
        return
    d = got[0]
    assert assert_same_as_bitmask(start, end, d)[0] == d
    for below in range(d):
        assert assert_same_as_bitmask(start, end, below) is None


def benchmark_pairs():
    """The oracle calls of the benchmark's random-cross and convex-fans
    workloads: (start, end, cap), on triangulations read back from files."""
    for s in range(24):
        n, walk = 10 + s % 3, 7 + s % 4
        ps = gen_random_points(n, s, 1000)
        start = initial_triangulation(ps)
        inst = parse(serialize(Instance(ps, start, random_walk_triangulation(start, walk, s))))
        yield inst.t_start, inst.t_end, walk
    ps = gen_convex(12)
    for v in range(1, 7):
        yield fan(ps, 0), fan(ps, v), 4


# (n, s, d): far_convex_pair(n, s) is at distance d, at least 3 above its bound
HARD_PAIRS = [(11, 0, 11), (12, 39, 12)]


def far_convex_pair(n, s):
    """Two 40-step walks, seeds s and 1000 + s, from the first triangulation
    of the convex n-gon."""
    base = initial_triangulation(gen_convex(n))
    return (random_walk_triangulation(base, steps=40, seed=s),
            random_walk_triangulation(base, steps=40, seed=1000 + s))


def embedded_window(big):
    """far_convex_pair(13, 4), at distance 12 over a bound of 8, inside the
    convex big-gon: the window is vertices 0..12, and outside it both
    triangulations are the fan from vertex 0, so the distance stays 12 while
    every state carries about 2 * big more edges."""
    ps = gen_convex(big)
    outside = {(0, v) for v in range(12, big)} | {(v, v + 1) for v in range(12, big - 1)}
    return tuple(build(ps, tri.edges | outside) for tri in far_convex_pair(13, 4))


def identity_pairs():
    """The pairs on which lean tables must give the witnesses of full ones:
    the benchmark's and the hard pairs both ways, the window embedded in the
    40-gon both ways and in the 80-gon forward, and every ordered pair of
    the convex 7-gon and of one random 8-point set."""
    for start, end in [pair[:2] for pair in benchmark_pairs()] + [
            far_convex_pair(n, s) for n, s, _ in HARD_PAIRS] + [embedded_window(40)]:
        yield start, end
        yield end, start
    yield embedded_window(80)
    for ps in (gen_convex(7), gen_random_points(8, 5, 1000)):
        tris, _ = _flip_graph(initial_triangulation(ps))
        yield from ((a, b) for a in tris for b in tris)


PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json"

# The benchmark's large-n pool: (kind, seed, walk) on 300 points, gen_random_points
# with bound 2^20 or gen_convex, and a seeded walk from the scan triangulation.
LARGE_N = [("random", 1, 6), ("convex", 2, 4)]


def large_n_pairs():
    """(label, start, end, walk) for the large-n instances, in pool order."""
    for kind, seed, walk in LARGE_N:
        ps = gen_random_points(300, seed, 1 << 20) if kind == "random" else gen_convex(300)
        start = initial_triangulation(ps)
        yield f"{kind}-n300-s{seed}-w{walk}", start, random_walk_triangulation(start, walk, seed), walk


def _answer(result):
    return None if result is None else (result[0], [str(rec) for rec in result[1].flips])


class TestAgainstReference:
    def test_witnesses_match_full_tables(self):
        # the same witness as full tables at every cap from below the bound to past d
        pairs = 0
        for start, end in identity_pairs():
            bound, d = len(start.edges - end.edges), bfs_distance(start, end, 30)[0]
            for cap in range(max(bound - 1, 0), d + 2):
                got = _answer(bfs_distance(start, end, cap))
                assert got == _answer(table_bfs_distance(start, end, cap))
                assert (got is None) == (cap < d)
            pairs += 1
        assert pairs == 2 * 33 + 1 + 42 ** 2 + 82 ** 2

    def test_benchmark_pairs(self):
        found = sum(assert_same_as_bitmask(*pair) is not None for pair in benchmark_pairs())
        assert found == 24  # every walk is reached within its length; no fan pair within 4

    def test_all_convex_pairs(self):
        for a, b in convex_pairs():
            assert_shortest(a, b, 10)

    def test_random_walks(self):
        for start, end in walk_pairs():
            assert_shortest(start, end, 8)

    @pytest.mark.parametrize("n,s,d", HARD_PAIRS)
    def test_hard_pairs_above_the_bound(self, n, s, d):
        # far-apart convex pairs: the first bounds from the missing-edge
        # count up fail before the one that answers
        start, end = far_convex_pair(n, s)
        assert len(start.edges - end.edges) + 3 <= d
        for cap in range(d - 2, d + 2):
            got, want = bfs_distance(start, end, cap), bitmask_bfs_distance(start, end, cap)
            assert (got is None) == (want is None) == (cap < d)
            if got is not None:
                assert got[0] == want[0] == len(got[1]) == d
                assert replay(got[1]) == end

    def test_pinned_large_n_references(self):
        # the pinned references come from the solver; the oracle confirms
        # each on its own: None one flip short, the distance at it
        pin = json.loads(PINNED.read_text(encoding="utf-8"))["large-n"]
        pairs = list(large_n_pairs())
        texts = [serialize(Instance(start.ps, start, end, walk)) for _, start, end, walk in pairs]
        assert hashlib.sha256("".join(texts).encode("utf-8")).hexdigest() == pin["sha256"]
        assert len(pin["references"]) == len(pairs) == 2
        for (label, start, end, _), ref in zip(pairs, pin["references"]):
            assert bfs_distance(start, end, ref - 1) is None, label
            got = bfs_distance(start, end, ref)
            assert got is not None and got[0] == len(got[1]) == ref, label
            assert replay(got[1]) == end, label

    def test_cap_below_the_bound_builds_nothing(self, monkeypatch):
        # the missing-edge count alone answers None: no move table, no state
        calls = []
        for name in ("_move_table", "_flip_with_moves"):
            real = getattr(oracle, name)
            monkeypatch.setattr(oracle, name,
                                lambda *args, real=real: calls.append(args) or real(*args))
        ps = gen_convex(12)
        walk_start = initial_triangulation(gen_random_points(300, 1, 2 ** 20))
        walk_end = random_walk_triangulation(walk_start, steps=6, seed=1)
        for start, end, cap in ((fan(ps, 0), fan(ps, 1), 4), (walk_start, walk_end, 1)):
            assert len(start.edges - end.edges) > cap
            assert bfs_distance(start, end, cap) is None
        assert calls == []
        assert bfs_distance(fan(ps, 0), fan(ps, 1), 9)[0] == 9
        assert calls  # the seams are the ones that make tables and states

    def test_no_state_built_at_cap_one(self, monkeypatch):
        # the depth-1 states are discovered as keys but never built
        ps, start = convex_pair(8)
        end = fan(ps, 3)
        calls = []
        flip_with_moves = oracle._flip_with_moves
        monkeypatch.setattr(oracle, "_flip_with_moves",
                            lambda *args: calls.append(args) or flip_with_moves(*args))
        assert bfs_distance(start, end, 1) is None
        assert calls == []
        assert bfs_distance(start, end, 5)[0] > 1
        assert calls  # the seam is the one that builds states

    def test_convexity_tests_per_built_state(self, monkeypatch):
        # one table rule per state: a table built from the state lists only
        # the edges its far root lacks, and tests each once, iff the state's
        # slack is at most 1, and else tests every edge; a child of a lean
        # state carries its parent's table and tests only the sides its far
        # root lacks; a child of a full state is only copied and flipped
        flips_into = triangulation._flips_into
        move_table, flip_with_moves = oracle._move_table, oracle._flip_with_moves

        def counting(xs, ys, apex, e):
            tests.append(e)
            return flips_into(xs, ys, apex, e)

        def far_and_slack(apex):
            # id(map) -> (side, depth): every map is a root or made by the
            # seam below, which registers it, so a live map's entry is its own
            side, depth = states[id(apex)]
            far = (end, start)[side].edges
            return far, bound - depth - len(apex.keys() - far)

        def tabling(xs, ys, apex, bits, edges):
            nonlocal bound, checked
            bound += apex is start.apex  # every bound expands the start's root first
            far, slack = far_and_slack(apex)
            before = len(tests)
            out = move_table(xs, ys, apex, bits, edges)
            if edges is None:
                assert slack >= 2 and sorted(tests[before:]) == sorted(apex)
                kinds["full"] += 1
            else:
                assert slack <= 1 and edges == apex.keys() - far
                assert sorted(tests[before:]) == sorted(edges)
                kinds["lean root" if states[id(apex)][1] == 0 else "lean built"] += 1
            checked += len(tests) - before
            return out

        def building(xs, ys, apex, e, moves, bits, missing):
            nonlocal checked
            before = len(tests)
            child, out = flip_with_moves(xs, ys, apex, e, moves, bits, missing)
            states[id(child)] = states[id(apex)][0], states[id(apex)][1] + 1
            far, slack = far_and_slack(child)
            if moves is None:
                assert out is None and tests[before:] == []
                kinds["full's child"] += 1
            else:
                assert slack <= 1 and out.keys() <= child.keys() - far
                assert far.isdisjoint(tests[before:])
                kinds["carried"] += 1
            checked += len(tests) - before
            return child, out

        walk_start = initial_triangulation(gen_convex(11))
        pairs = [((walk_start, random_walk_triangulation(walk_start, 8, 5)), 0),
                 (far_convex_pair(9, 16), 2), (embedded_window(40), 4)]
        for module in (oracle, triangulation):  # count a test wherever the oracle makes it
            monkeypatch.setattr(module, "_flips_into", counting)
        monkeypatch.setattr(oracle, "_move_table", tabling)
        monkeypatch.setattr(oracle, "_flip_with_moves", building)
        kinds = Counter()
        for (start, end), gap in pairs:
            tests, checked = [], 0
            states = {id(start.apex): (0, 0), id(end.apex): (1, 0)}
            bound = len(start.edges - end.edges) - 1
            d, seq = bfs_distance(start, end, 12)
            assert checked == len(tests) > 0
            assert d == bound == len(start.edges - end.edges) + gap and replay(seq) == end
        assert len(kinds) == 5, kinds  # every kind of table and state occurs

    def test_negative_cap_rejected(self, square_tris):
        for a in square_tris:
            for b in square_tris:
                with pytest.raises(ValidationError, match="negative depth cap -1"):
                    bfs_distance(a, b, -1)

    def test_peak_memory_at_cap_one(self):
        # keys hold a bit per edge the call has seen, not one per point pair
        start = initial_triangulation(gen_random_points(300, 1, 2 ** 20))
        end = random_walk_triangulation(start, steps=6, seed=1)
        tracemalloc.start()
        try:
            assert bfs_distance(start, end, 1) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestMoveTables:
    def test_lean_flip_with_moves_along_walks(self):
        # walks that flip only edges missing from a far triangulation: each
        # lean child table, given the mask of the child's edges that the far
        # one lacks, equals the lean table computed from scratch over those
        # edges, also after flips next to the hull
        next_to_hull = flips = 0
        for seed in range(6):
            ps = gen_convex(9) if seed == 0 else gen_random_points(8 + seed, seed, 1000)
            hull = set(convex_hull_edges(ps))
            rng = random.Random(seed)
            bits = {}
            start = initial_triangulation(ps)
            apex, far = start.apex, random_walk_triangulation(start, 3 * len(ps), seed).apex
            moves = oracle._move_table(ps.xs, ps.ys, apex, bits, apex.keys() - far.keys())
            for _ in range(3 * len(ps)):
                if not moves:
                    break
                e = rng.choice(sorted(moves))
                next_to_hull += not hull.isdisjoint(edge_neighbors(Triangulation(ps, apex), e))
                missing = 0
                for x in (apex.keys() - {e} | {moves[e][0]}) ^ far.keys():
                    missing |= bits.setdefault(x, 1 << len(bits))
                parent = dict(apex), dict(moves)
                child = oracle._flip_with_moves(ps.xs, ps.ys, apex, e, moves, bits, missing)
                assert (apex, moves) == parent
                apex, moves = child
                flips += 1
                assert apex == build(ps, apex).apex
                assert moves == oracle._move_table(ps.xs, ps.ys, apex, bits, apex.keys() - far.keys())
                assert all(mask == bits[e] ^ bits[g] for e, (g, mask) in moves.items())
        assert flips > next_to_hull > flips // 4


class TestDeepGroundTruth:
    """fan(0) -> fan(1) on the convex n-gon is at distance n - 3."""

    @pytest.mark.parametrize("n", [12, 13, 14])
    def test_solver_matches_oracle(self, n):
        ps = gen_convex(n)
        start, end = fan(ps, 0), fan(ps, 1)
        d, seq = bfs_distance(start, end, n)
        assert d == n - 3
        assert replay(seq) == end
        assert bfs_distance(start, end, d - 1) is None
        assert search_upto(start, end, d).k == d
        assert search_upto(start, end, d - 1) is None


class TestEnumerateAll:
    """oracle._flip_graph enumerates all states of the flip graph, in
    edge-list order, with the matrix of distances between them."""

    @pytest.mark.parametrize("ps", [gen_convex(6), gen_random_points(7, 0, 1000)],
                             ids=["convex-6", "random-7"])
    def test_matrix_matches_bfs_distance(self, ps):
        tris, dist = _flip_graph(initial_triangulation(ps))
        cap = max(map(max, dist))
        for i, a in enumerate(tris):
            for j, b in enumerate(tris):
                assert dist[i][j] == bfs_distance(a, b, cap)[0]

    @pytest.mark.parametrize("n,count", [(4, 2), (5, 5), (6, 14), (7, 42), (8, 132)])
    def test_convex_catalan_counts(self, n, count):
        tris, dist = _flip_graph(convex_pair(n)[1])
        assert len(tris) == len(dist) == count

    def test_seed_independent(self):
        ps, tri = convex_pair(6)
        other_seed = random_walk_triangulation(tri, steps=9, seed=3)
        tris, dist = _flip_graph(tri)
        assert other_seed in tris
        assert _flip_graph(other_seed) == (tris, dist)

    def test_contains_seed(self):
        ps, tri = convex_pair(5)
        assert tri in _flip_graph(tri)[0]

    @pytest.mark.parametrize("ps", [gen_convex(7), gen_random_points(6, 2, 400)],
                             ids=["convex-7", "random-6"])
    def test_states_distinct_sorted_and_built(self, ps):
        tris, _ = _flip_graph(initial_triangulation(ps))
        lists = [sorted(t.edges) for t in tris]
        assert len(lists) >= 2
        assert all(a < b for a, b in zip(lists, lists[1:]))  # sorted, so distinct
        for tri, edges in zip(tris, lists):
            assert tri.ps is ps
            assert tri.apex == build(ps, edges).apex


# The square's seed map flips into the other diagonal, but with every other
# map given no moves the flip relation is one-way: that state reaches nothing.
_DISCONNECTED = """
import sys
from flipdist import oracle
from flipdist.geometry import PointSet
from flipdist.triangulation import build

ps = PointSet.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
tri = build(ps, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
move_table = oracle._move_table
oracle._move_table = lambda xs, ys, apex, *rest: move_table(xs, ys, apex, *rest) if apex is tri.apex else {}
try:
    oracle.graph_stats(ps, tri)
except AssertionError as exc:
    print(f"optimize={sys.flags.optimize} {exc}")
"""


class TestGraphStats:
    def test_square(self, square_ps, square_tris):
        stats = graph_stats(square_ps, square_tris[0])
        assert stats.order == 2
        assert stats.diameter == 1
        assert stats.distance_histogram == {0: 2, 1: 2}

    def test_pentagon_is_five_cycle(self):
        ps, tri = convex_pair(5)
        stats = graph_stats(ps, tri)
        assert stats.order == 5
        assert stats.diameter == 2
        assert stats.distance_histogram == {0: 5, 1: 10, 2: 10}

    def test_hexagon(self):
        ps, tri = convex_pair(6)
        stats = graph_stats(ps, tri)
        assert stats.order == 14
        assert stats.diameter == 4
        assert stats.distance_histogram == {0: 14, 1: 42, 2: 72, 3: 60, 4: 8}

    def test_histogram_totals_order_squared(self):
        ps = gen_random_points(6, seed=5, bound=300)
        stats = graph_stats(ps, initial_triangulation(ps))
        assert sum(stats.distance_histogram.values()) == stats.order ** 2
        assert stats.distance_histogram[0] == stats.order
        assert max(stats.distance_histogram) == stats.diameter

    def test_diameter_matches_pairwise_bfs(self):
        ps, tri = convex_pair(5)
        tris, _ = _flip_graph(tri)
        worst = max(bfs_distance(a, b, cap=10)[0] for a in tris for b in tris)
        assert graph_stats(ps, tri).diameter == worst

    def test_mismatched_point_sets(self, square_tris):
        with pytest.raises(PointSetMismatch):
            graph_stats(gen_convex(4), square_tris[0])

    def test_disconnected_graph_raises_under_optimize(self):
        proc = subprocess.run([sys.executable, "-O", "-c", _DISCONNECTED], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "optimize=1 flip graph must be connected\n"
