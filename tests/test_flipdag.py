"""Flip dependency DAG tests.

The load-bearing claim is that every topological order of the dependency DAG
replays a flip sequence to the same endpoint.  Arcs are cross-checked against
a second, naively coded detector, and the reordering claim is exercised on
BFS shortest witnesses.
"""

from __future__ import annotations

import pytest

from flipdist.errors import InvalidAt, ValidationError
from flipdist.flipdag import (
    FlipDag,
    FlipSequence,
    build_dag,
    check_reordering,
    intermediates,
    replay,
    topological_sorts_sample,
)
from flipdist.instances import gen_convex, gen_random_points, initial_triangulation, random_walk_triangulation
from flipdist.oracle import bfs_distance
from flipdist.triangulation import FlipRecord, build, flip

from conftest import convex_pair, tri_of


def hexagon_fan():
    ps = gen_convex(6)
    hull = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    return build(ps, hull + [(0, 2), (0, 3), (0, 4)])


def chained(tri, edges):
    """Apply flips along `edges` in order, returning the recorded sequence."""
    recs = []
    cur = tri
    for e in edges:
        cur, rec = flip(cur, e)
        recs.append(rec)
    return FlipSequence(start=tri, flips=tuple(recs))


def witness_sequences(max_cases=12):
    """Shortest flip sequences harvested from BFS on assorted point sets."""
    out = []
    for n, seed in [(6, 0), (6, 1), (7, 2), (7, 3)]:
        ps = gen_random_points(n, seed=seed, bound=500)
        start = initial_triangulation(ps)
        for walk_seed in range(3):
            end = random_walk_triangulation(start, steps=4, seed=walk_seed)
            result = bfs_distance(start, end, cap=6)
            assert result is not None
            out.append(result[1])
    ps, start = convex_pair(7)
    for walk_seed in range(3):
        end = random_walk_triangulation(start, steps=5, seed=walk_seed + 20)
        out.append(bfs_distance(start, end, cap=8)[1])
    return [seq for seq in out if len(seq) > 0][:max_cases]


def naive_arcs(seq):
    """Second opinion on the arc rule, coded as a forward scan per flip."""
    steps = intermediates(seq)
    arcs = set()
    for i, rec_i in enumerate(seq.flips):
        created = rec_i.resulting
        for j in range(i + 1, len(seq.flips)):
            removed = seq.flips[j].underlying
            if removed == created:
                arcs.add((i, j))
                break  # the created edge is gone; later flips depend on j instead
            tri = steps[j]
            if created in tri.edges and removed in tri.edges:
                if set(tri_of(tri)[created]) & set(tri_of(tri)[removed]):
                    arcs.add((i, j))
    return arcs


class TestReplayValidation:
    def test_empty_sequence(self, square_tris):
        seq = FlipSequence(start=square_tris[0], flips=())
        assert intermediates(seq) == [square_tris[0]]
        assert replay(seq) == square_tris[0]

    def test_single_flip(self, square_tris):
        a, b = square_tris
        _, rec = flip(a, (0, 2))
        assert replay(FlipSequence(start=a, flips=(rec,))) == b

    def test_unflippable_edge_raises_with_index(self, square_tris):
        rec = FlipRecord(underlying=(0, 1), resulting=(2, 3))
        with pytest.raises(InvalidAt) as exc:
            replay(FlipSequence(start=square_tris[0], flips=(rec,)))
        assert exc.value.index == 0

    def test_absent_edge_fails_at_second_step(self, square_tris):
        _, rec = flip(square_tris[0], (0, 2))
        with pytest.raises(InvalidAt) as exc:
            replay(FlipSequence(start=square_tris[0], flips=(rec, rec)))
        assert exc.value.index == 1

    def test_mismatched_resulting_edge(self):
        tri = initial_triangulation(gen_convex(5))
        rec = FlipRecord(underlying=(0, 2), resulting=(1, 4))
        with pytest.raises(InvalidAt) as exc:
            replay(FlipSequence(start=tri, flips=(rec,)))
        assert exc.value.index == 0


class TestFlipDagValue:
    def test_arcs_must_point_forward(self):
        with pytest.raises(ValidationError):
            FlipDag(node_count=3, arcs=frozenset({(2, 1)}))
        with pytest.raises(ValidationError):
            FlipDag(node_count=2, arcs=frozenset({(0, 2)}))
        with pytest.raises(ValidationError):
            FlipDag(node_count=1, arcs=frozenset({(0, 0)}))


class TestBuildDag:
    def test_single_flip_no_arcs(self, square_tris):
        seq = chained(square_tris[0], [(0, 2)])
        assert build_dag(seq) == FlipDag(node_count=1, arcs=frozenset())

    def test_flip_and_undo_is_a_chain(self, square_tris):
        seq = chained(square_tris[0], [(0, 2), (1, 3)])
        assert build_dag(seq).arcs == {(0, 1)}

    def test_independent_flips_have_no_arc(self):
        # (0,2) and (0,4) sit in quads that share no triangle
        seq = chained(hexagon_fan(), [(0, 2), (0, 4)])
        assert build_dag(seq).arcs == frozenset()

    def test_shared_triangle_forces_arc(self):
        # flipping (0,2) makes (1,3), which flanks (0,3) when it is removed
        seq = chained(hexagon_fan(), [(0, 2), (0, 3)])
        assert build_dag(seq).arcs == {(0, 1)}

    def test_matches_naive_detector(self):
        for seq in witness_sequences():
            assert build_dag(seq).arcs == naive_arcs(seq)

    def test_node_count_matches_length(self):
        for seq in witness_sequences(max_cases=4):
            assert build_dag(seq).node_count == len(seq)


class TestTopologicalSortsSample:
    def test_no_arcs_yields_varied_permutations(self):
        dag = FlipDag(node_count=4, arcs=frozenset())
        orders = topological_sorts_sample(dag, count=30, seed=0)
        assert all(sorted(o) == [0, 1, 2, 3] for o in orders)
        assert len({tuple(o) for o in orders}) > 1

    def test_chain_admits_only_identity(self):
        dag = FlipDag(node_count=3, arcs=frozenset({(0, 1), (1, 2)}))
        for order in topological_sorts_sample(dag, count=10, seed=1):
            assert order == [0, 1, 2]

    def test_orders_respect_arcs(self):
        for seq in witness_sequences(max_cases=6):
            dag = build_dag(seq)
            for order in topological_sorts_sample(dag, count=5, seed=7):
                position = {v: p for p, v in enumerate(order)}
                assert all(position[i] < position[j] for i, j in dag.arcs)

    def test_negative_count_rejected(self):
        dag = FlipDag(node_count=2, arcs=frozenset())
        assert topological_sorts_sample(dag, 0, seed=0) == []
        with pytest.raises(ValidationError, match="negative sample count -1"):
            topological_sorts_sample(dag, -1, seed=0)

    def test_deterministic_for_seed(self):
        dag = FlipDag(node_count=5, arcs=frozenset({(0, 3), (1, 4)}))
        assert (topological_sorts_sample(dag, 8, seed=5)
                == topological_sorts_sample(dag, 8, seed=5))


class TestCheckReordering:
    def test_identity_always_passes(self):
        for seq in witness_sequences(max_cases=6):
            assert check_reordering(seq, list(range(len(seq))))

    def test_dependent_reversal_fails(self, square_tris):
        seq = chained(square_tris[0], [(0, 2), (1, 3)])
        assert not check_reordering(seq, [1, 0])

    def test_shared_triangle_reversal_fails(self):
        seq = chained(hexagon_fan(), [(0, 2), (0, 3)])
        assert not check_reordering(seq, [1, 0])

    def test_independent_swap_passes(self):
        seq = chained(hexagon_fan(), [(0, 2), (0, 4)])
        assert check_reordering(seq, [1, 0])

    def test_non_permutation_rejected(self, square_tris):
        seq = chained(square_tris[0], [(0, 2)])
        with pytest.raises(ValidationError):
            check_reordering(seq, [0, 0])
        with pytest.raises(ValidationError):
            check_reordering(seq, [1])

    def test_all_topological_orders_replay_identically(self):
        checked = 0
        for seq in witness_sequences():
            dag = build_dag(seq)
            for order in topological_sorts_sample(dag, count=10, seed=13):
                assert check_reordering(seq, order)
                checked += 1
        assert checked >= 100
