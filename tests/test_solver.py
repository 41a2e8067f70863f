"""Exactly-k search tests.

Counting identities (compositions, iteration shapes) are checked against
closed forms and exhaustive enumeration filters; search answers are checked
against the BFS oracle, including that no budget below the true distance is
ever accepted.
"""

from __future__ import annotations

import itertools
import math
import subprocess
import sys

import pytest

from flipdist import _kernel, _searchpure, solver
from flipdist._kernel import compiled_available, kernel_for, make_prep
from flipdist.errors import EdgeAbsent, PointSetMismatch, ValidationError
from flipdist.flipdag import replay
from flipdist.instances import gen_convex, gen_random_points, initial_triangulation, random_walk_triangulation
from flipdist.oracle import _flip_graph, bfs_distance
from flipdist.solver import (
    _MOVES,
    Composition,
    FlipBack,
    IterationShape,
    Move,
    _code_action,
    _package,
    compositions,
    flip_distance_upto,
    iteration_shapes,
    search_exact,
    search_upto,
    transform,
)
from flipdist.triangulation import build

from conftest import convex_pair
from test_kernels import BACKENDS, instance_pairs, parity_pairs
from test_prune import fan


FLIP_BACK = FlipBack()


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def shape_tokens_valid(tokens: tuple[str, ...], k: int) -> bool:
    """Independent filter: k FlipBacks, k-1 Moves, FlipBack last, and no
    proper prefix with more FlipBacks than Moves."""
    if len(tokens) != 2 * k - 1 or tokens[-1] != "F":
        return False
    moves = flips = 0
    for i, tok in enumerate(tokens):
        flips += tok == "F"
        moves += tok != "F"
        if i < len(tokens) - 1 and flips > moves:
            return False
    return flips == k


class TestActions:
    def test_move_direction_range(self):
        assert [str(Move(d)) for d in range(4)] == ["M0", "M1", "M2", "M3"]
        with pytest.raises(ValidationError):
            Move(4)
        with pytest.raises(ValidationError):
            Move(-1)

    def test_flip_back_token(self):
        assert str(FlipBack()) == "F"
        assert FlipBack() == FLIP_BACK


class TestIterationShape:
    def test_k_property_and_str(self):
        shape = IterationShape((Move(1), FLIP_BACK, FLIP_BACK))
        assert shape.k == 2
        assert str(shape) == "M1 F F"

    def test_must_end_with_flip_back(self):
        with pytest.raises(ValidationError):
            IterationShape((FLIP_BACK, Move(0), FLIP_BACK, Move(1)))

    def test_flip_count_must_exceed_moves_by_one(self):
        with pytest.raises(ValidationError):
            IterationShape((Move(0), FLIP_BACK))
        with pytest.raises(ValidationError):
            IterationShape((FLIP_BACK, FLIP_BACK))

    def test_prefix_rule(self):
        # F M F would pop an empty stack at the first action
        with pytest.raises(ValidationError):
            IterationShape((FLIP_BACK, Move(0), FLIP_BACK))


class TestCompositions:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_counts_are_powers_of_two(self, k):
        assert sum(1 for _ in compositions(k)) == 2 ** (k - 1)

    def test_k_three_exact_order(self):
        assert [c.parts for c in compositions(3)] == [(1, 1, 1), (1, 2), (2, 1), (3,)]

    def test_lexicographic_order(self):
        parts = [c.parts for c in compositions(6)]
        assert parts == sorted(parts)
        assert len(set(parts)) == len(parts)

    def test_parts_sum_to_k(self):
        assert all(c.k == 7 for c in compositions(7))

    def test_budget_above_the_recursion_limit(self):
        # each composition is stepped from the one before, never recursed
        assert next(compositions(5000)).parts == (1,) * 5000

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            list(compositions(0))
        with pytest.raises(ValidationError):
            Composition((2, 0, 1))


class TestIterationShapes:
    def test_k_one(self):
        assert [str(s) for s in iteration_shapes(1)] == ["F"]

    def test_k_two_exact_order(self):
        assert [str(s) for s in iteration_shapes(2)] == [
            "M0 F F", "M1 F F", "M2 F F", "M3 F F"]

    def test_k_three_leading_shapes(self):
        first = [str(s) for s in itertools.islice(iteration_shapes(3), 5)]
        assert first == ["M0 M0 F F F", "M0 M1 F F F", "M0 M2 F F F",
                         "M0 M3 F F F", "M0 F M0 F F"]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_closed_form_count(self, k):
        count = sum(1 for _ in iteration_shapes(k))
        assert count == catalan(k - 1) * 4 ** (k - 1)
        assert count <= math.comb(2 * (k - 1), k - 1) * 4 ** (k - 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_exhaustive_filter(self, k):
        tokens = ["M0", "M1", "M2", "M3", "F"]
        wanted = {cand for cand in itertools.product(tokens, repeat=2 * k - 1)
                  if shape_tokens_valid(cand, k)}
        got = {tuple(str(a) for a in s.actions) for s in iteration_shapes(k)}
        assert got == wanted

    @pytest.mark.parametrize("k", [5, 6])
    def test_matches_move_pattern_filter(self, k):
        # full 5-ary enumeration is 5^11 strings at k=6; filtering the M/F
        # skeleton and weighting by 4^moves counts the same set
        expected = sum(4 ** (k - 1)
                       for cand in itertools.product("MF", repeat=2 * k - 1)
                       if shape_tokens_valid(cand, k))
        assert sum(1 for _ in iteration_shapes(k)) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            list(iteration_shapes(0))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_same_order_as_recursive_version(self, k):
        assert list(iteration_shapes(k)) == list(recursive_iteration_shapes(k))

    def test_large_k_needs_no_recursion(self):
        # the recursive version went two frames deep per action
        first = next(iteration_shapes(1000))
        assert first.k == 1000
        assert str(first) == " ".join(["M0"] * 999 + ["F"] * 1000)


def recursive_iteration_shapes(k_i: int):
    """iteration_shapes as a recursive generator, kept verbatim from before it
    walked an explicit stack."""
    if k_i < 1:
        raise ValidationError(f"iteration shapes need k_i >= 1, got {k_i}")

    def rec(m: int, f: int, prefix: list):
        if f == k_i:
            yield IterationShape(tuple(prefix))
            return
        if m < k_i - 1:
            for mv in _MOVES:
                prefix.append(mv)
                yield from rec(m + 1, f, prefix)
                prefix.pop()
        if f < m or (m == k_i - 1 and f == k_i - 1):
            prefix.append(FLIP_BACK)
            yield from rec(m, f + 1, prefix)
            prefix.pop()

    yield from rec(0, 0, [])


class TestTransform:
    def test_single_flip(self, square_tris):
        a, b = square_tris
        result = transform(a, (0, 2), IterationShape((FLIP_BACK,)))
        assert result is not None
        cur, flips = result
        assert cur == b
        assert [str(r) for r in flips] == ["0-2 -> 1-3"]

    def test_start_edge_must_exist(self, square_tris):
        with pytest.raises(EdgeAbsent):
            transform(square_tris[0], (1, 3), IterationShape((FLIP_BACK,)))

    def test_move_beyond_neighbor_count_prunes(self, square_tris):
        # hull edge (0,1) has two neighbors, directions 2 and 3 do not exist
        shape = IterationShape((Move(2), FLIP_BACK, FLIP_BACK))
        assert transform(square_tris[0], (0, 1), shape) is None

    def test_unflippable_top_prunes(self, square_tris):
        assert transform(square_tris[0], (0, 1), IterationShape((FLIP_BACK,))) is None

    def test_stale_pop_prunes(self):
        # walk (0,2) -> (0,3) -> (0,2); flipping the top (0,2) and later
        # popping back to the buried copy finds it flipped away
        ps = gen_convex(6)
        hull = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
        fan = build(ps, hull + [(0, 2), (0, 3), (0, 4)])
        shape = IterationShape((Move(2), Move(0), FLIP_BACK, FLIP_BACK, FLIP_BACK))
        assert transform(fan, (0, 2), shape) is None

    def test_two_flip_iteration(self):
        # from (0,2) direction 2 reaches the interior edge (0,3)
        ps, tri = convex_pair(5)
        shape = IterationShape((Move(2), FLIP_BACK, FLIP_BACK))
        result = transform(tri, (0, 2), shape)
        assert result is not None
        cur, flips = result
        assert len(flips) == 2
        assert cur.ps == ps


class TestSearchExact:
    def test_zero_budget_equal(self, square_tris):
        a = square_tris[0]
        res = search_exact(a, a, 0)
        assert res is not None
        assert res.k == 0
        assert res.composition == Composition(())
        assert len(res.sequence) == 0
        assert res.starts == () and res.shapes == ()

    def test_zero_budget_unequal(self, square_tris):
        assert search_exact(*square_tris, 0) is None

    def test_square_single_flip(self, square_tris):
        a, b = square_tris
        res = search_exact(a, b, 1)
        assert res is not None
        assert replay(res.sequence) == b
        assert res.starts == ((0, 2),)
        assert [str(s) for s in res.shapes] == ["F"]

    def test_no_budget_below_distance_accepts(self):
        ps, start = convex_pair(6)
        tris, _ = _flip_graph(start)
        for target in tris:
            d, _ = bfs_distance(start, target, cap=10)
            for k in range(d):
                assert search_exact(start, target, k) is None
            assert search_exact(start, target, d) is not None

    def test_witness_structure(self):
        ps, start = convex_pair(6)
        target = random_walk_triangulation(start, steps=6, seed=4)
        d, _ = bfs_distance(start, target, cap=8)
        res = search_exact(start, target, d)
        assert res is not None
        assert len(res.sequence) == d == res.k
        assert len(res.starts) == len(res.shapes) == len(res.composition.parts)
        assert [s.k for s in res.shapes] == list(res.composition.parts)
        assert replay(res.sequence) == target

    def test_incomplete_above_distance(self, square_tris):
        # a two-flip round trip a -> b -> a exists, but iterations only start
        # on edges missing from the target, and a == target leaves none;
        # distance scans are unaffected because k = 0 already answers
        a = square_tris[0]
        assert search_exact(a, a, 2) is None
        assert flip_distance_upto(a, a, 2) == 0

    def test_negative_budget(self, square_tris):
        with pytest.raises(ValidationError):
            search_exact(*square_tris, -1)

    def test_mismatched_point_sets(self, square_tris):
        with pytest.raises(PointSetMismatch):
            search_exact(square_tris[0], initial_triangulation(gen_convex(4)), 1)
        # the pair is checked before the budget
        with pytest.raises(PointSetMismatch):
            search_exact(square_tris[0], initial_triangulation(gen_convex(4)), -1)


class TestDistanceScan:
    def test_matches_oracle_on_hexagon_pairs(self):
        ps, start = convex_pair(6)
        tris, _ = _flip_graph(start)
        for a in tris:
            for b in tris:
                d, _ = bfs_distance(a, b, cap=10)
                assert flip_distance_upto(a, b, 10) == d

    def test_matches_oracle_on_general_position(self):
        for seed in range(3):
            ps = gen_random_points(7, seed=seed, bound=600)
            start = initial_triangulation(ps)
            end = random_walk_triangulation(start, steps=5, seed=seed + 9)
            d, _ = bfs_distance(start, end, cap=6)
            assert flip_distance_upto(start, end, 6) == d

    def test_upto_returns_smallest_yes(self):
        ps, start = convex_pair(6)
        target = random_walk_triangulation(start, steps=4, seed=11)
        d, _ = bfs_distance(start, target, cap=8)
        res = search_upto(start, target, 8)
        assert res is not None and res.k == d

    def test_upto_none_when_budget_short(self, square_tris):
        a, b = square_tris
        assert search_upto(a, b, 0) is None
        assert flip_distance_upto(a, b, 0) is None

    @pytest.mark.parametrize("search", [search_upto, flip_distance_upto])
    def test_mismatched_point_sets(self, square_tris, search):
        other = initial_triangulation(gen_convex(4))
        for k_max in (-1, 0, 4):
            with pytest.raises(PointSetMismatch):
                search(square_tris[0], other, k_max)

    def test_scan_stops_at_first_accept(self, monkeypatch):
        # fan(0) -> fan(4) on the 12-gon accepts at composition (2, 1, ..., 1),
        # the first of the 2^7 compositions of 8 that starts with 2
        ps = gen_convex(12)
        start, target = fan(ps, 0), fan(ps, 4)
        order = list(compositions(8))
        drawn = []
        draw = _searchpure.compositions

        def counting(k):
            for parts in draw(k):
                drawn.append(parts)
                yield parts

        monkeypatch.setattr(_kernel, "_core", None)
        monkeypatch.setattr(_searchpure, "compositions", counting)
        res = search_exact(start, target, 8)
        i = order.index(res.composition)
        assert 0 < i < len(order) - 1
        assert len(drawn) == i + 1


# Feeds _package one corrupted accept per invariant on the square (start
# diagonal 0-2, target diagonal 1-3) and prints which ones raised.
_CORRUPT_ACCEPTS = """
from flipdist.geometry import PointSet
from flipdist.solver import _package
from flipdist.triangulation import build

ps = PointSet.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
hull = [(0, 1), (1, 2), (2, 3), (0, 3)]
a, b = build(ps, hull + [(0, 2)]), build(ps, hull + [(1, 3)])
flip = [(0, 2, 1, 3)]
cases = {
    "flip count": (a, b, 2, (flip, [(0, 2)], [[4]])),
    "composition": (a, b, 2, (flip + [(1, 3, 0, 2)], [(0, 2)], [[4]])),
    "action budget": (a, b, 1, (flip, [(0, 2)], [[0, 4, 4]])),
    "replay": (a, a, 1, (flip, [(0, 2)], [[4]])),
}
for name, args in cases.items():
    try:
        _package(*args)
    except AssertionError:
        print("raised", name)
"""


class TestPackageInvariants:
    def test_corrupted_accepts_raise_under_optimize(self):
        proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_ACCEPTS], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "raised flip count", "raised composition", "raised action budget", "raised replay"]


class TestShapeInterning:
    """_package builds each distinct action string's IterationShape once and
    hands the same object to every later accept with those codes."""

    def test_equal_codes_give_one_object(self, monkeypatch):
        # two solves on the default kernel, then one on the pure kernel
        pairs = instance_pairs()
        runs = [[search_upto(start, end, d) for start, end, d in pairs] for _ in range(2)]
        if compiled_available():
            monkeypatch.setattr(_kernel, "_core", None)
            runs.append([search_upto(start, end, d) for start, end, d in pairs])
            assert runs[2] == runs[0]
        seen: dict = {}
        shapes = [shape for results in runs for result in results for shape in result.shapes]
        for shape in shapes:
            assert seen.setdefault(shape.actions, shape) is shape
        assert len(seen) < len(shapes)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_shapes_equal_fresh_builds(self, backend):
        run = kernel_for(backend)
        accepts = 0
        for start, end, d in parity_pairs():
            if d == 0:
                continue
            accept = run(make_prep(start, end), d)
            result = _package(start, end, d, accept)
            assert len(result.shapes) == len(accept[2])
            for codes, shape in zip(accept[2], result.shapes):
                assert shape == IterationShape(tuple(map(_code_action, codes)))
            accepts += 1
        assert accepts == 185

    @pytest.mark.parametrize("codes", [[0], [4, 4], [7], [5], [-1, 4, 4]])
    def test_malformed_string_raises_every_call_and_is_not_kept(self, square_tris, codes):
        # k is the part a string of this length would fill; the k flips cross
        # the square's diagonal and back, so every other check passes
        k = (len(codes) + 1) // 2
        flips = [(0, 2, 1, 3), (1, 3, 0, 2)][:k]
        for _ in range(2):
            with pytest.raises(ValidationError):
                _package(square_tris[0], square_tris[k % 2], k, (flips, [(0, 2)], [codes]))
        assert tuple(codes) not in solver._SHAPES
