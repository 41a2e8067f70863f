"""Acceptance gate: nine criteria, one PASS/FAIL line each.

Each test prints its verdict line outside pytest's capture, so a plain
`pytest -v` run shows all nine lines.  The suites are cached at module level
because several criteria grade different properties of the same runs.
"""

from __future__ import annotations

import itertools
import math
import random
import subprocess
import sys
import time
from functools import lru_cache

from flipdist.flipdag import build_dag, check_reordering, replay, topological_sorts_sample
from flipdist.geometry import convex_hull_edges
from flipdist.instances import gen_convex, gen_random_points, initial_triangulation, random_walk_triangulation
from flipdist.oracle import _flip_graph, bfs_distance, graph_stats
from flipdist.solver import compositions, iteration_shapes, search_upto
from flipdist.triangulation import flip, is_flippable


def report(capsys, number: int, label: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok, f"criterion {number}: {label}"


@lru_cache(maxsize=None)
def convex_suite():
    """All ordered triangulation pairs of the convex 4..7-gons: BFS distance
    and the solver result at budget 10."""
    entries = []
    for n, expected_count in [(4, 2), (5, 5), (6, 14), (7, 42)]:
        tris, _ = _flip_graph(initial_triangulation(gen_convex(n)))
        assert len(tris) == expected_count
        for a in tris:
            for b in tris:
                d, witness = bfs_distance(a, b, cap=10)
                result = search_upto(a, b, 10)
                entries.append((n, a, b, d, witness, result))
    return entries


@lru_cache(maxsize=None)
def general_suite():
    """50 seeded random 7-point instances with walk length <= 6: BFS answer,
    solver answer, and the solver wall time."""
    entries = []
    for i in range(50):
        ps = gen_random_points(7, seed=1000 + i, bound=1000)
        start = initial_triangulation(ps)
        end = random_walk_triangulation(start, steps=i % 7, seed=2000 + i)
        d, witness = bfs_distance(start, end, cap=6)
        t0 = time.perf_counter()
        result = search_upto(start, end, 6)
        elapsed = time.perf_counter() - t0
        entries.append((start, end, d, witness, result, elapsed))
    return entries


def test_criterion_1_convex_oracle_equivalence(capsys):
    bad = [(n, d, r) for n, a, b, d, w, r in convex_suite()
           if r is None or r.k != d]
    pairs = len(convex_suite())
    report(capsys, 1,
           f"solver equals BFS on all {pairs} convex pairs, n=4..7", not bad)


def test_criterion_2_general_position_equivalence(capsys):
    suite = general_suite()
    wrong = [e for e in suite if e[4] is None or e[4].k != e[2]]
    slow = [e for e in suite if e[5] >= 60.0]
    report(capsys, 2,
           f"solver equals BFS on {len(suite)} random 7-point instances",
           not wrong and not slow)


def test_criterion_3_counting_identities(capsys):
    ok = all(sum(1 for _ in compositions(k)) == 2 ** (k - 1) for k in range(1, 13))

    def catalan(m: int) -> int:
        return math.comb(2 * m, m) // (m + 1)

    def skeleton_valid(tokens, k):
        moves = flips = 0
        for i, tok in enumerate(tokens):
            flips += tok == "F"
            moves += tok != "F"
            if i < len(tokens) - 1 and flips > moves:
                return False
        return tokens[-1] == "F" and flips == k

    for k in range(1, 7):
        count = sum(1 for _ in iteration_shapes(k))
        ok = ok and count == catalan(k - 1) * 4 ** (k - 1)
        ok = ok and count <= math.comb(2 * (k - 1), k - 1) * 4 ** (k - 1)
        if k <= 4:  # full enumeration over all five action symbols
            tokens = ["M0", "M1", "M2", "M3", "F"]
            wanted = {c for c in itertools.product(tokens, repeat=2 * k - 1)
                      if skeleton_valid(c, k)}
            got = {tuple(str(a) for a in s.actions) for s in iteration_shapes(k)}
            ok = ok and got == wanted
        else:  # move/flip skeletons weighted by direction choices
            expected = sum(4 ** (k - 1)
                           for c in itertools.product("MF", repeat=2 * k - 1)
                           if skeleton_valid(c, k))
            ok = ok and count == expected
    report(capsys, 3,
           "composition and shape counts match closed forms and filters", ok)


def test_criterion_4_reordering_witnesses(capsys):
    sequences = [w for n, a, b, d, w, r in convex_suite() if n >= 6 and 1 <= d]
    sequences += [w for s, e, d, w, r, t in general_suite() if d >= 1]
    checks = failures = 0
    for seq in sequences:
        dag = build_dag(seq)
        for order in topological_sorts_sample(dag, count=10, seed=17):
            checks += 1
            failures += not check_reordering(seq, order)
    ok = len(sequences) >= 100 and checks >= 1000 and failures == 0
    report(capsys, 4,
           f"{checks} reorderings of {len(sequences)} witnesses all replay", ok)


def test_criterion_5_action_budget(capsys):
    accepts = violations = 0
    for entries in (convex_suite(),
                    [(7, s, e, d, w, r) for s, e, d, w, r, t in general_suite()]):
        for entry in entries:
            result = entry[5]
            if result is None:
                continue
            accepts += 1
            actions = sum(len(shape.actions) for shape in result.shapes)
            if actions > 2 * result.k or len(result.sequence) != result.k:
                violations += 1
    ok = accepts > 0 and violations == 0
    report(capsys, 5,
           f"all {accepts} accepting runs used <= 2k actions and exactly k flips", ok)


def test_criterion_6_flip_invariants(capsys):
    point_sets = [gen_convex(8), gen_convex(10), gen_convex(12)]
    point_sets += [gen_random_points(n, seed=n * 7 + 1, bound=2000)
                   for n in (7, 8, 9, 10)]
    performed = violations = 0
    rng = random.Random(99)
    while performed < 10_000:
        for ps in point_sets:
            n = len(ps)
            h = len(convex_hull_edges(ps))
            cur = initial_triangulation(ps)
            for _ in range(10_000 // (len(point_sets) * 8) + 1):
                if performed >= 10_000:
                    break
                choices = sorted(e for e in cur.edges if is_flippable(cur, e))
                e = choices[rng.randrange(len(choices))]
                nxt, rec = flip(cur, e)
                performed += 1
                euler = (len(nxt.edges) == 3 * n - 3 - h
                         and len(nxt.triangles) == 2 * n - 2 - h)
                locality = set(cur.edges) ^ set(nxt.edges) == {rec.underlying, rec.resulting}
                back, rec2 = flip(nxt, rec.resulting)
                involution = back == cur and rec2.resulting == e
                violations += not (euler and locality and involution)
                cur = nxt
    ok = performed == 10_000 and violations == 0
    report(capsys, 6,
           f"{performed} random flips preserved Euler, locality, involution", ok)


def test_criterion_7_enumeration_counts(capsys):
    ok = True
    for n, want in [(4, 2), (5, 5), (6, 14), (7, 42), (8, 132)]:
        ps = gen_convex(n)
        order = graph_stats(ps, initial_triangulation(ps)).order
        m = n - 2
        assert want == math.comb(2 * m, m) // (m + 1)
        ok = ok and order == want
    report(capsys, 7, "graph_stats order matches Catalan counts for n=4..8", ok)


def test_criterion_8_witness_validity(capsys):
    checked = violations = 0
    for n, a, b, d, witness, result in convex_suite():
        for seq, target, dist in ((witness, b, d), (result.sequence, b, result.k)):
            checked += 1
            if len(seq) != dist or replay(seq) != target:
                violations += 1
    for start, end, d, witness, result, t in general_suite():
        for seq, dist in ((witness, d), (result.sequence, result.k)):
            checked += 1
            if len(seq) != dist or replay(seq) != end:
                violations += 1
    ok = checked > 0 and violations == 0
    report(capsys, 8, f"all {checked} reported witnesses replay exactly", ok)


def test_criterion_9_determinism(capsys, tmp_path):
    def run(*args: str) -> bytes:
        proc = subprocess.run([sys.executable, "-m", "flipdist"] + list(args),
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    gen_args = ("gen", "--mode", "random", "--n", "7", "--seed", "9",
                "--walk", "5", "--k", "5")
    first = run(*gen_args)
    ok = first == run(*gen_args)

    inst = tmp_path / "inst.flipdist"
    inst.write_bytes(first)
    solve_args = ("solve", "--in", str(inst), "--trace")
    ok = ok and run(*solve_args) == run(*solve_args)
    oracle_args = ("oracle", "--in", str(inst), "--witness")
    ok = ok and run(*oracle_args) == run(*oracle_args)
    report(capsys, 9, "gen, solve, oracle byte-identical across reruns", ok)
