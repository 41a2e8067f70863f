"""In-place replay against the copying replay it replaced.

``flip`` now applies ``flip_step`` to copies of its input, and ``flipdag``
replays and checks reorderings on one mutable copy of the start, and builds
DAGs from the flip records once the sequence's own walk has checked them.
The reference functions below are the earlier versions, kept verbatim as
oracles (only renamed, with ``RefTri`` standing in for the former
``Triangulation`` that stored its triangle set and its edge -> triangles
map): a ``flip`` that copied and rebuilt the value on every call, the
``quad_around`` and ``is_flippable`` it read that map with, and the
``intermediates``, ``build_dag`` and ``check_reordering`` built on it.  A
``RefTri`` takes its map from ``conftest.tri_of`` once, at the start of a
walk, and keeps it up to date itself.  On seeded random walks both must give
the same states, arcs and answers, and on corrupted sequences the same
``InvalidAt`` index and message.  Every state, whether made by ``flip`` or by
in-place replay, must also hold the apex map that ``build`` gives its edges.

Two more references are kept verbatim for the same purpose: the ``_apply_flip``
that looped over ``_quad_sides`` and the ``topological_sorts_sample`` that
re-sorted its ready list after every pick.  The flip step that replaced the
first must give the same maps and sides, and the sampler that replaced the
second the same orders for every seed.  A sequence's endpoint is memoised, so
``build_dag``, ``replay`` and ``check_reordering`` walk the sequence's own
flips once between them.

The arc corpus adds sequences that reach the corners of ``build_dag``'s
creator map (an edge created, flipped away and created again; a flip undone
at once) and the kernel's witnesses on the benchmark-shaped instances; each
must give the arcs of ``reference_build_dag`` and of ``naive_arcs``.  The
reordering answers are compared on the walks, the arc corpus and the solver's
witnesses on the benchmark's two 300-point instances.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys

import pytest

from flipdist import flipdag
from flipdist.errors import EdgeAbsent, FlipDistError, InvalidAt, NotFlippable, ValidationError
from flipdist.flipdag import (
    FlipSequence,
    build_dag,
    check_reordering,
    intermediates,
    replay,
    topological_sorts_sample,
)
from flipdist.geometry import convex_hull_edges
from flipdist.instances import gen_convex, gen_random_points, initial_triangulation, random_walk_triangulation
from flipdist.solver import search_upto
from flipdist.triangulation import (
    FlipRecord,
    Triangulation,
    _apply_flip,
    _quad_sides,
    build,
    edge_neighbors,
    flip,
    is_flippable,
    make_edge,
)

from conftest import make_triangle, strictly_convex_quad, tri_of
from test_flipdag import naive_arcs
from test_oracle import large_n_pairs
from test_prune import fan

SIZES = range(6, 13)
SEEDS = range(4)


class RefTri:
    """The former triangulation value, which stored its triangle set."""

    def __init__(self, ps, edges, tri_of, triangles):
        self.ps = ps
        self.edges = edges
        self.tri_of = tri_of
        self.triangles = triangles

    def __eq__(self, other):
        return self.ps == other.ps and self.edges == other.edges


def ref_of(tri: Triangulation) -> RefTri:
    return RefTri(tri.ps, tri.edges, tri_of(tri), tri.triangles)


def reference_require_edge(tri, e):
    e = make_edge(*e)
    if e not in tri.edges:
        raise EdgeAbsent(f"edge {e} not in triangulation")
    return e


def reference_quad_around(tri, e):
    e = reference_require_edge(tri, e)
    tris = tri.tri_of[e]
    if len(tris) == 1:
        return None
    a, b = e
    apexes = [next(v for v in t if v != a and v != b) for t in tris]
    return (min(apexes), max(apexes))


def reference_flips_into(pts, tri_of, e):
    tris = tri_of[e]
    if len(tris) != 2:
        return None
    a, b = e
    c, d = sorted((sum(tris[0]) - a - b, sum(tris[1]) - a - b))
    return (c, d) if strictly_convex_quad(pts[a], pts[c], pts[b], pts[d]) else None


def reference_is_flippable(tri, e):
    return reference_flips_into(tri.ps.points, tri.tri_of, reference_require_edge(tri, e)) is not None


def reference_flip(tri, e):
    e = make_edge(*e)
    if not reference_is_flippable(tri, e):
        raise NotFlippable(f"edge {e} is not flippable")
    a, b = e
    c, d = reference_quad_around(tri, e)  # type: ignore[misc]
    new_edge = make_edge(c, d)

    gone1, gone2 = make_triangle(a, b, c), make_triangle(a, b, d)
    born1, born2 = make_triangle(a, c, d), make_triangle(b, c, d)

    tri_of = dict(tri.tri_of)
    del tri_of[e]
    tri_of[new_edge] = tuple(sorted((born1, born2)))

    def swap(side, old, new) -> None:
        tri_of[side] = tuple(sorted(new if t == old else t for t in tri_of[side]))

    swap(make_edge(a, c), gone1, born1)
    swap(make_edge(b, c), gone1, born2)
    swap(make_edge(a, d), gone2, born1)
    swap(make_edge(b, d), gone2, born2)

    edges = (tri.edges - {e}) | {new_edge}
    triangles = (tri.triangles - {gone1, gone2}) | {born1, born2}
    rec = FlipRecord(underlying=e, resulting=new_edge)
    return RefTri(tri.ps, edges, tri_of, triangles), rec


def reference_intermediates(seq):
    out = [seq.start]
    for i, rec in enumerate(seq.flips):
        cur = out[-1]
        if rec.underlying not in cur.edges or not reference_is_flippable(cur, rec.underlying):
            raise InvalidAt(i, f"edge {rec.underlying} not flippable")
        nxt, actual = reference_flip(cur, rec.underlying)
        if actual.resulting != rec.resulting:
            raise InvalidAt(i, f"flip yields {actual.resulting}, record says {rec.resulting}")
        out.append(nxt)
    return out


def reference_replay(seq):
    return reference_intermediates(seq)[-1]


def reference_share_triangle(tri, e1, e2) -> bool:
    if e1 not in tri.edges or e2 not in tri.edges:
        return False
    return not set(tri.tri_of[e1]).isdisjoint(tri.tri_of[e2])


def reference_build_dag(seq):
    steps = reference_intermediates(seq)
    r = len(seq.flips)

    next_flip = [r + 1] * r
    for i in range(r):
        created = seq.flips[i].resulting
        next_flip[i] = next(
            (p for p in range(i + 1, r) if seq.flips[p].underlying == created), r + 1)

    arcs = set()
    for j in range(r):
        removed = seq.flips[j].underlying
        for i in range(j):
            if next_flip[i] == j:
                arcs.add((i, j))
            elif next_flip[i] > j and reference_share_triangle(steps[j], seq.flips[i].resulting, removed):
                arcs.add((i, j))
    return arcs


def reference_check_reordering(seq, perm) -> bool:
    if sorted(perm) != list(range(len(seq.flips))):
        raise ValidationError("perm is not a permutation of the sequence indices")
    target = reference_replay(seq)
    cur = seq.start
    for idx in perm:
        rec = seq.flips[idx]
        if rec.underlying not in cur.edges or not reference_is_flippable(cur, rec.underlying):
            return False
        cur, actual = reference_flip(cur, rec.underlying)
        if actual.resulting != rec.resulting:
            return False
    return cur == target


def reference_apply_flip(apex, e, g):
    """Flip e into g, its ``_flips_into`` result, in place and untested; return the four sides."""
    a, b = e
    c, d = g
    # side ac's triangle abc becomes acd, so its apex b becomes d; likewise bc, ad, bd
    for side, old, new in zip(sides := _quad_sides(e, c, d), (b, a, b, a), (d, d, c, c)):
        x, y = apex[side]
        x, y = (new, y) if x == old else (x, new)
        apex[side] = (y, x) if x > y >= 0 else (x, y)
    del apex[e]
    apex[g] = e
    return sides


def reference_topological_sorts_sample(dag, count: int, seed: int) -> list[list[int]]:
    """`count` seeded random topological orders of the DAG (repeats allowed)."""
    if count < 0:
        raise ValidationError(f"negative sample count {count}")
    succs: dict[int, list[int]] = {i: [] for i in range(dag.node_count)}
    base_indeg = [0] * dag.node_count
    for i, j in sorted(dag.arcs):
        succs[i].append(j)
        base_indeg[j] += 1

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        indeg = list(base_indeg)
        ready = sorted(i for i in range(dag.node_count) if indeg[i] == 0)
        order = []
        while ready:
            pick = ready.pop(rng.randrange(len(ready)))
            order.append(pick)
            for j in succs[pick]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
            ready.sort()
        out.append(order)
    return out


def outcome(fn, *args):
    """fn's result, or the type, index and message of the flipdist error it raised."""
    try:
        return fn(*args)
    except FlipDistError as exc:
        return type(exc), getattr(exc, "index", None), str(exc)


def state(tri) -> tuple:
    """Edges, triangle map and triangle set: a RefTri's as it keeps them, a
    Triangulation's derived from its apex map."""
    if isinstance(tri, RefTri):
        return tri.edges, tri.tri_of, tri.triangles
    return tri.edges, tri_of(tri), tri.triangles


def assert_built_apexes(tri: Triangulation) -> None:
    """tri holds the apex map that build gives its edges."""
    assert tri.apex == build(tri.ps, tri.edges).apex


def point_sets():
    for n, seed in itertools.product(SIZES, SEEDS):
        yield n, seed, gen_convex(n) if seed == 0 else gen_random_points(n, seed, 1000)


def walks():
    """(label, start, flips) for seeded random walks of 1..2n flips, each
    flip checked against the reference flip, along with the outcome of
    flipping every edge, in both orientations, at each state."""
    for n, seed, ps in point_sets():
        label = f"{n}/{seed}"
        rng = random.Random(label)
        tri = initial_triangulation(ps)
        start, ref = tri, ref_of(tri)
        recs = []
        for _ in range(rng.randint(1, 2 * n)):
            for e in sorted(tri.edges):
                for probe in (e, e[::-1]):
                    got, want = outcome(flip, tri, probe), outcome(reference_flip, ref, probe)
                    if isinstance(want, tuple) and isinstance(want[0], type):
                        assert got == want, probe
                    else:
                        assert state(got[0]) == state(want[0]) and got[1] == want[1], probe
            options = [e for e in sorted(tri.edges) if is_flippable(tri, e)]
            e = rng.choice(options)
            (tri, rec), (ref, ref_rec) = flip(tri, e), reference_flip(ref, e)
            assert state(tri) == state(ref) and rec == ref_rec
            assert_built_apexes(tri)
            recs.append(rec)
        yield label, start, tuple(recs)


@pytest.fixture(scope="module")
def walk_cases():
    return list(walks())


def both(start, flips):
    return FlipSequence(start=start, flips=flips), FlipSequence(start=ref_of(start), flips=flips)


def test_flip_matches_reference_along_walks(walk_cases):
    """``walks`` compares every flip as it goes; this checks that it ran."""
    assert len(walk_cases) == len(SIZES) * len(SEEDS)
    assert sum(len(flips) for _, _, flips in walk_cases) > 3 * len(walk_cases)


def test_flip_step_leaves_inputs_alone(walk_cases):
    for _, start, flips in walk_cases:
        before = (set(start.edges), dict(start.apex))
        replay(FlipSequence(start=start, flips=flips))
        flip(start, next(e for e in sorted(start.edges) if is_flippable(start, e)))
        assert (start.edges, start.apex) == before


def test_values_share_no_apex_map(walk_cases):
    """``edges`` is a live view of the apex map, so two values sharing one
    map would change together.  Each state keeps the edges it was made with
    after every later state, and a reordering check, has been made."""
    for label, start, flips in walk_cases:
        made: list[tuple[Triangulation, list]] = []

        def keep(tri, edges=None):
            made.append((tri, sorted(tri.edges) if edges is None else edges))
            return tri

        tri = keep(start)
        for rec in flips:
            tri = keep(flip(tri, rec.underlying)[0])
        chain = [edges for _, edges in made]
        seq = FlipSequence(start=start, flips=flips)
        for tri, edges in zip(intermediates(seq), chain):
            keep(tri, edges)
        keep(replay(seq), chain[-1])
        for steps in range(1, len(flips) + 1):
            keep(random_walk_triangulation(start, steps, seed=steps))
        for perm in topological_sorts_sample(build_dag(seq), 3, len(flips)):
            assert check_reordering(seq, perm)
        for tri, edges in made:
            want = build(start.ps, edges)
            assert tri.edges == want.edges and tri.apex == want.apex, label


def test_same_intermediates(walk_cases):
    next_to_hull = 0
    for _, start, flips in walk_cases:
        seq, ref_seq = both(start, flips)
        got, want = intermediates(seq), reference_intermediates(ref_seq)
        assert [state(t) for t in got] == [state(t) for t in want]
        assert state(replay(seq)) == state(want[-1])
        hull = set(convex_hull_edges(start.ps))
        for tri, nxt, rec in zip(got, got[1:], flips):
            assert_built_apexes(tri)
            next_to_hull += not hull.isdisjoint(edge_neighbors(tri, rec.underlying))
            # the written-out flip step against the loop over _quad_sides it replaced
            e, g = rec.underlying, rec.resulting
            apex, ref_apex = dict(tri.apex), dict(tri.apex)
            sides = _apply_flip(apex, e, g)
            assert list(sides) == _quad_sides(e, *g) == reference_apply_flip(ref_apex, e, g)
            assert apex == ref_apex == nxt.apex
            assert list(apex) == list(ref_apex)
        assert_built_apexes(got[-1])
        assert_built_apexes(replay(seq))
    # the apex maps were checked after flips that change a hull edge's apex (c, -1)
    assert next_to_hull > len(walk_cases)


@pytest.mark.parametrize("side", [(0, 1), (1, 2), (0, 3), (2, 3)])
def test_apply_flip_rejects_a_side_without_the_replaced_apex(square_tris, side):
    # give one side the apex it would have after the flip, so its pair lacks
    # the apex that flipping (0, 2) into (1, 3) replaces
    apex = dict(square_tris[0].apex)
    apex[side] = (1 if 3 in side else 3, -1)
    with pytest.raises(AssertionError, match="apex table corrupted"):
        _apply_flip(apex, (0, 2), (1, 3))


def test_same_dag_arcs(walk_cases):
    with_arcs = 0
    for _, start, flips in walk_cases:
        seq, ref_seq = both(start, flips)
        arcs = build_dag(seq).arcs
        assert arcs == reference_build_dag(ref_seq)
        with_arcs += bool(arcs)
    assert with_arcs > len(walk_cases) // 2


def recurring_walks():
    """(label, start, flips) for seeded walks of 3n flips that flip the edge
    just made straight back one step in four, else a random flippable edge,
    so that edges are also flipped away and made again further apart."""
    for n, seed, ps in point_sets():
        label = f"{n}/{seed}/recur"
        rng = random.Random(label)
        tri = start = initial_triangulation(ps)
        recs = []
        for _ in range(3 * n):
            if recs and rng.random() < 0.25:
                e = recs[-1].resulting
            else:
                e = rng.choice([e for e in sorted(tri.edges) if is_flippable(tri, e)])
            tri, rec = flip(tri, e)
            recs.append(rec)
        yield label, start, tuple(recs)


def kernel_witnesses():
    """(label, start, flips) for the solver's witnesses on the benchmark's
    instances, built from the public generators with the same parameters:
    fan(0) -> fan(v) on the convex 12-gon for v = 1..6 (scan bound 10), and a
    walk of 7 + s % 4 flips on gen_random_points(10 + s % 3, s, 1000) for
    s = 0..23 (scan bound the walk length)."""
    convex = gen_convex(12)
    start = initial_triangulation(convex)
    pairs = [(f"fan0-fan{v}", start, 10, fan(convex, v)) for v in range(1, 7)]
    for s in range(24):
        start = initial_triangulation(gen_random_points(10 + s % 3, s, 1000))
        walk = 7 + s % 4
        pairs.append((f"random-s{s}", start, walk, random_walk_triangulation(start, walk, s)))
    for label, start, k_max, end in pairs:
        yield label, start, search_upto(start, end, k_max).sequence.flips


def kinds(flips) -> set[str]:
    """Which of the creator map's corners a sequence reaches."""
    out = set()
    last_made = {}
    for j, rec in enumerate(flips):
        # made twice, so flipped away in between, and not just a back-flip undone
        if j - last_made.get(rec.resulting, j) > 2:
            out.add("made again")
        last_made[rec.resulting] = j
    if any(f.resulting == g.underlying and f.underlying == g.resulting for f, g in zip(flips, flips[1:])):
        out.add("back-flip")
    return out


@pytest.fixture(scope="module")
def arc_corpus():
    return list(recurring_walks()) + list(kernel_witnesses())


def test_arc_corpus_matches_references(arc_corpus):
    assert len(arc_corpus) == len(SIZES) * len(SEEDS) + 6 + 24
    reached = {"made again": 0, "back-flip": 0}
    for label, start, flips in arc_corpus:
        seq, ref_seq = both(start, flips)
        assert build_dag(seq).arcs == reference_build_dag(ref_seq) == naive_arcs(seq), label
        for kind in kinds(flips):
            reached[kind] += 1
    assert min(reached.values()) > 0, reached


def large_n_witnesses():
    """(label, start, flips) for the solver's witnesses on the benchmark's two
    300-point large-n instances (scan bound the walk length)."""
    for label, start, end, walk in large_n_pairs():
        yield label, start, search_upto(start, end, walk).sequence.flips


def test_same_reordering_answers(walk_cases, arc_corpus):
    """The corpus adds edges touched more than once (back-flips, edges made
    again) and the 300-point witnesses, where the end test reads a handful
    of 880 edges."""
    answers = set()
    for label, start, flips in walk_cases + arc_corpus + list(large_n_witnesses()):
        rng = random.Random(f"{label}/perms")
        seq, ref_seq = both(start, flips)
        perms = topological_sorts_sample(build_dag(seq), 4, rng.randrange(1000))
        for _ in range(6):
            shuffled = list(range(len(flips)))
            rng.shuffle(shuffled)
            perms.append(shuffled)
        perms += [[0] * len(flips), list(range(1, len(flips) + 1))]
        for perm in perms:
            got = outcome(check_reordering, seq, perm)
            assert got == outcome(reference_check_reordering, ref_seq, perm), perm
            answers.add(got if isinstance(got, bool) else got[0])
    assert answers == {True, False, ValidationError}


def corruptions(rng, states, flips):
    """(index, bad record) pairs: a wrong result, an absent edge, a
    non-canonical edge and an out-of-range vertex, at random positions."""
    n = len(states[0].ps)
    for kind in ("result", "absent", "reversed", "range"):
        p = rng.randrange(len(flips))
        rec = flips[p]
        (a, b), edges = rec.underlying, states[p].edges
        others = sorted(set(range(n)) - {a, b})
        rest = [e for e in itertools.combinations(others, 2) if e != rec.resulting]
        if kind == "result":
            bad = FlipRecord(underlying=rec.underlying, resulting=rng.choice(rest))
        elif kind == "absent":
            u, v = rng.choice([e for e in itertools.combinations(range(n), 2) if e not in edges])
            far = [e for e in itertools.combinations(range(n), 2) if not {u, v} & set(e)]
            bad = FlipRecord(underlying=(u, v), resulting=rng.choice(far))
        elif kind == "reversed":
            bad = FlipRecord(underlying=(b, a), resulting=rec.resulting)
        else:
            bad = FlipRecord(underlying=(a, n + rng.randrange(3)), resulting=rec.resulting)
        yield p, bad


def test_same_invalid_at_on_corrupted_sequences(walk_cases, arc_corpus):
    kinds = 0
    for label, start, flips in walk_cases + arc_corpus:
        rng = random.Random(f"{label}/corrupt")
        states = reference_intermediates(both(start, flips)[1])
        for p, bad in corruptions(rng, states, flips):
            corrupt = flips[:p] + (bad,) + flips[p + 1:]
            seq, ref_seq = both(start, corrupt)
            perm = list(range(len(flips)))
            want = outcome(reference_intermediates, ref_seq)
            assert want[0] is InvalidAt and want[1] == p
            assert outcome(intermediates, seq) == want
            assert outcome(replay, seq) == want
            assert outcome(build_dag, seq) == outcome(reference_build_dag, ref_seq) == want
            assert outcome(check_reordering, seq, perm) == want
            assert outcome(reference_check_reordering, ref_seq, perm) == want
            kinds += 1
    assert kinds == 4 * (len(walk_cases) + len(arc_corpus))


# Runs build_dag on walks with one corrupted record (a reversed underlying
# edge, a non-canonical resulting edge) and prints what each call raised.
_CORRUPT_DAG = """
import random
from flipdist.errors import InvalidAt
from flipdist.flipdag import FlipSequence, build_dag
from flipdist.instances import gen_random_points, initial_triangulation
from flipdist.triangulation import FlipRecord, flip, is_flippable

print("debug", __debug__)
tri = start = initial_triangulation(gen_random_points(9, 3, 1000))
rng = random.Random(3)
flips = []
for _ in range(8):
    tri, rec = flip(tri, rng.choice([e for e in sorted(tri.edges) if is_flippable(tri, e)]))
    flips.append(rec)
for p in (3, 5):
    (a, b), (c, d) = flips[p].underlying, flips[p].resulting
    for bad in (FlipRecord((b, a), (c, d)), FlipRecord((a, b), (d, c))):
        try:
            dag = build_dag(FlipSequence(start=start, flips=flips[:p] + [bad] + flips[p + 1:]))
            print(p, "arcs", sorted(dag.arcs))
        except InvalidAt as exc:
            print(p, "InvalidAt", exc.index, exc)
"""


def plain_and_optimized(script: str) -> list[str]:
    """The lines script prints when run plainly; its first line reports
    ``__debug__``, and the others must repeat under ``python -O``."""
    runs = [subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True)
            for flags in ([], ["-O"])]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    plain, optimized = (proc.stdout.splitlines() for proc in runs)
    assert (plain[0], optimized[0]) == ("debug True", "debug False")
    assert optimized[1:] == plain[1:]
    return plain


def test_build_dag_checks_records_under_optimize():
    """build_dag's rule reads the records only once the walk has checked them;
    that check is a raise, not an assert, so ``python -O`` keeps it."""
    plain = plain_and_optimized(_CORRUPT_DAG)
    assert [line.split()[:3] for line in plain[1:]] == [[p, "InvalidAt", p] for p in "3355"]
    assert "not flippable" in plain[1] and "record says" in plain[2]


# The large-n random witness (300 points, no arcs) with a back-flip of its
# last flip appended, so that one order is not topological: its answers to
# check_reordering, before and after the memoised endpoint is swapped for a
# copy that raises when its edge set is listed or compared.
_UNSCANNED_ENDPOINT = """
from flipdist.flipdag import FlipSequence, build_dag, check_reordering
from flipdist.instances import gen_random_points, initial_triangulation, random_walk_triangulation
from flipdist.solver import search_upto
from flipdist.triangulation import FlipRecord


def scanned(*args):
    raise AssertionError("check_reordering scanned the endpoint's edge set")


class Unscannable(dict):
    keys = __iter__ = __eq__ = scanned
    __hash__ = None


print("debug", __debug__)
start = initial_triangulation(gen_random_points(300, 1, 1 << 20))
flips = search_upto(start, random_walk_triangulation(start, 6, 1), 6).sequence.flips
seq = FlipSequence(start=start, flips=flips + (FlipRecord(flips[-1].resulting, flips[-1].underlying),))
orders = [[0, 1, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 6, 5]]
print("arcs", sorted(build_dag(seq).arcs))
print("answers", [check_reordering(seq, order) for order in orders])
seq.__dict__["_endpoint"] = Unscannable(seq._endpoint)
print("answers", [check_reordering(seq, order) for order in orders])
"""


def test_check_reordering_scans_no_endpoint():
    """A stand-in for timing in the ``TestComplexityGuards`` style: the end
    test looks up only the records' edges in the endpoint, so a 300-point
    check gives the same answers when listing or comparing the endpoint's
    880 edges raises, also under ``python -O``."""
    assert plain_and_optimized(_UNSCANNED_ENDPOINT)[1:] == ["arcs [(5, 6)]", "answers [True, False]", "answers [True, False]"]


@pytest.mark.parametrize("rec, message", [
    (FlipRecord(underlying=(2, 0), resulting=(1, 3)), "edge (2, 0) not flippable"),
    (FlipRecord(underlying=(0, 2), resulting=(3, 1)), "flip yields (1, 3), record says (3, 1)"),
    (FlipRecord(underlying=(0, 9), resulting=(1, 3)), "edge (0, 9) not flippable"),
], ids=["reversed", "result", "range"])
def test_pinned_messages(square_tris, rec, message):
    seq = FlipSequence(start=square_tris[0], flips=(rec,))
    for fn, args in ((replay, (seq,)), (build_dag, (seq,)), (check_reordering, (seq, [0]))):
        with pytest.raises(InvalidAt) as exc:
            fn(*args)
        assert exc.value.index == 0
        assert str(exc.value) == f"flip sequence invalid at step 0: {message}"


def test_topological_samples_match_reference(walk_cases):
    """Inserting each newly ready node in order picks exactly as re-sorting did."""
    branching = 0
    for label, start, flips in walk_cases:
        dag = build_dag(FlipSequence(start=start, flips=flips))
        for seed in range(25):
            got = topological_sorts_sample(dag, 4, seed)
            assert got == reference_topological_sorts_sample(dag, 4, seed), (label, seed)
        branching += len({tuple(order) for order in got}) > 1
    assert branching > len(walk_cases) // 2


def counting_flip_step(monkeypatch) -> list[int]:
    """Route flipdag's flip steps through a counter; the list holds the count."""
    calls = [0]
    step = flipdag.flip_step

    def counted(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(flipdag, "flip_step", counted)
    return calls


def test_endpoint_walked_once(walk_cases, monkeypatch):
    """build_dag, replay and four reorderings walk the sequence's own flips
    once, plus one walk per permutation, and build_dag walks nothing on a
    sequence already replayed; each replay is a value with its own map."""
    calls = counting_flip_step(monkeypatch)
    for label, start, flips in walk_cases:
        seq = FlipSequence(start=start, flips=flips)
        calls[0] = 0
        dag = build_dag(seq)
        perms = topological_sorts_sample(dag, 4, len(flips))
        end = replay(seq)
        assert all(check_reordering(seq, perm) for perm in perms)
        assert calls[0] == len(flips) * (1 + len(perms)), label

        replayed = FlipSequence(start=start, flips=flips)
        replay(replayed)
        calls[0] = 0
        assert build_dag(replayed) == build_dag(seq) == dag
        assert calls[0] == 0, label

        again = replay(seq)
        assert again == end and again.apex == end.apex and again.apex is not end.apex
        edges = sorted(end.edges)
        e = next(e for e in edges if is_flippable(end, e))
        end.apex[e[::-1]] = end.apex.pop(e)  # a corrupting edit of one value's map
        assert sorted(again.edges) == edges == sorted(replay(seq).edges), label
        assert replay(seq).apex == again.apex


def test_failed_walk_is_not_memoised(walk_cases, monkeypatch):
    """A sequence that does not replay walks up to its bad flip, and raises
    the same InvalidAt, on every call, before any permuted walk or arc."""
    calls = counting_flip_step(monkeypatch)
    for label, start, flips in walk_cases:
        p = len(flips) // 2
        bad = FlipRecord(underlying=flips[p].underlying[::-1], resulting=flips[p].resulting)
        seq = FlipSequence(start=start, flips=flips[:p] + (bad,) + flips[p + 1:])
        perm = list(range(len(flips)))
        first = outcome(replay, seq)
        assert first[:2] == (InvalidAt, p), label
        for fn, args in ((replay, (seq,)), (build_dag, (seq,)), (check_reordering, (seq, perm)),
                         (build_dag, (seq,)), (replay, (seq,))):
            calls[0] = 0
            assert outcome(fn, *args) == first
            assert calls[0] == p + 1, label
