"""In-place replay against the copying replay it replaced.

``flip`` now applies ``flip_step`` to copies of its input, and ``flipdag``
replays, builds DAGs and checks reorderings on one mutable copy of the start.
The reference functions below are the earlier versions, kept verbatim as
oracles (only renamed, with ``RefTri`` standing in for the former
``Triangulation`` that stored its triangle set): a ``flip`` that copied and
rebuilt the value on every call, and the ``intermediates``, ``build_dag`` and
``check_reordering`` built on it.  On seeded random walks both must give the
same states, arcs and answers, and on corrupted sequences the same
``InvalidAt`` index and message.
"""

from __future__ import annotations

import itertools
import random

import pytest

from flipdist.errors import FlipDistError, InvalidAt, NotFlippable, ValidationError
from flipdist.flipdag import (
    FlipSequence,
    build_dag,
    check_reordering,
    intermediates,
    replay,
    topological_sorts_sample,
)
from flipdist.instances import gen_convex, gen_random_points, initial_triangulation
from flipdist.triangulation import (
    FlipRecord,
    Triangulation,
    flip,
    is_flippable,
    make_edge,
    make_triangle,
    quad_around,
)

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
    return RefTri(tri.ps, tri.edges, tri.tri_of, tri.triangles)


def reference_flip(tri, e):
    e = make_edge(*e)
    if not is_flippable(tri, e):
        raise NotFlippable(f"edge {e} is not flippable")
    a, b = e
    c, d = quad_around(tri, e)  # type: ignore[misc]
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
        if rec.underlying not in cur.edges or not is_flippable(cur, rec.underlying):
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
        if rec.underlying not in cur.edges or not is_flippable(cur, rec.underlying):
            return False
        cur, actual = reference_flip(cur, rec.underlying)
        if actual.resulting != rec.resulting:
            return False
    return cur == target


def outcome(fn, *args):
    """fn's result, or the type, index and message of the flipdist error it raised."""
    try:
        return fn(*args)
    except FlipDistError as exc:
        return type(exc), getattr(exc, "index", None), str(exc)


def state(tri) -> tuple:
    return tri.edges, tri.tri_of, tri.triangles


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
        before = (set(start.edges), dict(start.tri_of))
        replay(FlipSequence(start=start, flips=flips))
        flip(start, next(e for e in sorted(start.edges) if is_flippable(start, e)))
        assert (start.edges, start.tri_of) == before


def test_same_intermediates(walk_cases):
    for _, start, flips in walk_cases:
        seq, ref_seq = both(start, flips)
        got, want = intermediates(seq), reference_intermediates(ref_seq)
        assert [state(t) for t in got] == [state(t) for t in want]
        assert state(replay(seq)) == state(want[-1])


def test_same_dag_arcs(walk_cases):
    with_arcs = 0
    for _, start, flips in walk_cases:
        seq, ref_seq = both(start, flips)
        arcs = build_dag(seq).arcs
        assert arcs == reference_build_dag(ref_seq)
        with_arcs += bool(arcs)
    assert with_arcs > len(walk_cases) // 2


def test_same_reordering_answers(walk_cases):
    answers = set()
    for label, start, flips in walk_cases:
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


def test_same_invalid_at_on_corrupted_sequences(walk_cases):
    kinds = 0
    for label, start, flips in walk_cases:
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
    assert kinds == 4 * len(walk_cases)


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
