"""Flip sequences and their dependency DAG.

A flip sequence F = <f_1, ..., f_r> applied to a start triangulation visits
intermediates T_0, ..., T_r.  The dependency DAG has one node per flip and an
arc i -> j (i < j) when flip j cannot be moved before flip i: either the edge
created by f_i is the edge removed by f_j, or it is a side of the
quadrilateral that f_j flips in T_{j-1}, provided the created edge survives
untouched strictly between the two flips.  Every topological order of this
DAG replays to the same endpoint, which is what ``check_reordering`` verifies.
Its end test compares the two walks' maps only at the edges the records name:
a walk deletes and inserts only those edges, so every other edge has its
start membership in both maps, and agreement on the named edges is equality
of the whole edge sets.

A checked record gives its flip's quadrilateral: a walk accepts record j
only if ``_flips_into`` returns its ``resulting`` edge (c, d) for its
``underlying`` edge (a, b) in T_{j-1}, and that return value is the apex pair
of (a, b), so the quadrilateral's sides are exactly {a, b} x {c, d}.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import InvalidAt, ValidationError
# flip is unused here but stays a module name: perfbench/tracing.py patches flipdag.flip
from .triangulation import ApexMap, Edge, FlipRecord, Triangulation, flip, flip_step, make_edge  # noqa: F401


@dataclass(frozen=True)
class FlipSequence:
    """A start triangulation plus an ordered list of flips to apply to it."""

    start: Triangulation
    flips: tuple[FlipRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "flips", tuple(self.flips))

    def __len__(self) -> int:
        return len(self.flips)

    @cached_property
    def _endpoint(self) -> ApexMap:
        """The apex map after the sequence's own walk, computed on first use
        and kept, since neither field changes; never handed out, only copied.
        A walk that raises InvalidAt stores nothing, so it raises again."""
        *_, apex = _walk(self.start, self.flips)
        return apex


@dataclass(frozen=True)
class FlipDag:
    """Dependency DAG over flip indices 0..node_count-1; arcs point forward
    in sequence order, so acyclicity is structural."""

    node_count: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "arcs", frozenset(self.arcs))
        for i, j in self.arcs:
            if not 0 <= i < j < self.node_count:
                raise ValidationError(f"arc ({i}, {j}) not forward within {self.node_count} nodes")


def _walk(start: Triangulation, flips: Iterable[FlipRecord]) -> Iterator[ApexMap]:
    """The apex maps of T_0..T_r, each live until the next: one private copy
    of the start's, flipped in place.  Raises InvalidAt(i) at the first flip
    whose edge is not flippable or that inserts another edge.

    Maps are copied with ``.copy()``: CPython's ``dict(m)`` re-inserts every
    entry once m has had a deletion, as every flipped map has, while
    ``m.copy()`` clones the table (about 3x faster at 880 edges)."""
    apex = start.apex.copy()
    yield apex
    for i, rec in enumerate(flips):
        actual = flip_step(start.ps, apex, rec.underlying)
        if actual is None:
            raise InvalidAt(i, f"edge {rec.underlying} not flippable")
        if actual != rec.resulting:
            raise InvalidAt(i, f"flip yields {actual}, record says {rec.resulting}")
        yield apex


def intermediates(seq: FlipSequence) -> list[Triangulation]:
    """All of T_0..T_r.  Raises InvalidAt as ``_walk`` does."""
    return [Triangulation(seq.start.ps, apex.copy()) for apex in _walk(seq.start, seq.flips)]


def replay(seq: FlipSequence) -> Triangulation:
    """The endpoint after applying the whole sequence, as a value with its own
    copy of the memoised map.  Raises InvalidAt as ``_walk`` does."""
    return Triangulation(seq.start.ps, seq._endpoint.copy())


def build_dag(seq: FlipSequence) -> FlipDag:
    """Arcs i -> j exactly where flip j depends on flip i, read from the
    records once ``seq._endpoint`` has checked them (raising InvalidAt, also
    under ``python -O``; no walk after ``replay``), so flip j's sides are
    {a, b} x {c, d} (module doc).  ``made`` maps each created edge still there
    to its flip: an edge is created only while absent, so flip i's edge lasts
    untouched to T_{j-1} iff ``made`` maps it to i.  Flip j pops what it removes."""
    seq._endpoint  # noqa: B018 - the walk's check, for its InvalidAt
    made: dict[Edge, int] = {}
    arcs = set()
    for j, rec in enumerate(seq.flips):
        (a, b), (c, d) = rec.underlying, rec.resulting
        for i in (made.pop(rec.underlying, None), made.get(make_edge(a, c)), made.get(make_edge(b, c)),
                  made.get(make_edge(a, d)), made.get(make_edge(b, d))):
            if i is not None:
                arcs.add((i, j))
        made[rec.resulting] = j
    return FlipDag(node_count=len(seq.flips), arcs=frozenset(arcs))


def topological_sorts_sample(dag: FlipDag, count: int, seed: int) -> list[list[int]]:
    """`count` seeded random topological orders of the DAG (repeats allowed)."""
    if count < 0:
        raise ValidationError(f"negative sample count {count}")
    succs: list[list[int]] = [[] for _ in range(dag.node_count)]
    base_indeg = [0] * dag.node_count
    for i, j in sorted(dag.arcs):
        succs[i].append(j)
        base_indeg[j] += 1
    roots = [i for i, deg in enumerate(base_indeg) if deg == 0]

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        indeg = list(base_indeg)
        ready = list(roots)  # kept sorted, so a pick depends only on the seed and the DAG
        order = []
        while ready:
            pick = ready.pop(rng.randrange(len(ready)))
            order.append(pick)
            for j in succs[pick]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    insort(ready, j)
        out.append(order)
    return out


def check_reordering(seq: FlipSequence, perm: list[int]) -> bool:
    """True iff replaying the flips in `perm` order (matching each step by its
    underlying edge) is valid throughout and lands on replay(seq).  Raises
    InvalidAt if seq itself does not replay, before the permuted walk.

    A permuted walk that flips every record as written ends on replay(seq)'s
    edge set: each step removes a present edge and adds an absent one, so an
    edge ends present iff it starts present plus its additions minus its
    removals, a count that does not depend on the order.  So the answer rests
    on each step being valid, and the end test confirms it.  That endpoint is
    memoised on seq (``replay``, ``build_dag`` and every check share one walk
    of seq); a seq that fails is walked, and raises, on every call.

    The end test reads only the records' own edges, in O(r) for r flips, and
    is exactly the comparison of the two maps' edge sets.  Both walks start
    from seq.start's map, and an accepted step changes which edges are present
    only at its record's ``underlying`` edge (deleted) and ``resulting`` edge
    (inserted); ``_apply_flip`` changes only the values of the four sides.
    So an edge that no record names has its membership in seq.start at the
    end of both walks, and the two edge sets are equal iff they agree on every
    edge some record names, which is what the loop tests.
    """
    if sorted(perm) != list(range(len(seq.flips))):
        raise ValidationError("perm is not a permutation of the sequence indices")
    target = seq._endpoint
    try:
        *_, apex = _walk(seq.start, map(seq.flips.__getitem__, perm))
    except InvalidAt:
        return False
    for rec in seq.flips:
        e, g = rec.underlying, rec.resulting
        if (e in apex) is not (e in target) or (g in apex) is not (g in target):
            return False
    return True
