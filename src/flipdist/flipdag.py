"""Flip sequences and their dependency DAG.

A flip sequence F = <f_1, ..., f_r> applied to a start triangulation visits
intermediates T_0, ..., T_r.  The dependency DAG has one node per flip and an
arc i -> j (i < j) when flip j cannot be moved before flip i: either the edge
created by f_i is the edge removed by f_j, or it is a side of the
quadrilateral that f_j flips in T_{j-1}, provided the created edge survives
untouched strictly between the two flips.  Every topological order of this
DAG replays to the same endpoint, which is what ``check_reordering`` verifies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InvalidAt, ValidationError
# flip is unused here but stays a module name: perfbench/tracing.py patches flipdag.flip
from .triangulation import ApexMap, FlipRecord, Triangulation, _quad_sides, flip, flip_step  # noqa: F401


@dataclass(frozen=True)
class FlipSequence:
    """A start triangulation plus an ordered list of flips to apply to it."""

    start: Triangulation
    flips: tuple[FlipRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "flips", tuple(self.flips))

    def __len__(self) -> int:
        return len(self.flips)


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
    whose edge is not flippable or that inserts another edge."""
    apex = dict(start.apex)
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
    return [Triangulation(seq.start.ps, dict(apex)) for apex in _walk(seq.start, seq.flips)]


def replay(seq: FlipSequence) -> Triangulation:
    """The endpoint after applying the whole sequence.  Raises InvalidAt as ``_walk`` does."""
    *_, apex = _walk(seq.start, seq.flips)
    return Triangulation(seq.start.ps, apex)


def build_dag(seq: FlipSequence) -> FlipDag:
    """Arcs i -> j exactly where flip j depends on flip i (see module doc).

    The created-edge/removed-edge interaction is tested on T_{j-1}, the live
    state of one in-place replay just before flip j: a created edge still there
    shares a triangle with the removed edge iff it is a side of its quadrilateral.
    """
    r = len(seq.flips)
    # next_flip[i]: first p > i that flips the edge created by flip i (r + 1 if none)
    next_flip = [next((p for p in range(i + 1, r) if seq.flips[p].underlying == rec.resulting),
                      r + 1) for i, rec in enumerate(seq.flips)]

    arcs = set()
    for j, apex in enumerate(_walk(seq.start, seq.flips)):
        if j == r:
            break
        removed = seq.flips[j].underlying
        around = set(_quad_sides(removed, *apex.get(removed, (-1, -1))))  # none if absent
        for i in range(j):
            if next_flip[i] == j:
                arcs.add((i, j))
            elif next_flip[i] > j and seq.flips[i].resulting in around:
                arcs.add((i, j))
    return FlipDag(node_count=r, arcs=frozenset(arcs))


def topological_sorts_sample(dag: FlipDag, count: int, seed: int) -> list[list[int]]:
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


def check_reordering(seq: FlipSequence, perm: list[int]) -> bool:
    """True iff replaying the flips in `perm` order (matching each step by its
    underlying edge) is valid throughout and lands on replay(seq).  Raises
    InvalidAt if seq itself does not replay."""
    if sorted(perm) != list(range(len(seq.flips))):
        raise ValidationError("perm is not a permutation of the sequence indices")
    *_, target = _walk(seq.start, seq.flips)
    try:
        *_, apex = _walk(seq.start, (seq.flips[idx] for idx in perm))
    except InvalidAt:
        return False
    return apex.keys() == target.keys()


def to_dot(dag: FlipDag) -> str:
    """DOT dump with sequence indices as node labels, for eyeballing."""
    lines = ["digraph flipdag {"]
    lines.extend(f"  {i};" for i in range(dag.node_count))
    lines.extend(f"  {i} -> {j};" for i, j in sorted(dag.arcs))
    lines.append("}")
    return "\n".join(lines) + "\n"
