"""Deciding "can T_start become T_end in exactly k flips", parameterized by k.

The search splits k into compositions (k_1, ..., k_t).  One kernel call,
``run_budget(prep, k)``, tries them in lexicographic order, and the first
accepting run is the witness.  Each part k_i is one iteration: pick a start
edge, then execute 2k_i - 1 actions against a stack of edges (the walk).  A
Move(d) pushes the d-th neighbor of the current top edge; a FlipBack flips the
top and pops.  Iterations perform exactly k_i flips, the last action is always
a FlipBack, and no prefix before the final action may contain more FlipBacks
than Moves, so the stack never underflows.

Start edges are not branched over.  Each iteration takes the next edge from a
cursor over the lexicographically ordered "necessary" edges (edges of the
current triangulation missing from the target); when the cursor runs off the
end, the ordering is rebuilt from the current triangulation and the cursor
restarts.  An empty rebuild kills the branch.

Every flip removes exactly one edge, so the number of current edges missing
from the target never drops by more than one per flip: it is a lower bound on
the flips still needed.  ``search_exact`` answers NO outright for a budget
below it, and both kernels cut any branch whose remaining flips cannot cover
it.  The cut removes only branches that cannot accept, so the first accepting
run in search order, which is the witness returned, does not change.

The exactly-k search is sound for every k and complete when k is the true flip
distance, which is what ``flip_distance_upto`` exploits: it asks k' = b, b + 1,
..., k_max in turn, starting at that lower bound b, and the first YES is the
distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from . import _kernel, _searchpure
from .errors import EdgeAbsent, ValidationError
from .flipdag import FlipSequence
from .triangulation import (
    Edge,
    FlipRecord,
    Triangulation,
    edge_neighbors,
    flip,
    is_flippable,
    make_edge,
    necessary_edges,
)


@dataclass(frozen=True)
class Move:
    """Push the direction-th neighbor of the current edge."""

    direction: int

    def __post_init__(self):
        if not 0 <= self.direction <= 3:
            raise ValidationError(f"move direction {self.direction} outside 0..3")

    def __str__(self) -> str:
        return f"M{self.direction}"


@dataclass(frozen=True)
class FlipBack:
    """Flip the current edge and pop back to the previous one."""

    def __str__(self) -> str:
        return "F"


Action = Union[Move, FlipBack]
FLIP_BACK = FlipBack()
_MOVES = (Move(0), Move(1), Move(2), Move(3))


@dataclass(frozen=True)
class IterationShape:
    """The action string of one iteration: k_i FlipBacks interleaved with
    k_i - 1 Moves, FlipBack last, and Moves never outnumbered in any prefix
    before the final action."""

    actions: tuple[Action, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        flips = sum(isinstance(x, FlipBack) for x in self.actions)
        if flips != len(self.actions) - flips + 1:
            raise ValidationError("shape needs exactly one more FlipBack than Moves")
        if not isinstance(self.actions[-1], FlipBack):
            raise ValidationError("shape must end with a FlipBack")
        lead = 0
        for x in self.actions[:-1]:
            lead += 1 if isinstance(x, Move) else -1
            if lead < 0:
                raise ValidationError("prefix with more FlipBacks than Moves")

    @property
    def k(self) -> int:
        return (len(self.actions) + 1) // 2

    def __str__(self) -> str:
        return " ".join(str(a) for a in self.actions)


@dataclass(frozen=True)
class Composition:
    """An ordered split (k_1, ..., k_t) of the flip budget, every part >= 1."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if any(p < 1 for p in self.parts):
            raise ValidationError(f"composition parts must be positive: {self.parts}")

    @property
    def k(self) -> int:
        return sum(self.parts)


def compositions(k: int) -> Iterator[Composition]:
    """All 2^(k-1) compositions of k, lexicographic by parts: the order in
    which both kernels try them."""
    if k < 1:
        raise ValidationError(f"compositions need k >= 1, got {k}")
    return map(Composition, _searchpure.compositions(k))


def iteration_shapes(k_i: int) -> Iterator[IterationShape]:
    """Every valid shape for one iteration of k_i flips, in the search's
    deterministic order: Move(0) < Move(1) < Move(2) < Move(3) < FlipBack at
    each position.  There are Catalan(k_i - 1) * 4^(k_i - 1) of them.  The
    strings are walked on an explicit stack, as the kernels walk them, so no
    k_i meets the recursion limit."""
    if k_i < 1:
        raise ValidationError(f"iteration shapes need k_i >= 1, got {k_i}")

    # prefix is the walk's undo log: retreating pops its last action and tries
    # the one after it, with code 0..3 = Move(code) and 4 = FlipBack
    prefix: list[Action] = []
    m = f = code = 0
    while True:
        if f == k_i:
            yield IterationShape(tuple(prefix))
        elif code < 4 and m < k_i - 1:
            prefix.append(_MOVES[code])
            m, code = m + 1, 0
            continue
        elif f < m or (m == k_i - 1 and f == k_i - 1):
            prefix.append(FLIP_BACK)
            f, code = f + 1, 0
            continue
        while True:  # retreat past every FlipBack, which has no next action
            if not prefix:
                return
            last = prefix.pop()
            if last is not FLIP_BACK:
                m, code = m - 1, last.direction + 1
                break
            f -= 1


def transform(tri: Triangulation, start: Edge,
              shape: IterationShape) -> Optional[tuple[Triangulation, list[FlipRecord]]]:
    """Reference executor for one iteration, on full Triangulation values.

    Returns the resulting triangulation and the flips made, or None when the
    shape is infeasible from this start edge: a Move direction beyond the
    neighbor count, a FlipBack on an unflippable edge, or a pop exposing an
    edge that has since been flipped away.
    """
    start = make_edge(*start)
    if start not in tri.edges:
        raise EdgeAbsent(f"start edge {start} not in triangulation")
    cur = tri
    stack = [start]
    flips: list[FlipRecord] = []
    for action in shape.actions:
        top = stack[-1]
        if isinstance(action, Move):
            nbrs = edge_neighbors(cur, top)
            if action.direction >= len(nbrs):
                return None
            stack.append(nbrs[action.direction])
        else:
            if not is_flippable(cur, top):
                return None
            cur, rec = flip(cur, top)
            flips.append(rec)
            stack.pop()
            if stack and stack[-1] not in cur.edges:
                return None
    return cur, flips


@dataclass(frozen=True)
class SolveResult:
    """An accepting run: the witness flip sequence plus how the search found
    it (composition, per-iteration start edges and action shapes)."""

    k: int
    composition: Composition
    sequence: FlipSequence
    starts: tuple[Edge, ...]
    shapes: tuple[IterationShape, ...]


def _code_action(code: int) -> Action:
    return _MOVES[code] if code < 4 else FLIP_BACK


def _package(t_start: Triangulation, t_end: Triangulation, k: int,
             accept: _searchpure.Accept) -> SolveResult:
    raw_flips, raw_starts, raw_actions = accept
    recs = tuple(FlipRecord(underlying=(a, b), resulting=(c, d)) for a, b, c, d in raw_flips)
    shapes = tuple(IterationShape(tuple(_code_action(c) for c in acts)) for acts in raw_actions)
    comp = Composition(tuple(s.k for s in shapes))
    result = SolveResult(
        k=k,
        composition=comp,
        sequence=FlipSequence(start=t_start, flips=recs),
        starts=tuple((a, b) for a, b in raw_starts),
        shapes=shapes,
    )
    # accept-time invariants, raised explicitly so they hold under python -O
    if len(recs) != k:
        raise AssertionError("accepting run must flip exactly k times")
    if comp.k != k:
        raise AssertionError("composition parts must sum to k")
    if sum(len(s.actions) for s in shapes) > 2 * k:
        raise AssertionError("action budget exceeded")
    # the memoised endpoint, compared in place: replay would copy it first
    if result.sequence._endpoint.keys() != t_end.apex.keys():
        raise AssertionError("witness does not replay to the target")
    return result


def _scan(t_start: Triangulation, t_end: Triangulation, k_lo: int, k_hi: int) -> Optional[SolveResult]:
    """The witness for the smallest k in k_lo..k_hi with a YES, or None.  The
    bound and prep depend only on the pair, so they are computed once."""
    bound = len(necessary_edges(t_start, t_end))
    if k_hi < 0:
        raise ValidationError(f"negative flip budget {k_hi}")
    budgets = range(max(k_lo, bound), k_hi + 1)
    if not budgets:
        return None
    if budgets[0] == 0:  # a bound of 0 means the two are equal
        return SolveResult(k=0, composition=Composition(()),
                           sequence=FlipSequence(start=t_start, flips=()),
                           starts=(), shapes=())
    prep = _kernel.make_prep(t_start, t_end)
    run = _kernel.kernel_for(_kernel.resolve_backend(len(t_start.ps)))
    for k in budgets:
        accept = run(prep, k)
        if accept is not None:
            return _package(t_start, t_end, k, accept)
    return None


def search_exact(t_start: Triangulation, t_end: Triangulation, k: int) -> Optional[SolveResult]:
    """A witness using exactly k flips, or None if this search finds none.

    Sound for every k.  Complete when k is the true flip distance, so scan
    k upward (see flip_distance_upto) to compute distances.  None without
    searching when k is below the missing-edge lower bound.  One kernel call
    tries the compositions of k in order and stops at the first accept.
    """
    return _scan(t_start, t_end, k, k)


def search_upto(t_start: Triangulation, t_end: Triangulation, k_max: int) -> Optional[SolveResult]:
    """The witness for the smallest k' <= k_max with a YES, or None.  The
    scan starts at the missing-edge lower bound; every k' below it is a NO."""
    return _scan(t_start, t_end, 0, k_max)


def flip_distance_upto(t_start: Triangulation, t_end: Triangulation, k_max: int) -> Optional[int]:
    """The flip distance if it is <= k_max, else None."""
    res = search_upto(t_start, t_end, k_max)
    return None if res is None else res.k
