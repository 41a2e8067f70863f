"""Pure-Python search kernel.

Runs the branch-and-prune walk search for one flip budget on the same apex
map and flip step as replay and the oracle: ``triangulation._flips_into``
decides whether an edge flips and into which, ``triangulation._apply_flip``
flips it and, applied to the created edge, undoes it.  The walk keeps the
count of edges still missing from the target itself.  Each composition is
searched by one loop over an explicit stack (``_walk``), never by recursion,
so no budget runs into Python's recursion limit.  It is the kernel that runs
when no compiler is available, and above the compiled kernel's 1024-point
cap.  The C extension ``_core`` (``_core.c``, compiled on first import by
``_kernel`` into a cache keyed by the source; a library beside it is never
loaded) implements the identical contract on its own arrays and must stay
behaviorally indistinguishable from it (the test suite diffs the two).  A
corrupt apex table raises AssertionError in both.  The search's
specification is ``solver``'s ``compositions``, ``iteration_shapes`` and
``transform``: the test suite checks both kernels against the literal search
built from them.

Kernel contract: ``run_budget(prep, k)`` tries the compositions of k >= 1 in
the order ``compositions`` yields them and returns None when none of them
transforms start into target, else the first accept as a triple

    flips   list of (a, b, c, d): edge (a, b) was flipped, creating (c, d)
    starts  list of (a, b): each iteration's start edge
    actions list per iteration of action codes, 0..3 = move direction, 4 = flip

Part i of the accepting composition is len(actions[i]) // 2 + 1.  A rejected
composition undoes every flip it made, so each one starts from the same state.
``prep`` comes from ``_kernel.make_prep``: the coordinates and the two apex
maps, which the kernel only reads, walking a copy of the start map.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Optional, Sequence

from .triangulation import ApexMap, Edge, _apply_flip, _flips_into

Prep = tuple[int, tuple[int, ...], tuple[int, ...], ApexMap, ApexMap]
Accept = tuple[list[tuple[int, int, int, int]], list[tuple[int, int]], list[list[int]]]


def compositions(k: int) -> Iterator[tuple[int, ...]]:
    """The 2^(k-1) compositions of k >= 1 in lexicographic order: drop the
    last part, add one to the part before it, append ones."""
    if k < 1:
        raise ValueError(f"flip budget {k} below 1")
    parts = [1] * k
    yield tuple(parts)
    while len(parts) > 1:
        last = parts.pop()
        parts[-1] += 1
        parts += [1] * (last - 1)
        yield tuple(parts)


def _walk(xs: Sequence[int], ys: Sequence[int], apex: ApexMap, target: ApexMap,
          nec: int, olex0: tuple[Edge, ...], parts: tuple[int, ...], k: int,
          flips: list[tuple[Edge, Edge]], acts: list[int]) -> Optional[list[tuple[tuple[Edge, ...], int]]]:
    """One composition's search, the paper's walk as one loop, with no
    recursion.  code is the next action to try at the current node: 0..3 =
    Move, 4 = FlipBack.  flips (flipped edge, created edge) and acts are the
    undo log, so retreating pops the last action and tries the one after it.
    nec is the number of edges of apex missing from target.  Returns the
    cursors on accept, else None with everything undone: cursor i + 1 is
    iteration i's ordering and the position just past its start edge, and
    cursor 0 holds olex0, the start's ordering."""
    cursors = [(olex0, 0)]
    stack: list[Edge] = []
    ki = m = f = code = 0
    while True:
        if f == ki:  # the iteration is complete, or none has begun
            it = len(cursors) - 1
            if it == len(parts):
                if nec == 0:
                    return cursors
            else:
                # cursor rule: next surviving necessary edge, else rebuild and restart
                olex, p = cursors[-1]
                while p < len(olex) and (olex[p] not in apex or olex[p] in target):
                    p += 1
                if p == len(olex):
                    olex, p = tuple(sorted(e for e in apex if e not in target)), 0
                if olex:
                    cursors.append((olex, p + 1))
                    stack.append(olex[p])
                    ki, m, f, code = parts[it], 0, 0, 0
                    continue
            if it == 0:
                return None
        else:
            cur = stack[-1]
            if code < 4 and m < ki - 1:
                c, d = apex[cur]
                if code < 2 or d >= 0:  # a hull edge has no directions 2 and 3
                    a, b = cur
                    u, v = b if code & 1 else a, d if code & 2 else c
                    stack.append((u, v) if u < v else (v, u))
                    acts.append(code)
                    m += 1
                    code = 0
                    continue
            if (f < m or (m == ki - 1 and f == ki - 1)) and \
                    (g := _flips_into(xs, ys, apex, cur)) is not None:
                _apply_flip(apex, cur, g)
                nec += (g not in target) - (cur not in target)
                flips.append((cur, g))
                acts.append(4)
                stack.pop()
                f += 1
                # pruned when the pop exposes an edge the flips have destroyed,
                # or when more target edges are missing than flips remain
                if (not stack or stack[-1] in apex) and nec <= k - len(flips):
                    code = 0
                    continue
        while True:  # retreat past every FlipBack, which has no next action
            if m + f == 0:  # drop an iteration whose start edge has nothing left
                stack.pop()
                cursors.pop()
                if len(cursors) == 1:
                    return None
                ki = parts[len(cursors) - 2]
                m, f = ki - 1, ki
            code = acts.pop()
            if code < 4:
                stack.pop()
                m -= 1
                break
            cur, g = flips.pop()
            _apply_flip(apex, g, cur)  # exact undo: apex[g] is cur
            nec += (cur not in target) - (g not in target)
            stack.append(cur)
            f -= 1
        code += 1


def run_budget(prep: Prep, k: int) -> Optional[Accept]:
    _, xs, ys, start, target = prep
    apex = start.copy()
    olex0 = tuple(sorted(e for e in apex if e not in target))
    flips: list[tuple[Edge, Edge]] = []
    acts: list[int] = []
    try:
        for parts in compositions(k):
            cursors = _walk(xs, ys, apex, target, len(olex0), olex0, parts, k, flips, acts)
            if cursors is not None:
                codes = iter(acts)
                return ([(*e, *g) for e, g in flips],
                        [olex[p - 1] for olex, p in cursors[1:]],
                        [list(islice(codes, 2 * ki - 1)) for ki in parts])
    except KeyError as exc:  # an apex names an edge the table does not hold
        raise AssertionError("apex table corrupted") from exc
    return None
