"""Pure-Python search kernel.

Runs the branch-and-prune walk search for one flip budget against a compact
mutable state: edges keyed by ``a * n + b`` mapping to their one or two apex
vertices.  Each composition is searched by one loop over an explicit stack
(``_walk``), never by recursion, so no budget runs into Python's recursion
limit.  This is the reference kernel; the C extension ``_core`` (source
``_core.c``, built by ``setup.py`` or on first import by ``_kernel``)
implements the identical contract and must stay behaviorally indistinguishable
from it (the test suite diffs the two).  A corrupt apex table raises
AssertionError in both.

Kernel contract: ``run_budget(prep, k)`` tries the compositions of k >= 1 in
the order ``compositions`` yields them and returns None when none of them
transforms start into target, else the first accept as a triple

    flips   list of (a, b, c, d): edge (a, b) was flipped, creating (c, d)
    starts  list of (a, b): each iteration's start edge
    actions list per iteration of action codes, 0..3 = move direction, 4 = flip

Part i of the accepting composition is len(actions[i]) // 2 + 1.  A rejected
composition undoes every flip it made, so each one starts from the same state.
``prep`` comes from ``_kernel.make_prep`` and is plain tuple data.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Optional

Prep = tuple[int, tuple[int, ...], tuple[int, ...],
             tuple[tuple[int, int, int, int], ...], tuple[tuple[int, int], ...]]
Accept = tuple[list[tuple[int, int, int, int]], list[tuple[int, int]], list[list[int]]]


class _State:
    """Current triangulation as eid -> [apex_lo, apex_hi] (hi -1 on the hull),
    plus the count of edges still missing from the target."""

    __slots__ = ("n", "xs", "ys", "apex", "target", "nec_cnt")

    def __init__(self, prep: Prep):
        n, xs, ys, edges, target = prep
        self.n = n
        self.xs = xs
        self.ys = ys
        self.target = {a * n + b for a, b in target}
        self.apex: dict[int, list[int]] = {}
        self.nec_cnt = 0
        for a, b, c, d in edges:
            eid = a * n + b
            self.apex[eid] = [c, d]
            if eid not in self.target:
                self.nec_cnt += 1

    def flippable(self, eid: int) -> bool:
        c, d = self.apex[eid]
        if d < 0:
            return False
        n, xs, ys = self.n, self.xs, self.ys
        a, b = divmod(eid, n)
        dx, dy = xs[d] - xs[c], ys[d] - ys[c]
        # c, d lie on opposite sides of ab: convex iff a, b lie strictly on opposite sides of cd
        return (dx * (ys[a] - ys[c]) - dy * (xs[a] - xs[c])) * \
               (dx * (ys[b] - ys[c]) - dy * (xs[b] - xs[c])) < 0

    def _swap_apex(self, u: int, v: int, old: int, new: int) -> None:
        sid = u * self.n + v if u < v else v * self.n + u
        pair = self.apex[sid]
        if pair[0] == old:
            pair[0] = new
        elif pair[1] == old:
            pair[1] = new
        else:
            raise AssertionError("apex table corrupted")
        if pair[1] >= 0 and pair[0] > pair[1]:
            pair[0], pair[1] = pair[1], pair[0]

    def do_flip(self, eid: int) -> int:
        """Flip a (flippable) edge in place; returns the created edge's id.
        Calling again on the returned id undoes the flip exactly."""
        n = self.n
        a, b = divmod(eid, n)
        c, d = self.apex.pop(eid)
        if eid not in self.target:
            self.nec_cnt -= 1
        gid = c * n + d
        self.apex[gid] = [a, b]
        if gid not in self.target:
            self.nec_cnt += 1
        self._swap_apex(a, c, b, d)
        self._swap_apex(b, c, a, d)
        self._swap_apex(a, d, b, c)
        self._swap_apex(b, d, a, c)
        return gid


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


def _walk(st: _State, olex0: tuple[int, ...], parts: tuple[int, ...], k: int,
          flips: list[tuple[int, int]], acts: list[int]) -> Optional[list[tuple[tuple[int, ...], int]]]:
    """One composition's search, the paper's walk as one loop, with no
    recursion.  code is the next action to try at the current node: 0..3 =
    Move, 4 = FlipBack.  flips (flipped edge, created edge) and acts are the
    undo log, so retreating pops the last action and tries the one after it.
    Returns the cursors on accept, else None with everything undone: cursor
    i + 1 is iteration i's ordering and the position just past its start
    edge, and cursor 0 holds olex0, the start's ordering."""
    n, apex, target = st.n, st.apex, st.target
    cursors = [(olex0, 0)]
    stack: list[int] = []
    ki = m = f = code = 0
    while True:
        if f == ki:  # the iteration is complete, or none has begun
            it = len(cursors) - 1
            if it == len(parts):
                if st.nec_cnt == 0:
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
                    a, b = divmod(cur, n)
                    u, v = b if code & 1 else a, d if code & 2 else c
                    stack.append(u * n + v if u < v else v * n + u)
                    acts.append(code)
                    m += 1
                    code = 0
                    continue
            if (f < m or (m == ki - 1 and f == ki - 1)) and st.flippable(cur):
                gid = st.do_flip(cur)
                flips.append((cur, gid))
                acts.append(4)
                stack.pop()
                f += 1
                # pruned when the pop exposes an edge the flips have destroyed,
                # or when more target edges are missing than flips remain
                if (not stack or stack[-1] in apex) and st.nec_cnt <= k - len(flips):
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
            cur, gid = flips.pop()
            st.do_flip(gid)
            stack.append(cur)
            f -= 1
        code += 1


def run_budget(prep: Prep, k: int) -> Optional[Accept]:
    st = _State(prep)
    n = st.n
    olex0 = tuple(sorted(e for e in st.apex if e not in st.target))
    flips: list[tuple[int, int]] = []
    acts: list[int] = []
    try:
        for parts in compositions(k):
            cursors = _walk(st, olex0, parts, k, flips, acts)
            if cursors is not None:
                codes = iter(acts)
                return ([(*divmod(e, n), *divmod(g, n)) for e, g in flips],
                        [divmod(olex[p - 1], n) for olex, p in cursors[1:]],
                        [list(islice(codes, 2 * ki - 1)) for ki in parts])
    except KeyError as exc:  # an apex names an edge the table does not hold
        raise AssertionError("apex table corrupted") from exc
    return None
