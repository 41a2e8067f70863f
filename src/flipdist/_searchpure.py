"""Pure-Python search kernel.

Runs the branch-and-prune walk search for one flip budget against a compact
mutable state: edges keyed by ``a * n + b`` mapping to their one or two apex
vertices.  This is the reference kernel; the C extension ``_core`` (source
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

    def neighbors(self, eid: int) -> tuple[int, ...]:
        """Edge ids of the incident triangles' other edges, in the canonical
        direction order (2 entries on the hull, else 4)."""
        n = self.n
        a, b = divmod(eid, n)
        c, d = self.apex[eid]
        e1 = a * n + c if a < c else c * n + a
        e2 = b * n + c if b < c else c * n + b
        if d < 0:
            return (e1, e2)
        e3 = a * n + d if a < d else d * n + a
        e4 = b * n + d if b < d else d * n + b
        return (e1, e2, e3, e4)


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


def run_budget(prep: Prep, k: int) -> Optional[Accept]:
    st = _State(prep)
    n = st.n
    olex0 = tuple(sorted(e for e in st.apex if e not in st.target))
    flips: list[tuple[int, int, int, int]] = []
    starts: list[int] = []
    actions: list[list[int]] = []

    def iterate(it: int, olex: tuple[int, ...], pos: int) -> bool:
        if it == len(parts):
            return st.nec_cnt == 0
        # cursor rule: next surviving necessary edge, else rebuild and restart
        chosen = -1
        p = pos
        while p < len(olex):
            e = olex[p]
            p += 1
            if e in st.apex and e not in st.target:
                chosen = e
                break
        if chosen < 0:
            olex = tuple(sorted(e for e in st.apex if e not in st.target))
            if not olex:
                return False
            chosen, p = olex[0], 1
        starts.append(chosen)
        actions.append([])
        if descend(it, olex, p, parts[it], 0, 0, [chosen]):
            return True
        starts.pop()
        actions.pop()
        return False

    def descend(it: int, olex: tuple[int, ...], pos: int, ki: int,
                m: int, f: int, stack: list[int]) -> bool:
        if f == ki:
            return iterate(it + 1, olex, pos)
        cur = stack[-1]
        trace = actions[-1]
        if m < ki - 1:
            nbrs = st.neighbors(cur)
            for d in range(len(nbrs)):
                trace.append(d)
                stack.append(nbrs[d])
                if descend(it, olex, pos, ki, m + 1, f, stack):
                    return True
                stack.pop()
                trace.pop()
        if (f < m or (m == ki - 1 and f == ki - 1)) and st.flippable(cur):
            gid = st.do_flip(cur)
            flips.append((*divmod(cur, n), *divmod(gid, n)))
            trace.append(4)
            stack.pop()
            # pruned when the pop exposes an edge the flips have destroyed,
            # or when more target edges are missing than flips remain
            if (not stack or stack[-1] in st.apex) and st.nec_cnt <= k - len(flips):
                if descend(it, olex, pos, ki, m, f + 1, stack):
                    return True
            stack.append(cur)
            trace.pop()
            flips.pop()
            st.do_flip(gid)
        return False

    try:
        for parts in compositions(k):  # iterate reads parts from this binding
            if iterate(0, olex0, 0):
                return flips, [divmod(e, n) for e in starts], actions
    except KeyError as exc:  # an apex names an edge the table does not hold
        raise AssertionError("apex table corrupted") from exc
    return None
