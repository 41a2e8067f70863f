"""Backend parity tests.

The compiled kernel must be bit-for-bit interchangeable with the pure Python
one: same accept/reject answer and the same witness triple for every flip
budget, since the solver's determinism guarantee rests on that.
"""

from __future__ import annotations

import os
import random
import shlex
import subprocess
import sys
import sysconfig
from collections import deque
from pathlib import Path
from typing import Iterator, Optional

import pytest

import flipdist
from flipdist import _kernel
from flipdist._kernel import (
    COMPILED_MAX_POINTS,
    compiled_available,
    kernel_for,
    make_prep,
    resolve_backend,
)
from flipdist._searchpure import Accept, Prep
from flipdist.instances import gen_convex, gen_random_points, initial_triangulation, random_walk_triangulation
from flipdist.oracle import bfs_distance
from flipdist.solver import search_exact, search_upto
from flipdist.triangulation import build, flip, is_flippable, necessary_edges

from conftest import can_build_core, compiler_command, convex_pair, flip_closure, tri_of
from test_prune import fan

needs_compiled = pytest.mark.skipif(not compiled_available(),
                                    reason="compiled extension not built")
BACKENDS = ["pure", pytest.param("compiled", marks=needs_compiled)]


def instance_pairs():
    """Start/target pairs with known BFS distance, mixing convex and random."""
    out = []
    ps, seed_tri = convex_pair(6)
    tris = flip_closure(seed_tri)
    for target in tris:
        d, _ = bfs_distance(seed_tri, target, cap=10)
        out.append((seed_tri, target, d))
    for seed in range(3):
        ps = gen_random_points(7, seed=seed, bound=700)
        start = initial_triangulation(ps)
        end = random_walk_triangulation(start, steps=5, seed=seed + 31)
        d, _ = bfs_distance(start, end, cap=6)
        out.append((start, end, d))
    return out


def reference_make_prep(t_start, t_end):
    """make_prep as it was when triangulations stored their triangle map, kept
    verbatim but for reading that map from conftest.tri_of."""
    ps = t_start.ps
    n = len(ps)
    xs = tuple(p.x for p in ps)
    ys = tuple(p.y for p in ps)
    edges = []
    triangle_map = tri_of(t_start)
    for a, b in sorted(t_start.edges):
        apexes = sorted(v for t in triangle_map[(a, b)] for v in t if v != a and v != b)
        c, d = (apexes[0], -1) if len(apexes) == 1 else apexes
        edges.append((a, b, c, d))
    return (n, xs, ys, tuple(edges), tuple(sorted(t_end.edges)))


def test_make_prep_matches_the_triangle_map_version():
    cases = [(start, end) for start, end, _ in instance_pairs()]
    for ps in (gen_random_points(300, seed=1, bound=1 << 20), gen_convex(300)):
        start = random_walk_triangulation(initial_triangulation(ps), steps=30, seed=2)
        cases.append((start, random_walk_triangulation(start, steps=6, seed=3)))
    for start, end in cases:
        assert make_prep(start, end) == reference_make_prep(start, end)
        assert make_prep(end, start) == reference_make_prep(end, start)


@pytest.mark.skipif(not can_build_core(), reason="no C compiler on PATH or no Python.h")
def test_compiled_kernel_present_where_it_can_be_built():
    # a broken build on import would otherwise turn every needs_compiled test
    # into a silent skip
    assert compiled_available()


@pytest.mark.skipif(not can_build_core(), reason="no C compiler on PATH or no Python.h")
def test_kernel_source_compiles_without_warnings():
    # Python's own headers go in as system headers, so only warnings in
    # _core.c count
    paths = sysconfig.get_paths()
    includes = sorted({paths["include"], paths["platinclude"]})
    source = Path(_kernel.__file__).with_name("_core.c")
    proc = subprocess.run(
        compiler_command() + ["-std=c99", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                              *(f"-isystem{d}" for d in includes), str(source)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# Loads the kernel, prints the file it came from, then runs it on each
# (prep, k) line of stdin and prints its answer or the exception it raised.
_RUN_PREPS = """
import ast, sys
from flipdist import _kernel
print(_kernel._core.__file__)
for line in sys.stdin:
    prep, k = ast.literal_eval(line)
    try:
        print(repr(_kernel._core.run_budget(prep, k)))
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}")
"""


@pytest.mark.skipif(not can_build_core(), reason="no C compiler on PATH or no Python.h")
def test_sanitized_kernel_matches_pure(tmp_path, square_tris):
    """The kernel built with AddressSanitizer and UBSan answers like the pure
    one, so no call reads or writes outside its block."""
    cc = compiler_command()
    libasan = subprocess.run(cc + ["-print-file-name=libasan.so"], capture_output=True,
                             text=True).stdout.strip()
    if not os.path.isabs(libasan) or not os.path.exists(libasan):
        pytest.skip("the compiler has no libasan.so")
    n, xs, ys, edges, target = make_prep(*square_tris)
    wrong_apex = (n, xs, ys, tuple((0, 1, 3, -1) if e[:2] == (0, 1) else e for e in edges), target)
    ps = gen_convex(1024)  # the largest block the kernel allocates
    cases = [(wrong_apex, 1), (make_prep(fan(ps, 0), fan(ps, 1)), 1021)]
    for start, end, d in instance_pairs()[::5]:
        cases += [(make_prep(start, end), k) for k in range(max(d, 1), d + 2)]
    want = []
    for prep, k in cases:
        try:
            want.append(repr(kernel_for("pure")(prep, k)))
        except Exception as exc:
            want.append(f"{type(exc).__name__}: {exc}")
    src = str(Path(flipdist.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_PREPS], input="".join(f"{case!r}\n" for case in cases),
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src, "XDG_CACHE_HOME": str(tmp_path),
             "CC": shlex.join(cc) + " -fsanitize=address,undefined"
                   " -fno-sanitize-recover=undefined -g",
             "LD_PRELOAD": libasan, "ASAN_OPTIONS": "detect_leaks=0"})
    assert proc.returncode == 0, proc.stderr
    lib, *got = proc.stdout.splitlines()
    assert Path(lib).is_relative_to(tmp_path)
    assert got == want


class TestResolveBackend:
    def test_explicit_pure(self, monkeypatch):
        # a machine without a compiler has no compiled kernel to pick
        monkeypatch.setattr(_kernel, "_core", None)
        assert resolve_backend(10) == "pure"
        assert resolve_backend(COMPILED_MAX_POINTS) == "pure"

    @needs_compiled
    def test_auto_prefers_compiled_within_cap(self):
        assert resolve_backend(10) == "compiled"
        assert resolve_backend(COMPILED_MAX_POINTS) == "compiled"
        assert resolve_backend(COMPILED_MAX_POINTS + 1) == "pure"

    def test_kernel_for_unknown(self):
        with pytest.raises(ValueError):
            kernel_for("fast")


class TestMakePrep:
    def test_shape_and_sortedness(self, square_tris):
        a, b = square_tris
        n, xs, ys, edges, target = make_prep(a, b)
        assert n == 4 and len(xs) == len(ys) == 4
        assert [e[:2] for e in edges] == sorted(e[:2] for e in edges)
        assert list(target) == sorted(target)

    def test_apex_encoding(self, square_tris):
        a, _ = square_tris
        n, xs, ys, edges, _ = make_prep(a, a)
        by_edge = {e[:2]: e[2:] for e in edges}
        assert by_edge[(0, 2)] == (1, 3)   # interior edge, two apexes
        assert by_edge[(0, 1)] == (2, -1)  # hull edge, one apex

    def test_build_lists_edges_sorted(self):
        # build's apex map is in sorted key order whatever the input order,
        # so make_prep's sorts run on sorted data; its output is unchanged
        for ps in (gen_convex(9), gen_random_points(40, 3, 1000)):
            edges = sorted(initial_triangulation(ps).edges)
            for seed in range(3):
                shuffled = edges[:]
                random.Random(seed).shuffle(shuffled)
                tri = build(ps, [(b, a) if seed % 2 else (a, b) for a, b in shuffled])
                assert list(tri.apex) == edges
                assert make_prep(tri, tri) == reference_make_prep(tri, tri)

    def test_round_trip_pickles(self, square_tris):
        import pickle
        prep = make_prep(*square_tris)
        assert pickle.loads(pickle.dumps(prep)) == prep


def parity_pairs():
    """Every ordered pair of the convex 6-gon's triangulations, then the three
    random pairs of instance_pairs, each with its BFS distance."""
    tris = flip_closure(convex_pair(6)[1])
    out = [(start, end, bfs_distance(start, end, cap=10)[0]) for start in tris for end in tris]
    return out + instance_pairs()[-3:]


@needs_compiled
class TestBackendParity:
    def test_identical_results_per_budget(self):
        pure = kernel_for("pure")
        compiled = kernel_for("compiled")
        exercised = accepts = 0
        for start, end, d in parity_pairs():
            prep = make_prep(start, end)
            for k in range(1, d + 2):
                a = pure(prep, k)
                b = compiled(prep, k)
                assert a == b, (k, a, b)
                exercised += 1
                accepts += a is not None
        assert exercised == 604
        assert accepts == 314

    def test_identical_rejects_below_distance(self):
        pure = kernel_for("pure")
        compiled = kernel_for("compiled")
        for start, end, d in parity_pairs():
            prep = make_prep(start, end)
            for k in range(1, d):
                assert pure(prep, k) is None
                assert compiled(prep, k) is None

    def test_solver_results_agree(self, monkeypatch):
        pairs = instance_pairs()[:8]
        compiled_res = [search_upto(start, end, 6) for start, end, _ in pairs]
        monkeypatch.setattr(_kernel, "_core", None)
        assert [search_upto(start, end, 6) for start, end, _ in pairs] == compiled_res

    def test_cap_guard_in_compiled_kernel(self):
        from flipdist import _core
        prep = make_prep(*convex_pair(4)[1:] * 2)
        big = (2000,) + prep[1:]
        with pytest.raises(ValueError):
            _core.run_budget(big, 1)

    def test_out_of_range_prep_rejected(self, square_tris):
        # the compiled kernel writes through every index, so it checks them
        from flipdist import _core
        n, xs, ys, edges, target = make_prep(*square_tris)
        for bad in [(0, 1, n, -1), (1, 0, 2, -1), (0, 1, 2, -2)]:
            with pytest.raises(ValueError):
                _core.run_budget((n, xs, ys, (bad,) + edges[1:], target), 1)
        with pytest.raises(ValueError):
            _core.run_budget((n, xs, ys, edges, ((0, n),)), 1)
        with pytest.raises(ValueError):
            _core.run_budget((n, (2**30 + 1,) + xs[1:], ys, edges, target), 1)
        for k in (0, -1, (2**31 - 1) // 4):
            with pytest.raises(ValueError):
                _core.run_budget((n, xs, ys, edges, target), k)


# Runs the two corrupt apex tables of TestCorruptState through every loaded
# kernel and prints what each call raised.
_CORRUPT_TABLES = """
from flipdist import _kernel
from flipdist.geometry import PointSet
from flipdist.triangulation import build

ps = PointSet.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
hull = [(0, 1), (1, 2), (2, 3), (0, 3)]
n, xs, ys, edges, target = _kernel.make_prep(build(ps, hull + [(0, 2)]), build(ps, hull + [(1, 3)]))
tables = {
    "wrong apex": tuple((0, 1, 3, -1) if e[:2] == (0, 1) else e for e in edges),
    "missing side edge": tuple(e for e in edges if e[:2] != (0, 1)),
}
for backend in ["pure"] + (["compiled"] if _kernel.compiled_available() else []):
    for name, table in tables.items():
        try:
            _kernel.kernel_for(backend)((n, xs, ys, table, target), 1)
        except Exception as exc:
            print(f"{backend} {name}: {type(exc).__name__}: {exc}")
"""


class TestCorruptState:
    """Both kernels raise AssertionError when the apex table contradicts
    itself, instead of searching on from a wrong state."""

    @staticmethod
    def corrupted(square_tris, edit):
        n, xs, ys, edges, target = make_prep(*square_tris)
        return (n, xs, ys, tuple(edit(edges)), target)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_wrong_apex(self, square_tris, backend):
        # hull edge (0, 1) claims apex 3, but flipping (0, 2) replaces apex 2
        prep = self.corrupted(square_tris, lambda edges: [
            (0, 1, 3, -1) if e[:2] == (0, 1) else e for e in edges])
        with pytest.raises(AssertionError, match="apex table corrupted"):
            kernel_for(backend)(prep, 1)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_missing_side_edge(self, square_tris, backend):
        prep = self.corrupted(square_tris, lambda edges: [e for e in edges if e[:2] != (0, 1)])
        with pytest.raises(AssertionError, match="apex table corrupted"):
            kernel_for(backend)(prep, 1)

    def test_corrupt_tables_raise_under_optimize(self):
        src = str(Path(flipdist.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_TABLES],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        backends = ["pure"] + (["compiled"] if compiled_available() else [])
        assert proc.stdout.splitlines() == [
            f"{backend} {table}: AssertionError: apex table corrupted"
            for backend in backends for table in ("wrong apex", "missing side edge")]


@needs_compiled
class TestCallState:
    """Each compiled call keeps all its state in its own block, so calls may
    nest, and no call may see state that another one left, not even a failed
    one."""

    def test_nested_call_answers(self, square_tris):
        from flipdist import _core
        n, xs, ys, edges, target = prep = make_prep(*square_tris)
        nested = []

        class CallsBack:
            def __len__(self):
                return n

            def __getitem__(self, i):
                nested.append(_core.run_budget(prep, 1))
                return xs[i]

        expected = kernel_for("pure")(prep, 1)
        assert expected is not None
        assert _core.run_budget((n, CallsBack(), ys, edges, target), 1) == expected
        assert nested == [expected] * n

    def test_failed_calls_leave_no_state(self, square_tris):
        from flipdist import _core
        pure = kernel_for("pure")
        n4, xs4, ys4, edges4, target4 = make_prep(*square_tris)
        wrong_apex = (n4, xs4, ys4, tuple((0, 1, 3, -1) if e[:2] == (0, 1) else e for e in edges4),
                      target4)
        for start, end, d in instance_pairs()[::3]:
            n, xs, ys, edges, target = prep = make_prep(start, end)
            with pytest.raises(AssertionError, match="apex table corrupted"):
                _core.run_budget(wrong_apex, 1)
            # init fails after marking every start edge as a target
            with pytest.raises(ValueError):
                _core.run_budget((n, xs, ys, edges, tuple(e[:2] for e in edges) + ((0, n),)), 1)
            # init fails after loading a few edges
            with pytest.raises(ValueError):
                _core.run_budget((n, xs, ys, edges[:3] + ((0, 1, n, -1),) + edges[3:], target), 1)
            for k in range(max(d, 1), d + 2):
                assert _core.run_budget(prep, k) == pure(prep, k)
        # a rejected run leaves (0, 1) with apex 2, as the square's table
        # has it: the next table, which lacks (0, 1), must still be caught
        missing_side = (n4, xs4, ys4, tuple(e for e in edges4 if e[:2] != (0, 1)), target4)
        assert _core.run_budget(make_prep(square_tris[0], square_tris[0]), 1) is None
        with pytest.raises(AssertionError, match="apex table corrupted"):
            _core.run_budget(missing_side, 1)


def flip_graph_distances(tris):
    """All-pairs flip distances over a whole flip graph, by a plain BFS from
    every vertex; shares no code with oracle.bfs_distance."""
    index = {frozenset(t.edges): i for i, t in enumerate(tris)}
    adj = [[index[frozenset(flip(t, e)[0].edges)] for e in sorted(t.edges) if is_flippable(t, e)]
           for t in tris]
    dist = []
    for src in range(len(tris)):
        row = [-1] * len(tris)
        row[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if row[v] < 0:
                    row[v] = row[u] + 1
                    queue.append(v)
        dist.append(row)
    return dist


def ordered_pairs(ps):
    """(start, end, distance, bound) for every ordered pair of ps's
    triangulations, in closure order."""
    tris = flip_closure(initial_triangulation(ps))
    dist = flip_graph_distances(tris)
    return [(start, end, dist[i][j], len(necessary_edges(start, end)))
            for i, start in enumerate(tris) for j, end in enumerate(tris)]


def gap_pairs(ps):
    """The ordered pairs whose distance exceeds the missing-edge bound by 2 or
    more."""
    return [pair for pair in ordered_pairs(ps) if pair[2] - pair[3] >= 2]


class TestAboveTheBound:
    """Completeness where it is in question: at a gap (distance minus bound)
    of 2 or more, a witness must spend flips that add no target edge.  The
    pairs are fixed by a rule, never by outcome: every gap->=2 ordered pair of
    gen_random_points(8, 2, 1000) and every 4th one, in closure order, of the
    convex 8-gon.  At every k from the bound to the distance d, each kernel
    must answer NO below d and YES at d, and both must return the same triple."""

    def test_no_below_distance_yes_at_it(self):
        random_pairs = gap_pairs(gen_random_points(8, 2, 1000))
        convex_pairs = gap_pairs(gen_convex(8))[::4]
        assert (len(random_pairs), len(convex_pairs)) == (40, 60)
        runs = [kernel_for("pure")] + ([kernel_for("compiled")] if compiled_available() else [])
        for start, end, d, bound in random_pairs + convex_pairs:
            prep = make_prep(start, end)
            for k in range(bound, d + 1):
                results = [run(prep, k) for run in runs]
                assert (results[0] is None) == (k < d), (k, d)
                assert all(r == results[0] for r in results), k


# The pure kernel as it was while it recursed through iterate/descend, kept
# verbatim (the entry point renamed) as the reference for the order in which
# the one-loop kernels must find witnesses.

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


def reference_run_budget(prep: Prep, k: int) -> Optional[Accept]:
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


class TestRecursiveReference:
    """Both kernels walk the action strings in the recursive kernel's order,
    so they return its triple for every budget: every ordered pair of the
    convex 4..7-gons and of gen_random_points(7, 2, 1000), at each k from
    max(bound, 1) to d + 1."""

    def test_witnesses_match_the_recursive_kernel(self):
        pairs = [pair for n in range(4, 8) for pair in ordered_pairs(gen_convex(n))]
        pairs += ordered_pairs(gen_random_points(7, 2, 1000))
        runs = [kernel_for("pure")] + ([kernel_for("compiled")] if compiled_available() else [])
        calls = accepts = 0
        for start, end, d, bound in pairs:
            prep = make_prep(start, end)
            for k in range(max(bound, 1), d + 2):
                want = reference_run_budget(prep, k)
                for run in runs:
                    assert run(prep, k) == want, (k, d)
                calls += 1
                accepts += want is not None
        assert (len(pairs), calls, accepts) == (2518, 5192, 4300)


class TestLargeBudgets:
    """Neither kernel recurses, so a budget far above Python's default
    recursion limit needs no more than that limit."""

    def test_pure_kernel_answers_on_the_1100_gon(self):
        # above the compiled kernel's cap, so the solver runs the pure one
        ps = gen_convex(1100)
        assert resolve_backend(len(ps)) == "pure"
        res = search_exact(fan(ps, 0), fan(ps, 1), 1097)
        assert res is not None and res.k == 1097

    @needs_compiled
    def test_kernels_agree_on_the_1024_gon(self):
        ps = gen_convex(1024)
        prep = make_prep(fan(ps, 0), fan(ps, 1))
        want = kernel_for("pure")(prep, 1021)
        assert want is not None
        assert kernel_for("compiled")(prep, 1021) == want


class TestBackendThroughSolver:
    def test_pure_backend_explicit(self, square_tris, monkeypatch):
        monkeypatch.setattr(_kernel, "_core", None)
        res = search_exact(*square_tris, 1)
        assert res is not None and res.k == 1

    @needs_compiled
    def test_compiled_backend_explicit(self, square_tris, monkeypatch):
        compiled_res = search_exact(*square_tris, 1)
        monkeypatch.setattr(_kernel, "_core", None)
        assert compiled_res == search_exact(*square_tris, 1)
