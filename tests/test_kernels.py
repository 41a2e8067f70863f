"""Backend parity tests.

The compiled kernel must be bit-for-bit interchangeable with the pure Python
one: same accept/reject answer and the same witness triple for every flip
budget, since the solver's determinism guarantee rests on that.  Both must
also return the triple of the paper's search as stated, built here from
solver's public ``compositions``, ``iteration_shapes`` and ``transform``
(``literal_run_budget``, checked on 2,518 pairs by ``TestLiteralSearch``).
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import shlex
import subprocess
import sys
import sysconfig
from collections import deque
from pathlib import Path
from typing import Optional

import pytest

from flipdist import _kernel
from flipdist._kernel import (
    COMPILED_MAX_POINTS,
    compiled_available,
    kernel_for,
    make_prep,
    resolve_backend,
)
from flipdist._searchpure import Accept
from flipdist.flipdag import replay
from flipdist.geometry import COORD_BOUND, PointSet, _slope_repeat, convex_hull_edges
from flipdist.instances import gen_convex, gen_random_points, initial_triangulation, random_walk_triangulation
from flipdist.oracle import bfs_distance
from flipdist.solver import IterationShape, Move, compositions, iteration_shapes, search_exact, search_upto, transform
from flipdist.triangulation import Triangulation, _apex_rows, build, flip, is_flippable, necessary_edges

from conftest import can_build_core, compiler_command, convex_pair, flip_closure, tri_of
from test_prune import fan
from test_validation import ONE_PART_REJECTIONS, benchmark_shaped_cases, random_coords


def one_part_rejections() -> list[tuple[PointSet, list]]:
    """The edge sets that one part of build's certificate alone rejects
    (test_validation's ONE_PART_REJECTIONS), with their point sets."""
    return [(PointSet.from_coords(coords), edges)
            for coords, edges, _ in (param.values for param in ONE_PART_REJECTIONS)]


def certificate_args(ps: PointSet, edges) -> tuple:
    """build's arguments to the certificate, for canonical edges."""
    return ps.xs, ps.ys, sorted(edges), convex_hull_edges(ps)


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


# Loads the kernel, prints the file it came from, then runs each
# (name, args) line of stdin as _core.name(*args) and prints its answer or
# the exception it raised.
_RUN_CALLS = """
import ast, sys
from flipdist import _kernel
print(_kernel._core.__file__)
for line in sys.stdin:
    name, args = ast.literal_eval(line)
    try:
        print(repr(getattr(_kernel._core, name)(*args)))
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}")
"""


@pytest.mark.skipif(not can_build_core(), reason="no C compiler on PATH or no Python.h")
def test_sanitized_kernel_matches_pure(tmp_path, square_tris):
    """The kernel, the slope screen and the certificate built with
    AddressSanitizer and UBSan answer like the pure ones, so no call reads or
    writes outside its block."""
    cc = compiler_command()
    libasan = subprocess.run(cc + ["-print-file-name=libasan.so"], capture_output=True,
                             text=True).stdout.strip()
    if not os.path.isabs(libasan) or not os.path.exists(libasan):
        pytest.skip("the compiler has no libasan.so")
    n, xs, ys, edges, target = make_prep(*square_tris)
    wrong_apex = (n, xs, ys, tuple((0, 1, 3, -1) if e[:2] == (0, 1) else e for e in edges), target)
    ps = gen_convex(1024)  # the largest block the kernel allocates
    cases = [("run_budget", (wrong_apex, 1)), ("run_budget", (make_prep(fan(ps, 0), fan(ps, 1)), 1021))]
    for start, end, d in instance_pairs()[::5]:
        cases += [("run_budget", (make_prep(start, end), k)) for k in range(max(d, 1), d + 2)]
    # the screen has no point cap: 1,100 points is above the kernel's
    screen_sets = [[(0, 0), (5, 1), (2, 7)], [(0, 0), (1, 5), (4, 0), (-3, 0), (2, 2), (9, 1)],
                   gen_convex(COMPILED_MAX_POINTS + 76).coords()]
    for coords in screen_sets:
        xs, ys = (tuple(c) for c in zip(*coords))
        cases += [("slope_repeat", (xs, ys, start)) for start in (0, 1, len(xs))]
    # the certificate: a valid triangulation, each single-part rejection and
    # the 1,100-point fan, also above the kernel's cap; sets, as the lines
    # are read back with ast.literal_eval
    valid = initial_triangulation(gen_random_points(30, 1, 1000))
    ps = gen_convex(COMPILED_MAX_POINTS + 76)
    certified = [(valid.ps, valid.apex), *one_part_rejections(), (ps, fan(ps, 0).apex)]
    for ps, edges in certified:
        xs, ys, ordered, hull = certificate_args(ps, edges)
        cases.append(("apex_rows", (xs, ys, ordered, set(hull))))
    pure = {"run_budget": kernel_for("pure"), "slope_repeat": _slope_repeat, "apex_rows": _apex_rows}
    want = []
    for name, args in cases:
        try:
            want.append(repr(pure[name](*args)))
        except Exception as exc:
            want.append(f"{type(exc).__name__}: {exc}")
    # an endpoint out of range, which the pure twin's contract excludes
    cases.append(("apex_rows", ((0, 4, 4, 0), (0, 0, 4, 4), [(0, 1), (1, 2), (2, 7)], set())))
    want.append("ValueError: value 7 outside [0, 4)")
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_CALLS], input="".join(f"{case!r}\n" for case in cases),
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "XDG_CACHE_HOME": str(tmp_path),
             "CC": shlex.join(cc) + " -fsanitize=address,undefined"
                   " -fno-sanitize-recover=undefined -g",
             "LD_PRELOAD": libasan, "ASAN_OPTIONS": "detect_leaks=0"})
    assert proc.returncode == 0, proc.stderr
    lib, *got = proc.stdout.splitlines()
    assert Path(lib).is_relative_to(tmp_path)
    assert got == want


def screen_rows(coords) -> list[int]:
    """Every index the pure screen stops at, by chaining it as PointSet
    does, after checking that the compiled screen returns the next of them
    from every start, 0 to n."""
    xs, ys = (tuple(c) for c in zip(*coords))
    rows, i = [], -1
    while (i := _slope_repeat(xs, ys, i + 1)) >= 0:
        rows.append(i)
    want = [next((r for r in rows if r >= start), -1) for start in range(len(xs) + 1)]
    assert [_kernel._core.slope_repeat(xs, ys, start) for start in range(len(xs) + 1)] == want
    return rows


@needs_compiled
class TestSlopeScreenParity:
    """The compiled general-position screen returns the pure one's index."""

    def test_benchmark_point_sets(self):
        sets = [gen_convex(12), gen_convex(300), gen_random_points(300, 1, 1 << 20)]
        sets += [gen_random_points(10 + s % 3, s, 1000) for s in range(24)]
        for ps in sets:
            assert screen_rows(ps.coords()) == []

    def test_convex_polygons(self):
        for n in [*range(3, 41), 300, 1024]:
            assert screen_rows(gen_convex(n).coords()) == []

    def test_random_point_sets(self):
        for (n, bound), seed in itertools.product([(10, 10), (40, 1000), (100, 1 << 20)], range(6)):
            assert screen_rows(gen_random_points(n, seed, bound).coords()) == []

    def test_planted_collinear_triples(self):
        rng = random.Random(0)
        rows = 0
        for n, bound, _ in itertools.product(range(3, 10), (6, 20, 1000), range(40)):
            rows += bool(screen_rows(random_coords(rng, n, bound)))
        assert rows > 300

    @pytest.mark.parametrize("coords,rows", [
        # horizontal: slopes -0.0 and 0.0 from point 0
        ([(0, 0), (-3, 0), (4, 0), (1, 5)], [0]),
        ([(0, 0), (1, 5), (4, 0), (-3, 0)], [0]),
        ([(0, 0), (-3, 0), (1, 5)], []),
        # vertical, above and below: inf twice
        ([(0, 0), (0, 3), (0, -2), (5, 1)], [0]),
        ([(0, 0), (0, -2), (5, 1)], []),
        # the two sets whose slopes from (0, 0) round to one float
        ([(0, 0), (2 ** 30, 2 ** 30 - 1), (2 ** 30 - 1, 2 ** 30 - 2)], [0]),
        ([(0, 0), (2 ** 30, 2 ** 30 - 1), (2 ** 30 - 1, 2 ** 30 - 2), (2 ** 30 - 2, 2 ** 30 - 3)],
         [0, 1]),
    ])
    def test_signed_zero_infinity_and_rounding(self, coords, rows):
        assert screen_rows(coords) == rows

    def test_corrupt_input_raises(self):
        screen = _kernel._core.slope_repeat
        with pytest.raises(ValueError, match="equal lengths"):
            screen((0, 1, 2), (0, 1), 0)
        with pytest.raises(ValueError, match="start >= 0"):
            screen((0, 1, 2), (0, 1, 5), -1)
        with pytest.raises(TypeError):
            screen((0, 1.0, 2), (0, 1, 5), 0)
        with pytest.raises(TypeError):
            screen([0, 1, 2], (0, 1, 5), 0)
        for far in (COORD_BOUND + 1, -COORD_BOUND - 1):
            with pytest.raises(ValueError, match="outside"):
                screen((0, 1, 2), (0, far, 5), 0)
        assert screen((0, 1, COORD_BOUND), (0, -COORD_BOUND, 5), 0) == -1


@needs_compiled
class TestCertificateParity:
    """The compiled certificate returns the pure one's rows and count."""

    @staticmethod
    def same(ps: PointSet, edges) -> tuple[list[tuple[int, int]], int]:
        args = certificate_args(ps, edges)
        got = _kernel._core.apex_rows(*args)
        assert got == _apex_rows(*args)
        return got

    def test_one_part_rejections(self):
        for ps, edges in one_part_rejections():
            _, listed = self.same(ps, edges)
            assert 3 * listed != 2 * len(edges) - len(convex_hull_edges(ps))

    def test_benchmark_shaped_inputs(self):
        for ps, edges in benchmark_shaped_cases():
            _, listed = self.same(ps, edges)
            assert 3 * listed == 2 * len(edges) - len(convex_hull_edges(ps))

    def test_convex_fans(self):
        # no point cap: 1,100 is above the kernel's
        for n in [*range(3, 41), COMPILED_MAX_POINTS + 76]:
            ps = gen_convex(n)
            for v in range(0, n, max(1, n // 8)):
                rows, listed = self.same(ps, fan(ps, v).apex)
                assert listed == n - 2 and len(rows) == 2 * n - 3

    def test_bad_input_raises(self):
        certificate = _kernel._core.apex_rows
        xs, ys, hull = (0, 4, 4, 0), (0, 0, 4, 4), {(0, 1), (1, 2), (2, 3), (0, 3)}
        for ordered, error, match in [
            ([(0, 1), (1, 4)], ValueError, r"value 4 outside \[0, 4\)"),
            ([(-1, 1)], ValueError, r"value -1 outside \[0, 4\)"),
            ([(0, 1), [1, 2]], TypeError, "edge 1 is not a tuple"),
            ([(0, 1, 2)], ValueError, "edge 0 is not a pair"),
            ([(1, 0)], ValueError, "edge 0 is not canonical"),
            ([(0, 2), (0, 1)], ValueError, "edge 1 is not canonical, or out of sorted order"),
            ([(0, 1), (0, 1)], ValueError, "edge 1 is not canonical, or out of sorted order"),
            ([(0, 1.0)], TypeError, "integer"),
            (5, TypeError, "not iterable"),
        ]:
            with pytest.raises(error, match=match):
                certificate(xs, ys, ordered, hull)
        with pytest.raises(ValueError, match="equal lengths"):
            certificate(xs, ys[:3], [(0, 1)], hull)
        with pytest.raises(ValueError, match="outside"):
            certificate((0, 4, 4, COORD_BOUND + 1), ys, [(0, 1)], hull)
        with pytest.raises(TypeError):
            certificate(list(xs), ys, [(0, 1)], hull)
        with pytest.raises(TypeError, match="hull edges as a set"):
            certificate(xs, ys, [(0, 1)], sorted(hull))
        assert certificate(xs, ys, (), frozenset()) == ([], 0)


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
        # one above the Python cap must hit the C cap (MAX_POINTS), so the
        # two cannot drift apart
        prep = make_prep(*convex_pair(4)[1:] * 2)
        big = (COMPILED_MAX_POINTS + 1,) + prep[1:]
        with pytest.raises(ValueError, match=f"capped at {COMPILED_MAX_POINTS} points"):
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
        proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_TABLES], capture_output=True, text=True)
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
    every vertex.  It flips through flip and is_flippable, so it shares the
    flip rule (_flips_into, _apply_flip) with the pure kernel and the oracle,
    but not their search or oracle.bfs_distance's BFS."""
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


class TestGapThree:
    """Completeness at gap 3.  The pairs are fixed by a rule, never by
    outcome: every ordered pair of the convex 9-gon's triangulations whose
    distance exceeds the missing-edge bound by 3 (none exceeds it by more),
    and every ordered pair of gen_random_points(9, 5, 1000) whose distance
    exceeds it by 2 or more, in closure order.  Distances come from
    flip_graph_distances, a plain BFS that shares the flip rule with the
    pure kernel but not its search.  search_upto(s, t, d) must find distance
    d with a witness that replays, and the declared slice PURE_SLICE of each
    list, run again on the pure kernel, must give the identical result."""

    PURE_SLICE = slice(None, None, 50)

    @pytest.fixture(scope="class")
    def pairs(self):
        convex = [p for p in ordered_pairs(gen_convex(9)) if p[2] - p[3] == 3]
        random_pairs = gap_pairs(gen_random_points(9, 5, 1000))
        assert (len(convex), len(random_pairs)) == (366, 650)
        return convex, random_pairs

    def check(self, start, end, d):
        result = search_upto(start, end, d)
        assert result is not None and result.k == d
        assert replay(result.sequence) == end
        return result

    @needs_compiled
    def test_distance_equals_bfs(self, pairs):
        for start, end, d, _ in itertools.chain(*pairs):
            self.check(start, end, d)

    def test_pure_slice_matches(self, pairs, monkeypatch):
        sliced = [p for group in pairs for p in group[self.PURE_SLICE]]
        first = [self.check(start, end, d) for start, end, d, _ in sliced]
        if compiled_available():
            monkeypatch.setattr(_kernel, "_core", None)
            assert [self.check(start, end, d) for start, end, d, _ in sliced] == first


@functools.cache
def shapes_of(k_i: int) -> tuple[IterationShape, ...]:
    """iteration_shapes(k_i), built once: building the strings again for
    every iteration adds about half to TestLiteralSearch's time."""
    return tuple(iteration_shapes(k_i))


def literal_run_budget(start: Triangulation, end: Triangulation, k: int) -> Optional[Accept]:
    """The paper's search for budget k as stated, from solver's public pieces.
    It tries compositions(k) in order.  Each iteration takes its start edge by
    the cursor rule of solver's docstring: the next surviving necessary edge,
    else a rebuild of the sorted necessary edges, and an empty rebuild kills
    the branch.  Every iteration_shapes(k_i) string then goes through
    transform, and a run accepts when its final edge set is the target's.
    Returns the kernels' triple, with action codes 0..3 for Move and 4 for
    FlipBack.  It prunes nothing: the kernels' cuts drop only branches that
    cannot accept, so the first accepting run is the same."""

    def iterate(tri, parts, olex, p):
        if not parts:
            return [] if tri.edges == end.edges else None
        while p < len(olex) and (olex[p] not in tri.edges or olex[p] in end.edges):
            p += 1
        if p == len(olex):
            olex, p = necessary_edges(tri, end), 0
            if not olex:
                return None
        for shape in shapes_of(parts[0]):
            step = transform(tri, olex[p], shape)
            if step is not None and (rest := iterate(step[0], parts[1:], olex, p + 1)) is not None:
                return [(olex[p], shape, step[1]), *rest]
        return None

    for comp in compositions(k):
        run = iterate(start, comp.parts, necessary_edges(start, end), 0)
        if run is not None:
            return ([(*r.underlying, *r.resulting) for _, _, recs in run for r in recs],
                    [edge for edge, _, _ in run],
                    [[a.direction if isinstance(a, Move) else 4 for a in shape.actions]
                     for _, shape, _ in run])
    return None


class TestLiteralSearch:
    """Both kernels return the triple of the paper's search as stated
    (literal_run_budget) for every budget: every ordered pair of the convex
    4..7-gons and of gen_random_points(7, 2, 1000), at each k from
    max(bound, 1) to d + 1."""

    def test_witnesses_match_the_literal_search(self):
        pairs = [pair for n in range(4, 8) for pair in ordered_pairs(gen_convex(n))]
        pairs += ordered_pairs(gen_random_points(7, 2, 1000))
        runs = [kernel_for("pure")] + ([kernel_for("compiled")] if compiled_available() else [])
        calls = accepts = 0
        for start, end, d, bound in pairs:
            prep = make_prep(start, end)
            for k in range(max(bound, 1), d + 2):
                want = literal_run_budget(start, end, k)
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
