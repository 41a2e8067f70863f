"""Shared fixtures: small canonical point sets and triangulation helpers."""

import os
import shlex
import shutil
import sysconfig
from pathlib import Path

import pytest

from flipdist.geometry import Point, PointSet, orient
from flipdist.instances import gen_convex, initial_triangulation
from flipdist.triangulation import Edge, Triangle, Triangulation, build

# unit square scaled to keep things integral
SQUARE_COORDS = [(0, 0), (4, 0), (4, 4), (0, 4)]

# a triangle with one interior point: the unique triangulation of these four
# points has no flippable edge at all
PINNED_COORDS = [(0, 0), (10, 0), (5, 9), (5, 3)]


@pytest.fixture
def square_ps() -> PointSet:
    return PointSet.from_coords(SQUARE_COORDS)


@pytest.fixture
def square_tris(square_ps) -> tuple[Triangulation, Triangulation]:
    """The two triangulations of the square: diagonal (0,2) and diagonal (1,3)."""
    hull = [(0, 1), (1, 2), (2, 3), (0, 3)]
    return build(square_ps, hull + [(0, 2)]), build(square_ps, hull + [(1, 3)])


@pytest.fixture
def pinned_ps() -> PointSet:
    return PointSet.from_coords(PINNED_COORDS)


@pytest.fixture
def pinned_tri(pinned_ps) -> Triangulation:
    return build(pinned_ps, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])


def compiler_command() -> list[str]:
    """The compiler flipdist._kernel builds the kernel with: $CC, else the one
    Python was built with."""
    return shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")


def can_build_core() -> bool:
    """A C compiler resolves on PATH and Python.h is installed."""
    cc = compiler_command()
    return (bool(cc) and shutil.which(cc[0]) is not None
            and (Path(sysconfig.get_paths()["include"]) / "Python.h").is_file())


def strictly_convex_quad(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff the quadrilateral a,b,c,d (given in cyclic order) is strictly convex.

    All four consecutive orientation triples must agree on a nonzero sign;
    any collinear triple disqualifies.
    """
    s = orient(a, b, c)
    if s == 0:
        return False
    return orient(b, c, d) == s and orient(c, d, a) == s and orient(d, a, b) == s


def convex_pair(n: int) -> tuple[PointSet, Triangulation]:
    ps = gen_convex(n)
    return ps, initial_triangulation(ps)


def make_triangle(u: int, v: int, w: int) -> Triangle:
    return tuple(sorted((u, v, w)))  # type: ignore[return-value]


def tri_of(tri: Triangulation) -> dict[Edge, tuple[Triangle, ...]]:
    """Edge -> its incident triangles, sorted: the map triangulations stored
    before they stored apexes, derived from ``tri.triangles`` for the
    reference code that still reads it."""
    out: dict[Edge, list[Triangle]] = {e: [] for e in tri.edges}
    for t in sorted(tri.triangles):
        u, v, w = t
        for e in ((u, v), (u, w), (v, w)):
            out[e].append(t)
    return {e: tuple(tris) for e, tris in out.items()}


class _Pair:
    """A two-item sequence, hashed by identity, that a kernel reads through
    the sequence protocol; unlike a tuple it is freed outright, so a reader
    that kept only a borrowed reference to it reads freed memory."""

    def __init__(self, first, second):
        self.items = (first, second)

    def __len__(self):
        return 2

    def __getitem__(self, i):
        return self.items[i]


def changing_map(start: dict, change: str) -> dict:
    """A copy of an apex map that changes while a kernel reads it.  Its edge
    (0, 1) is keyed by a pair whose first element, when converted to an int,
    changes the copy: "grow" adds 64 entries, "clear" empties it, "swap"
    drops an entry already read and adds a new one, "refill" empties it and
    puts start back.  The key and its row are freed by the change unless the
    reader holds them.  Six entries put in first and deleted leave the table
    free slots, so a swap runs the read past the map's size, and put the read
    position ahead of the entries read, so a refill ends the read short."""
    rows = [(e, row) for e, row in start.items() if e != (0, 1)]
    table = {("deleted", i): None for i in range(6)}

    class Changes:
        def __index__(self):
            if change == "grow":
                table.update({("added", i): None for i in range(64)})
            elif change == "clear":
                table.clear()
            elif change == "swap":
                del table[rows[0][0]]
                table[("added", 0)] = None
            else:
                table.clear()
                table.update(start)
            return 0

    table.update(rows[:2] + [(_Pair(Changes(), 1), _Pair(*start[(0, 1)]))] + rows[2:])
    for i in range(6):
        del table[("deleted", i)]
    return table
