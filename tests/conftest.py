"""Shared fixtures: small canonical point sets and triangulation helpers."""

import os
import shlex
import shutil
import sysconfig
from collections import deque
from pathlib import Path

import pytest

from flipdist.geometry import Point, PointSet, orient
from flipdist.instances import gen_convex, initial_triangulation
from flipdist.triangulation import Edge, Triangle, Triangulation, build, canonical_key, flip, is_flippable

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


def flip_closure(seed: Triangulation) -> list[Triangulation]:
    """Every triangulation of seed's point set, in canonical key order."""
    seen = {canonical_key(seed): seed}
    frontier = deque([seed])
    while frontier:
        tri = frontier.popleft()
        for e in sorted(tri.edges):
            if is_flippable(tri, e):
                nxt, _ = flip(tri, e)
                key = canonical_key(nxt)
                if key not in seen:
                    seen[key] = nxt
                    frontier.append(nxt)
    return [seen[key] for key in sorted(seen)]
