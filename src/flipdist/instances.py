"""Instance generation and the on-disk instance format.

An instance bundles a point set, two triangulations of it, and an optional
flip budget k.  The text format is line oriented and hand-writable:

    flipdist 1
    points <n>
    <id> <x> <y>          (n lines, ids 0..n-1 in order)
    tstart <m>
    <a> <b>               (m lines, a < b, each edge once)
    tend <m>
    <a> <b>
    k <value>             (optional)

Blank lines and full-line '#' comments are accepted when parsing and never
emitted, so serialization is byte-stable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .errors import (
    ExhaustedRetries,
    InstanceSyntaxError,
    NoFlippableEdge,
    PointSetMismatch,
    TooLarge,
    ValidationError,
)
from .geometry import COORD_BOUND, PointSet, _shared_line, orient
from .triangulation import Edge, Triangulation, build, flip, is_flippable, make_edge

_RETRY_BUDGET = 20_000


@dataclass(frozen=True)
class Instance:
    """A flip-distance problem: transform t_start into t_end in k flips."""

    ps: PointSet
    t_start: Triangulation
    t_end: Triangulation
    k: Optional[int] = None

    def __post_init__(self):
        if self.t_start.ps != self.ps or self.t_end.ps != self.ps:
            raise PointSetMismatch("instance triangulations disagree with the point set")
        if self.k is not None and self.k < 0:
            raise ValidationError(f"negative flip budget {self.k}")


def gen_convex(n: int) -> PointSet:
    """n points in strictly convex position: the parabola points (i, i*i).

    Exact integer coordinates, no three collinear, no trigonometry.  n is
    capped at 2^15 so (n-1)^2 stays inside the coordinate bound.
    """
    if n < 3:
        raise ValidationError(f"need at least 3 points, got {n}")
    if n > 2 ** 15:
        raise TooLarge(f"n = {n} exceeds 2^15, squares would leave the coordinate range")
    return PointSet.from_coords([(i, i * i) for i in range(n)])


def gen_random_points(n: int, seed: int, bound: int) -> PointSet:
    """n distinct points uniform on the [0, bound]^2 integer grid, in general
    position, deterministic per seed.

    Candidates violating distinctness or collinearity are rejected and
    redrawn; coordinates are never perturbed.  Raises ExhaustedRetries when
    the grid is too cramped to succeed within the retry budget.
    """
    if n < 3:
        raise ValidationError(f"need at least 3 points, got {n}")
    if bound < 1 or bound > COORD_BOUND:
        raise TooLarge(f"bound {bound} outside [1, {COORD_BOUND}]")
    rng = random.Random(seed)
    coords: list[tuple[int, int]] = []
    taken: set[tuple[int, int]] = set()
    budget = _RETRY_BUDGET
    while len(coords) < n:
        if budget == 0:
            raise ExhaustedRetries(f"no general-position placement after {_RETRY_BUDGET} draws")
        budget -= 1
        x, y = rng.randint(0, bound), rng.randint(0, bound)
        if (x, y) in taken:
            continue
        # (x, y) is collinear with two accepted points iff they share a line through it
        if _shared_line(x, y, coords) is not None:
            continue
        coords.append((x, y))
        taken.add((x, y))
    return PointSet.from_coords(coords)


def initial_triangulation(ps: PointSet) -> Triangulation:
    """The incremental lexicographic scan triangulation.

    Points are processed in (x, y) order; each new point lies outside the
    hull of its predecessors and is joined to every hull vertex it can see.
    On a convex polygon this degenerates to a fan from the lexicographically
    first vertex.
    """
    order = sorted(range(len(ps)), key=lambda i: (ps[i].x, ps[i].y))
    a, b, c = order[:3]
    hull = [a, b, c] if orient(ps[a], ps[b], ps[c]) > 0 else [a, c, b]
    edges: set[Edge] = {make_edge(a, b), make_edge(a, c), make_edge(b, c)}

    for q in order[3:]:
        m = len(hull)
        # hull is CCW, so q sees edge (h[i], h[i+1]) iff q is strictly right of it
        vis = [orient(ps[hull[i]], ps[hull[(i + 1) % m]], ps[q]) < 0 for i in range(m)]
        start = next(i for i in range(m) if vis[i] and not vis[i - 1])
        run = 1
        while vis[(start + run) % m]:
            run += 1
        for t in range(run + 1):
            edges.add(make_edge(hull[(start + t) % m], q))
        keep = [hull[(start + run + t) % m] for t in range((m - run) % m + 1)]
        hull = keep + [q]
    return build(ps, sorted(edges))


def random_walk_triangulation(tri: Triangulation, steps: int, seed: int) -> Triangulation:
    """Apply `steps` uniformly random flips (seeded) and return the endpoint.

    Each step picks among the currently flippable edges, so the walk itself
    witnesses flip distance <= steps from the input.
    """
    if steps < 0:
        raise ValidationError(f"negative walk length {steps}")
    rng = random.Random(seed)
    cur = tri
    for _ in range(steps):
        flippable = [e for e in sorted(cur.edges) if is_flippable(cur, e)]
        if not flippable:
            raise NoFlippableEdge("triangulation has no flippable edge")
        cur, _ = flip(cur, rng.choice(flippable))
    return cur


def serialize(inst: Instance) -> str:
    """Canonical text form; see the module docstring for the layout."""
    lines = ["flipdist 1", f"points {len(inst.ps)}"]
    lines.extend(f"{p.id} {p.x} {p.y}" for p in inst.ps)
    for tag, tri in (("tstart", inst.t_start), ("tend", inst.t_end)):
        lines.append(f"{tag} {len(tri.edges)}")
        lines.extend(f"{a} {b}" for a, b in sorted(tri.edges))
    if inst.k is not None:
        lines.append(f"k {inst.k}")
    return "\n".join(lines) + "\n"


class _Reader:
    """Data lines of an instance file, skipping blanks and '#' comments."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self) -> tuple[int, str]:
        while self.pos < len(self.lines):
            self.pos += 1
            data = self.lines[self.pos - 1].strip()
            if data and not data.startswith("#"):
                return self.pos, data
        raise InstanceSyntaxError(len(self.lines) + 1, "unexpected end of file")

    def leftover(self) -> Optional[int]:
        try:
            lineno, _ = self.next()
            return lineno
        except InstanceSyntaxError:
            return None


def _int(lineno: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InstanceSyntaxError(lineno, f"expected integer {what}, got {token!r}") from None


def _header(reader: _Reader, keyword: str) -> int:
    lineno, line = reader.next()
    parts = line.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise InstanceSyntaxError(lineno, f"expected '{keyword} <count>', got {line!r}")
    count = _int(lineno, parts[1], "count")
    if count < 0:
        raise InstanceSyntaxError(lineno, f"negative count {count}")
    return count


def parse(text: str) -> Instance:
    """Inverse of :func:`serialize`.  Raises InstanceSyntaxError with the
    offending line number on malformed text and lets PointSet/Triangulation
    validation errors propagate."""
    reader = _Reader(text)
    lineno, line = reader.next()
    if line != "flipdist 1":
        raise InstanceSyntaxError(lineno, f"expected 'flipdist 1' header, got {line!r}")

    n = _header(reader, "points")
    coords: list[tuple[int, int]] = []
    for i in range(n):
        lineno, line = reader.next()
        parts = line.split()
        if len(parts) != 3:
            raise InstanceSyntaxError(lineno, f"expected '<id> <x> <y>', got {line!r}")
        pid = _int(lineno, parts[0], "point id")
        if pid != i:
            raise InstanceSyntaxError(lineno, f"point id {pid} out of order, expected {i}")
        coords.append((_int(lineno, parts[1], "x"), _int(lineno, parts[2], "y")))
    ps = PointSet.from_coords(coords)

    tris: list[Triangulation] = []
    for tag in ("tstart", "tend"):
        m = _header(reader, tag)
        first = reader.pos
        edges: list[Edge] = []
        for _ in range(m):
            lineno, line = reader.next()
            parts = line.split()
            if len(parts) != 2:
                raise InstanceSyntaxError(lineno, f"expected '<a> <b>', got {line!r}")
            a, b = _int(lineno, parts[0], "endpoint"), _int(lineno, parts[1], "endpoint")
            if a >= b:
                raise InstanceSyntaxError(lineno, f"edge endpoints not increasing: {a} {b}")
            edges.append((a, b))
        tris.append(build(ps, edges))
        if len(tris[-1].edges) != m:  # build keeps one copy of a repeated edge
            reader.pos, seen = first, set()
            for a, b in edges:
                lineno, _ = reader.next()
                if (a, b) in seen:
                    raise InstanceSyntaxError(lineno, f"edge {a} {b} listed twice")
                seen.add((a, b))

    k: Optional[int] = None
    try:
        lineno, line = reader.next()
    except InstanceSyntaxError:
        lineno, line = -1, ""
    if line:
        parts = line.split()
        if len(parts) != 2 or parts[0] != "k":
            raise InstanceSyntaxError(lineno, f"expected 'k <value>' or end of file, got {line!r}")
        k = _int(lineno, parts[1], "k")
        if k < 0:
            raise InstanceSyntaxError(lineno, f"negative k {k}")
        trailing = reader.leftover()
        if trailing is not None:
            raise InstanceSyntaxError(trailing, "trailing content after 'k' line")

    return Instance(ps=ps, t_start=tris[0], t_end=tris[1], k=k)
