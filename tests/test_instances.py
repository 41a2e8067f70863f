import itertools
from pathlib import Path
from typing import Optional

import pytest

from flipdist.errors import (
    BadIndex,
    ExhaustedRetries,
    FlipDistError,
    InstanceSyntaxError,
    NoFlippableEdge,
    NotMaximal,
    NotPlanar,
    PointSetMismatch,
    TooLarge,
    ValidationError,
)
from flipdist.geometry import PointSet, convex_hull_edges
from flipdist.instances import (
    Instance,
    gen_convex,
    gen_random_points,
    initial_triangulation,
    parse,
    random_walk_triangulation,
    serialize,
)
from flipdist.oracle import bfs_distance
from flipdist.triangulation import Edge, Triangulation, build

GOLDEN = Path(__file__).parent / "data" / "pentagon.flipdist"


# The reader and parse as they were when the error corpus below was written,
# verbatim but for the name reference_parse.  Every text must give parse and
# reference_parse the same instance or the same error, line and message.


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


def reference_parse(text: str) -> Instance:
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


def golden_mutations() -> list[str]:
    """The golden file and edits of it: each line deleted, duplicated, or
    preceded by a comment, a blank or a whitespace line; each token replaced
    by 'x', '0' or '9'; each count and k one up and one down; variants of the
    k line and of what follows it."""
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    texts = ["\n".join(lines) + "\n", "\n".join(lines)]
    for i, line in enumerate(lines):
        head, tail = lines[:i], lines[i + 1:]
        texts += ["\n".join(head + tail), "\n".join(head + [line, line] + tail)]
        texts += ["\n".join(head + [extra, line] + tail) for extra in ("# note", "", "   ")]
        tokens = line.split()
        for j, new in itertools.product(range(len(tokens)), ("x", "0", "9")):
            texts.append("\n".join(head + [" ".join(tokens[:j] + [new] + tokens[j + 1:])] + tail))
        if tokens[0] in ("points", "tstart", "tend", "k"):
            texts += ["\n".join(head + [f"{tokens[0]} {int(tokens[1]) + d}"] + tail) for d in (-1, 1)]
    body = lines[:-1]  # without "k 2"
    for k_lines in ([], ["k"], ["k 2 3"], ["K 2"], ["k -1"], ["k 0"], ["k +2"], ["k 2.0"], ["k2"],
                    ["kk 2"], ["k 2", "k 2"], ["k 2", "# end"], ["k 2", ""], ["k 2", "junk"],
                    ["# k 2"], ["junk"], ["", "k 2"], ["k 2", "0 1"]):
        texts += ["\n".join(body + k_lines), "\n".join(body + k_lines) + "\n"]
    return texts


def parse_outcome(fn, text):
    """The instance's points, apex maps in order and k, or the error's type,
    line and message."""
    try:
        inst = fn(text)
    except FlipDistError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return inst.ps.coords(), list(inst.t_start.apex.items()), list(inst.t_end.apex.items()), inst.k


class TestGenConvex:
    def test_triangle(self):
        assert gen_convex(3).coords() == [(0, 0), (1, 1), (2, 4)]

    def test_four_points_on_hull(self):
        ps = gen_convex(4)
        assert ps.coords() == [(0, 0), (1, 1), (2, 4), (3, 9)]
        assert len(convex_hull_edges(ps)) == 4

    def test_twenty_points_all_on_hull(self):
        assert len(convex_hull_edges(gen_convex(20))) == 20

    def test_too_large(self):
        with pytest.raises(TooLarge):
            gen_convex(2 ** 15 + 1)

    @pytest.mark.parametrize("gen", [gen_convex, lambda n: gen_random_points(n, 0, 1000)])
    @pytest.mark.parametrize("n", [-1, 0, 2])
    def test_too_few_points_quotes_n(self, gen, n):
        with pytest.raises(ValidationError, match=f"need at least 3 points, got {n}$"):
            gen(n)

    def test_at_cap_is_valid(self):
        # validation is O(n^3), so check the boundary arithmetic directly
        n = 2 ** 15
        assert (n - 1) ** 2 <= 2 ** 30


class TestGenRandomPoints:
    def test_deterministic(self):
        assert gen_random_points(7, 42, 1000) == gen_random_points(7, 42, 1000)

    def test_different_seeds_differ(self):
        assert gen_random_points(7, 1, 1000) != gen_random_points(7, 2, 1000)

    def test_passes_validation_by_construction(self):
        for seed in range(6):
            ps = gen_random_points(8, seed, 300)
            assert len(ps) == 8  # PointSet construction already validated

    def test_golden_pin(self):
        assert gen_random_points(7, 1, 1000).coords() == [
            (137, 582), (867, 821), (782, 64), (261, 120),
            (507, 779), (460, 483), (667, 388),
        ]

    def test_cramped_grid_exhausts(self):
        # [0,1]^2 has four corners; any fifth point repeats or aligns
        with pytest.raises(ExhaustedRetries):
            gen_random_points(5, 0, 1)

    def test_bad_bound(self):
        with pytest.raises(TooLarge):
            gen_random_points(5, 0, 2 ** 31)


class TestInitialTriangulation:
    def test_quadrilateral_diagonal_from_lex_first_vertex(self):
        tri = initial_triangulation(gen_convex(4))
        assert (0, 2) in tri.edges

    def test_axis_square_scan_diagonal(self, square_ps):
        # lex order visits (0,0),(0,4),(4,0),(4,4): the first triangle is
        # {0,1,3}, so the scan settles on diagonal (1,3)
        tri = initial_triangulation(square_ps)
        assert (1, 3) in tri.edges

    def test_convex_fan_from_first_vertex(self):
        for n in (5, 6, 9):
            tri = initial_triangulation(gen_convex(n))
            spokes = {e for e in tri.edges if e[0] == 0}
            assert spokes == {(0, i) for i in range(1, n)}

    def test_always_build_valid(self):
        for n, seed in [(6, 0), (8, 1), (10, 2), (12, 3)]:
            ps = gen_random_points(n, seed, 800)
            tri = initial_triangulation(ps)
            assert tri == build(ps, sorted(tri.edges))

    def test_deterministic(self):
        ps = gen_random_points(9, 5, 500)
        assert initial_triangulation(ps) == initial_triangulation(ps)


class TestRandomWalk:
    def test_zero_steps(self, square_tris):
        assert random_walk_triangulation(square_tris[0], 0, 3) == square_tris[0]

    def test_negative_steps_rejected(self, square_tris):
        with pytest.raises(ValidationError, match="negative walk length -1"):
            random_walk_triangulation(square_tris[0], -1, 3)

    def test_one_step_on_square(self, square_tris):
        with_02, with_13 = square_tris
        # the diagonal is the only flippable edge, whatever the seed
        for seed in range(5):
            assert random_walk_triangulation(with_02, 1, seed) == with_13

    def test_distance_bounded_by_steps(self):
        ps = gen_random_points(8, 3, 700)
        start = initial_triangulation(ps)
        for steps in (1, 2, 4):
            end = random_walk_triangulation(start, steps, steps)
            found = bfs_distance(start, end, steps)
            assert found is not None and found[0] <= steps

    def test_no_flippable_edge(self, pinned_tri):
        with pytest.raises(NoFlippableEdge):
            random_walk_triangulation(pinned_tri, 1, 0)

    def test_deterministic(self):
        start = initial_triangulation(gen_convex(8))
        assert random_walk_triangulation(start, 5, 11) == random_walk_triangulation(start, 5, 11)


class TestInstanceType:
    def test_point_set_mismatch(self, square_tris):
        other = initial_triangulation(gen_convex(5))
        with pytest.raises(PointSetMismatch):
            Instance(ps=other.ps, t_start=square_tris[0], t_end=other)

    def test_negative_k(self, square_ps, square_tris):
        with pytest.raises(ValidationError):
            Instance(ps=square_ps, t_start=square_tris[0], t_end=square_tris[1], k=-1)


class TestSerializeParse:
    def test_round_trip_square(self, square_ps, square_tris):
        inst = Instance(ps=square_ps, t_start=square_tris[0], t_end=square_tris[1], k=1)
        assert parse(serialize(inst)) == inst

    def test_round_trip_without_k(self, square_ps, square_tris):
        inst = Instance(ps=square_ps, t_start=square_tris[0], t_end=square_tris[1])
        again = parse(serialize(inst))
        assert again == inst and again.k is None

    def test_golden_pentagon_byte_stable(self):
        ps = gen_convex(5)
        t_start = initial_triangulation(ps)
        t_end = random_walk_triangulation(t_start, 2, 7)
        inst = Instance(ps=ps, t_start=t_start, t_end=t_end, k=2)
        assert serialize(inst) == GOLDEN.read_text(encoding="utf-8")

    def test_parse_golden(self):
        inst = parse(GOLDEN.read_text(encoding="utf-8"))
        assert len(inst.ps) == 5 and inst.k == 2
        assert (1, 4) in inst.t_end.edges

    def test_comments_and_blanks_tolerated(self):
        text = GOLDEN.read_text(encoding="utf-8")
        noisy = "# header comment\n\n" + text.replace("tstart 7", "tstart 7\n# edges follow")
        assert parse(noisy) == parse(text)

    def test_missing_edge_fails_validation(self):
        text = GOLDEN.read_text(encoding="utf-8")
        broken = text.replace("tstart 7\n0 1\n", "tstart 6\n")
        with pytest.raises(NotMaximal):
            parse(broken)

    def test_bad_magic(self):
        with pytest.raises(InstanceSyntaxError) as exc:
            parse("flipdist 2\npoints 3\n")
        assert exc.value.line == 1

    def test_truncated_file(self):
        text = GOLDEN.read_text(encoding="utf-8")
        with pytest.raises(InstanceSyntaxError):
            parse(text[:40])

    def test_unordered_point_ids(self):
        text = GOLDEN.read_text(encoding="utf-8").replace("0 0 0\n1 1 1\n", "1 1 1\n0 0 0\n")
        with pytest.raises(InstanceSyntaxError) as exc:
            parse(text)
        assert exc.value.line == 3

    def test_non_canonical_edge(self):
        text = GOLDEN.read_text(encoding="utf-8").replace("tstart 7\n0 1\n", "tstart 7\n1 0\n")
        with pytest.raises(InstanceSyntaxError):
            parse(text)

    def test_trailing_garbage(self):
        text = GOLDEN.read_text(encoding="utf-8") + "k 3\n"
        with pytest.raises(InstanceSyntaxError):
            parse(text)

    def test_negative_k_line(self):
        text = GOLDEN.read_text(encoding="utf-8").replace("k 2", "k -2")
        with pytest.raises(InstanceSyntaxError):
            parse(text)

    @pytest.mark.parametrize("tag, line", [("tstart", 10), ("tend", 18)])
    def test_edge_listed_twice(self, tag, line):
        # the count includes the repeat and build drops it, so build's own
        # checks pass
        lines = GOLDEN.read_text(encoding="utf-8").splitlines()
        i = lines.index(f"{tag} 7")
        lines[i:i + 2] = [f"{tag} 8", "0 1", "0 1"]
        with pytest.raises(InstanceSyntaxError, match=f"^line {line}: edge 0 1 listed twice$"):
            parse("\n".join(lines) + "\n")

    def test_errors_match_reference_parse(self):
        outcomes = [parse_outcome(parse, text) for text in golden_mutations()]
        assert outcomes == [parse_outcome(reference_parse, text) for text in golden_mutations()]
        errors = [o for o in outcomes if isinstance(o[0], type)]
        # every line number of the 24-line file and its end is named by some
        # syntax error, and the corpus reaches the point set and build errors
        assert {o[1] for o in errors if o[0] is InstanceSyntaxError} >= set(range(1, 26))
        assert {o[0] for o in errors} == {InstanceSyntaxError, BadIndex, NotMaximal, NotPlanar,
                                          ValidationError}
        assert len(outcomes) - len(errors) > 100
