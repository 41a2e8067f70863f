"""Completeness sweep: the search's distance against the flip graph's, on
every ordered pair of triangulations of a declared list of small point sets.

    PYTHONPATH=src python3 tools/completeness_sweep.py

Run it from the root of a source checkout, so that it imports ``src/``'s
flipdist.  For each point set, ``oracle._flip_graph`` lists its triangulations
and their distance matrix.  For every ordered pair (s, t) at distance d,
``search_upto(s, t, d)`` must return a witness of exactly d flips.  Its scan
runs every budget from the missing-edge bound up to d, so that one call checks
that no budget below d accepts and that d does.  The solver checks that the
witness replays to t, and a witness that does not stops the sweep with its
AssertionError.  Any other answer is a mismatch, and a mismatch is a defect of
the program, never a pair to drop.

Prints one line per point set (pairs, mismatches, pairs per gap, where the gap
is d minus the missing-edge bound, and wall time), then the totals.  Exits 1
if any pair mismatches.  The whole list (806,741 pairs) took 193 s with the
compiled kernel on a shared 2-vCPU virtual machine with Python 3.11.7.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Optional

from flipdist.geometry import PointSet
from flipdist.instances import gen_convex, gen_random_points, initial_triangulation
from flipdist.oracle import _flip_graph
from flipdist.solver import search_upto

# (label, point set): the convex 8- and 9-gons and seeded random sets
POINT_SETS = (
    [("convex 8", lambda: gen_convex(8)), ("convex 9", lambda: gen_convex(9))]
    + [(f"random 8 seed {s}", lambda s=s: gen_random_points(8, s, 1000)) for s in range(4)]
    + [(f"random 9 seed {s}", lambda s=s: gen_random_points(9, s, 1000)) for s in range(6)]
)


def sweep(ps: PointSet) -> tuple[int, list[tuple[int, int, int, Optional[int]]], Counter]:
    """(pairs checked, mismatches, pairs per gap) over every ordered pair of
    ps's triangulations.  A mismatch is (i, j, d, answer): the indices into
    ``_flip_graph``'s list, the matrix distance and the k that search_upto
    returned (None when it found no witness)."""
    tris, dist = _flip_graph(initial_triangulation(ps))
    mismatches = []
    gaps: Counter = Counter()
    for i, start in enumerate(tris):
        for j, end in enumerate(tris):
            d = dist[i][j]
            gaps[d - len(start.edges - end.edges)] += 1
            result = search_upto(start, end, d)
            if result is None or result.k != d:
                mismatches.append((i, j, d, None if result is None else result.k))
    return len(tris) ** 2, mismatches, gaps


def main() -> int:
    total = bad = 0
    gaps: Counter = Counter()
    for label, make in POINT_SETS:
        t0 = time.perf_counter()
        pairs, mismatches, set_gaps = sweep(make())
        total, bad, gaps = total + pairs, bad + len(mismatches), gaps + set_gaps
        print(f"{label}: pairs={pairs} mismatches={len(mismatches)} gaps={dict(sorted(set_gaps.items()))} "
              f"wall_s={time.perf_counter() - t0:.1f}", flush=True)
        for mismatch in mismatches[:10]:
            print(f"  mismatch (i, j, d, answer) = {mismatch}")
    print(f"total: pairs={total} mismatches={bad} gaps={dict(sorted(gaps.items()))}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
