"""Command line front end.

Four subcommands: gen (emit an instance), solve (parameterized search),
oracle (BFS ground truth / flip graph statistics) and verify (solver-vs-oracle
cross checks and witness replay).

Exit codes are uniform: 0 = YES or success, 1 = NO (including "not within
bound" and failed verification), 2 = usage or validation errors.  Machine
output (key=value lines, CSV, witness lines) goes to stdout; diagnostics to
stderr.  Witness files hold one flip per line as "a-b -> c-d"; replay ignores
blank lines, '#' comments, and key=value metadata, so a solve transcript is
itself replayable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .errors import FlipDistError, InstanceSyntaxError, InvalidAt, NoFlippableEdge
from .flipdag import FlipSequence, replay
from .instances import (
    Instance,
    gen_convex,
    gen_random_points,
    initial_triangulation,
    parse,
    random_walk_triangulation,
    serialize,
)
from .oracle import bfs_distance, graph_stats
from .solver import flip_distance_upto, search_upto
from .triangulation import FlipRecord, make_edge

_DEFAULT_CAP = 64
_DEFAULT_MAX_K = 10
_STATS_MAX_N = 10  # --stats holds all Catalan(n - 2) triangulations: 1,430 at n = 10


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load(path: str) -> Instance:
    return parse(Path(path).read_text(encoding="utf-8"))


def _read_seqfile(path: str) -> tuple[FlipRecord, ...]:
    recs = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "->" not in line:
            if "=" in line:  # solve metadata such as distance=2
                continue
            raise InstanceSyntaxError(lineno, f"expected 'a-b -> c-d', got {line!r}")

        def edge(txt: str) -> tuple[int, int]:
            a, sep, b = txt.strip().partition("-")
            if not sep:
                raise InstanceSyntaxError(lineno, f"expected 'a-b' edge, got {txt!r}")
            try:
                return make_edge(int(a), int(b))
            except ValueError:
                raise InstanceSyntaxError(lineno, f"bad edge endpoints {txt!r}") from None

        left, _, right = line.partition("->")
        recs.append(FlipRecord(underlying=edge(left), resulting=edge(right)))
    return tuple(recs)


def cmd_gen(args: argparse.Namespace) -> int:
    if args.mode == "convex":
        ps = gen_convex(args.n)
    else:
        ps = gen_random_points(args.n, args.seed, args.bound)
    t_start = initial_triangulation(ps)
    t_end = random_walk_triangulation(t_start, args.walk, args.seed)
    sys.stdout.write(serialize(Instance(ps=ps, t_start=t_start, t_end=t_end, k=args.k)))
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _load(args.infile)
    if args.decide:
        if inst.k is None:
            return _fail("--decide needs a 'k' line in the instance file")
        yes = flip_distance_upto(inst.t_start, inst.t_end, inst.k) == inst.k
        print(f"decision={'YES' if yes else 'NO'}")
        return 0 if yes else 1

    max_k = args.max_k
    if max_k is None:
        max_k = inst.k if inst.k is not None else _DEFAULT_MAX_K
    result = search_upto(inst.t_start, inst.t_end, max_k)
    if result is None:
        print(f"distance=>{max_k}")
        return 1
    print(f"distance={result.k}")
    for rec in result.sequence.flips:
        print(rec)
    if args.trace:
        print(f"# composition {','.join(map(str, result.composition.parts))}")
        for i, (start, shape) in enumerate(zip(result.starts, result.shapes), 1):
            print(f"# iteration {i}: start {start[0]}-{start[1]} actions {shape}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.stats:
        if args.n is None:
            return _fail("--stats needs --n")
        if args.n > _STATS_MAX_N:
            return _fail(f"--stats needs --n at most {_STATS_MAX_N}, got {args.n}")
        ps = gen_convex(args.n)
        stats = graph_stats(ps, initial_triangulation(ps))
        print("n,order,diameter")
        print(f"{args.n},{stats.order},{stats.diameter}")
        print("distance,pairs")
        for d in sorted(stats.distance_histogram):
            print(f"{d},{stats.distance_histogram[d]}")
        return 0
    if args.infile is None:
        return _fail("need --in FILE (or --stats --n N)")
    inst = _load(args.infile)
    cap = args.cap if args.cap is not None else _DEFAULT_CAP
    found = bfs_distance(inst.t_start, inst.t_end, cap)
    if found is None:
        print(f"distance=>{cap}")
        return 1
    distance, witness = found
    print(f"distance={distance}")
    if args.witness:
        for rec in witness.flips:
            print(rec)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.replay is not None:
        if args.infile is None:
            return _fail("--replay needs --in FILE")
        inst = _load(args.infile)
        recs = _read_seqfile(args.replay)
        try:
            end = replay(FlipSequence(start=inst.t_start, flips=recs))
        except InvalidAt as exc:
            print(f"replay=fail index={exc.index}")
            return 1
        if end == inst.t_end:
            print(f"replay=ok flips={len(recs)} endpoint=match")
            return 0
        print(f"replay=ok flips={len(recs)} endpoint=mismatch")
        return 1

    if args.mode != "cross":
        return _fail("need --mode cross or --replay SEQFILE")
    if args.n is None or args.trials is None:
        return _fail("--mode cross needs --n and --trials")
    if args.trials < 1:
        return _fail("--trials must be >= 1")
    ok = fail = 0
    for trial in range(args.trials):
        sub_seed = args.seed * 100_003 + trial
        ps = gen_random_points(args.n, sub_seed, args.bound)
        t_start = initial_triangulation(ps)
        try:
            t_end = random_walk_triangulation(t_start, trial % (args.max_k + 1), sub_seed + 1)
        except NoFlippableEdge:  # the point set's only triangulation: check distance 0
            t_end = t_start
        oracle_found = bfs_distance(t_start, t_end, args.max_k)
        want = oracle_found[0] if oracle_found is not None else None
        got = flip_distance_upto(t_start, t_end, args.max_k)
        if got == want:
            ok += 1
        else:
            fail += 1
            sys.stderr.write(
                f"mismatch on trial {trial}: oracle={want} solver={got}\n"
                + serialize(Instance(ps=ps, t_start=t_start, t_end=t_end)))
    print(f"ok={ok} fail={fail}")
    return 0 if fail == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipdist",
        description="Flip distance between triangulations of a planar point set.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance on stdout")
    p.add_argument("--mode", choices=["convex", "random"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--walk", type=_nonneg, default=0,
                   help="random flips applied to derive the target (default 0)")
    p.add_argument("--k", type=_nonneg, default=None, help="flip budget line to emit")
    p.add_argument("--bound", type=int, default=1000,
                   help="coordinate bound for --mode random (default 1000)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="parameterized search on an instance file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-k", dest="max_k", type=_nonneg, default=None,
                   help="distance bound (default: the file's k, else 10)")
    p.add_argument("--decide", action="store_true",
                   help="decide 'distance equals the file's k' instead")
    p.add_argument("--trace", action="store_true",
                   help="also print the accepting run as '#' comment lines")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exact BFS distance or flip graph stats")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--cap", type=_nonneg, default=None,
                   help=f"BFS depth cap (default {_DEFAULT_CAP})")
    p.add_argument("--witness", action="store_true",
                   help="also print a shortest flip sequence")
    p.add_argument("--stats", action="store_true",
                   help="print flip graph statistics for the convex n-gon")
    p.add_argument("--n", type=int, default=None, help=f"point count for --stats (at most {_STATS_MAX_N})")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="cross-check solver against the oracle, or replay a witness")
    p.add_argument("--mode", choices=["cross"], default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-k", dest="max_k", type=_nonneg, default=6)
    p.add_argument("--bound", type=int, default=1000)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--replay", default=None, help="witness file to replay against --in")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FlipDistError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
