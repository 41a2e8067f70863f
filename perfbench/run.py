"""flipdist benchmark: one workload per run, every answer checked.

    python3 perfbench/run.py --workload convex-fans --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout.  It imports flipdist from ``src/``
and builds nothing, so the search runs on the kernel that ``auto`` resolves to
(the pure one unless the extension was built in place).  It unsets
FLIPDIST_BACKEND and never passes ``workers``, so all work is one process.

Human-readable report lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones and the
tracing overhead.  Exit codes: 0 after a result, 2 when the flipdist sources
are missing, 3 when the regenerated inputs differ from their pins.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("convex-fans", "random-cross", "large-n")


def use_source_tree() -> None:
    """Make ``import flipdist`` load this checkout's src/, never an installed copy."""
    if not (SRC / "flipdist" / "__init__.py").is_file():
        raise ImportError(f"no flipdist sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import flipdist

    if Path(flipdist.__file__).resolve().parent != SRC / "flipdist":
        raise ImportError(f"flipdist was imported from {flipdist.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("FLIPDIST_BACKEND", None)
    try:
        use_source_tree()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from flipdist import _kernel

    import measure
    import workloads

    try:
        cases, refs, pool_sha = workloads.load(args.workload)
    except workloads.PinMismatch as exc:
        print(f"perfbench: inputs changed: {exc}", file=sys.stderr)
        return 3

    n_max = max(int(case.text.split()[3]) for case in cases)  # from each "points <n>" header
    print(f"env python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
          f"compiled_available={_kernel.compiled_available()} "
          f"backend={_kernel.resolve_backend(n_max)} seed={args.seed} "
          f"workload={args.workload} trace={args.trace} seconds={args.seconds:g}")
    print(f"inputs instances={len(cases)} sha256={pool_sha} (matches pin)")

    result = measure.measure(cases, refs, args.seed, args.seconds, bool(args.trace))

    for why in result["failures"][:10]:
        print(f"failure {why}", file=sys.stderr)
    print(f"passes={result['passes']} attempted={result['attempted']} failed={result['failed']} "
          f"fail_frac={result['failed'] / result['attempted']:g}")
    print(f"witness_digest={result['witness_digest']}")
    print(f"raw_pass_s={result['raw_pass_s']:.6g} s (median unscaled pass) "
          f"speed_scale={result['scale']:.4g} (median over passes)")
    for name, m in result["metrics"].items():
        extra = (f" (samples={result['samples']}: {len(cases)} instances x {result['passes']} passes)"
                 if name == "solve_p50_ms" else "")
        print(f"{name}={m['value']:.6g} {m['unit']}{extra}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
