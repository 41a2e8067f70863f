"""Recompute perfbench/pinned.json: each pool's digest and reference distances.

    python3 perfbench/pin.py [workload ...]

References come from the BFS oracle where n <= 12 (convex-fans takes ~4 s
per pair).  Beyond that, large-n records the distance the current solver
finds, after checking that it is at most the walk length and that the witness
replays to the target.  Run this only when a pool is changed on purpose, and
say so, since every earlier benchmark result was measured on the old inputs.
"""

from __future__ import annotations

import json
import sys

from run import WORKLOADS, use_source_tree


def main(names) -> int:
    use_source_tree()
    from flipdist import bfs_distance, parse, replay, search_upto

    import workloads

    pins = json.loads(workloads.PINNED.read_text(encoding="utf-8")) if workloads.PINNED.exists() else {}
    for name in names:
        cases = workloads.POOLS[name]()
        refs = []
        for case in cases:
            inst = parse(case.text)
            if len(inst.ps) <= 12:
                found = bfs_distance(inst.t_start, inst.t_end, inst.k)
                if found is None:
                    raise SystemExit(f"{case.label}: distance exceeds {inst.k}")
                refs.append(found[0])
            else:
                res = search_upto(inst.t_start, inst.t_end, inst.k)
                if res is None or replay(res.sequence) != inst.t_end:
                    raise SystemExit(f"{case.label}: no replayable witness within {inst.k} flips")
                refs.append(res.k)
            print(f"{name} {case.label} reference={refs[-1]}", flush=True)
        pins[name] = {"sha256": workloads.digest(cases), "references": refs}
    workloads.PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or WORKLOADS))
