"""One case of a workload, in a fresh process of its own.

    python3 perfbench/case.py --workload NAME --seed N --case K [--tail]

Each case runs in a process of its own, so that its peak memory is its own
and a case that kills the interpreter (deep recursion can overflow the C
stack) costs only that case.  `--tail` picks the workload's tail case K,
run after each pass's cases.  Prints one JSON line per operation outcome and per wrong result as
they happen, then a last line with "done", the latency samples, the pass
counts and this process's peak RSS.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource

import bootstrap  # noqa: F401  (must precede the kcdag imports)

from harness import Ops
from workloads import WORKLOADS, PassStats


def emit(**fields) -> None:
    print(json.dumps(fields), flush=True)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--case", type=int, required=True)
    ap.add_argument("--tail", action="store_true")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    ops = Ops(on_result=lambda name, group, tname: emit(op=name, fail=group, type=tname),
              on_wrong=lambda what: emit(wrong=what))
    stats = PassStats()
    case = wl.tail_case if args.tail else wl.case
    case(wl.setup(args.seed), args.case, ops, stats)
    emit(done=True, latency=ops.latency, stats=dataclasses.asdict(stats),
         rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


if __name__ == "__main__":
    main()
