"""Run every workload untraced and traced for one seed and keep the results.

    python3 perfbench/record.py --tag seed --seed 1 --seconds 30

Writes perfbench/results/<tag>.json: per workload, the untraced result and
detail lines, the traced per-layer metrics, and each layer's share of the
traced pass's wall time (self time over wall; `bench` is the part no layer
span covers).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import bootstrap  # noqa: F401  (must precede the kcdag imports)
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(result), json.loads(detail)["detail"]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--tag", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()
    out = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        untraced, detail = run(name, args.seed, args.seconds, 0)
        traced, tdetail = run(name, args.seed, args.seconds, 1)
        out["workloads"][name] = {
            "untraced": untraced, "untraced_detail": detail,
            "traced": traced, "layer_share_of_traced_wall": tdetail["self_share"],
            "traced_detail": tdetail,
        }
        print(name, "done", flush=True)
    dest = HERE / "results" / f"{args.tag}.json"
    dest.parent.mkdir(exist_ok=True)
    dest.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
