"""kcdag benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src`.  Inputs come from the seed alone.  A fresh interpreter imports kcdag
IMPORT_REPS times and the workload's set-up runs at least SETUP_REPS times
and until it has taken SETUP_MIN_S seconds of CPU time, then
whole passes of its fixed operation list repeat while they fit in S seconds
(at least one); each case of a pass, and each of the workload's tail cases
that follow it, runs in a fresh process of its own.
Every output is checked against engine-independent ground truth.  The last
line of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics`, which holds the end-to-end metrics with --trace 0 and the
per-layer metrics with --trace 1.  A traced run makes an untraced, a traced
and another untraced pass of the same work in this process, and writes its
spans and full summary under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time

import bootstrap  # noqa: F401  (must precede the kcdag imports)

from harness import FAIL_GROUPS, Ops
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, PassStats

HERE = Path(__file__).resolve().parent
IMPORT_REPS = 21
SETUP_REPS = 5
SETUP_MIN_S = 1.0
# a pass case runs up to about 10 s on the seed code; the tail cases fail
# in about a second there, and a pass with its six must fit in a run's 180 s
CASE_TIMEOUT_S = 40
TAIL_TIMEOUT_S = 15

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# per-layer metrics, in report order; spans give the timed ones
SPAN_METRICS = [
    "engine.conjoin.s", "engine.conjoin.calls", "engine.conjoin.top_calls",
    "engine.condition.s", "engine.condition.calls",
    "engine.disjoin.s", "engine.disjoin.calls",
    "engine.negate.s", "engine.negate.calls",
    "cnf.parse_dimacs.s", "ordering.min_fill_order.s",
    "compiler.compile_cnf.self_s", "compiler.clause_diagram.s",
    "convert.convert_down.s", "convert.convert_down.calls",
    "decompose.decompose.s", "decompose.decompose.calls",
    "validate.validate.s",
    "ops.entails_clause.s", "ops.implied_by_term.s", "ops.model_count.s", "ops.equivalent.s",
    "ops.condition.s", "ops.conjoin.s", "ops.forget.s", "ops.disjoin.s", "ops.negate.s",
    "ops.enumerate_models.s",
    "diagram_io.serialize.s", "diagram_io.deserialize.s",
]
COUNT_METRICS = [
    "engine.interned_vertices", "engine.final_vertices", "engine.useful_vertex_ratio",
    "validate.exact_checked", "validate.skipped",
]
PER_LAYER = (SPAN_METRICS + COUNT_METRICS + [f"fail.{g}" for g in FAIL_GROUPS]
             + [f"{layer}.self_s" for layer in LAYERS]
             + ["bench.self_s", "trace.wall_s", "trace.overhead_ratio"])


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def import_seconds() -> float:
    """CPU time a fresh interpreter takes to import kcdag from this checkout."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.process_time(); import kcdag; print(time.process_time() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(bootstrap.SRC)],
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


def setup_seconds(name: str, seed: int) -> tuple[float, list, list]:
    """Median import CPU time plus the median CPU time of the workload's
    set-up, each state dropped before the next is built; and the samples."""
    imports = [import_seconds() for _ in range(IMPORT_REPS)]
    setups = []
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_MIN_S:
        c0 = process_time()
        state = WORKLOADS[name].setup(seed)
        setups.append(process_time() - c0)
        del state
    return statistics.median(imports) + statistics.median(setups), imports, setups


def run_case(name: str, seed: int, k: int, ops: Ops, stats: PassStats, tail: bool = False):
    """Case k (a tail case if `tail`) of a workload in a child process; its
    outcomes are merged into ops and stats.  If the child dies or times out,
    its remaining operations count as failed.  Returns the child's peak RSS
    in MB, or None."""
    wl = WORKLOADS[name]
    expected = wl.tail_ops(k) if tail else wl.case_ops
    cmd = [sys.executable, str(HERE / "case.py"), "--workload", name,
           "--seed", str(seed), "--case", str(k)] + (["--tail"] if tail else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=TAIL_TIMEOUT_S if tail else CASE_TIMEOUT_S)
        out, why = proc.stdout, f"exit {proc.returncode}"
    except subprocess.TimeoutExpired as exc:
        out, why = exc.stdout or "", "timeout"
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
    reported, rss = 0, None
    for line in out.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:  # the last line of a child that was killed mid-write
            continue
        if "op" in rec:
            ops.record(rec["op"], rec["fail"], rec["type"])
            reported += 1
        elif "wrong" in rec:
            ops.check(False, rec["wrong"])
        elif rec.get("done"):
            for cat, xs in rec["latency"].items():
                ops.latency[cat].extend(xs)
            for field, value in rec["stats"].items():
                setattr(stats, field, getattr(stats, field) + value)
            rss = rec["rss_mb"]
    for _ in range(expected - reported):
        ops.record("case", "ProcessDied", f"ProcessDied({why})")
    return rss


def latency_detail(passes) -> dict:
    """Per latency category: median per-pass total, p50 and, with enough
    samples for ten beyond it, p99."""
    out = {}
    for cat in sorted({c for lat, _ in passes for c in lat}):
        pooled = [x for lat, _ in passes for x in lat.get(cat, [])]
        d = {"total_s": statistics.median(sum(lat.get(cat, [])) for lat, _ in passes),
             "samples": len(pooled), "p50_ms": statistics.median(pooled) * 1e3}
        if len(pooled) >= 1000:
            d["p99_ms"] = statistics.quantiles(pooled, n=100, method="inclusive")[98] * 1e3
        out[cat] = d
    return out


def measure(name: str, seed: int, seconds: float) -> tuple[Ops, dict, dict]:
    wl = WORKLOADS[name]
    ops = Ops()
    setup_s, import_samples, setup_samples = setup_seconds(name, seed)

    passes, case_rss = [], []
    start = perf_counter()
    while True:
        ops.latency = defaultdict(list)
        stats = PassStats()
        t0 = perf_counter()
        case_rss += [run_case(name, seed, k, ops, stats) for k in range(wl.cases)]
        for k in range(wl.tail_cases):
            run_case(name, seed, k, ops, PassStats(), tail=True)
        wall = perf_counter() - t0
        passes.append((dict(ops.latency), stats))
        if perf_counter() - start + wall > seconds:
            break

    case_rss = [r for r in case_rss if r is not None]
    metrics = {
        "setup_s": setup_s,
        "run_s": statistics.median(sum(map(sum, lat.values())) for lat, _ in passes),
        # the median over a pass's case processes of each one's own peak
        "peak_rss_mb": statistics.median(case_rss) if case_rss else 0.0,
        "ok_ratio": 1 - ops.failed / ops.attempted,
    }
    detail = {"passes": len(passes), "import_samples_s": import_samples,
              "setup_samples_s": setup_samples,
              "latency_cpu": latency_detail(passes),
              "ops_per_s": statistics.median(
                  sum(map(len, lat.values())) / sum(map(sum, lat.values()))
                  for lat, _ in passes),
              "fail_ratio": {"failed": ops.failed, "attempted": ops.attempted},
              "failure_types": dict(ops.failure_types),
              "final_vertices": passes[0][1].final_vertices,
              "interned_vertices": passes[0][1].interned_vertices}
    return ops, metrics, detail


def trace(name: str, seed: int) -> tuple[Ops, dict, dict]:
    """An untraced pass, the traced pass and another untraced pass, each on
    a fresh set-up; the overhead is traced over the untraced mean."""
    wl = WORKLOADS[name]
    ops = Ops()

    def timed_pass(stats, tracer=None):
        state = wl.setup(seed)
        if tracer is not None:
            tracer.install()
            ops.quiet = tracer.quiet
        try:
            t0 = perf_counter()
            wl.run_pass(state, ops, stats)
            return perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
                ops.quiet = contextlib.nullcontext

    before = timed_pass(PassStats())
    tracer = Tracer()
    stats = PassStats()
    traced = timed_pass(stats, tracer)
    untraced = (before + timed_pass(PassStats())) / 2
    for k in range(wl.tail_cases):
        run_case(name, seed, k, ops, PassStats(), tail=True)

    summary = tracer.summary(traced)
    summary.update({
        "engine.interned_vertices": stats.interned_vertices,
        "engine.final_vertices": stats.final_vertices,
        "engine.useful_vertex_ratio": stats.final_vertices / max(stats.interned_vertices, 1),
        "validate.exact_checked": stats.exact_checked,
        "validate.skipped": stats.skipped,
        "trace.overhead_ratio": traced / untraced,
    })
    for group in FAIL_GROUPS:
        summary[f"fail.{group}"] = ops.failures[group]
    metrics = {m: summary.get(m, 0) for m in PER_LAYER}
    share = {layer: summary[f"{layer}.self_s"] / traced for layer in LAYERS + ("bench",)}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}-{seed}.jsonl")
    (out_dir / f"trace-{name}-{seed}.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    detail = {"untraced_pass_s": untraced, "traced_pass_s": traced, "self_share": share,
              "failure_types": dict(ops.failure_types)}
    return ops, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.trace:
        ops, values, detail = trace(args.workload, args.seed)
        units = {m: per_layer_unit(m) for m in PER_LAYER}
    else:
        ops, values, detail = measure(args.workload, args.seed, args.seconds)
        units = END_TO_END
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "detail": detail}))
    for what in ops.wrong[:20]:
        print(f"perfbench: wrong result: {what}", file=sys.stderr)
    print(json.dumps({
        "correct": not ops.wrong,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }))
    return 1 if ops.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
