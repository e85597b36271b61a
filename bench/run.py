#!/usr/bin/env python3
"""rank2cluster benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole passes of the workload, each in a fresh interpreter
(bench/worker.py), until S seconds have gone by, and prints every metric
by name with its unit.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A traced run alternates
untraced and traced passes, so it can report the tracing overhead.  Results
and spans are written under bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("positivity-sweep", "folding-verify", "query-mix")
RUN_DEADLINE_S = 170  # a run that is not done by then exits non-zero

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "queries_per_s": "1/s",
}

# span name -> which of its per-span figures are reported
SPAN_METRICS = [
    ("packed.positive_exact_div", ("calls", "self_s")),
    ("packed.positive_mul", ("calls", "self_s")),
    ("laurent.mul", ("calls", "self_s")),
    ("laurent.exact_div", ("calls", "self_s")),
    ("laurent.to_json_dict", ("self_s",)),
    ("rank2.cluster_variable", ("calls", "self_s")),
    ("rank2.check_positivity_range", ("self_s",)),
    ("quiver.count_submodules", ("calls", "self_s")),
    ("quiver.chi_table", ("calls", "self_s")),
    ("quiver.generic_module", ("calls", "self_s")),
    ("ccmap.cc_polynomial", ("calls", "self_s")),
    ("ccmap.fold", ("self_s",)),
    ("cli.main", ("self_s",)),
]
COUNTERS = [
    ("packed.positive_exact_div.computed_bytes", "B"),
    ("packed.positive_exact_div.declined", "count"),
    ("packed.positive_mul.computed_bytes", "B"),
    ("rank2.steps_walked", "count"),
    ("rank2.steps_computed", "count"),
    ("quiver.subspace_tuples", "count"),
    ("quiver.primes_used", "count"),
]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_pass(workload: str, seed: int, traced: bool, spans_path: str | None,
             timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
        if spans_path:
            cmd += ["--spans", spans_path]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(
            f"pass exited with code {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    latencies = [x for p in passes for x in p["latencies_s"]]
    walls = [p["wall_s"] for p in passes]
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "query_p50_ms": 1000 * percentile(latencies, 0.50),
        "query_p99_ms": 1000 * percentile(latencies, 0.99),
        "queries_per_s": len(latencies) / sum(walls),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, {"requests_timed": len(latencies), "passes": len(passes)}


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    values, units = {}, {}
    first = traced[0]
    for name, fields in SPAN_METRICS:
        if "calls" in fields:
            values[f"{name}.calls"], units[f"{name}.calls"] = first["calls"].get(name, 0), "count"
        values[f"{name}.self_s"] = statistics.median(p["self_s"].get(name, 0.0) for p in traced)
        units[f"{name}.self_s"] = "s"
    for name, unit in COUNTERS:
        values[name], units[name] = first["counts"].get(name, 0), unit
    walked = values["rank2.steps_walked"]
    served = walked - values["rank2.steps_computed"]
    values["rank2.memo_hit_ratio"] = served / walked if walked else 0.0
    units["rank2.memo_hit_ratio"] = "ratio"
    values["cli.output_bytes"], units["cli.output_bytes"] = first.get("output_bytes", 0), "B"
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    for layer in first["layer_self_s"]:
        share = statistics.median(p["layer_self_s"][layer] / p["wall_s"] for p in traced)
        values[f"{layer}.wall_share"], units[f"{layer}.wall_share"] = share, "ratio"
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    values["trace.overhead_ratio"] = traced_wall / untraced_wall - 1
    units["trace.overhead_ratio"] = "ratio"
    values["trace.spans"], units["trace.spans"] = first["spans"], "count"
    info = {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "missing_hooks": first["missing_hooks"],
    }
    return {k: {"value": values[k], "unit": units[k]} for k in values}, info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    passes: list[dict] = []
    spans = os.path.join(RESULTS, f"spans-{tag}.jsonl")
    start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - start < args.seconds:
            for traced in (False, True) if args.trace else (False,):
                left = RUN_DEADLINE_S - (time.perf_counter() - start)
                passes.append(run_pass(
                    args.workload, args.seed, traced, spans if traced else None, max(left, 1)
                ))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = all(p["incorrect"] == 0 for p in passes)
    if args.trace:
        metrics, info = per_layer(traced, untraced)
    else:
        metrics, info = end_to_end(untraced)
    env = passes[0]["env"]
    if args.workload == "query-mix":
        first = passes[0]
        info["distinct_queries"] = first["distinct_queries"]
        info["repeated_share"] = 1 - first["distinct_queries"] / first["attempted"]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for p in passes:
        for err in p["errors"]:
            print(f"  {err}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"attempted = {attempted}, failed = {failed}, correct = {correct}")
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
        json.dump({"env": env, "info": info, "passes": passes, **summary}, fh)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
