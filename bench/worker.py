"""One measured pass of one workload, in a fresh interpreter.

Usage: python3 bench/worker.py --workload NAME --seed N [--traced] [--spans PATH]

Imports rank2cluster from the ``src`` directory next to this benchmark,
builds the workload's inputs, times every request, checks every output
with the oracle (untimed), and prints one JSON object as its last line.
Module-level memo tables start cold because the interpreter is new.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import rank2cluster  # noqa: E402
import rank2cluster.cli  # noqa: E402,F401

import workloads  # noqa: E402

MAX_ERRORS_KEPT = 5


def environment() -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "gmpy2": rank2cluster._packed.mpz is not int,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans", default=None, help="write the spans here (traced only)")
    args = ap.parse_args()
    if os.path.dirname(os.path.abspath(rank2cluster.__file__)) != os.path.join(SRC, "rank2cluster"):
        print(f"rank2cluster imported from {rank2cluster.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = workloads.build(args.workload, rank2cluster, args.seed)
    tracer = None
    if args.traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(rank2cluster)
    setup_s = time.perf_counter() - T0

    latencies, errors = [], []
    failed = incorrect = 0
    for i, op in enumerate(work.ops):
        if tracer is not None:
            tracer.request = i
            tracer.enabled = True
        start = time.perf_counter()
        try:
            failures, output = work.run(op)
        except Exception as exc:  # the package raised: every operation failed
            failures, output = work.size(op), f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.enabled = False
        if failures:
            failed += failures
            errors.append(f"failed {op}: {output}"[:500])
            continue
        problems = work.check(op, output)
        if problems:
            incorrect += 1
            errors.extend(f"incorrect {op}: {p}"[:500] for p in problems)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "env": environment(),
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "requests": len(work.ops),
        "attempted": sum(work.size(op) for op in work.ops),
        "failed": failed,
        "incorrect": incorrect,
        "errors": errors[:MAX_ERRORS_KEPT],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.workload == "query-mix":
        result["distinct_queries"] = work.distinct
        result["output_bytes"] = work.output_bytes
    if tracer is not None:
        result["calls"] = dict(tracer.calls)
        result["self_s"] = dict(tracer.self_s)
        result["counts"] = dict(tracer.counts)
        result["layer_self_s"] = tracer.layer_self_seconds()
        result["spans"] = sum(1 for s in tracer.spans if s is not None)
        result["missing_hooks"] = tracer.missing
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
