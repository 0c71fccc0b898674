"""One workload's process: set-up, then a closed loop of passes over its ops.

Started by run.py with the monotonic time taken just before the process
was spawned, so ``setup_s`` covers interpreter start, package import and
input generation up to the first timed op.  With ``--setup-only`` it stops
there.  Writes one JSON result file; prints nothing.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_pass(ops, ctx, tracer, log, index):
    start = time.perf_counter()
    for key, op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                failed = op(ctx)
            else:
                with tracer.span("op"):
                    failed = op(ctx)
        except Exception as exc:    # a raising op is a failed op, never a dropped one
            failed = [f"exception {type(exc).__name__}: {exc}"]
        log.append({"pass": index, "op": key, "seconds": time.perf_counter() - t0,
                    "failed": failed})
    return time.perf_counter() - start


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import tractionlab
    import tractionlab.cli      # noqa: F401
    if Path(tractionlab.__file__).resolve().parent != (SRC / "tractionlab").resolve():
        sys.exit(f"tractionlab imported from {tractionlab.__file__}, not from {SRC}")
    from tracing import DETERMINISTIC, Tracer, layer_metrics, layer_shares
    from workloads import WORKLOADS, Context

    ops = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "numpy": numpy.__version__, "scipy": scipy.__version__}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    ctx = Context(args.workdir)
    log, untraced, traced = [], [], []
    start = time.perf_counter()
    if not args.trace:
        # at least two passes, so every config is run twice
        while len(untraced) < 2 or time.perf_counter() - start < args.seconds:
            untraced.append(run_pass(ops, ctx, None, log, len(untraced)))
    else:
        # traced, untraced, traced, then traced while time is left: the first
        # pass absorbs first-call costs, the warm ones give layers and overhead
        tracer = Tracer()
        n = 0
        while n < 3 or time.perf_counter() - start < args.seconds:
            if n == 1:
                untraced.append(run_pass(ops, ctx, None, log, n))
            else:
                tracer.install()
                try:
                    seconds = run_pass(ops, ctx, tracer, log, n)
                finally:
                    tracer.uninstall()
                traced.append((seconds, *tracer.take()))
            n += 1
        per_pass = [layer_metrics(spans, counts) for _, spans, counts in traced]
        warm = per_pass[1:]
        result["layers"] = {k: statistics.median(m[k] for m in warm) for k in warm[0]}
        result["counters"] = {k: per_pass[0][k] for k in DETERMINISTIC}
        result["counter_mismatch"] = [k for k in DETERMINISTIC
                                      if any(m[k] != per_pass[0][k] for m in per_pass)]
        result["shares"] = layer_shares(traced[1][1])
        result["trace_missing"] = tracer.missing
        result["overhead_s"] = statistics.median(s for s, _, _ in traced[1:]) - untraced[0]
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for n, (_, spans, _) in enumerate(traced):
                    for name, t0, t1, parent in spans:
                        fh.write(json.dumps([n, name, t0, t1, parent]) + "\n")

    result.update({
        "ops": log,
        "untraced_passes": untraced,
        "traced_passes": [s for s, _, _ in traced],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
