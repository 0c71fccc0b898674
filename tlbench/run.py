"""tractionlab benchmark: one workload per invocation, one JSON line of results.

    python3 tlbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The workload runs in a fresh
worker process (closed loop, one op after another, BLAS on one thread)
for ``--seconds`` seconds, and at least two passes over its ops.  Four
more processes only set up, so ``setup_s`` is a median of five.  With
``--trace 0`` the result line holds the end-to-end metrics; with
``--trace 1`` a separate traced worker gives the per-layer metrics.
Every metric is also printed on its own line with its unit, and the full
result (environment, every op, failures) goes to
``.bench_out/results/``.  Exits non-zero without a result line when the
package sources are missing or a process fails.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
DEADLINE_S = 170.0
BLAS_THREADS = "1"

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB",
              "ok_ratio": "ratio"}


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def spawn(args, workdir, result, t_begin, setup_only=False, spans=None):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    timeout = DEADLINE_S - (time.monotonic() - t_begin)
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, timeout=max(timeout, 1.0),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(Path(result).read_text())


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["sweep", "linear-limit", "analysis"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    t_begin = time.monotonic()

    if not (ROOT / "src" / "tractionlab" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'tractionlab'}", file=sys.stderr)
        return 2

    out = ROOT / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out / "work" / f"{tag}-{os.getpid()}"
    (out / "results").mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for i in range(0 if args.trace else SETUP_PROBES):
            probe = spawn(args, work / f"probe{i}", work / f"probe{i}.json", t_begin, setup_only=True)
            setups.append(probe["setup_s"])
        res = spawn(args, work / "run", work / "run.json", t_begin,
                    spans=out / "results" / f"{tag}.spans.jsonl" if args.trace else None)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res["setup_s"])

    ops = res["ops"]
    attempted = len(ops)
    failed_ops = [o for o in ops if o["failed"]]
    run_failures = []
    times = [o["seconds"] for o in ops]
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "blas_threads": int(BLAS_THREADS), "numpy": res["numpy"], "scipy": res["scipy"],
           "python": platform.python_version(), "cpu": cpu_model()}

    if args.trace:
        metrics = dict(res["layers"])
        metrics["trace.overhead_s"] = res["overhead_s"]
        units = dict(PER_LAYER, **{"trace.overhead_s": "s"})
        run_failures += [f"counter_not_repeated: {k}" for k in res["counter_mismatch"]]
        run_failures += _check_counters_across_runs(out, args, res["counters"])
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(res["untraced_passes"]),
            "op_p50_s": statistics.median(times),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": 1.0 - len(failed_ops) / attempted,
        }
        units = END_TO_END

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"ops {attempted} failed {len(failed_ops)} fail_ratio {len(failed_ops) / attempted:.4f}"
          f" passes {len(res['untraced_passes']) + len(res['traced_passes'])}")
    hi = next((q for q in (99, 95, 90, 75, 50) if attempted * (100 - q) / 100 >= 10), None)
    if hi is not None:
        print(f"op_p{hi}_s {percentile(times, hi):.6f} s")
    for o in failed_ops:
        print(f"failed op {o['op']} pass {o['pass']}: {'; '.join(o['failed'])}")
    for f in run_failures:
        print(f"failed check {f}")
    if args.trace:
        print("layer shares of op time: "
              + " ".join(f"{k}={v:.3f}" for k, v in res["shares"].items()))
        if res["trace_missing"]:
            print("trace sites not found: " + " ".join(res["trace_missing"]))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")

    summary = {
        "correct": not failed_ops and not run_failures,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = dict(summary, workload=args.workload, seed=args.seed, trace=args.trace, env=env,
                  setup_runs=setups, run_failures=run_failures, worker=res)
    (out / "results" / f"{tag}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(summary))
    return 0


def _code_digest():
    """Digest of the benchmark and package sources: counters compare only within one version."""
    h = hashlib.sha256()
    for path in sorted(HERE.glob("*.py")) + sorted((ROOT / "src" / "tractionlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _check_counters_across_runs(out, args, counters):
    """Deterministic counters of a seed must equal those of any earlier traced run of it."""
    path = out / "counters" / f"{args.workload}-seed{args.seed}-{_code_digest()}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        return [f"counter_differs_from_earlier_run: {k}" for k in counters
                if before.get(k) != counters[k]]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters))
    return []


if __name__ == "__main__":
    sys.exit(main())
