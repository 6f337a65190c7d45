"""Benchmark entry point for residuum.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Workloads: cli-cold, sweep-2d,
closure-3d, quadrature (see README.md). The run is a closed loop with
one client: WORKERS fresh worker processes run one after another, each
for S / WORKERS seconds of whole rounds, one operation at a time. The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. End-to-end times are scaled to a
reference host speed (hostspeed.py); stderr has them unscaled.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracing

WORKLOADS = ("cli-cold", "sweep-2d", "closure-3d", "quadrature")
WORKERS = 3
DEADLINE_S = 170


def worker_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # numpy's BLAS would otherwise start a thread pool in every process,
    # which on two cores made CLI start-up times jump between batches.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_workers(root, args):
    """Start the workers one after another; returns their result dicts."""
    end = time.monotonic() + DEADLINE_S
    here = Path(__file__).resolve().parent
    env = worker_env(root)
    results = []
    for k in range(WORKERS):
        cmd = [sys.executable]
        if args.trace and args.workload != "cli-cold":
            cmd += ["-X", "importtime"]
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        cmd += [
            str(here / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--budget", str(args.seconds / WORKERS),
            "--worker", str(k), "--t0", repr(t0),
        ] + (["--trace"] if args.trace else [])
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True,
            timeout=max(end - time.monotonic(), 1),
        )
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:"):
                print(line, file=sys.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"worker {k} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["imports"] = tracing.import_times_ms(proc.stderr)
        results.append(result)
    return results


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, results, scale=True):
    """The end-to-end metrics. With `scale`, every time a worker
    measured is multiplied by REF_MS over the median of its reference
    samples: the time at the reference host speed (see hostspeed.py)."""
    latencies, setups = [], []
    for r in results:
        ref = hostspeed.REF_MS[r["reference"]]
        f = ref / statistics.median(r["reference_ms"]) if scale else 1.0
        latencies += [f * t for t in r["latencies"]]
        setups.append(f * r["setup_s"])
    ops = len(latencies)
    rss = [r["peak_rss_mb"] for r in results]
    return {
        "ops_per_s": metric(ops / sum(latencies), "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        # cli-cold: the largest CLI child; otherwise the median worker
        "peak_rss_mb": metric(
            max(rss) if workload == "cli-cold" else statistics.median(rss), "MB"
        ),
    }


def per_layer(workload, results):
    snap = tracing.merge(r["trace"] for r in results)
    out = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.calls"] = metric(snap["calls"][name], "count")
        out[f"{name}.self_ms"] = metric(snap["self_ms"][name], "ms")
    for name in tracing.EXTRA_COUNTS:
        out[name] = metric(snap["counts"][name], "count")
    if workload == "cli-cold":
        imports = [i for r in results for i in r["child_imports"]]
    else:
        imports = [r["imports"] for r in results]
    for package in ("residuum", "numpy"):
        values = [i.get(package, 0.0) for i in imports] or [0.0]
        out[f"import.{package}_ms"] = metric(statistics.median(values), "ms")
    ops = sum(r["ops"] for r in results)
    plain = ops / sum(r["plain_s"] for r in results)
    traced = ops / sum(r["traced_s"] for r in results)
    out["trace.ops"] = metric(ops, "count")
    out["trace.overhead_pct"] = metric(100 * (plain - traced) / plain, "%")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "residuum" / "__init__.py").is_file():
        print("error: run from the root of a residuum checkout (no src/residuum)", file=sys.stderr)
        return 2
    try:
        results = run_workers(root, args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(args.workload, results)
    else:
        metrics = end_to_end(args.workload, results)
        raw = end_to_end(args.workload, results, scale=False)
        reference = [round(statistics.median(r["reference_ms"]), 3) for r in results]
        print(
            "unscaled: " + " ".join(f"{k}={v['value']:.6g}" for k, v in raw.items())
            + f" reference_ms per worker={reference}",
            file=sys.stderr,
        )
    print(json.dumps({
        "correct": all(r["selftest"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
