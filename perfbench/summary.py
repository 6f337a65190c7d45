"""Repeat the benchmark over several seeds and summarise the spread.

    python3 perfbench/summary.py --workload NAME [--seeds 201-210]
        [--seconds 20] [--trace 0|1]

Runs `run.py` once per seed, one run at a time, and prints per metric
the median, the first and third quartiles (statistics.quantiles with
n=4) and the quartile distance as a share of the median, for the
reported metrics and for the same metrics before host-speed scaling
(`unscaled ...`, from run.py's stderr). Run from the root of a source
checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds_arg(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("201-210"))
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()
    run = Path(__file__).resolve().parent / "run.py"

    values, shares = {}, set()
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(run), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add(f"{result['failed']}/{result['attempted']}")
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}",
            flush=True,
        )
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for line in proc.stderr.splitlines():
            if line.startswith("unscaled: "):
                for field in line.split()[1:5]:
                    name, value = field.split("=")
                    values.setdefault("unscaled " + name, []).append(float(value))
    print(f"failed/attempted per run: {sorted(shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name}: median {med:.4g} q1 {q1:.4g} q3 {q3:.4g} spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
