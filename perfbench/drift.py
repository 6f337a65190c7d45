"""How far the host's speed drifts, and how much of it the host-speed
reference (hostspeed.py) takes out.

    python3 perfbench/drift.py --kind unit|process [--seconds 180]

Repeats one fixed operation for the given time, each followed by one
reference sample: with `unit`, `enumerate_annihilators(ex41, 5)` in
this process and the in-process unit; with `process`, a fresh
`python3 -m residuum.cli annihilator ex41 q --json` and a fresh
reference process. For windows of 5, 10 and 20 seconds it prints the
quartile spread ((q3 - q1) / median) of the operation's window
medians, raw and divided by the reference's window median. Run from
the root of a source checkout.
"""

import argparse
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--kind", required=True, choices=sorted(hostspeed.REF_MS))
    ap.add_argument("--seconds", type=float, default=180)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    if args.kind == "unit":
        from residuum import currents

        ex41 = currents.MonomialSeq(2, ((5, 0), (4, 1), (2, 2), (0, 3)))

        def operation():
            currents.enumerate_annihilators(ex41, 5)

        operation()
    else:
        import run

        env = run.worker_env(ROOT)
        argv = [sys.executable, "-m", "residuum.cli", "annihilator", "ex41", "q", "--json"]

        def operation():
            subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, check=True)

    gauge = hostspeed.Gauge(args.kind, 0.0)
    rows = []  # (start, operation ms, reference ms)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        t = time.perf_counter()
        operation()
        spent = time.perf_counter() - t
        rows.append((t - start, spent * 1e3, gauge.sample()))

    print(f"{len(rows)} operations, median {statistics.median(r[1] for r in rows):.1f} ms; "
          f"reference median {statistics.median(r[2] for r in rows):.2f} ms")
    for window in (5, 10, 20):
        raw, scaled = [], []
        for k in range(int(args.seconds // window)):
            part = [r for r in rows if k * window <= r[0] < (k + 1) * window]
            if not part:
                continue
            op = statistics.median(r[1] for r in part)
            raw.append(op)
            scaled.append(op / statistics.median(r[2] for r in part))
        if len(raw) >= 4:
            print(f"{window:>3} s windows ({len(raw)}): spread raw {spread(raw):.3f}, "
                  f"scaled {spread(scaled):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
