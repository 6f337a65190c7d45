"""One benchmark worker process: set up, run timed rounds, check.

    python3 perfbench/worker.py --workload NAME --seed N --budget SECONDS
        --worker K --t0 MONOTONIC [--trace]

`run.py` starts several of these one after another and merges their
last stdout lines. `--t0` is the CLOCK_MONOTONIC reading taken just
before this process was spawned, so set-up time counts interpreter
start, `import residuum`, building the inputs and the warm-up.

Untraced, the worker runs whole rounds until their operations have
taken about the budget, and times the host-speed reference between
operations (hostspeed.py). Traced,
it runs the workload's fixed number of rounds, each twice over the
same inputs, untraced and then traced, so the per-layer counts repeat
exactly and the tracing overhead shows.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import hostspeed

# share of the operations' time spent again on the host-speed reference
GAUGE_SHARE = {"unit": 0.05, "process": 0.2}


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_rounds(workload, stop, check, first=0, gauge=None):
    """Run whole rounds from round `first` until stop(rounds done,
    seconds spent on operations); returns the per-op seconds and their
    total. Each round's (op, output) pairs go to `check` right after
    the round, outside the timing. With a `hostspeed.Gauge`, the
    host-speed reference runs after each operation, outside its
    timing."""
    latencies = []
    r = first
    while True:
        done = []
        for op in workload.round(r):
            t = time.perf_counter()
            out = op.call()
            latencies.append(time.perf_counter() - t)
            done.append((op, out))
            if gauge:
                gauge.after(latencies[-1])
        check(done)
        r += 1
        if stop(r - first, sum(latencies)):
            return latencies, sum(latencies)


class Checker:
    """Checks each round's outputs as soon as the round ends and keeps
    only the counts, so that the worker's memory does not grow with the
    number of rounds a run fits in."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = {}  # label -> times
        self.selftest = None  # verdict once an output suited the self-test

    def __call__(self, done):
        self.attempted += len(done)
        for op, out in done:
            try:
                ok = op.check(out)
            except Exception as exc:  # a crashing check is a failed operation
                print(f"check raised on {op.label}: {exc!r}", file=sys.stderr)
                ok = False
            if not ok:
                self.failed[op.label] = self.failed.get(op.label, 0) + 1
        if self.selftest is None:
            self.selftest = selftest(self.workload, done)

    def report(self):
        for label, times in self.failed.items():
            print(f"failed x{times}: {label}", file=sys.stderr)
        return dict(
            attempted=self.attempted, failed=sum(self.failed.values()),
            selftest=bool(self.selftest),
        )


def selftest(workload, done):
    """Feed one deliberately wrong result to the checker: True when it
    was counted as failed, None when no output in `done` suits."""
    for op, out in done:
        try:
            verdict = workload.selftest(op, out)
        except Exception as exc:
            print(f"self-test raised on {op.label}: {exc!r}", file=sys.stderr)
            return False
        if verdict is not None:
            return verdict
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--worker", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import workloads

    root = Path(__file__).resolve().parent.parent
    workload = workloads.WORKLOADS[args.workload](args.seed, args.worker, root)
    for op in workload.warmup():
        if not op.check(op.call()):
            print(f"warm-up failed: {op.label}", file=sys.stderr)
            return 1

    result = {}
    checker = Checker(workload)
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        spent = {False: 0.0, True: 0.0}
        traced_ops = 0
        for r in range(workload.trace_rounds):
            # each round twice over the same inputs, untraced then
            # traced, so both passes see the same machine state
            for on in (False, True):
                if on:
                    tracer.install()
                workload.tracing = on
                latencies, elapsed = run_rounds(
                    workload, lambda *_: True, checker, first=r
                )
                tracer.uninstall()
                spent[on] += elapsed
                traced_ops += len(latencies) if on else 0
        workload.tracing = False
        snaps = [tracer.snapshot()] + getattr(workload, "child_traces", [])
        result.update(
            trace=tracing.merge(snaps),
            child_imports=getattr(workload, "child_imports", []),
            ops=traced_ops, plain_s=spent[False], traced_s=spent[True],
        )
    else:
        setup_s = monotonic() - args.t0

        def budget_spent(r, elapsed):
            # stop where the next whole round would end farther from the
            # budget than stopping now
            return elapsed + elapsed / r / 2 >= args.budget

        gauge = hostspeed.Gauge(workload.reference, GAUGE_SHARE[workload.reference])
        latencies, _ = run_rounds(workload, budget_spent, checker, gauge=gauge)
        result.update(
            setup_s=setup_s, latencies=latencies,
            reference=gauge.kind, reference_ms=gauge.samples,
        )
    result["peak_rss_mb"] = resource.getrusage(workload.peak_rss_of).ru_maxrss / 1024
    result.update(checker.report())
    if hasattr(workload, "close"):
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
