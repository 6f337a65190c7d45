"""A fixed reference computation that gauges the speed of the host.

    python3 perfbench/hostspeed.py    (runs the unit once and exits)

The cores of a shared host run slower or faster by 10-50% over
seconds to minutes, whatever the program does, and CPU time drifts
with wall time, so no clock inside the process sees past it. A worker
therefore times a reference between its operations. The reference
runs only the benchmark's own oracles on fixed inputs (no code from
`residuum`), so no change to the program moves it, and its mix of
small-integer tuple arithmetic is close to the program's. It comes in
two kinds:

- "unit": the computation below, in the worker's own process, for the
  in-process workloads;
- "process": a fresh `python3 perfbench/hostspeed.py`, for cli-cold,
  whose operations are process starts; an in-process unit follows
  their drift less closely.

A time t measured in a worker whose reference took a median of r
milliseconds is reported as t * REF_MS[kind] / r: the time it would
take on a host where the reference takes REF_MS[kind], its typical
median on the 2-vCPU Xeon of the reference figures in README.md.
"""

import subprocess
import sys
import time

import oracles

REF_MS = {"unit": 10.5, "process": 100.0}

EX41 = ((5, 0), (4, 1), (2, 2), (0, 3))
WEIGHTS_2D = tuple(
    (a, b, c, d) for a in (1, 2) for b in (1, 3) for c in (1, 2) for d in (2, 3)
)
POINTS_3D = ((4, 0, 0), (0, 3, 0), (0, 0, 4), (1, 1, 1), (2, 0, 1))
PROBES_3D = tuple((a, b, c) for a in range(3) for b in range(3) for c in range(3))
HULL_3D = oracles.HullMembership(POINTS_3D)


def unit():
    """The reference computation; returns nothing worth keeping."""
    for weight in WEIGHTS_2D:
        oracles.annihilator_gens(EX41, weight)
    oracles.compact_facets(POINTS_3D)
    HULL_3D.cache.clear()
    for x in PROBES_3D:
        HULL_3D(x)


class Gauge:
    """Reference samples taken between operations: after each one,
    enough samples that their time keeps up with `share` of the
    operations' time so far, and at least one in all."""

    def __init__(self, kind, share):
        self.kind, self.share = kind, share
        self.samples = []  # ms
        self.owed = 0.0

    def sample(self):
        """Take one reference sample; returns its time in ms."""
        t = time.perf_counter()
        if self.kind == "unit":
            unit()
        else:
            subprocess.run([sys.executable, __file__], check=True)
        ms = (time.perf_counter() - t) * 1e3
        self.samples.append(ms)
        return ms

    def after(self, spent):
        """Called after an operation that took `spent` seconds."""
        self.owed += self.share * spent
        while self.owed > 0 or not self.samples:
            self.owed -= self.sample() / 1e3


if __name__ == "__main__":
    unit()
