"""Inputs, operations and output checks of the four workloads.

Every input is drawn from a `random.Random` seeded with the workload
name, the benchmark seed, the worker number and the round number, so
the same seed gives the same inputs and no input repeats inside one
worker process. The library sees only the generated inputs.

Each workload hands out rounds: fixed lists of operations whose cost
mix is the same in every round. An operation is one timed call into
the program; its check runs afterwards, outside the timed region, and
uses `oracles` (no code shared with `src/`), the JSON round trip, or a
property the method must have.
"""

import dataclasses
import json
import os
import random
import resource
import subprocess
import sys
from itertools import product

import oracles
import tracing
from residuum import currents, ideals, quadrature
from residuum.report import Report

EPS = sys.float_info.epsilon


@dataclasses.dataclass
class Op:
    label: str
    call: object  # () -> output, the timed part
    check: object  # output -> bool, untimed


def seeded(*parts):
    return random.Random(":".join(str(p) for p in parts))


def seq(dim, exps):
    return currents.MonomialSeq(dim, tuple(tuple(e) for e in exps))


# --- input generators ---------------------------------------------------

EX41 = ((5, 0), (4, 1), (2, 2), (0, 3))


def ex41_variant(rng):
    """ex41 with its generators reordered and, half the time, the two
    variables swapped: the same nine annihilators, as new inputs."""
    exps = list(EX41)
    rng.shuffle(exps)
    if rng.random() < 0.5:
        exps = [(b, a) for a, b in exps]
    return tuple(exps)


def staircase_2d(rng, m, top=9):
    """m minimal generators in two variables: both pure powers and
    m - 2 interior points, x falling while y rises, in shuffled order."""
    a, b = rng.randint(m, top), rng.randint(m, top)
    xs = sorted(rng.sample(range(1, a), m - 2), reverse=True)
    ys = sorted(rng.sample(range(1, b), m - 2))
    exps = [(a, 0)] + list(zip(xs, ys)) + [(0, b)]
    rng.shuffle(exps)
    return tuple(exps)


def closure_instance(rng):
    """Five minimal generators in three variables and a weight in
    {1, 2}^5 whose scaled Newton polyhedron has exactly two compact
    facets, each a triangle. That shape keeps the cost of one
    theorem_a_report within about a factor two (0.25-0.5 s at the
    parent commit) instead of the 0.1-4 s of unconstrained draws."""
    while True:
        exps = []
        for axis in range(3):
            e = [0, 0, 0]
            e[axis] = rng.randint(2, 4)
            exps.append(tuple(e))
        while len(exps) < 5:
            v = tuple(rng.randint(0, 3) for _ in range(3))
            if sum(1 for a in v if a) >= 2 and v not in exps:
                exps.append(v)
        if len(oracles.minimal_antichain(exps)) != 5:
            continue
        weight = tuple(rng.randint(1, 2) for _ in range(5))
        facets = oracles.compact_facets(oracles.scaled(exps, weight))
        if len(facets) == 2 and all(len(on) == 3 for _, _, on in facets):
            return tuple(exps), weight


def relabel(rng, exps, weight):
    """The same weighted instance with its variables and its generators
    permuted: the Newton polyhedron keeps its shape and cost."""
    n = len(exps[0])
    axes = rng.sample(range(n), n)
    order = rng.sample(range(len(exps)), len(exps))
    return (
        tuple(tuple(exps[i][j] for j in axes) for i in order),
        tuple(weight[i] for i in order),
    )


NORMALS_2D = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))


def segment_instance(rng, k):
    """Two-variable exponents with one compact facet holding k points
    between two two-point facets that end on the axes."""
    while True:
        a, b = rng.choice(NORMALS_2D)
        span = k - 1 + rng.randint(0, 2)
        steps = sorted(rng.sample(range(span + 1), k))
        u, v = rng.randint(1, 2), rng.randint(1, 2)
        pts = [(b * s + u, a * (span - s) + v) for s in steps]
        level = a * b * span + a * u + b * v
        right = max(pts)
        left = min(pts)
        x_end = max(right[0] + 1, level // a + 1) + rng.randint(0, 2)
        y_end = max(left[1] + 1, level // b + 1) + rng.randint(0, 2)
        exps = [(x_end, 0)] + pts + [(0, y_end)]
        rng.shuffle(exps)
        sizes = sorted(len(on) for _, _, on in oracles.compact_facets(exps))
        if sizes == [2, 2, k]:
            return tuple(exps)


# --- sweep-2d -------------------------------------------------------------

# (number of generators, p_max): about 0.4-0.9 s per sweep at the parent
# commit, thousands of weights each.
SWEEP_SHAPES = ((4, 7), (5, 5), (6, 4))
EX41_PMAX = 8


class Sweep2D:
    trace_rounds = 2
    peak_rss_of = resource.RUSAGE_SELF
    reference = "unit"  # hostspeed.Gauge kind

    def __init__(self, seed, worker, root):
        self.seed, self.worker = seed, worker

    def warmup(self):
        return [self._op(EX41, 3, seeded("sweep-2d", "warmup"))]

    def round(self, r):
        rng = seeded("sweep-2d", self.seed, self.worker, r)
        ops = [self._op(ex41_variant(rng), EX41_PMAX, rng, ex41=True)]
        for m, p_max in SWEEP_SHAPES:
            ops.append(self._op(staircase_2d(rng, m), p_max, rng))
        return ops

    def _op(self, exps, p_max, rng, ex41=False):
        s = seq(2, exps)
        check_rng = random.Random(rng.random())

        def call():
            return currents.enumerate_annihilators(s, p_max)

        def check(found):
            return self.check(s, p_max, found, check_rng, ex41)

        return Op(f"sweep {exps} p_max {p_max}", call, check)

    @staticmethod
    def check(s, p_max, found, rng, ex41):
        exps = s.exps
        gens = [ideal.gens for ideal, _ in found]
        if not found or len(set(gens)) != len(gens) or gens != sorted(gens):
            return False
        for ideal, weight in found:
            if not all(1 <= w <= p_max for w in weight) or len(weight) != len(exps):
                return False
            if oracles.annihilator_gens(exps, weight) != ideal.gens:
                return False
            if not all(oracles.member(exps, g) for g in ideal.gens):
                return False
            k = rng.choice((2, 3))
            scaled_weight = tuple(k * w for w in weight)
            if currents.annihilator(s, scaled_weight).gens != ideal.gens:
                return False
        present = set(gens)
        for _ in range(16):
            weight = tuple(rng.randint(1, p_max) for _ in exps)
            if oracles.annihilator_gens(exps, weight) not in present:
                return False
        if ex41:
            if len(found) != 9:
                return False
            again = [ideal.gens for ideal, _ in currents.enumerate_annihilators(s, 6)]
            if again != gens:
                return False
        return True

    def selftest(self, op, found):
        ideal, weight = found[0]
        dropped = ideals.MonomialIdeal(dim=ideal.dim, gens=ideal.gens[1:])
        return not op.check([(dropped, weight)] + list(found[1:]))


# --- closure-3d -----------------------------------------------------------

# Base instances per worker. Each round relabels one of them with the
# seed, so a run meets nearly the same instances whatever the seed: the
# cost of one theorem_a_report spreads by a factor 1.5 between draws,
# and a fresh draw every round made the median of a run follow the seed.
CLOSURE_BASES = 30


class Closure3D:
    trace_rounds = 6
    peak_rss_of = resource.RUSAGE_SELF
    reference = "unit"  # hostspeed.Gauge kind

    def __init__(self, seed, worker, root):
        self.seed, self.worker = seed, worker

    def warmup(self):
        rng = seeded("closure-3d", "warmup")
        exps, weight = closure_instance(rng)
        return [self._op(exps, weight, rng, closure=False)]

    def round(self, r):
        base = closure_instance(seeded("closure-3d", "base", self.worker, r % CLOSURE_BASES))
        rng = seeded("closure-3d", self.seed, self.worker, r)
        exps, weight = relabel(rng, *base)
        return [self._op(exps, weight, rng, closure=(r == 0))]

    def _op(self, exps, weight, rng, closure):
        s = seq(3, exps)
        check_rng = random.Random(rng.random())

        def call():
            return currents.theorem_a_report(s, weight)

        def check(rep):
            return self.check(s, weight, rep, check_rng, closure)

        return Op(f"theorem-a {exps} {weight}", call, check)

    @staticmethod
    def check(s, weight, rep, rng, closure):
        exps = s.exps
        n = 3
        essential = oracles.essential_indices(exps, weight)
        if not essential:
            return False
        if rep.ann.gens != oracles.annihilator_gens(exps, weight):
            return False
        if rep.right.gens != oracles.minimal_antichain(exps):
            return False
        left, ann = rep.left.gens, rep.ann.gens
        if not all(oracles.member(ann, g) for g in left):
            return False
        if not all(oracles.member(exps, g) for g in ann):
            return False
        if left == ann or not (rep.left_included and rep.right_included and rep.left_strict):
            return False
        if rep.right_equality != (ann == rep.right.gens):
            return False
        if rep.complete_intersection != (len(rep.right.gens) == n):
            return False

        pts = oracles.scaled(exps, weight)
        hull = oracles.HullMembership([tuple(n * a for a in p) for p in pts])
        shifts = [
            tuple(sum((weight[i] - 1) * exps[i][j] for i in index) for j in range(n))
            for index in essential
        ]

        def in_left(x):
            return all(hull(tuple(a + b for a, b in zip(x, sh))) for sh in shifts)

        if not _generators_match(left, in_left, rng):
            return False
        if closure:
            # J^3 <= closure(J^3) <= J (Briancon-Skoda for n = 3), and the
            # closure's generators are exactly the minimal lattice points
            # of NP(J^3), so taking the closure again changes nothing.
            ideal = ideals.MonomialIdeal.from_gens(n, pts).power(n).integral_closure()
            if not all(oracles.member(ideal.gens, g) for g in oracles.power_gens(pts, n)):
                return False
            if not all(oracles.member(pts, g) for g in ideal.gens):
                return False
            if not _generators_match(ideal.gens, hull, rng):
                return False
        return True

    def selftest(self, op, rep):
        return not op.check(dataclasses.replace(rep, left=rep.ann))


def _generators_match(gens, inside, rng, samples=24):
    """`gens` are minimal generators of the ideal with membership
    predicate `inside`: each generator is inside, each unit step down
    from it is not, and seeded box points agree on membership."""
    for g in gens:
        if not inside(g):
            return False
        for i, a in enumerate(g):
            if a and inside(g[:i] + (a - 1,) + g[i + 1:]):
                return False
    bound = [max(g[j] for g in gens) + 1 for j in range(len(gens[0]))]
    for _ in range(samples):
        x = tuple(rng.randint(0, b) for b in bound)
        if inside(x) != oracles.member(gens, x):
            return False
    return True


# --- quadrature -----------------------------------------------------------

# The experimental three-variable path on regular sequences, whose only
# coefficient is exactly 1. The first three report error bounds that do
# not cover the distance to 1; they fail on every run.
FAILING_3D = (
    (((1, 0, 0), (0, 3, 0), (0, 0, 4)), (1, 1, 1)),
    (((1, 0, 0), (0, 3, 0), (0, 0, 4)), (2, 3, 2)),
    (((3, 0, 0), (0, 4, 0), (0, 0, 3)), (1, 2, 3)),
)
PASSING_3D = (
    (((1, 0, 0), (0, 1, 0), (0, 0, 2)), (2, 3, 2)),
    (((1, 0, 0), (0, 2, 0), (0, 0, 2)), (1, 2, 3)),
)
RADIAL_GRID = tuple(product(range(1, 5), range(2, 6)))  # (N, p)
# One problem for each facet size k in 3..13, twice: a bundle's cost
# then depends little on the seed.
SEGMENT_SIZES = tuple(range(3, 14)) * 2
SEGMENT_OPS = 3


class Quadrature:
    trace_rounds = 1
    peak_rss_of = resource.RUSAGE_SELF
    reference = "unit"  # hostspeed.Gauge kind

    def __init__(self, seed, worker, root):
        self.seed, self.worker = seed, worker

    def warmup(self):
        rng = seeded("quadrature", "warmup")
        return [
            self._segments_op([segment_instance(rng, 8)]),
            self._radial_op(((1, 2),)),
            self._op_3d(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 1, 1)),
        ]

    def round(self, r):
        rng = seeded("quadrature", self.seed, self.worker, r)
        ops = [self._op_3d(exps, w) for exps, w in FAILING_3D + PASSING_3D]
        for _ in range(SEGMENT_OPS):
            ops.append(
                self._segments_op([segment_instance(rng, k) for k in SEGMENT_SIZES])
            )
        ops.append(self._radial_op(RADIAL_GRID))
        return ops

    def _op_3d(self, exps, weight):
        s = seq(3, exps)

        def call():
            return quadrature.validate_coffe_numeric(s, weight, experimental_n3=True)

        return Op(f"coffe-3d {exps} {weight}", call, self.check_3d)

    @staticmethod
    def check_3d(validation):
        (facet,) = validation.facets
        ((_, nc),) = facet.estimates
        return (
            abs(nc.estimate - 1.0) <= nc.abs_error + 4 * EPS
            and facet.residual <= facet.error_bound + 4 * EPS * facet.relation.rhs
        )

    def _segments_op(self, instances):
        seqs = [seq(2, exps) for exps in instances]

        def call():
            out = []
            for s in seqs:
                ones = (1,) * s.m
                out.append(
                    (
                        quadrature.numeric_coefficients(s, ones),
                        quadrature.validate_coffe_numeric(s, ones),
                    )
                )
            return out

        def check(out):
            return all(self.check_segments(s, *pair) for s, pair in zip(seqs, out))

        return Op(f"coffe-2d x{len(instances)}", call, check)

    @staticmethod
    def check_segments(s, coeffs, validation):
        """Two-point facets have coefficient 1; on every facet the
        relation sum |det A_I| C_I = |det(end points)| holds within the
        summed error bounds, both as recomputed here from the estimates
        and as the program's own residual reports it."""
        exps = list(s.exps)
        if sorted(coeffs) != oracles.essential_indices(exps, (1,) * len(exps)):
            return False
        facets = oracles.compact_facets(exps)
        if len(validation.facets) != len(facets):
            return False
        for _, _, on in facets:
            pairs = [(i, j) for i in on for j in on if i < j]
            if len(on) == 2:
                nc = coeffs[pairs[0]]
                if abs(nc.estimate - 1.0) > nc.abs_error + 4 * EPS:
                    return False
            ends = sorted(on, key=lambda k: exps[k])
            volume = abs(oracles.det_perm([exps[ends[0]], exps[ends[-1]]]))
            dets = [abs(oracles.det_perm([exps[i], exps[j]])) for i, j in pairs]
            total = sum(d * coeffs[ij].estimate for d, ij in zip(dets, pairs))
            bound = sum(d * coeffs[ij].abs_error for d, ij in zip(dets, pairs))
            if abs(total - volume) > bound + 4 * EPS * volume * len(pairs):
                return False
        return all(
            f.residual <= f.error_bound + 4 * EPS * f.relation.rhs
            for f in validation.facets
        )

    def _radial_op(self, grid):
        def call():
            return [quadrature.radial_power_integral(N, p) for N, p in grid]

        def check(out):
            for (N, p), (value, err, _) in zip(grid, out):
                exact = oracles.radial_exact(N, p)
                if abs(value - exact) > err + 4 * EPS * exact:
                    return False
            return True

        return Op(f"radial x{len(grid)}", call, check)

    def selftest(self, op, out):
        if not op.label.startswith("coffe-2d"):
            return None
        coeffs, validation = out[0]
        # a relation with a single index belongs to a two-point facet
        index = next(
            f.relation.indices[0] for f in validation.facets if len(f.relation.indices) == 1
        )
        nc = coeffs[index]
        moved = dataclasses.replace(nc, estimate=nc.estimate + 10 * max(nc.abs_error, EPS))
        return not op.check([({**coeffs, index: moved}, validation)] + list(out[1:]))


# --- cli-cold -------------------------------------------------------------

EX41_Q_LEFT = [[0, 12], [1, 9], [2, 5], [3, 3], [7, 2], [11, 1], [15, 0]]

# (arguments after `residuum`, expected-results check) for the bundled
# fixtures: the worked-example values of the source paper.
FIXTURE_COMMANDS = (
    (["annihilator", "ex41", "q"], lambda r: r["generators"] == [[0, 5], [2, 2], [7, 0]]),
    (["annihilator", "ex41", "r"], lambda r: r["generators"] == [[0, 4], [4, 3], [5, 1], [9, 0]]),
    (["multiplicity", "ex41", "p"], lambda r: r["exact"] == "15/1"),
    (["multiplicity", "ex41", "q"], lambda r: r["exact"] == "16/1"),
    (["multiplicity", "ex41", "s"], lambda r: r["exact"] == "17/1"),
    (
        ["multiplicity", "ex41", "r"],
        lambda r: r["exact"] is None
        and [c["reduced"] for c in r["constraints"]] == [{"coeffs": [1, 5, 4], "rhs": 5}],
    ),
    (["sweep", "ex41", "--pmax", "6"], lambda r: r["count"] == 9 and len(r["ideals"]) == 9),
    (
        ["valuations", "ex41", "q"],
        lambda r: [v["normal"] for v in r["valuations"]] == [[1, 4], [7, 2]],
    ),
    (["theorem-a", "ex41", "q"], lambda r: r["left"] == EX41_Q_LEFT and r["left_strict"]),
    (["multiplicity", "ex54", "p"], lambda r: r["exact"] == "4/1"),
    (["multiplicity", "ex54", "q"], lambda r: r["exact"] == "4/1"),
    (["multiplicity", "ex54", "r"], lambda r: r["exact"] == "4/1"),
    (["current", "ex42", "p1"], lambda r: [e["vanishes"] for e in r["entries"]] == [False, True]),
    (["current", "ex42", "p2"], lambda r: [e["vanishes"] for e in r["entries"]] == [False, False]),
    (["current", "ex42", "p3"], lambda r: [e["vanishes"] for e in r["entries"]] == [True, False]),
)
GENERATED_PER_ROUND = 2
GENERATED_FILES = 4


class CliCold:
    trace_rounds = 1
    peak_rss_of = resource.RUSAGE_CHILDREN  # the largest CLI child
    reference = "process"  # hostspeed.Gauge kind: its operations are process starts

    def __init__(self, seed, worker, root):
        self.seed, self.worker, self.root = seed, worker, root
        self.env = dict(os.environ)  # run.py set PYTHONPATH and the thread limits
        self.dir = root / "perfbench" / "out" / f"cli-{seed}-{worker}"
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = seeded("cli-cold", seed, worker)
        self.files = []
        for j in range(GENERATED_FILES):
            exps = staircase_2d(rng, rng.randint(4, 5))
            weight = tuple(rng.randint(1, 4) for _ in exps)
            path = self.dir / f"gen{j}.prob"
            lines = ["dim 2"] + [f"gen {a} {b}" for a, b in exps]
            lines.append("weight w " + " ".join(map(str, weight)))
            path.write_text("\n".join(lines) + "\n")
            self.files.append((path, exps, weight))
        self.tracing = False
        self.child_traces = []
        self.child_imports = []

    def warmup(self):
        return [self._op(["annihilator", "ex41", "q"], FIXTURE_COMMANDS[0][1])]

    def round(self, r):
        ops = [self._op(argv, expect) for argv, expect in FIXTURE_COMMANDS]
        for j in range(GENERATED_PER_ROUND):
            path, exps, weight = self.files[(GENERATED_PER_ROUND * r + j) % GENERATED_FILES]
            want = [list(g) for g in oracles.annihilator_gens(exps, weight)]
            ops.append(
                self._op(
                    ["annihilator", str(path), "w"],
                    lambda res, want=want: res["generators"] == want,
                )
            )
        return ops

    def _op(self, argv, expect):
        argv = argv + ["--json"]
        command = argv[0]

        def call():
            if not self.tracing:
                return self.run(["-m", "residuum.cli"] + argv, self.env)
            trace_file = self.dir / "trace.json"
            env = dict(self.env, PERFBENCH_TRACE_FILE=str(trace_file))
            child = str(self.root / "perfbench" / "clichild.py")
            out = self.run(["-X", "importtime", child] + argv, env)
            self.child_traces.append(json.loads(trace_file.read_text()))
            trace_file.unlink()
            self.child_imports.append(tracing.import_times_ms(out[2]))
            return out

        def check(out):
            return self.check(command, expect, out)

        return Op("residuum " + " ".join(argv), call, check)

    def run(self, args, env):
        proc = subprocess.run(
            [sys.executable] + args, cwd=self.root, env=env,
            capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def check(command, expect, out):
        code, stdout, _ = out
        if code != 0:
            return False
        try:
            report = Report.from_json(stdout)
        except (ValueError, KeyError):
            return False
        if report.to_json(indent=2) != stdout.rstrip("\n") or report.command != command:
            return False
        return bool(expect(report.results))

    def selftest(self, op, out):
        code, stdout, stderr = out
        payload = json.loads(stdout)
        if "generators" not in payload["results"]:
            return None
        payload["results"]["generators"] = payload["results"]["generators"][1:]
        wrong = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        return not op.check((code, wrong, stderr))

    def close(self):
        for path, _, _ in self.files:
            path.unlink(missing_ok=True)
        try:
            self.dir.rmdir()
        except OSError:
            pass


WORKLOADS = {
    "cli-cold": CliCold,
    "sweep-2d": Sweep2D,
    "closure-3d": Closure3D,
    "quadrature": Quadrature,
}
