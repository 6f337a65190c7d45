"""Independent brute-force oracles for the test suite.

Everything here is deliberately reimplemented from definitions and
shares no nontrivial code path with the library: permutation-expansion
determinants, divisibility membership straight off generator lists,
hull membership via exact rational feasibility (including the
Caratheodory test that decides facet vertices), and small random
instance generators.
"""

from fractions import Fraction
from itertools import combinations, permutations


def det_permutation(rows):
    """Determinant by the Leibniz sum over permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def divides(g, x):
    return all(a <= b for a, b in zip(g, x))


def member(gens, x):
    """Monomial membership straight off a raw generator list."""
    return any(divides(g, x) for g in gens)


def minimalize_simple(points):
    """Quadratic antichain filter, no sorting tricks."""
    points = sorted(set(points))
    out = []
    for p in points:
        if not any(q != p and divides(q, p) for q in points):
            out.append(p)
    return out


def box_bound(*gen_lists):
    """Componentwise sum of all generator coordinates, plus one."""
    dim = len(gen_lists[0][0])
    return tuple(
        sum(g[i] for gens in gen_lists for g in gens) + 1 for i in range(dim)
    )


def segment_hull_member(points, x):
    """x in conv(points) + R^2_+, by exact pairwise-segment feasibility.

    In the plane any point of the hull sits above a segment between two
    generators: for each pair solve the rational interval of mixing
    parameters lam with lam*p + (1-lam)*q <= x componentwise.
    """
    for p in points:
        if divides(p, x):
            return True
    for p, q in combinations(points, 2):
        lo, hi = Fraction(0), Fraction(1)
        ok = True
        for i in range(2):
            a = p[i] - q[i]
            b = x[i] - q[i]
            if a == 0:
                if b < 0:
                    ok = False
                    break
            elif a > 0:
                hi = min(hi, Fraction(b, a))
            else:
                lo = max(lo, Fraction(b, a))
        if ok and lo <= hi:
            return True
    return False


def orthant_hull_member(points, x):
    """x in conv(points) + R^n_+ by basic-solution enumeration.

    Columns are the generators (with a convexity row of ones) plus the
    orthant directions; a feasible point exists iff some subset of at
    most n+1 columns carries a nonnegative exact solution.
    """
    d = len(x)
    cols = [tuple(p) + (1,) for p in points]
    cols += [tuple(1 if i == j else 0 for i in range(d)) + (0,) for j in range(d)]
    target = tuple(x) + (1,)
    for k in range(1, d + 2):
        for subset in combinations(cols, k):
            sol = _solve_fraction([[c[i] for c in subset] for i in range(d + 1)], target)
            if sol is None or any(c < 0 for c in sol):
                continue
            if all(
                sum(c * col[i] for c, col in zip(sol, subset)) == target[i]
                for i in range(d + 1)
            ):
                return True
    return False


def in_convex_hull(x, pts):
    """Exact test x in conv(pts) via Caratheodory: some subset of at most
    d+1 points carries a convex combination. An affinely dependent
    subset pins its free weights to 0, which a smaller subset covers."""
    d = len(x)
    pts = [tuple(p) for p in pts]
    if tuple(x) in pts:
        return True
    target = list(x) + [1]
    for k in range(2, d + 2):
        for subset in combinations(pts, k):
            rows = [[p[i] for p in subset] for i in range(d)] + [[1] * k]
            sol = _solve_fraction(rows, target)
            if sol is None or any(c < 0 for c in sol):
                continue
            if all(
                sum(c * row[j] for j, c in enumerate(sol)) == t
                for row, t in zip(rows, target)
            ):
                return True
    return False


def _solve_fraction(rows, rhs):
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = aug[r][c]
        aug[r] = [v / inv for v in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = aug[i][ncols]
    return sol


def box_points(bound):
    """All lattice points in the box [0, bound_1] x ... x [0, bound_n]."""
    from itertools import product

    return list(product(*(range(b + 1) for b in bound)))


def essential_oracle(scaled_pts, index):
    """Whether the scaled points of `index` lie on a common compact facet,
    decided by rational feasibility of a supporting hyperplane.

    Feasible rho >= 1 with rho . x_i constant on the index and minimal
    over all points is exactly a positive supporting hyperplane; for a
    nondegenerate index its contact face has full facet dimension, so
    this matches facet containment. Written rho = 1 + sigma with slack
    variables, feasibility reduces to basic-solution enumeration.
    """
    pts = [tuple(p) for p in scaled_pts]
    n = len(pts[0])
    m = len(pts)
    i0 = index[0]
    others = [k for k in range(m) if k not in index]
    rows = []
    rhs = []
    for i in index[1:]:
        r = [pts[i][j] - pts[i0][j] for j in range(n)]
        rows.append(r + [0] * len(others))
        rhs.append(-sum(r))
    for pos, k in enumerate(others):
        r = [pts[k][j] - pts[i0][j] for j in range(n)]
        slack = [0] * len(others)
        slack[pos] = -1
        rows.append(r + slack)
        rhs.append(-sum(r))
    if not rows:
        return True
    ncols = n + len(others)
    for size in range(len(rows) + 1):
        for subset in combinations(range(ncols), size):
            sub = [[row[c] for c in subset] for row in rows]
            sol = _solve_fraction(sub, rhs)
            if sol is not None and all(v >= 0 for v in sol):
                return True
    return False


def random_cofinite_gens(rng, dim, max_exp=6, extra=2):
    """Pure powers on every axis plus a few random nonzero points."""
    gens = []
    for axis in range(dim):
        e = [0] * dim
        e[axis] = rng.randint(1, max_exp)
        gens.append(tuple(e))
    for _ in range(rng.randint(0, extra)):
        while True:
            v = tuple(rng.randint(0, max_exp) for _ in range(dim))
            if any(v):
                gens.append(v)
                break
    return gens


def random_weight(rng, m, max_w=4):
    return tuple(rng.randint(1, max_w) for _ in range(m))
