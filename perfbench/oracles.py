"""Reference computations for the benchmark's output checks.

Everything here is rebuilt from definitions and imports nothing from
`residuum`: determinants by the Leibniz sum, essential indices by the
sign pattern of the one hyperplane through the scaled points, ideal
membership straight off generator lists, intersections by box
membership, and Newton-polyhedron membership by exact basic-solution
enumeration of the defining feasibility problem.
"""

from itertools import combinations, permutations, product
from math import gcd, pi


def det_perm(rows):
    """Determinant by the Leibniz sum over permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def divides(g, x):
    return all(a <= b for a, b in zip(g, x))


def member(gens, x):
    return any(divides(g, x) for g in gens)


def minimal_antichain(points):
    """Divisibility-minimal elements, quadratic and sorted."""
    points = sorted(set(points))
    return tuple(
        p for p in points if not any(q != p and divides(q, p) for q in points)
    )


def minimal_in_box(inside, bound):
    """Minimal generators of a monomial ideal given by a membership
    predicate, read off the box [0, bound]^n: a member is a minimal
    generator when no unit step down stays a member."""
    out = []
    for x in product(*(range(b + 1) for b in bound)):
        if not inside(x):
            continue
        if all(
            x[i] == 0 or not inside(x[:i] + (x[i] - 1,) + x[i + 1:])
            for i in range(len(x))
        ):
            out.append(x)
    return tuple(sorted(out))


def scaled(exps, weight):
    return [tuple(w * a for a in e) for w, e in zip(weight, exps)]


def _cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _normal_through(pts):
    """Some normal of the affine hull of n affinely independent points
    in Z^n (n = 1, 2, 3), or None when they are dependent."""
    n = len(pts[0])
    if n == 1:
        return (1,)
    diffs = [tuple(b - a for a, b in zip(pts[0], p)) for p in pts[1:]]
    if n == 2:
        (d,) = diffs
        normal = (-d[1], d[0])
    else:
        normal = _cross3(diffs[0], diffs[1])
    return None if not any(normal) else normal


def supports(points, index):
    """Whether the points at `index` lie on one compact facet of
    conv(points) + R^n_+: the hyperplane through them must have a
    strictly positive normal and no point may lie below it."""
    sel = [points[i] for i in index]
    normal = _normal_through(sel)
    if normal is None:
        return False
    if sum(normal) < 0:
        normal = tuple(-a for a in normal)
    if any(a <= 0 for a in normal):
        return False
    level = sum(a * b for a, b in zip(normal, sel[0]))
    if any(sum(a * b for a, b in zip(normal, sel[k])) != level for k in range(1, len(sel))):
        return False
    return all(sum(a * b for a, b in zip(normal, q)) >= level for q in points)


def essential_indices(exps, weight):
    """n-subsets with nonzero unscaled determinant whose scaled points
    share a compact facet."""
    n = len(exps[0])
    pts = scaled(exps, weight)
    return [
        index
        for index in combinations(range(len(exps)), n)
        if det_perm([list(exps[i]) for i in index]) != 0 and supports(pts, index)
    ]


def alpha(exps, index):
    n = len(exps[0])
    return tuple(sum(exps[i][j] for i in index) for j in range(n))


def annihilator_gens(exps, weight):
    """Intersection over essential indices of the pure-power ideals
    (z_1^alpha_1, ..., z_n^alpha_n), by box membership."""
    alphas = [alpha(exps, index) for index in essential_indices(exps, weight)]
    if not alphas:
        return None
    n = len(exps[0])
    bound = tuple(max(a[j] for a in alphas) for j in range(n))

    def inside(x):
        return all(any(x[j] >= a[j] for j in range(n)) for a in alphas)

    return minimal_in_box(inside, bound)


def power_gens(points, k):
    """Minimal generators of the k-th power of the ideal of `points`."""
    sums = set()
    for combo in product(points, repeat=k):
        sums.add(tuple(sum(c) for c in zip(*combo)))
    return minimal_antichain(sums)


class HullMembership:
    """x in conv(points) + R^n_+, decided exactly.

    The set is feasible for lam >= 0, s >= 0 with sum(lam) = 1 and
    sum(lam_k p_k) + s = x. A feasible system has a basic feasible
    solution on n + 1 columns, so x belongs exactly when some
    nonsingular square basis gives a nonnegative solution. The
    adjugates of all bases do not depend on x and are built once.
    """

    def __init__(self, points):
        points = sorted(set(tuple(p) for p in points))
        n = len(points[0])
        cols = [p + (1,) for p in points]
        cols += [tuple(1 if i == j else 0 for i in range(n)) + (0,) for j in range(n)]
        self.bases = []
        for subset in combinations(cols, n + 1):
            m = [[c[i] for c in subset] for i in range(n + 1)]
            d = det_perm(m)
            if d:
                self.bases.append((_adjugate(m), 1 if d > 0 else -1))
        self.cache = {}

    def __call__(self, x):
        x = tuple(x)
        hit = self.cache.get(x)
        if hit is not None:
            return hit
        if any(a < 0 for a in x):
            return False
        rhs = x + (1,)
        ok = any(
            all(sign * sum(a * b for a, b in zip(row, rhs)) >= 0 for row in adj)
            for adj, sign in self.bases
        )
        self.cache[x] = ok
        return ok


def _adjugate(m):
    n = len(m)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]
            adj[j][i] = (-1) ** (i + j) * det_perm(minor)
    return adj


def radial_exact(N, p):
    """The closed form of int_{R^2} |s|^(2(N-1)) / (1 + |s|^(2N))^p dA."""
    return pi / ((p - 1) * N)


def compact_facets(points):
    """Compact facets of conv(points) + R^n_+ (n = 2, 3) as
    (primitive normal, level, positions on the facet): every n-subset
    that spans a supporting hyperplane with a positive normal."""
    n = len(points[0])
    facets = {}
    for index in combinations(range(len(points)), n):
        if not supports(points, index):
            continue
        normal = _normal_through([points[i] for i in index])
        if sum(normal) < 0:
            normal = tuple(-a for a in normal)
        g = gcd(*normal)
        normal = tuple(a // g for a in normal)
        level = sum(a * b for a, b in zip(normal, points[index[0]]))
        facets[(normal, level)] = tuple(
            k for k, q in enumerate(points)
            if sum(a * b for a, b in zip(normal, q)) == level
        )
    return [(nl[0], nl[1], on) for nl, on in sorted(facets.items())]
