"""Exact arithmetic on integer lattice vectors and matrices.

Everything in this module is big-integer (or Fraction) exact; no
floating point. These are the primitives the polyhedral and ideal
layers are built on.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def content(v):
    """Positive gcd of the entries; 0 for the zero vector."""
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    return g


def primitive(v):
    """v divided by the gcd of its entries.

    The gcd is positive, so every entry keeps its sign.
    """
    g = content(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(a // g for a in v)


def det(rows):
    """Exact determinant of a square integer matrix (list of rows).

    Closed form for 1x1 and 2x2, fraction-free Bareiss elimination
    beyond that; both stay in exact integers.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("determinant requires a nonempty square matrix")
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    return _det_bareiss([list(r) for r in rows])


def _det_bareiss(m):
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def xgcd(a, b):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def unimodular_complement(rho):
    """A lattice vector eta with |det [[rho], [eta]]| = 1, rho primitive in Z^2.

    Canonical representative: smallest nonnegative first entry; ties
    prefer determinant +1, then the smaller second entry in absolute
    value.
    """
    if len(rho) != 2:
        raise ValueError("unimodular complement is defined for 2-vectors")
    if content(rho) != 1:
        raise ValueError("rho must be primitive")
    r1, r2 = rho
    if r1 == 0:
        # rho = (0, +-1); eta = (1, 0) has det -r2 = -+1
        return (1, 0)
    g, u, v = xgcd(r1, r2)  # u*r1 + v*r2 = 1
    candidates = []
    for s in (1, -1):
        # det(rho; eta) = r1*eta2 - r2*eta1 = s on the family
        # eta = (-s*v + k*r1, s*u + k*r2)
        e1, e2 = -s * v, s * u
        m = abs(r1)
        t = e1 % m
        k = (t - e1) // r1
        e2 += k * r2
        candidates.append((t, 0 if s == 1 else 1, abs(e2), (t, e2)))
    return min(candidates)[3]


def unimodular_completion(rho):
    """Rows of an n x n integer matrix with first row rho and det +-1.

    Requires rho primitive. The remaining rows form a lattice basis of
    a complement; used for chart coordinates along a facet.
    """
    if content(rho) != 1:
        raise ValueError("rho must be primitive")
    n = len(rho)
    if n == 1:
        return (tuple(rho),)
    tail = rho[1:]
    d = content(tail)
    if d == 0:
        # rho = (+-1, 0, ..., 0)
        rows = [tuple(rho)]
        rows += [tuple(1 if j == i else 0 for j in range(n)) for i in range(1, n)]
        return tuple(rows)
    w = tuple(a // d for a in tail)
    inner = unimodular_completion(w)
    g, a, b = xgcd(rho[0], d)  # a*rho0 + b*d = 1 since rho is primitive
    rows = [tuple(rho), (-b,) + tuple(a * x for x in w)]
    for extra in inner[1:]:
        rows.append((0,) + tuple(extra))
    return tuple(rows)


def _row_reduce(m, ncols):
    """Gauss-Jordan on the Fraction rows m in place, pivoting in the
    first ncols columns only; returns the pivot columns in row order."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def rank(rows):
    """Rank over Q of a matrix with integer or Fraction entries."""
    m = [[Fraction(x) for x in row] for row in rows]
    return len(_row_reduce(m, len(m[0]) if m else 0))


def solve_exact(rows, rhs):
    """One exact rational solution x of rows @ x = rhs, or None.

    Row-reduces the augmented matrix; the system is inconsistent when a
    zero row keeps a nonzero right-hand side. Free variables are pinned
    to 0. Returns a tuple of Fractions.
    """
    ncols = len(rows[0]) if rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = _row_reduce(aug, ncols)
    if any(row[ncols] != 0 for row in aug[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(aug, pivots):
        x[c] = row[ncols]
    return tuple(x)
