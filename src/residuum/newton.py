"""Newton polyhedra of finite exponent sets.

The polyhedron of a set S of lattice points is conv(S) + R^n_+. Only
its compact facets are materialized: a facet is compact exactly when
its primitive inward normal is strictly positive. For cofinite S (a
pure power on every axis) every other facet lies in a coordinate
hyperplane, so the compact facet inequalities together with x >= 0
describe the polyhedron completely. Membership tests rely on that, and
so does the vertex test: a point is a vertex exactly when the
inequalities it satisfies with equality have rank n.

In three or more variables one enumerator lists the supporting
hyperplanes through n affinely independent points. It gives the
compact facets here, and the faces of each facet that the volume
triangulation fans over.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .lattice import det, dot, primitive, rank, vsub


class NotCofiniteError(ValueError):
    """The generator set misses a pure power on some axis (V(z^S) != {0})."""


@dataclass(frozen=True)
class Facet:
    """A compact facet: primitive inward normal, its level, and which
    generating points sit on it (indices into the generating set)."""

    normal: tuple
    level: int
    on_facet: tuple
    vertices: tuple


@dataclass(frozen=True)
class NewtonPolyhedron:
    dim: int
    points: tuple
    facets: tuple

    def contains(self, x):
        """Membership in conv(points) + R^n_+ (the set must be cofinite)."""
        if len(x) != self.dim:
            raise ValueError("dimension mismatch")
        if any(a < 0 for a in x):
            return False
        return all(dot(f.normal, x) >= f.level for f in self.facets)

    def max_vertex_coordinate(self):
        best = 0
        for f in self.facets:
            for i in f.vertices:
                best = max(best, max(self.points[i]))
        return best


def _missing_pure_power(points, dim):
    """The first axis with no pure power (or zero) among the points,
    or None when the set is cofinite."""
    for axis in range(dim):
        if not any(all(a == 0 for i, a in enumerate(p) if i != axis) for p in points):
            return axis
    return None


def newton_polyhedron(points, dim=None):
    """Compact facets of conv(points) + R^n_+ with exact arithmetic.

    n = 1 keeps the minimal exponent as the single degenerate facet,
    n = 2 runs a staircase hull, n >= 3 keeps the strictly positive
    normals among all supporting hyperplanes through n-subsets. Each
    facet lists the generating points on it and, among those, the
    vertices of the polyhedron.
    """
    points = tuple(tuple(p) for p in points)
    if not points:
        raise ValueError("empty generating set")
    if dim is None:
        dim = len(points[0])
    for p in points:
        if len(p) != dim:
            raise ValueError("points of mixed dimension")
        if any(a < 0 or not isinstance(a, int) for a in p):
            raise ValueError("exponents must be nonnegative integers")
    axis = _missing_pure_power(points, dim)
    if axis is not None:
        raise NotCofiniteError(
            f"no generator is a pure power of variable {axis + 1}: "
            "the zero set V(z^S) is not the origin alone"
        )

    distinct = sorted(set(points))
    if (0,) * dim in distinct:
        # the unit ideal: the polyhedron is the whole orthant
        hyperplanes = []
    elif dim == 1:
        level = min(p[0] for p in distinct)
        hyperplanes = [((1,), level)]
    elif dim == 2:
        hyperplanes = _compact_facets_2d(distinct)
    else:
        hyperplanes = [h for h in _hull_facets(distinct, dim) if min(h[0]) > 0]
    hyperplanes = sorted(hyperplanes)

    facets = []
    for normal, level in hyperplanes:
        on = tuple(i for i, p in enumerate(points) if dot(normal, p) == level)
        verts = _facet_vertices(points, on, hyperplanes, dim)
        facets.append(Facet(normal=normal, level=level, on_facet=on, vertices=verts))

    poly = NewtonPolyhedron(dim=dim, points=points, facets=tuple(facets))
    for f in poly.facets:
        if any(dot(f.normal, p) < f.level for p in points):
            raise AssertionError("facet inequality violated by an input point")
    return poly


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _compact_facets_2d(distinct):
    pareto = [
        p for p in distinct
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in distinct)
    ]
    pareto.sort()
    chain = []
    for p in pareto:
        while len(chain) >= 2 and _cross(vsub(p, chain[-2]), vsub(chain[-1], chain[-2])) >= 0:
            chain.pop()
        chain.append(p)
    out = []
    for v, w in zip(chain, chain[1:]):
        dx, dy = w[0] - v[0], w[1] - v[1]
        normal = primitive((-dy, dx))
        out.append((normal, dot(normal, v)))
    return out


def _hyperplane_normal(pts):
    """Normal of the affine hull of n points in Z^n, or None if degenerate."""
    n = len(pts[0])
    diffs = [vsub(p, pts[0]) for p in pts[1:]]
    normal = []
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in diffs]
        normal.append((-1) ** j * det(minor) if minor else 1)
    if all(a == 0 for a in normal):
        return None
    return tuple(normal)


def _hull_facets(pts, d):
    """Every hyperplane through d affinely independent points of pts in
    Z^d that supports conv(pts), as (inward primitive normal, level)
    pairs, sorted. When all of pts lies on the hyperplane both
    orientations support it and both are returned."""
    found = set()
    for subset in combinations(range(len(pts)), d):
        sel = [pts[i] for i in subset]
        normal = _hyperplane_normal(sel)
        if normal is None:
            continue
        normal = primitive(normal)
        level = dot(normal, sel[0])
        sides = [dot(normal, q) - level for q in pts]
        if all(s >= 0 for s in sides):
            found.add((normal, level))
        if all(s <= 0 for s in sides):
            found.add((tuple(-a for a in normal), -level))
    return sorted(found)


def _facet_vertices(points, on, hyperplanes, dim):
    """Indices in `on` whose point is a vertex of the facet polytope.

    In two variables these are the segment's endpoints. Beyond that a
    point is a vertex exactly when the compact facet normals and the
    coordinate axes e_i that it meets with equality have rank dim; the
    polyhedron of a cofinite set is cut out by exactly these
    inequalities, so this is the usual vertex criterion.
    """
    on_pts = [points[i] for i in on]
    distinct = sorted(set(on_pts))
    if dim == 1 or len(distinct) == 1:
        return tuple(on)
    if dim == 2:
        vertex_pts = {min(distinct), max(distinct)}
    else:
        vertex_pts = set()
        for p in distinct:
            active = [normal for normal, level in hyperplanes if dot(normal, p) == level]
            active += [tuple(int(j == i) for j in range(dim)) for i in range(dim) if p[i] == 0]
            if rank(active) == dim:
                vertex_pts.add(p)
    return tuple(i for i in on if points[i] in vertex_pts)


def _triangulate(pts, d):
    """Simplices (as point tuples) triangulating conv(pts) in R^d.

    Fan from the lexicographic minimum over the hull facets avoiding it.
    pts may contain non-vertex points; they are ignored naturally.
    """
    pts = sorted(set(pts))
    if d == 1:
        return [(min(pts), max(pts))]
    apex = pts[0]
    simplices = []
    for normal, level in _hull_facets(pts, d):
        if dot(normal, apex) == level:
            continue
        face = [p for p in pts if dot(normal, p) == level]
        for sub in _triangulate_in_hyperplane(face, normal, d - 1):
            simplices.append((apex,) + sub)
    return simplices


def _triangulate_in_hyperplane(pts, normal, d):
    """Triangulate a d-dimensional polytope lying in a hyperplane of
    R^{d+1} with the given normal, returning simplices of original points."""
    k = next(i for i, a in enumerate(normal) if a != 0)
    back = {}
    projected = []
    for p in pts:
        q = tuple(a for i, a in enumerate(p) if i != k)
        back[q] = p
        projected.append(q)
    return [
        tuple(back[q] for q in simplex) for simplex in _triangulate(projected, d)
    ]


def facet_det(poly, facet):
    """Normalized volume n! * vol(conv(facet union {0})), exactly.

    For a simplicial facet this is |det| of the vertex matrix; in
    general the facet is fan-triangulated and the simplex cone volumes
    are summed. In one variable the facet is the minimal exponent and
    its volume is that exponent.
    """
    n = poly.dim
    if n == 1:
        return facet.level
    pts = sorted({poly.points[i] for i in facet.on_facet})
    if n == 2:
        v, w = min(pts), max(pts)
        return abs(det([v, w]))
    total = 0
    for simplex in _triangulate_in_hyperplane(pts, facet.normal, n - 1):
        total += abs(det(list(simplex)))
    return total


def complement_volume(poly):
    """Normalized volume of R^n_+ minus the polyhedron: the facet
    cone volumes summed over all compact facets."""
    return sum(facet_det(poly, f) for f in poly.facets)


def lattice_points_in(poly, bound):
    """All lattice points of the polyhedron inside the box [0, bound]^n.

    bound must dominate every vertex coordinate, otherwise minimality
    arguments downstream break, so that is an error.
    """
    if bound < poly.max_vertex_coordinate():
        raise ValueError(
            f"bound {bound} is smaller than the largest vertex coordinate "
            f"{poly.max_vertex_coordinate()}"
        )
    if (bound + 1) ** poly.dim > 2_000_000:
        raise ValueError("box too large to enumerate")
    out = []
    for x in product(range(bound + 1), repeat=poly.dim):
        if poly.contains(x):
            out.append(x)
    return out


def _ceil_div(a, b):
    return -((-a) // b)


def minimal_points(poly):
    """Divisibility-minimal lattice points of the polyhedron.

    Every minimal point lives in the box bounded by the largest vertex
    coordinate; for each prefix of n-1 coordinates the least feasible
    last coordinate is the only candidate.
    """
    n = poly.dim
    bound = poly.max_vertex_coordinate()
    candidates = []
    for prefix in product(range(bound + 1), repeat=n - 1):
        low = 0
        for f in poly.facets:
            rest = f.level - dot(f.normal[:-1], prefix)
            if rest > 0:
                low = max(low, _ceil_div(rest, f.normal[-1]))
        if low <= bound:
            candidates.append(prefix + (low,))
    minimal = []
    for c in sorted(candidates, key=lambda v: (sum(v), v)):
        if not any(all(g <= x for g, x in zip(kept, c)) for kept in minimal):
            minimal.append(c)
    return sorted(minimal)
