import random
from itertools import product

import pytest

from residuum.ideals import MonomialIdeal
from residuum.newton import (
    NotCofiniteError,
    _compact_facets_2d,
    _hull_facets,
    complement_volume,
    facet_det,
    lattice_points_in,
    minimal_points,
    newton_polyhedron,
)

from oracles import in_convex_hull, orthant_hull_member, random_cofinite_gens


def _pairs(poly):
    """The (normal, level) pairs of the polyhedron's compact facets."""
    return [(f.normal, f.level) for f in poly.facets]


def test_single_facet_staircase():
    poly = newton_polyhedron([(5, 0), (4, 1), (2, 2), (0, 3)], 2)
    assert len(poly.facets) == 1
    f = poly.facets[0]
    assert f.normal == (3, 5)
    assert f.level == 15
    assert f.on_facet == (0, 3)
    assert f.vertices == (0, 3)


def test_two_facet_staircase():
    poly = newton_polyhedron([(10, 0), (8, 2), (2, 2), (0, 9)], 2)
    assert [f.normal for f in poly.facets] == [(1, 4), (7, 2)]
    assert [f.level for f in poly.facets] == [10, 18]
    assert [f.on_facet for f in poly.facets] == [(0, 2), (2, 3)]


def test_unit_simplex():
    poly = newton_polyhedron([(1, 0), (0, 1)], 2)
    assert len(poly.facets) == 1
    f = poly.facets[0]
    assert f.normal == (1, 1) and f.level == 1 and f.on_facet == (0, 1)
    assert facet_det(poly, f) == 1


def test_facet_det_values():
    poly = newton_polyhedron([(5, 0), (4, 1), (2, 2), (0, 3)], 2)
    assert facet_det(poly, poly.facets[0]) == 15
    scaled = newton_polyhedron([(15, 0), (12, 3), (8, 8), (0, 15)], 2)
    assert len(scaled.facets) == 1
    assert facet_det(scaled, scaled.facets[0]) == 225
    # the interior segment point is not a vertex
    assert scaled.facets[0].on_facet == (0, 1, 3)
    assert scaled.facets[0].vertices == (0, 3)


def test_complement_volume_values():
    assert complement_volume(newton_polyhedron([(2, 0), (1, 1), (0, 2)], 2)) == 4
    assert complement_volume(newton_polyhedron([(5, 0), (4, 1), (2, 2), (0, 3)], 2)) == 15
    assert complement_volume(newton_polyhedron([(1, 0), (0, 1)], 2)) == 1


def test_lattice_points_small_box():
    poly = newton_polyhedron([(2, 0), (0, 2)], 2)
    pts = lattice_points_in(poly, 2)
    brute = [
        (x, y)
        for x in range(3)
        for y in range(3)
        if x + y >= 2
    ]
    assert sorted(pts) == sorted(brute)


def test_lattice_points_trivial():
    poly = newton_polyhedron([(1, 0), (0, 1)], 2)
    assert sorted(lattice_points_in(poly, 1)) == [(0, 1), (1, 0), (1, 1)]


def test_lattice_points_bound_too_small():
    poly = newton_polyhedron([(5, 0), (0, 3)], 2)
    with pytest.raises(ValueError):
        lattice_points_in(poly, 4)


def test_membership_single_dot_product():
    poly = newton_polyhedron([(5, 0), (0, 3)], 2)
    assert poly.contains((3, 3))  # 3*3 + 5*3 = 24 >= 15
    assert not poly.contains((1, 1))


def test_not_cofinite_rejected():
    with pytest.raises(NotCofiniteError):
        newton_polyhedron([(1, 1)], 2)
    with pytest.raises(NotCofiniteError):
        newton_polyhedron([(2, 0, 0), (0, 2, 0)], 3)


def test_one_variable_degenerate_facet():
    poly = newton_polyhedron([(2,), (3,)], 1)
    assert len(poly.facets) == 1
    f = poly.facets[0]
    assert f.normal == (1,) and f.level == 2
    assert facet_det(poly, f) == 2
    assert minimal_points(_pairs(poly), poly.dim) == [(2,)]


def test_staircase_agrees_with_general_hull():
    rng = random.Random(31)
    for _ in range(200):
        gens = random_cofinite_gens(rng, 2, max_exp=9, extra=4)
        distinct = sorted(set(gens))
        compact = [h for h in _hull_facets(distinct, 2) if min(h[0]) > 0]
        assert sorted(_compact_facets_2d(distinct)) == compact


def test_homothety_of_complement_volume():
    rng = random.Random(37)
    for dim in (2, 3):
        for _ in range(25):
            gens = random_cofinite_gens(rng, dim, max_exp=5, extra=2)
            base = complement_volume(newton_polyhedron(gens, dim))
            for k in (2, 3):
                scaled = [tuple(k * a for a in g) for g in gens]
                vol = complement_volume(newton_polyhedron(scaled, dim))
                assert vol == k ** dim * base


def test_every_point_respects_every_facet():
    rng = random.Random(41)
    for dim in (2, 3):
        for _ in range(40):
            gens = random_cofinite_gens(rng, dim, max_exp=6, extra=3)
            poly = newton_polyhedron(gens, dim)
            for f in poly.facets:
                # contact sets span the facet: at least dim points
                assert len(set(poly.points[i] for i in f.on_facet)) >= dim
                for p in poly.points:
                    assert sum(a * b for a, b in zip(f.normal, p)) >= f.level


def test_membership_matches_rational_feasibility():
    rng = random.Random(43)
    for dim in (2, 3):
        for _ in range(12):
            gens = random_cofinite_gens(rng, dim, max_exp=4, extra=2)
            poly = newton_polyhedron(gens, dim)
            for _ in range(15):
                x = tuple(rng.randint(0, 6) for _ in range(dim))
                assert poly.contains(x) == orthant_hull_member(gens, x)


def test_in_convex_hull_basic():
    assert in_convex_hull((1, 1), [(2, 0), (0, 2)])
    assert not in_convex_hull((2, 2), [(2, 0), (0, 2)])
    assert in_convex_hull((1, 1, 1), [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
    assert not in_convex_hull((3, 0, 0), [(0, 3, 0), (0, 0, 3), (1, 1, 1)])
    # on the segment between two points, but not at a vertex
    assert in_convex_hull((2, 1, 0), [(4, 0, 0), (0, 2, 0), (0, 0, 5)])


def _assert_vertices_match_oracle(gens, dim):
    """A point on a facet is a vertex exactly when it is not in the hull
    of the other distinct points on the facet. The facet is projected
    along an axis its normal is not orthogonal to, so the Caratheodory
    oracle works in dim - 1 coordinates."""
    poly = newton_polyhedron(gens, dim)
    for f in poly.facets:
        k = next(i for i, a in enumerate(f.normal) if a)
        on = sorted({poly.points[i] for i in f.on_facet})
        proj = {p: p[:k] + p[k + 1:] for p in on}
        expected = {p for p in on if not in_convex_hull(proj[p], [proj[q] for q in on if q != p])}
        assert f.vertices == tuple(i for i in f.on_facet if poly.points[i] in expected)


def _staircase_ideal(rng, dim):
    """Pure powers 3..6 plus a few small points, most of them below the
    simplex of the pure powers, so the polyhedron has several facets."""
    gens = [tuple(rng.randint(3, 6) * (i == j) for j in range(dim)) for i in range(dim)]
    gens += [tuple(rng.randint(0, 2) for _ in range(dim)) for _ in range(rng.randint(1, 3))]
    return MonomialIdeal.from_gens(dim, [g for g in gens if any(g)])


def test_facet_vertices_match_caratheodory_oracle():
    rng = random.Random(53)
    for dim, count, powers in ((3, 8, (1, 2, 3)), (4, 2, (1, 2))):
        for _ in range(count):
            ideal = _staircase_ideal(rng, dim)
            for k in powers:
                _assert_vertices_match_oracle(ideal.power(k).gens, dim)
    # the cube of a scaled set on which the subset-based vertex test took seconds
    scaled = [(0, 0, 3), (0, 6, 0), (1, 1, 2), (3, 1, 1), (8, 0, 0)]
    _assert_vertices_match_oracle(MonomialIdeal.from_gens(3, scaled).power(3).gens, 3)


def _qhull_compact_facets(points):
    """Compact facets of conv(points) + R^n_+ read off scipy's qhull, as
    (rounded unit inward normal, points on the facet) pairs. The orthant
    is stood in for by copies of the points shifted far along each axis;
    a facet is compact exactly when its inward normal is strictly
    positive, and those facets never touch the shifted copies."""
    spatial = pytest.importorskip("scipy.spatial")
    dim = len(points[0])
    far = 1 + sum(max(p) for p in points)
    cloud = list(points) + [
        tuple(a + far * (i == j) for j, a in enumerate(p)) for p in points for i in range(dim)
    ]
    hull = spatial.ConvexHull(cloud)
    found = set()
    for eq in {tuple(round(float(a), 9) for a in e) for e in hull.equations}:
        inward = [-a for a in eq[:dim]]
        if min(inward) <= 1e-9:
            continue
        on = frozenset(p for p in points if abs(sum(a * b for a, b in zip(eq, p)) + eq[dim]) < 1e-7)
        found.add((tuple(round(a, 6) for a in inward), on))
    return found


def test_hull_compact_facets_match_qhull():
    rng = random.Random(59)
    for _ in range(40):
        points = sorted(set(random_cofinite_gens(rng, 3, max_exp=5, extra=5)))
        ours = set()
        for normal, level in _hull_facets(points, 3):
            if min(normal) <= 0:
                continue
            length = sum(a * a for a in normal) ** 0.5
            on = frozenset(p for p in points if sum(a * b for a, b in zip(normal, p)) == level)
            ours.add((tuple(round(a / length, 6) for a in normal), on))
        assert ours == _qhull_compact_facets(points)


def test_unit_ideal_polyhedron():
    poly = newton_polyhedron([(0, 0)], 2)
    assert poly.facets == ()
    assert complement_volume(poly) == 0
    assert minimal_points(_pairs(poly), poly.dim) == [(0, 0)]


def test_minimal_points_match_box_filter():
    rng = random.Random(47)
    for _ in range(30):
        gens = random_cofinite_gens(rng, 2, max_exp=7, extra=3)
        poly = newton_polyhedron(gens, 2)
        bound = poly.max_vertex_coordinate()
        pts = lattice_points_in(poly, bound)
        minimal = [
            p for p in pts
            if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in pts)
        ]
        assert sorted(minimal) == minimal_points(_pairs(poly), poly.dim)


def test_minimal_points_without_positive_level_is_the_origin():
    assert minimal_points([], 3) == [(0, 0, 0)]
    assert minimal_points([((1, 2), 0), ((3, 1), -4)], 2) == [(0, 0)]


def test_minimal_points_one_variable():
    assert minimal_points([((2,), 5), ((1,), 2), ((3,), -1)], 1) == [(3,)]


def test_minimal_points_match_box_filter_on_inequalities():
    """Random positive normals, each with two redundant copies: the same
    normal at a lower level, and twice the normal at twice the level less
    one. Every normal entry is at least 1, so no minimal point has a
    coordinate above the largest level, and the minimal points of that
    box are its feasible points from which no unit step down is feasible."""
    rng = random.Random(61)
    for dim, count, top in ((2, 20, 9), (3, 12, 6), (4, 4, 3)):
        for _ in range(count):
            ineqs = []
            for _ in range(rng.randint(1, 3)):
                normal = tuple(rng.randint(1, 4) for _ in range(dim))
                level = rng.randint(-2, top)
                ineqs.append((normal, level))
                ineqs.append((normal, level - rng.randint(1, 3)))
                ineqs.append((tuple(2 * a for a in normal), 2 * level - 1))
            rng.shuffle(ineqs)

            def inside(x):
                return all(sum(a * b for a, b in zip(nu, x)) >= lv for nu, lv in ineqs)

            box = range(max(0, max(lv for _, lv in ineqs)) + 1)
            expected = [
                x for x in product(box, repeat=dim)
                if inside(x)
                and not any(x[i] and inside(x[:i] + (x[i] - 1,) + x[i + 1:]) for i in range(dim))
            ]
            assert minimal_points(ineqs, dim) == expected
