import math

import pytest

from residuum.currents import MonomialSeq, residue_current
from residuum.quadrature import (
    ChartExponents,
    chart_exponents,
    closed_form_power_integral,
    coefficient_integral,
    integrate_adaptive,
    numeric_coefficients,
    radial_power_integral,
    validate_coffe_numeric,
)


def two_point_chart(N):
    return ChartExponents(facet_normal=(1, 1), c=(0, N), origin_index=0)


def test_closed_form_identity():
    for N in range(1, 7):
        for p in (2, 3, 4):
            value, err, _ = radial_power_integral(N, p)
            assert abs(value - closed_form_power_integral(N, p)) < 1e-9
            assert err < 1e-9


def test_two_point_facet_coefficient_is_one():
    for N in (1, 2, 3, 5):
        nc = coefficient_integral(two_point_chart(N), (0, 1))
        assert abs(nc.estimate - 1.0) < 1e-6
        assert nc.abs_error < 1e-6


def test_chart_exponents_konf(ex54):
    cur = residue_current(ex54, (1, 1, 1))
    facet = cur.scaled_np.facets[0]
    ce = chart_exponents(facet, cur.scaled_np.points)
    assert ce.facet_normal == (1, 1)
    assert ce.c == (0, 1, 2)
    assert ce.origin_index == 0


def test_chart_exponents_two_point_facets(ex41):
    cur = residue_current(ex41, (1, 1, 1, 1))
    facet = cur.scaled_np.facets[0]
    ce = chart_exponents(facet, cur.scaled_np.points)
    assert ce.c == (0, 1)  # direction (-5, 3) is primitive
    scaled = residue_current(ex41, (3, 3, 4, 5)).scaled_np
    ce = chart_exponents(scaled.facets[0], scaled.points)
    assert max(ce.c) == 15  # lattice length of the segment (15,0)-(0,15)
    assert min(ce.c) == 0


def test_chart_lattice_length_random_axis_pairs():
    import random
    from residuum.newton import newton_polyhedron

    rng = random.Random(71)
    for _ in range(40):
        a, b = rng.randint(1, 12), rng.randint(1, 12)
        poly = newton_polyhedron([(a, 0), (0, b)], 2)
        ce = chart_exponents(poly.facets[0], poly.points)
        assert sorted(ce.c) == [0, math.gcd(a, b)]



def test_chart_exponents_rejects_three_variable_facet():
    from residuum.newton import newton_polyhedron

    poly = newton_polyhedron([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)], 3)
    with pytest.raises(ValueError):
        chart_exponents(poly.facets[0], poly.points)

def test_konf_coefficients(ex54):
    nc = numeric_coefficients(ex54, (1, 1, 1))
    c12 = nc[(0, 1)].estimate
    c13 = nc[(0, 2)].estimate
    c23 = nc[(1, 2)].estimate
    assert abs(2 * c12 + 4 * c13 + 2 * c23 - 4) < 1e-6
    for c in (c12, c13, c23):
        assert 0 < c < 1
    assert abs(c12 - c23) < 1e-6
    # frozen values from the antiderivative of 1/(1+u+u^2)^2
    c12_exact = 4 * math.sqrt(3) * math.pi / 27 - 1 / 3
    c13_exact = 4 / 3 - 4 * math.sqrt(3) * math.pi / 27
    assert c12 == pytest.approx(c12_exact, abs=1e-8)
    assert c13 == pytest.approx(c13_exact, abs=1e-8)


def test_positivity_bounded_away_from_zero(ex54, ex41):
    for seq, w in ((ex54, (1, 1, 1)), (ex41, (3, 3, 4, 5))):
        for nc in numeric_coefficients(seq, w).values():
            assert nc.estimate > 10 * nc.abs_error


def test_budget_refines_error():
    # force budget-limited runs and check refinement
    f = lambda r: r ** 9 / (1 + r ** 2 + r ** 10) ** 2
    _, err_small, cells_small = integrate_adaptive(f, 0.0, 1.0, target=0.0, max_cells=4)
    value_big, err_big, cells_big = integrate_adaptive(f, 0.0, 1.0, target=0.0, max_cells=16)
    assert cells_big > cells_small
    assert err_big < err_small
    value_small, _, _ = integrate_adaptive(f, 0.0, 1.0, target=0.0, max_cells=4)
    assert abs(value_big - value_small) <= err_small + err_big



def test_budget_refines_error_on_square():
    # the same budget properties on a two-variable box
    f = lambda x, y: x ** 9 * y / (1 + x ** 2 + x ** 10 * y ** 2) ** 2
    a, b = (0.0, 0.0), (1.0, 1.0)
    value_small, err_small, cells_small = integrate_adaptive(f, a, b, target=0.0, max_cells=4)
    value_big, err_big, cells_big = integrate_adaptive(f, a, b, target=0.0, max_cells=16)
    assert cells_big > cells_small
    assert err_big < err_small
    assert abs(value_big - value_small) <= err_small + err_big


def test_square_exact_values():
    a, b = (0.0, 0.0), (1.0, 1.0)
    cases = (
        (lambda x, y: 1 / ((1 + x) * (1 + y)), math.log(2) ** 2),
        # degree 11 per axis: exact for the 6-node rule of the pair
        (lambda x, y: x ** 11 * y ** 11, 1 / 144),
    )
    for f, exact in cases:
        value, err, _ = integrate_adaptive(f, a, b)
        assert abs(value - exact) <= err + 4 * math.ulp(exact)

def test_validate_coffe_residuals(ex54, ex41):
    v = validate_coffe_numeric(ex54, (1, 1, 1))
    assert v.max_residual < 1e-5
    vr = validate_coffe_numeric(ex41, (3, 3, 4, 5))
    assert vr.max_residual < 1e-4
    # unique-essential facets: residual consistent with coefficient 1
    vp = validate_coffe_numeric(ex41, (1, 1, 1, 1))
    assert vp.max_residual < 1e-6
    (idx, nc), = vp.facets[0].estimates
    assert idx == (0, 3)
    assert nc.estimate == pytest.approx(1.0, abs=1e-7)


def test_degenerate_pair_rejected():
    with pytest.raises(ValueError):
        coefficient_integral(two_point_chart(2), (0, 0))


def test_three_variable_validation_behind_flag():
    seq = MonomialSeq(3, ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)))
    with pytest.raises(ValueError):
        validate_coffe_numeric(seq, (1, 1, 1, 1))
    v = validate_coffe_numeric(seq, (1, 1, 1, 1), experimental_n3=True)
    assert len(v.facets) == 1
    facet = v.facets[0]
    # experiment: report the residual, assert only sanity of the numbers
    assert math.isfinite(facet.residual)
    assert facet.error_bound < 1e-3
    for _, nc in facet.estimates:
        assert nc.estimate > 0
    rel = facet.relation
    assert rel.scaled_dets == (8, 4, 4) and rel.rhs == 8


def test_unsupported_dimension():
    seq = MonomialSeq(1, ((1,), (2,)))
    with pytest.raises(ValueError):
        validate_coffe_numeric(seq, (1, 1))


def test_weighted_coefficients_match_unit_weight_of_scaled_sequence(ex41):
    # the weighted coefficient equals the unweighted coefficient of the
    # scaled sequence: compare the q-weighted run against the scaled set
    w = (2, 2, 1, 3)
    nc_weighted = numeric_coefficients(ex41, w)
    scaled_seq = MonomialSeq(2, ((10, 0), (8, 2), (2, 2), (0, 9)))
    nc_scaled = numeric_coefficients(scaled_seq, (1, 1, 1, 1))
    for idx, nc in nc_weighted.items():
        assert nc.estimate == pytest.approx(nc_scaled[idx].estimate, abs=1e-9)
