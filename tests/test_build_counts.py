"""Each public (sequence, weight) function builds the Newton polyhedron
of the scaled points exactly once, and a weight sweep computes the
unscaled n-subset determinants once for the whole sweep."""

import pytest

import residuum.currents as currents
import residuum.quadrature as quadrature
from residuum.currents import (
    MonomialSeq,
    annihilator,
    coffe_constraints,
    enumerate_annihilators,
    multiplicity_ep,
    residue_current,
    scaled_points,
    theorem_a_report,
)
from residuum.newton import newton_polyhedron
from residuum.quadrature import validate_coffe_numeric

# three facets, each through three of the four scaled points
SEQ3 = MonomialSeq(3, ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)))
W3 = (2, 2, 2, 1)


@pytest.fixture
def hull_builds(monkeypatch):
    """The point sets passed to newton_polyhedron by currents and
    quadrature during the test."""
    built = []

    def counting(points, dim=None):
        built.append(tuple(tuple(x) for x in points))
        return newton_polyhedron(points, dim)

    for module in (currents, quadrature):
        monkeypatch.setattr(module, "newton_polyhedron", counting, raising=False)
    return built


@pytest.mark.parametrize(
    "fn", [residue_current, coffe_constraints, annihilator, multiplicity_ep]
)
def test_one_hull_per_call(fn, ex41, ex41_weights, hull_builds):
    p = ex41_weights["r"]
    fn(ex41, p)
    assert hull_builds.count(scaled_points(ex41, p)) == 1


def test_theorem_a_builds_the_scaled_hull_once(hull_builds):
    theorem_a_report(SEQ3, W3)
    assert hull_builds.count(scaled_points(SEQ3, W3)) == 1


def test_validation_builds_one_hull_2d(ex41, ex41_weights, hull_builds):
    p = ex41_weights["r"]
    validate_coffe_numeric(ex41, p)
    assert hull_builds.count(scaled_points(ex41, p)) == 1


def test_validation_builds_one_hull_3d(hull_builds):
    validate_coffe_numeric(SEQ3, W3, experimental_n3=True)
    assert hull_builds.count(scaled_points(SEQ3, W3)) == 1


def test_sweep_computes_subset_determinants_once(ex41, monkeypatch):
    seq = MonomialSeq(ex41.dim, ex41.exps)  # fresh: nothing cached yet
    unscaled = []
    det = currents.det

    def counting(rows):
        if all(tuple(r) in seq.exps for r in rows):
            unscaled.append(rows)
        return det(rows)

    monkeypatch.setattr(currents, "det", counting)
    enumerate_annihilators(seq, 4)
    assert len(unscaled) <= 6  # C(4, 2) subsets, whatever the number of weights
