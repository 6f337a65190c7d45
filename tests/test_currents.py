import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from residuum.currents import (
    MonomialSeq,
    SweepRefusedError,
    ann_independent_of_p,
    annihilator,
    coffe_constraints,
    current_independent_of_p,
    enumerate_annihilators,
    is_regular_sequence,
    multiplicity_ep,
    p_essential_indices,
    proof_weights,
    residue_current,
    scaled_points,
    theorem_a_report,
)
from residuum.ideals import MonomialIdeal
from residuum.newton import complement_volume, newton_polyhedron

from oracles import (
    det_permutation,
    essential_oracle,
    minimalize_simple,
    orthant_hull_member,
    random_cofinite_gens,
    random_weight,
)


def ess_set(seq, w):
    return {i for i, _ in p_essential_indices(seq, w)}


def test_sequence_validation():
    with pytest.raises(ValueError):
        MonomialSeq(2, ((1, 1), (2, 2)))  # no pure powers
    with pytest.raises(ValueError):
        MonomialSeq(2, ((1, 0),))  # fewer monomials than variables
    with pytest.raises(ValueError):
        MonomialSeq(2, ((1, 0), (0, 1), (0, 0)))  # constant entry


def test_scaled_points(ex41):
    assert scaled_points(ex41, (2, 2, 1, 3)) == ((10, 0), (8, 2), (2, 2), (0, 9))
    assert scaled_points(ex41, (1, 1, 1, 1)) == ex41.exps
    assert scaled_points(ex41, (3, 3, 4, 5)) == ((15, 0), (12, 3), (8, 8), (0, 15))
    with pytest.raises(ValueError):
        scaled_points(ex41, (1, 1, 1))


def test_essential_indices_fixture(ex41):
    assert ess_set(ex41, (1, 1, 1, 1)) == {(0, 3)}
    assert ess_set(ex41, (2, 2, 1, 3)) == {(0, 2), (2, 3)}
    assert ess_set(ex41, (3, 3, 4, 5)) == {(0, 1), (0, 3), (1, 3)}


def test_essential_witnesses(ex41):
    ess = dict(p_essential_indices(ex41, (2, 2, 1, 3)))
    assert [f.normal for f in ess[(0, 2)]] == [(1, 4)]
    assert [f.normal for f in ess[(2, 3)]] == [(7, 2)]


def test_one_variable_vanishing_regimes(ex42):
    cur1 = residue_current(ex42, (1, 1))
    assert [(e.index, e.vanishes) for e in cur1.entries] == [((0,), False), ((1,), True)]
    cur2 = residue_current(ex42, (2, 1))
    assert all(not e.vanishes for e in cur2.entries)
    assert [e.alpha for e in cur2.entries] == [(1,), (2,)]
    cur3 = residue_current(ex42, (5, 1))
    assert [(e.index, e.vanishes) for e in cur3.entries] == [((0,), True), ((1,), False)]
    assert cur3.entries[1].alpha == (2,)


def test_current_entry_fields(ex41):
    cur = residue_current(ex41, (2, 2, 1, 3))
    e = cur.entry((0, 2))
    assert not e.vanishes
    assert e.sign == 1
    assert e.alpha == (7, 2)
    assert e.coeff.kind == "known" and e.coeff.value == 1
    assert e.witnesses == ((1, 4),)
    gone = cur.entry((0, 1))
    assert gone.vanishes and gone.reason == "not on a common facet"


def test_zero_determinant_reason():
    seq = MonomialSeq(2, ((2, 0), (4, 0), (0, 3)))
    cur = residue_current(seq, (1, 1, 1))
    e = cur.entry((0, 1))
    assert e.vanishes and e.reason == "zero determinant"


def test_annihilators_fixture(ex41):
    assert annihilator(ex41, (1, 1, 1, 1)).gens == ((0, 3), (5, 0))
    assert annihilator(ex41, (2, 2, 1, 3)).gens == ((0, 5), (2, 2), (7, 0))
    expected_r = (
        MonomialIdeal.from_gens(2, [(9, 0), (0, 1)])
        .intersect(MonomialIdeal.from_gens(2, [(5, 0), (0, 3)]))
        .intersect(MonomialIdeal.from_gens(2, [(4, 0), (0, 4)]))
    )
    assert annihilator(ex41, (3, 3, 4, 5)) == expected_r


def test_annihilator_one_variable(ex42):
    assert annihilator(ex42, (1, 1)).gens == ((1,),)
    assert annihilator(ex42, (2, 1)).gens == ((2,),)
    assert annihilator(ex42, (4, 1)).gens == ((2,),)


def test_multiplicities_fixture(ex41):
    assert multiplicity_ep(ex41, (1, 1, 1, 1)).exact == 15
    assert multiplicity_ep(ex41, (2, 2, 1, 3)).exact == 16
    assert multiplicity_ep(ex41, (2, 1, 1, 2)).exact == 17


def test_multiplicity_undetermined_with_constraint(ex41):
    m = multiplicity_ep(ex41, (3, 3, 4, 5))
    assert m.exact is None
    assert len(m.constraints) == 1
    rel = m.constraints[0]
    assert rel.indices == ((0, 1), (0, 3), (1, 3))
    assert rel.scaled_dets == (45, 225, 180)
    assert rel.rhs == 225
    assert rel.reduced() == ((1, 5, 4), 5)
    assert rel.readings_differ
    assert rel.unscaled_dets == (5, 15, 12)
    assert rel.unscaled_rhs == 15


def test_coffe_unique_essential_forces_one(ex41):
    rels = coffe_constraints(ex41, (1, 1, 1, 1))
    assert len(rels) == 1
    rel = rels[0]
    assert rel.scaled_dets == (15,) and rel.rhs == 15
    assert rel.reduced() == ((1,), 1)
    assert not rel.readings_differ


def test_coffe_fixture_konf(ex54):
    rels = coffe_constraints(ex54, (1, 1, 1))
    assert len(rels) == 1
    rel = rels[0]
    assert rel.indices == ((0, 1), (0, 2), (1, 2))
    assert rel.scaled_dets == (2, 4, 2)
    assert rel.rhs == 4


def test_konf_patterns_and_multiplicity(ex54):
    assert ess_set(ex54, (1, 1, 1)) == {(0, 1), (0, 2), (1, 2)}
    assert ess_set(ex54, (1, 2, 1)) == {(0, 2)}
    assert ess_set(ex54, (2, 1, 1)) == {(0, 1), (1, 2)}
    m1 = multiplicity_ep(ex54, (1, 1, 1))
    m2 = multiplicity_ep(ex54, (1, 2, 1))
    m3 = multiplicity_ep(ex54, (2, 1, 1))
    assert (m1.exact, m2.exact, m3.exact) == (4, 4, 4)
    assert m1.method == "constraint-implied"
    assert m2.method == "all-known" and m3.method == "all-known"


def test_theorem_a_fixture_left_ideal(ex41):
    rep = theorem_a_report(ex41, (2, 2, 1, 3))
    assert rep.left.gens == ((0, 12), (1, 9), (2, 5), (3, 3), (7, 2), (11, 1), (15, 0))
    assert rep.left_included and rep.right_included and rep.left_strict
    assert not rep.right_equality
    assert rep.equality_implies_ci


def test_closure_of_square_inside_weighted_annihilator(ex41):
    # exact computation: the closed square of the plain ideal is
    # contained in the weighted annihilator for this fixture
    clo = ex41.ideal.power(2).integral_closure()
    assert clo.gens == ((0, 6), (2, 5), (4, 4), (5, 3), (7, 2), (9, 1), (10, 0))
    assert clo.issubset(annihilator(ex41, (2, 2, 1, 3)))


def _assert_left_matches_hull_oracle(seq, w):
    """Every generator g of left has g + s_I in n NP(J) for each essential
    I, and every unit step down from g misses it for some I; essential
    indices, shifts and hull membership all come from the oracles."""
    n, exps = seq.dim, seq.exps
    pts = [tuple(w[j] * a for a in e) for j, e in enumerate(exps)]
    hull = minimalize_simple([tuple(n * a for a in p) for p in pts])
    essential = [
        index for index in combinations(range(seq.m), n)
        if det_permutation([exps[i] for i in index]) != 0 and essential_oracle(pts, index)
    ]
    shifts = [
        tuple(sum((w[i] - 1) * exps[i][j] for i in index) for j in range(n))
        for index in essential
    ]
    seen = {}

    def in_left(x):
        if x not in seen:
            seen[x] = all(
                orthant_hull_member(hull, tuple(a + b for a, b in zip(x, s))) for s in shifts
            )
        return seen[x]

    rep = theorem_a_report(seq, w)
    for g in rep.left.gens:
        assert in_left(g)
        for i in range(n):
            if g[i]:
                assert not in_left(g[:i] + (g[i] - 1,) + g[i + 1:])


def test_theorem_a_left_matches_hull_oracle_3d_4d():
    rng = random.Random(72)
    checked = 0
    while checked < 4:  # 3-D inputs whose scaled set is not a regular sequence
        seq = MonomialSeq(3, tuple(random_cofinite_gens(rng, 3, max_exp=2, extra=2)))
        w = random_weight(rng, seq.m, max_w=2)
        if len(minimalize_simple(scaled_points(seq, w))) > 3:
            _assert_left_matches_hull_oracle(seq, w)
            checked += 1
    seq = MonomialSeq(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)))
    _assert_left_matches_hull_oracle(seq, (2, 2, 2, 2, 1))


@st.composite
def _weighted_powers(draw):
    """A small weighted sequence in 2 to 4 variables and a power k."""
    dim = draw(st.integers(2, 4))
    top = 4 if dim < 4 else 2
    gens = [
        tuple(draw(st.integers(1, top)) if j == i else 0 for j in range(dim))
        for i in range(dim)
    ]
    point = st.tuples(*[st.integers(0, top)] * dim).filter(any)
    gens += draw(st.lists(point, max_size=2 if dim == 2 else 1))
    weight = tuple(draw(st.integers(1, 3 if dim < 4 else 2)) for _ in gens)
    return MonomialSeq(dim, tuple(gens)), weight, draw(st.integers(1, 3 if dim < 4 else 2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_weighted_powers())
def test_power_polyhedron_is_the_scaled_polyhedron(case):
    """NP(J^k) = k NP(J) facet for facet, the premise of the left ideal's
    construction, and left <= ann <= right on the same inputs."""
    seq, w, k = case
    pts = scaled_points(seq, w)
    base = newton_polyhedron(pts, seq.dim)
    power = MonomialIdeal.from_gens(seq.dim, pts).power(k)
    powered = newton_polyhedron(power.gens, seq.dim)
    assert [(f.normal, f.level) for f in powered.facets] == [
        (f.normal, k * f.level) for f in base.facets
    ]
    rep = theorem_a_report(seq, w)
    assert rep.left.issubset(rep.ann) and rep.ann.issubset(rep.right)


def test_theorem_a_chain_on_fixture_weights(ex41, ex54, ex41_weights):
    for w in ex41_weights.values():
        rep = theorem_a_report(ex41, w)
        assert rep.left_included and rep.right_included and rep.left_strict
    for w in ((1, 1, 1), (1, 2, 1), (2, 1, 1)):
        rep = theorem_a_report(ex54, w)
        assert rep.left_included and rep.right_included and rep.left_strict


def test_theorem_a_one_variable(ex42):
    rep = theorem_a_report(ex42, (2, 1))
    assert rep.left_included and rep.right_included
    assert rep.left == rep.ann  # strictness is a two-or-more-variable effect
    assert rep.complete_intersection


def test_regular_sequence_predicate(ex41):
    assert is_regular_sequence(MonomialSeq(2, ((5, 0), (0, 3))))
    assert not is_regular_sequence(ex41)
    # a mixed-support entry disqualifies even with m minimal
    assert not is_regular_sequence(MonomialSeq(2, ((2, 0), (1, 1), (0, 2))))


def test_independence_predicates(ex41):
    reg = MonomialSeq(2, ((5, 0), (0, 3)))
    assert current_independent_of_p(reg) and ann_independent_of_p(reg)
    assert not current_independent_of_p(ex41) and not ann_independent_of_p(ex41)
    dup = MonomialSeq(2, ((2, 0), (0, 3), (2, 0)))
    assert not current_independent_of_p(dup)
    assert ann_independent_of_p(dup)
    # cross-check the duplicate case by a small sweep
    anns = {annihilator(dup, w).gens for w in product((1, 2, 3), repeat=3)}
    assert len(anns) == 1


def test_proof_weights_land_on_a_facet(ex41):
    for j in range(ex41.m):
        q = proof_weights(ex41, j)
        assert any(j in idx for idx in ess_set(ex41, q))
    one_var = MonomialSeq(1, ((1,), (2,)))
    q = proof_weights(one_var, 1)
    assert any(1 in idx for idx in ess_set(one_var, q))
    reg = MonomialSeq(2, ((5, 0), (0, 3)))
    assert ess_set(reg, proof_weights(reg, 0)) == {(0, 1)}
    with pytest.raises(ValueError):
        proof_weights(ex41, 9)


def test_sweep_fixture(ex41, ex54):
    found = enumerate_annihilators(ex41, 6)
    assert len(found) == 9
    reg = MonomialSeq(2, ((3, 0), (0, 2)))
    assert len(enumerate_annihilators(reg, 4)) == 1
    konf = enumerate_annihilators(ex54, 3)
    patterns = {ideal.gens for ideal, _ in konf}
    assert len(patterns) == 3


def test_sweep_guard(ex41):
    big = MonomialSeq(2, tuple((1, 0) for _ in range(11)) + ((0, 1),))
    with pytest.raises(SweepRefusedError):
        enumerate_annihilators(big, 5)  # 5^12 > 1e7


def test_sweep_representative_weights_are_lex_minimal(ex41):
    for ideal, w in enumerate_annihilators(ex41, 3):
        assert annihilator(ex41, w) == ideal
        # spot-check lexicographic minimality against a rescan
        for cand in product((1, 2, 3), repeat=4):
            if cand >= w:
                break
            assert annihilator(ex41, cand) != ideal


def test_essential_indices_match_feasibility_oracle():
    from itertools import combinations

    rng = random.Random(73)
    for dim in (2, 3):
        for _ in range(10):
            seq = MonomialSeq(dim, tuple(random_cofinite_gens(rng, dim, max_exp=5, extra=2)))
            w = random_weight(rng, seq.m)
            pts = scaled_points(seq, w)
            expected = {
                index
                for index in combinations(range(seq.m), dim)
                if det_permutation([seq.exps[i] for i in index]) != 0
                and essential_oracle(pts, index)
            }
            assert ess_set(seq, w) == expected


def test_alpha_positive_on_survivors():
    rng = random.Random(53)
    for _ in range(40):
        seq = MonomialSeq(2, tuple(random_cofinite_gens(rng, 2)))
        w = random_weight(rng, seq.m)
        for e in residue_current(seq, w).nonvanishing():
            assert all(a >= 1 for a in e.alpha)


def test_annihilator_permutation_invariance():
    rng = random.Random(59)
    for _ in range(25):
        gens = random_cofinite_gens(rng, 2, max_exp=5, extra=2)
        seq = MonomialSeq(2, tuple(gens))
        w = random_weight(rng, seq.m)
        base = annihilator(seq, w)
        perm = list(range(seq.m))
        rng.shuffle(perm)
        seq2 = MonomialSeq(2, tuple(gens[i] for i in perm))
        w2 = tuple(w[i] for i in perm)
        assert annihilator(seq2, w2) == base


def test_weight_one_multiplicity_is_complement_volume():
    rng = random.Random(61)
    for dim in (2,):
        for _ in range(30):
            gens = random_cofinite_gens(rng, dim, max_exp=5, extra=2)
            seq = MonomialSeq(dim, tuple(gens))
            m = multiplicity_ep(seq, (1,) * seq.m)
            vol = complement_volume(newton_polyhedron(gens, dim))
            assert m.exact == vol
            # summing the per-facet relations also gives the volume
            assert sum(r.rhs for r in m.constraints) == vol


def test_regular_sequence_single_known_entry():
    rng = random.Random(67)
    for dim in (2, 3):
        for _ in range(15):
            gens = []
            for axis in range(dim):
                e = [0] * dim
                e[axis] = rng.randint(1, 6)
                gens.append(tuple(e))
            seq = MonomialSeq(dim, tuple(gens))
            w = random_weight(rng, dim)
            cur = residue_current(seq, w)
            live = cur.nonvanishing()
            assert len(live) == 1
            e = live[0]
            assert e.coeff.kind == "known"
            assert e.alpha == tuple(sum(g[j] for g in gens) for j in range(dim))


def test_multiplicity_numeric_merge(ex54):
    from residuum.quadrature import numeric_coefficients

    nc = numeric_coefficients(ex54, (1, 1, 1))
    m = multiplicity_ep(ex54, (1, 1, 1), numeric=nc)
    assert m.exact == 4
    assert m.estimate == pytest.approx(4.0, abs=1e-8)
    assert m.abs_error < 1e-6


def test_e_multiplicity_satisfies_constraints_when_known(ex41):
    # every all-known case must satisfy its own relations exactly
    for w in ((1, 1, 1, 1), (2, 2, 1, 3), (2, 1, 1, 2)):
        m = multiplicity_ep(ex41, w)
        ess = {e.index: 1 for e in residue_current(ex41, w).nonvanishing()}
        for rel in m.constraints:
            total = sum(d * ess[i] for d, i in zip(rel.scaled_dets, rel.indices))
            assert total == rel.rhs
