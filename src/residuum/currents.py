"""Residue-current combinatorics of weighted monomial sequences.

A sequence of monomials z^{a^1}, ..., z^{a^m} with zero set {0} and a
weight p of positive integers determine a vector-valued current with
one entry per n-element multi-index. An entry survives exactly when
the scaled exponents p_j a^j (j in the index) sit on a common compact
facet of the Newton polyhedron of the scaled set and the unscaled
exponent matrix is nonsingular. Surviving entries are monomial
currents with exponent alpha = sum of the unscaled a^j and a positive
constant coefficient; the coefficient is exactly 1 in the
unique-index-per-facet situation and otherwise only constrained by one
linear relation per facet tying it to normalized facet volumes.

This module computes the combinatorial and exact-arithmetic side:
essential indices, symbolic entries, annihilator ideals, multiplicity
values or their constraint systems, the per-facet relations, the
inclusion chain around the annihilator, independence predicates, and
weight-space sweeps. Numeric estimation of undetermined coefficients
lives in the quadrature module.

The nonsingular n-subsets and their determinants do not depend on the
weight; the sequence computes them once. Each function of a (sequence,
weight) pair builds one weighted instance, which holds the scaled
points, their Newton polyhedron and the essential indices, and reads
everything else off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product

from .ideals import MonomialIdeal
from .lattice import (
    content,
    det,
    dot,
    rank,
    solve_exact,
    unimodular_completion,
    vsub,
)
from .newton import facet_det, newton_polyhedron


class SweepRefusedError(ValueError):
    """Weight sweep would enumerate too many weights; pass force=True."""


@dataclass(frozen=True)
class MonomialSeq:
    """The ordered sequence of exponent vectors plus ambient dimension.

    Order matters: current entries are indexed by position subsets.
    Requires at least n entries, every entry nonzero, and a pure power
    of each variable among the entries (zero set = origin). The ideal
    and the nonsingular n-subsets are computed on first use and kept.
    """

    dim: int
    exps: tuple

    def __post_init__(self):
        exps = tuple(tuple(e) for e in self.exps)
        object.__setattr__(self, "exps", exps)
        if len(exps) < self.dim:
            raise ValueError("need at least as many monomials as variables")
        for e in exps:
            if len(e) != self.dim:
                raise ValueError("exponent of wrong dimension")
            if any(a < 0 or not isinstance(a, int) for a in e):
                raise ValueError("exponents must be nonnegative integers")
            if all(a == 0 for a in e):
                raise ValueError("constant monomials are not allowed")
        if not self.ideal.is_cofinite():
            raise ValueError(
                "the monomials must cut out the origin: V(z^A) != {0}"
            )

    @property
    def m(self):
        return len(self.exps)

    @cached_property
    def ideal(self):
        return MonomialIdeal.from_gens(self.dim, self.exps)

    @cached_property
    def _nonsingular(self):
        """index -> det for each n-subset of positions whose unscaled
        exponent matrix is nonsingular, in lexicographic order."""
        dets = {}
        for index in combinations(range(self.m), self.dim):
            d = _index_det(self.exps, index)
            if d != 0:
                dets[index] = d
        return dets


def check_weight(seq, p):
    p = tuple(p)
    if len(p) != seq.m:
        raise ValueError(f"weight length {len(p)} != sequence length {seq.m}")
    if any(x < 1 or not isinstance(x, int) for x in p):
        raise ValueError("weight entries must be positive integers")
    return p


def scaled_points(seq, p):
    """The pointwise scaling (p_1 a^1, ..., p_m a^m), order preserved."""
    p = check_weight(seq, p)
    return tuple(tuple(w * a for a in e) for w, e in zip(p, seq.exps))


@dataclass(frozen=True)
class Coefficient:
    """Status of one current coefficient: exactly 1, constrained by the
    facet relation named by `facet`, or numerically estimated."""

    kind: str  # "known" | "constrained" | "numeric"
    value: int | None = None
    facet: tuple | None = None
    estimate: float | None = None
    abs_error: float | None = None


@dataclass(frozen=True)
class CurrentEntry:
    index: tuple
    vanishes: bool
    reason: str | None
    sign: int | None
    alpha: tuple
    coeff: Coefficient | None
    witnesses: tuple


@dataclass(frozen=True)
class ResidueCurrent:
    seq: MonomialSeq
    weight: tuple
    entries: tuple
    scaled_np: object

    def entry(self, index):
        index = tuple(sorted(index))
        for e in self.entries:
            if e.index == index:
                return e
        raise KeyError(f"no entry {index}")

    def nonvanishing(self):
        return [e for e in self.entries if not e.vanishes]


@dataclass(frozen=True)
class CoffeRelation:
    """Per-facet balance: sum over essential indices on the facet of
    C_I times the scaled |det| equals the normalized facet volume.

    The variant with unscaled determinants is carried alongside and
    flagged when the two readings disagree (they agree at weight one).
    """

    facet_normal: tuple
    facet_level: int
    indices: tuple
    scaled_dets: tuple
    rhs: int
    unscaled_dets: tuple
    unscaled_rhs: int | None
    readings_differ: bool

    def reduced(self):
        """The scaled relation divided by the gcd of its coefficients."""
        g = content(self.scaled_dets + (self.rhs,))
        return tuple(d // g for d in self.scaled_dets), self.rhs // g


@dataclass(frozen=True)
class Multiplicity:
    """Intersection-number-style value attached to (sequence, weight).

    exact is a Fraction when the value is pinned down, either because
    every coefficient is known or because the constraint system
    determines the weighted sum; otherwise None, with the constraints
    carried for the caller. Numeric estimates are attached when
    coefficient estimates are supplied.
    """

    exact: Fraction | None
    method: str | None
    constraints: tuple
    estimate: float | None = None
    abs_error: float | None = None

    @property
    def is_exact(self):
        return self.exact is not None


def _index_det(points, index):
    """Determinant of the n points at the positions in index."""
    return det([list(points[i]) for i in index])


def _alpha(points, index):
    """Coordinatewise sum of the points at the positions in index."""
    return tuple(map(sum, zip(*(points[i] for i in index))))


class _Weighted:
    """One weighted sequence: the checked weight, the scaled points,
    their Newton polyhedron, the essential indices (mapped to their
    witnessing facets, in lexicographic order) and the essential indices
    on each facet that carries one (in facet order)."""

    def __init__(self, seq, p):
        self.seq = seq
        self.p = check_weight(seq, p)
        self.pts = scaled_points(seq, self.p)
        self.poly = newton_polyhedron(self.pts, seq.dim)
        on = [(f, set(f.on_facet)) for f in self.poly.facets]
        members = {f: [] for f in self.poly.facets}
        self.essentials = {}
        for index in seq._nonsingular:
            wits = [f for f, points in on if points.issuperset(index)]
            if wits:
                self.essentials[index] = wits
                for f in wits:
                    members[f].append(index)
        self.members = {f: idx for f, idx in members.items() if idx}


def p_essential_indices(seq, p):
    """All n-subsets whose scaled points share a compact facet and whose
    unscaled exponent matrix is nonsingular, with the witnessing facets.
    The nonsingular subsets are computed once per sequence."""
    return list(_Weighted(seq, p).essentials.items())


def _sign(x):
    return 1 if x > 0 else -1


def _chart_coordinates(facet, pts):
    """Lattice coordinates along the facet of each on-facet point: the
    dot products with the rows completing the facet normal to a
    unimodular basis."""
    eta = unimodular_completion(facet.normal)[1:]
    return [tuple(dot(e, pts[k]) for e in eta) for k in facet.on_facet]


def _diagonalizable_chart(coords):
    """Whether the differences of n chart points in Z^(n-1) from some
    base point admit a lattice basis making them diagonal (needed for
    the exact coefficient-1 argument, n >= 3)."""
    for base, origin in enumerate(coords):
        cols = [vsub(c, origin) for k, c in enumerate(coords) if k != base]
        contents = [content(c) for c in cols]
        if 0 in contents:
            continue
        m = [[c[j] for c in cols] for j in range(len(cols))]
        prodg = 1
        for g in contents:
            prodg *= g
        if abs(det(m)) == prodg:
            return True
    return False


def residue_current(seq, p):
    """The full vector of current entries for the weighted sequence.

    Vanishing entries are tagged with why ("zero determinant" versus
    "not on a common facet"); surviving entries carry the sign of the
    unscaled determinant, the unscaled exponent alpha, and the
    coefficient status.
    """
    return _residue_current(_Weighted(seq, p))


def _residue_current(w):
    seq, n = w.seq, w.seq.dim
    entries = []
    for index in combinations(range(seq.m), n):
        alpha = _alpha(seq.exps, index)
        d = seq._nonsingular.get(index, 0)
        if d == 0:
            entries.append(CurrentEntry(index, True, "zero determinant", None, alpha, None, ()))
            continue
        wits = w.essentials.get(index)
        if not wits:
            entries.append(CurrentEntry(index, True, "not on a common facet", None, alpha, None, ()))
            continue
        unique_everywhere = all(len(w.members[f]) == 1 for f in wits)
        known = unique_everywhere and (
            n <= 2
            or all(
                len(f.on_facet) == n and _diagonalizable_chart(_chart_coordinates(f, w.pts))
                for f in wits
            )
        )
        if known:
            coeff = Coefficient(kind="known", value=1)
        else:
            coeff = Coefficient(kind="constrained", facet=wits[0].normal)
        entries.append(
            CurrentEntry(index, False, None, _sign(d), alpha, coeff, tuple(f.normal for f in wits))
        )
    return ResidueCurrent(seq=seq, weight=w.p, entries=tuple(entries), scaled_np=w.poly)


def _pure_power_ideal(dim, alpha):
    gens = [tuple(alpha[i] if j == i else 0 for j in range(dim)) for i in range(dim)]
    return MonomialIdeal.from_gens(dim, gens)


def annihilator(seq, p):
    """Intersection over essential indices of the pure-power ideals with
    exponents alpha = sum of the unscaled a^j."""
    return _annihilator(_Weighted(seq, p))


def _annihilator(w):
    if not w.essentials:
        raise ValueError("no essential multi-index; invalid input")
    out = None
    for index in w.essentials:
        piece = _pure_power_ideal(w.seq.dim, _alpha(w.seq.exps, index))
        out = piece if out is None else out.intersect(piece)
    return out


def coffe_constraints(seq, p):
    """One linear relation per compact facet of the scaled polyhedron.

    Coefficients are the scaled |det|; the right-hand side is the
    normalized facet volume. Unscaled determinants are attached for
    comparison (the readings coincide at weight one) together with the
    unscaled volume of the facet's vertex positions when that makes
    sense (two variables).
    """
    return _coffe_constraints(_Weighted(seq, p))


def _coffe_constraints(w):
    seq, pts = w.seq, w.pts
    relations = []
    for f, members in w.members.items():
        scaled = tuple(abs(_index_det(pts, i)) for i in members)
        unscaled = tuple(abs(seq._nonsingular[i]) for i in members)
        rhs = facet_det(w.poly, f)
        unscaled_rhs = None
        if seq.dim <= 2:
            vert_pts = []
            seen = set()
            for i in f.vertices:
                if pts[i] not in seen:
                    seen.add(pts[i])
                    vert_pts.append(seq.exps[i])
            if len(vert_pts) == seq.dim:
                unscaled_rhs = abs(det([list(v) for v in vert_pts]))
        differ = scaled != unscaled or (unscaled_rhs is not None and unscaled_rhs != rhs)
        relations.append(
            CoffeRelation(
                facet_normal=f.normal,
                facet_level=f.level,
                indices=tuple(members),
                scaled_dets=scaled,
                rhs=rhs,
                unscaled_dets=unscaled,
                unscaled_rhs=unscaled_rhs,
                readings_differ=differ,
            )
        )
    return relations


def _implied_total(relations, known_indices, unknowns, weights):
    """Exact value of sum(weights * C) when the relations pin it down.

    Treats every essential index as an unknown, adds C = 1 for the
    known ones, and checks whether the weight vector lies in the row
    space; if so any exact solution of the transposed system yields
    the value.
    """
    pos = {idx: i for i, idx in enumerate(unknowns)}
    rows = []
    rhs = []
    for rel in relations:
        row = [0] * len(unknowns)
        for idx, d in zip(rel.indices, rel.scaled_dets):
            row[pos[idx]] += d
        rows.append(row)
        rhs.append(rel.rhs)
    for idx in known_indices:
        row = [0] * len(unknowns)
        row[pos[idx]] = 1
        rows.append(row)
        rhs.append(1)
    if not rows:
        return None
    target = [weights[idx] for idx in unknowns]
    if rank(rows) != rank(rows + [target]):
        return None
    columns = [[row[i] for row in rows] for i in range(len(unknowns))]
    y = solve_exact(columns, target)
    if y is None:
        return None
    return sum(Fraction(a) * Fraction(b) for a, b in zip(y, rhs))


def multiplicity_ep(seq, p, numeric=None):
    """The weighted multiplicity: sum over essential indices of
    C_I * |det(A_I)| with unscaled determinants.

    Exact when every coefficient is known to be 1; otherwise, in two
    variables, the per-facet relations sometimes determine the sum
    anyway (the relations are only established for n <= 2, so in higher
    dimension an undetermined system is returned as-is). An optional
    mapping index -> numeric coefficient adds a float estimate.
    """
    w = _Weighted(seq, p)
    ess = _residue_current(w).nonvanishing()
    weights = {e.index: abs(seq._nonsingular[e.index]) for e in ess}
    constraints = tuple(_coffe_constraints(w))

    exact = None
    method = None
    if all(e.coeff.kind == "known" for e in ess):
        exact = Fraction(sum(weights.values()))
        method = "all-known"
    elif seq.dim <= 2 and constraints:
        known = [e.index for e in ess if e.coeff.kind == "known"]
        unknowns = [e.index for e in ess]
        implied = _implied_total(constraints, known, unknowns, weights)
        if implied is not None:
            exact = implied
            method = "constraint-implied"

    estimate = abs_error = None
    if numeric is not None:
        have_all = all(
            e.coeff.kind == "known" or e.index in numeric for e in ess
        )
        if have_all:
            estimate = 0.0
            abs_error = 0.0
            for e in ess:
                d = weights[e.index]
                if e.coeff.kind == "known":
                    estimate += d
                else:
                    estimate += d * numeric[e.index].estimate
                    abs_error += d * numeric[e.index].abs_error
    return Multiplicity(
        exact=exact, method=method, constraints=constraints,
        estimate=estimate, abs_error=abs_error,
    )


@dataclass(frozen=True)
class TheoremAReport:
    """The inclusion chain left <= annihilator <= generated ideal, with
    the strictness and complete-intersection bookkeeping."""

    left: MonomialIdeal
    ann: MonomialIdeal
    right: MonomialIdeal
    left_included: bool
    right_included: bool
    left_strict: bool
    right_equality: bool
    complete_intersection: bool
    equality_implies_ci: bool


def theorem_a_report(seq, p):
    """left = intersection over essential I of
    closure((scaled ideal)^n) : z^{sum (p_j - 1) a^j}, compared with the
    annihilator and the ideal generated by the sequence."""
    w = _Weighted(seq, p)
    n = seq.dim
    base = MonomialIdeal.from_gens(n, w.pts).power(n).integral_closure()
    left = None
    for index in w.essentials:
        shift = vsub(_alpha(w.pts, index), _alpha(seq.exps, index))
        piece = base.colon(shift)
        left = piece if left is None else left.intersect(piece)
    ann = _annihilator(w)
    right = seq.ideal
    right_equality = ann == right
    ci = len(right.gens) == n
    return TheoremAReport(
        left=left,
        ann=ann,
        right=right,
        left_included=left.issubset(ann),
        right_included=ann.issubset(right),
        left_strict=left.issubset(ann) and left != ann,
        right_equality=right_equality,
        complete_intersection=ci,
        equality_implies_ci=(not right_equality) or ci,
    )


def is_regular_sequence(seq):
    """m = n with each monomial a pure power of a distinct variable."""
    if seq.m != seq.dim:
        return False
    axes = set()
    for e in seq.exps:
        support = [i for i, a in enumerate(e) if a != 0]
        if len(support) != 1:
            return False
        axes.add(support[0])
    return len(axes) == seq.dim


def current_independent_of_p(seq):
    """The current is weight-independent exactly for regular sequences."""
    return is_regular_sequence(seq)


def ann_independent_of_p(seq):
    """The annihilator is weight-independent exactly when every
    nondegenerate n-subset already generates the full ideal."""
    full = seq.ideal
    for index in seq._nonsingular:
        sub = MonomialIdeal.from_gens(seq.dim, [seq.exps[i] for i in index])
        if sub != full:
            return False
    return True


def enumerate_annihilators(seq, p_max, force=False):
    """Deduplicated annihilators over all weights in {1..p_max}^m.

    Returns (ideal, weight) pairs sorted by generator list; the weight
    kept per ideal is the lexicographically smallest one. Refuses
    combinatorially large sweeps unless forced.
    """
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    total = p_max ** seq.m
    if total > 10_000_000 and not force:
        raise SweepRefusedError(
            f"{p_max}^{seq.m} = {total} weights; pass force=True to sweep anyway"
        )
    seen = {}
    for p in product(range(1, p_max + 1), repeat=seq.m):
        ideal = annihilator(seq, p)
        if ideal.gens not in seen:
            seen[ideal.gens] = (ideal, p)
    return sorted(seen.values(), key=lambda pair: pair[0].gens)


def proof_weights(seq, j):
    """A weight placing every scaled point on one common compact facet,
    so position j (any j) belongs to an essential index.

    Scaling each exponent by the product of the other exponents' total
    degrees equalizes all total degrees, so the scaled set lies on a
    single hyperplane, which is then a compact facet through all of it.
    """
    if not 0 <= j < seq.m:
        raise ValueError("index out of range")
    norms = [sum(e) for e in seq.exps]
    out = []
    for i in range(seq.m):
        q = 1
        for k, nk in enumerate(norms):
            if k != i:
                q *= nk
        out.append(q)
    return tuple(out)
