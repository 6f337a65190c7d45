"""Numeric estimation of undetermined current coefficients.

All floating point in the package is confined to this module; results
cross back into the exact layers only as (estimate, error bound)
pairs.

In two variables a compact facet of the scaled polyhedron is a
segment. Writing c_k for the lattice coordinate of the k-th facet
point along the segment (normalized so min c = 0), the coefficient of
a surviving pair with coordinates c_a, c_b reduces to a radial
integral over the chart transverse coordinate:

    C = 2 |c_a - c_b| * int_0^inf r^(2(c_a + c_b) - 1)
                        / (sum_k r^(2 c_k))^2 dr.

For a two-point facet (c = (0, N)) the substitution u = r^(2N) gives
C = 1 exactly, which pins the normalization; the same substitution in
area form yields the reference identity

    int_{R^2} |s|^(2(N-1)) / (1 + |s|^(2N))^p dA = pi / ((p - 1) N),

used as the module's self-check. On the experimental three-variable
path the integral runs over the quadrant (0, inf)^2 instead, with two
chart coordinates per facet point.

Every such integral is over an orthant (0, inf)^d, d = 1 or 2. Each
axis is split at r = 1 and the tail mapped back to (0, 1] by
r -> 1/u, which stays inside the same integrand family (on that axis
c -> cmax - c and s -> E*cmax - s, with E the denominator exponent),
so one reflection per axis turns the orthant into 2^d unit boxes.

A box, a segment or a square, is integrated by one adaptive
integrator. Each cell is estimated with a Gauss-Legendre pair (10/21
nodes on a segment, the 6/12 product rule on a square), and the cell
with the largest pair discrepancy is halved across its longest side
until the summed discrepancy is below the target or an explicit cell
budget runs out. Cell contributions are reduced with math.fsum, so
the result does not depend on evaluation order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product, starmap
from math import fsum, pi, prod
from operator import mul

import numpy.polynomial.legendre as _legendre

from .currents import (
    _chart_coordinates,
    _coffe_constraints,
    _diagonalizable_chart,
    _Weighted,
    check_weight,
)
from .lattice import det, dot, unimodular_complement


# Gauss-Legendre orders (lower, higher) of the cell rule, by box dimension.
_RULE_ORDERS = {1: (10, 21), 2: (6, 12)}


@lru_cache(maxsize=None)
def _gauss_rule(k):
    nodes, weights = _legendre.leggauss(k)
    return tuple(float(x) for x in nodes), tuple(float(w) for w in weights)


@lru_cache(maxsize=None)
def _product_weights(k, d):
    return tuple(prod(ws) for ws in product(_gauss_rule(k)[1], repeat=d))


def _cell_estimate(f, box):
    """(higher-order value, pair discrepancy) of f over one box."""
    mids = [0.5 * (a + b) for a, b in zip(box[::2], box[1::2])]
    halves = [0.5 * (b - a) for a, b in zip(box[::2], box[1::2])]
    volume = prod(halves)
    estimates = []
    for k in _RULE_ORDERS[len(mids)]:
        nodes = _gauss_rule(k)[0]
        points = product(*[[m + h * x for x in nodes] for m, h in zip(mids, halves)])
        weights = _product_weights(k, len(mids))
        estimates.append(volume * fsum(map(mul, weights, starmap(f, points))))
    lo, hi = estimates
    return hi, abs(hi - lo)


def integrate_adaptive(f, a, b, target=1e-12, max_cells=512):
    """(value, error estimate, cells used) for the integral of f over
    the box from corner a to corner b.

    Floats a, b mean one variable; otherwise a and b are tuples, one
    entry per axis, and f takes one argument per axis. Splits the
    worst cell (largest pair discrepancy) in half across its longest
    side, the first such axis on a tie, until the summed error
    estimate is below target or the cell budget is exhausted.
    Deterministic: ties in the worst-cell choice break on the cell's
    bounds (a1, b1, a2, b2, ...) in that order, and the final
    reduction is an fsum over cells.
    """
    if isinstance(a, (int, float)):
        a, b = (a,), (b,)
    box = tuple(x for bounds in zip(a, b) for x in bounds)
    hi, err = _cell_estimate(f, box)
    heap = [(-err, box, hi)]
    total_err = err
    cells = 1
    while total_err > target and cells < max_cells:
        neg, box, hi = heapq.heappop(heap)
        worst = -neg
        if worst == 0.0:
            heapq.heappush(heap, (neg, box, hi))
            break
        widths = [b - a for a, b in zip(box[::2], box[1::2])]
        i = 2 * widths.index(max(widths))
        mid = 0.5 * (box[i] + box[i + 1])
        left = box[:i] + (box[i], mid) + box[i + 2:]
        right = box[:i] + (mid, box[i + 1]) + box[i + 2:]
        h1, e1 = _cell_estimate(f, left)
        h2, e2 = _cell_estimate(f, right)
        heapq.heappush(heap, (-e1, left, h1))
        heapq.heappush(heap, (-e2, right, h2))
        total_err += e1 + e2 - worst
        cells += 1
    value = fsum(c[2] for c in heap)
    err = fsum(-c[0] for c in heap)
    return value, err, cells


@dataclass(frozen=True)
class _Radial:
    """prod_j r_j^(2 s_j - 1) / (sum_k prod_j r_j^(2 cols[k][j]))^exponent
    on the unit box, one variable r_j per entry of s and one column
    per facet point. Called with one variable; _Radial2 takes two."""

    s: tuple
    cols: tuple
    exponent: int

    def __call__(self, r):
        den = 0.0
        for (c,) in self.cols:
            den += r ** (2 * c)
        return r ** (2 * self.s[0] - 1) / den ** self.exponent

    def tail(self, axis):
        """The part beyond 1 on one axis, mapped back by r -> 1/u."""
        cmax = max(c[axis] for c in self.cols)
        cols = tuple(c[:axis] + (cmax - c[axis],) + c[axis + 1:] for c in self.cols)
        s = self.s[:axis] + (self.exponent * cmax - self.s[axis],) + self.s[axis + 1:]
        return replace(self, s=s, cols=cols)


class _Radial2(_Radial):
    def __call__(self, r1, r2):
        den = 0.0
        for c1, c2 in self.cols:
            den += r1 ** (2 * c1) * r2 ** (2 * c2)
        return (
            r1 ** (2 * self.s[0] - 1)
            * r2 ** (2 * self.s[1] - 1)
            / den ** self.exponent
        )


def _orthant_sum(radial, target, max_cells):
    """(value, error, cells) over (0, inf)^d: 2^d unit-box pieces, one
    reflection per axis, sharing the target and the cell budget."""
    d = len(radial.s)
    pieces = [radial]
    for axis in range(d):
        pieces += [piece.tail(axis) for piece in pieces]
    budget = max(max_cells // 2**d, 4 * d)
    value = err = 0.0
    cells = 0
    for piece in pieces:
        v, e, c = integrate_adaptive(piece, (0.0,) * d, (1.0,) * d, target / 2**d, budget)
        value += v
        err += e
        cells += c
    return value, err, cells


def radial_power_integral(N, p, target=1e-13, max_cells=512):
    """Numeric value of int_{R^2} |s|^(2(N-1))/(1+|s|^(2N))^p dA.

    The exact value is pi / ((p-1) N); the pair is the module's
    correctness anchor.
    """
    if N < 1 or p < 2:
        raise ValueError("need N >= 1 and p >= 2 for convergence")
    radial = _Radial(s=(N,), cols=((0,), (N,)), exponent=p)
    value, err, cells = _orthant_sum(radial, target, max_cells)
    return 2 * pi * value, 2 * pi * err, cells


def closed_form_power_integral(N, p):
    return pi / ((p - 1) * N)


@dataclass(frozen=True)
class ChartExponents:
    """Lattice coordinates of a facet's scaled points along the facet,
    normalized so the minimum is 0; one entry per on-facet position."""

    facet_normal: tuple
    c: tuple
    origin_index: int


@dataclass(frozen=True)
class NumericCoefficient:
    index: tuple
    estimate: float
    abs_error: float
    cells: int


def chart_exponents(facet, pts):
    """Chart exponents of a 2-variable facet from the scaled points.

    The transverse coordinate is the unimodular complement of the
    facet normal; dotting it with the point differences measures
    lattice positions along the segment.
    """
    for i in facet.on_facet:
        if dot(facet.normal, pts[i]) != facet.level:
            raise ValueError("point not on the facet")
    eta = unimodular_complement(facet.normal)
    raw = [dot(eta, pts[i]) for i in facet.on_facet]
    base = min(raw)
    c = tuple(x - base for x in raw)
    return ChartExponents(
        facet_normal=facet.normal, c=c, origin_index=c.index(0)
    )


def coefficient_integral(ce, pair, target=1e-10, max_cells=2048):
    """Numeric coefficient for the pair of facet-local slots.

    pair indexes into ce.c. The two chart exponents must differ (the
    pair is nonsingular exactly then).
    """
    k1, k2 = pair
    ca, cb = ce.c[k1], ce.c[k2]
    if ca == cb:
        raise ValueError("coincident chart exponents: degenerate pair")
    s = ca + cb
    scale = 2 * abs(ca - cb)
    inner_target = target / scale
    radial = _Radial(s=(s,), cols=tuple((c,) for c in ce.c), exponent=2)
    value, err, cells = _orthant_sum(radial, inner_target, max_cells)
    return NumericCoefficient(
        index=(k1, k2), estimate=scale * value, abs_error=scale * err, cells=cells
    )


def numeric_coefficients(seq, p, target=1e-10, max_cells=2048):
    """Numeric coefficient estimates for every essential index (n = 2).

    Returns a mapping from the multi-index (original positions) to its
    NumericCoefficient.
    """
    if seq.dim != 2:
        raise ValueError("numeric coefficients are implemented for two variables")
    return _numeric_coefficients(_Weighted(seq, p), target, max_cells)


def _numeric_coefficients(w, target, max_cells):
    charts = {f: chart_exponents(f, w.pts) for f in w.members}
    out = {}
    for index, wits in w.essentials.items():
        facet = wits[0]
        slots = tuple(facet.on_facet.index(i) for i in index)
        nc = coefficient_integral(charts[facet], slots, target=target, max_cells=max_cells)
        out[index] = replace(nc, index=index)
    return out


@dataclass(frozen=True)
class FacetResidual:
    relation: object
    estimates: tuple
    residual: float
    error_bound: float


@dataclass(frozen=True)
class CoffeValidation:
    dim: int
    weight: tuple
    facets: tuple

    @property
    def max_residual(self):
        return max((f.residual for f in self.facets), default=0.0)


def validate_coffe_numeric(seq, p, experimental_n3=False, target=1e-10, max_cells=2048):
    """Residuals of the per-facet coefficient relations, numerically.

    Exact statement for two variables; for three variables this runs
    as an experiment behind a flag with tensorized quadrature and a
    looser tolerance, and the report only states residuals.
    """
    p = check_weight(seq, p)
    if seq.dim == 3 and not experimental_n3:
        raise ValueError(
            "three-variable validation is experimental; pass experimental_n3=True"
        )
    if seq.dim not in (2, 3):
        raise ValueError("validation supports two (exact) or three (experimental) variables")
    w = _Weighted(seq, p)
    if seq.dim == 2:
        coeffs = _numeric_coefficients(w, target, max_cells)
    else:
        coeffs = _numeric_coefficients_3d(w, max_cells)

    facets = []
    for rel in _coffe_constraints(w):
        ests = tuple((idx, coeffs[idx]) for idx in rel.indices)
        total = fsum(d * nc.estimate for d, (_, nc) in zip(rel.scaled_dets, ests))
        bound = fsum(d * nc.abs_error for d, (_, nc) in zip(rel.scaled_dets, ests))
        facets.append(
            FacetResidual(
                relation=rel,
                estimates=ests,
                residual=abs(total - rel.rhs),
                error_bound=bound,
            )
        )
    return CoffeValidation(dim=seq.dim, weight=p, facets=tuple(facets))


# --- experimental three-variable path ---------------------------------


def _chart_columns_3d(facet, pts):
    cols = _chart_coordinates(facet, pts)
    mins = [min(c[j] for c in cols) for j in range(2)]
    return [tuple(c[j] - mins[j] for j in range(2)) for c in cols]


def _numeric_coefficients_3d(w, max_cells):
    charts = {f: _chart_columns_3d(f, w.pts) for f in w.members}
    out = {}
    for index, wits in w.essentials.items():
        facet = wits[0]
        cols = charts[facet]
        slots = tuple(facet.on_facet.index(i) for i in index)
        if not _diagonalizable_chart([cols[k] for k in slots]):
            raise ValueError(
                f"facet chart for index {index} is not diagonalizable; refused"
            )
        s = tuple(sum(cols[k][j] for k in slots) for j in range(2))
        dmat = [[cols[k][j] for k in slots] for j in range(2)] + [[1, 1, 1]]
        dd = abs(det(dmat))
        radial = _Radial2(s=s, cols=tuple(cols), exponent=3)
        value, err, cells = _orthant_sum(radial, target=1e-7, max_cells=max_cells)
        out[index] = NumericCoefficient(
            index=index, estimate=8 * dd * value, abs_error=8 * dd * err, cells=cells
        )
    return out
