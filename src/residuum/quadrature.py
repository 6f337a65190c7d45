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

used as the module's self-check. The half line is split at r = 1 and
the tail mapped back to (0, 1] by r -> 1/u, which stays inside the
same integrand family (c -> cmax - c, s -> E*cmax - s, with E the
denominator exponent, equal to the ambient dimension).

Quadrature is an adaptive Gauss-Legendre pair (10/21 nodes) with an
explicit cell budget; cell contributions are reduced with math.fsum,
so the result does not depend on evaluation order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from functools import lru_cache
from math import fsum, pi

import numpy.polynomial.legendre as _legendre

from .currents import (
    _chart_coordinates,
    _coffe_constraints,
    _diagonalizable_chart,
    _Weighted,
    check_weight,
)
from .lattice import det, dot, unimodular_complement


@lru_cache(maxsize=None)
def _gauss_rule(k):
    nodes, weights = _legendre.leggauss(k)
    return tuple(float(x) for x in nodes), tuple(float(w) for w in weights)


def _cell_estimate(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    lo_nodes, lo_weights = _gauss_rule(10)
    hi_nodes, hi_weights = _gauss_rule(21)
    lo = half * fsum(w * f(mid + half * x) for x, w in zip(lo_nodes, lo_weights))
    hi = half * fsum(w * f(mid + half * x) for x, w in zip(hi_nodes, hi_weights))
    return hi, abs(hi - lo)


def integrate_adaptive(f, a, b, target=1e-12, max_cells=512):
    """(value, error estimate, cells used) for int_a^b f.

    Splits the worst cell (largest pair discrepancy) until the summed
    error estimate is below target or the cell budget is exhausted.
    Deterministic: ties in the worst-cell choice break on the left
    endpoint and the final reduction is an fsum over cells.
    """
    hi, err = _cell_estimate(f, a, b)
    heap = [(-err, a, b, hi)]
    total_err = err
    cells = 1
    while total_err > target and cells < max_cells:
        neg, ca, cb, _ = heapq.heappop(heap)
        worst = -neg
        if worst == 0.0:
            heapq.heappush(heap, (neg, ca, cb, _))
            break
        mid = 0.5 * (ca + cb)
        h1, e1 = _cell_estimate(f, ca, mid)
        h2, e2 = _cell_estimate(f, mid, cb)
        heapq.heappush(heap, (-e1, ca, mid, h1))
        heapq.heappush(heap, (-e2, mid, cb, h2))
        total_err += e1 + e2 - worst
        cells += 1
    ordered = sorted(heap, key=lambda c: c[1])
    value = fsum(c[3] for c in ordered)
    err = fsum(-c[0] for c in ordered)
    return value, err, cells


@dataclass(frozen=True)
class _Radial:
    """r^(2s-1) / (sum_k r^(2 c_k))^exponent on (0, 1]."""

    s: int
    cs: tuple
    exponent: int

    def __call__(self, r):
        den = 0.0
        for c in self.cs:
            den += r ** (2 * c)
        return r ** (2 * self.s - 1) / den ** self.exponent

    def tail(self):
        cmax = max(self.cs)
        return _Radial(
            s=self.exponent * cmax - self.s,
            cs=tuple(cmax - c for c in self.cs),
            exponent=self.exponent,
        )


def _half_line(radial, target, max_cells):
    budget = max(max_cells // 2, 4)
    v1, e1, n1 = integrate_adaptive(radial, 0.0, 1.0, target / 2, budget)
    tail = radial.tail()
    v2, e2, n2 = integrate_adaptive(tail, 0.0, 1.0, target / 2, budget)
    return v1 + v2, e1 + e2, n1 + n2


def radial_power_integral(N, p, target=1e-13, max_cells=512):
    """Numeric value of int_{R^2} |s|^(2(N-1))/(1+|s|^(2N))^p dA.

    The exact value is pi / ((p-1) N); the pair is the module's
    correctness anchor.
    """
    if N < 1 or p < 2:
        raise ValueError("need N >= 1 and p >= 2 for convergence")
    value, err, cells = _half_line(_Radial(s=N, cs=(0, N), exponent=p), target, max_cells)
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


def chart_exponents(facet, pts, dim=2):
    """Chart exponents of a 2-variable facet from the scaled points.

    The transverse coordinate is the unimodular complement of the
    facet normal; dotting it with the point differences measures
    lattice positions along the segment.
    """
    if dim != 2:
        raise ValueError("chart exponents are implemented for two variables")
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
    value, err, cells = _half_line(_Radial(s=s, cs=ce.c, exponent=2), inner_target, max_cells)
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


@dataclass(frozen=True)
class _Radial2:
    """r1^(2 s1 - 1) r2^(2 s2 - 1) / (sum_k r1^(2 c1k) r2^(2 c2k))^exponent."""

    s: tuple
    cols: tuple
    exponent: int

    def __call__(self, r1, r2):
        den = 0.0
        for c1, c2 in self.cols:
            den += r1 ** (2 * c1) * r2 ** (2 * c2)
        return (
            r1 ** (2 * self.s[0] - 1)
            * r2 ** (2 * self.s[1] - 1)
            / den ** self.exponent
        )

    def tail(self, axis):
        cmax = max(c[axis] for c in self.cols)
        cols = tuple(
            tuple(cmax - c[j] if j == axis else c[j] for j in range(2))
            for c in self.cols
        )
        s = tuple(
            self.exponent * cmax - self.s[j] if j == axis else self.s[j]
            for j in range(2)
        )
        return _Radial2(s=s, cols=cols, exponent=self.exponent)


def _cell_estimate_2d(f, box):
    a1, b1, a2, b2 = box
    m1, h1 = 0.5 * (a1 + b1), 0.5 * (b1 - a1)
    m2, h2 = 0.5 * (a2 + b2), 0.5 * (b2 - a2)
    out = []
    for k in (6, 12):
        nodes, weights = _gauss_rule(k)
        acc = fsum(
            w1 * w2 * f(m1 + h1 * x1, m2 + h2 * x2)
            for x1, w1 in zip(nodes, weights)
            for x2, w2 in zip(nodes, weights)
        )
        out.append(h1 * h2 * acc)
    return out[1], abs(out[1] - out[0])


def _integrate_2d(f, target=1e-8, max_cells=160):
    box = (0.0, 1.0, 0.0, 1.0)
    hi, err = _cell_estimate_2d(f, box)
    heap = [(-err, box, hi)]
    total = err
    cells = 1
    while total > target and cells < max_cells:
        neg, box, _ = heapq.heappop(heap)
        worst = -neg
        if worst == 0.0:
            heapq.heappush(heap, (neg, box, _))
            break
        a1, b1, a2, b2 = box
        if b1 - a1 >= b2 - a2:
            mid = 0.5 * (a1 + b1)
            children = [(a1, mid, a2, b2), (mid, b1, a2, b2)]
        else:
            mid = 0.5 * (a2 + b2)
            children = [(a1, b1, a2, mid), (a1, b1, mid, b2)]
        for child in children:
            h, e = _cell_estimate_2d(f, child)
            heapq.heappush(heap, (-e, child, h))
            total += e
        total -= worst
        cells += 1
    ordered = sorted(heap, key=lambda c: c[1])
    value = fsum(c[2] for c in ordered)
    err = fsum(-c[0] for c in ordered)
    return value, err, cells


def _quadrant_sum(radial2, target, max_cells):
    budget = max(max_cells // 4, 8)
    pieces = [
        radial2,
        radial2.tail(0),
        radial2.tail(1),
        radial2.tail(0).tail(1),
    ]
    value = err = 0.0
    cells = 0
    for piece in pieces:
        v, e, c = _integrate_2d(piece, target / 4, budget)
        value += v
        err += e
        cells += c
    return value, err, cells


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
        radial2 = _Radial2(s=s, cols=tuple(cols), exponent=3)
        value, err, cells = _quadrant_sum(radial2, target=1e-7, max_cells=max_cells)
        out[index] = NumericCoefficient(
            index=index, estimate=8 * dd * value, abs_error=8 * dd * err, cells=cells
        )
    return out
