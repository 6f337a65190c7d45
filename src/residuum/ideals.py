"""Monomial ideals in n variables, kept in canonical form.

An ideal is stored by its divisibility-minimal generators, sorted
lexicographically, so equality of ideals is equality of generator
lists. All operations re-minimalize eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .newton import _missing_pure_power, minimal_points, newton_polyhedron


def _divides(g, x):
    return all(a <= b for a, b in zip(g, x))


def minimalize(cands):
    """Divisibility-minimal antichain of the candidate exponents."""
    kept = []
    for c in sorted(set(cands), key=lambda v: (sum(v), v)):
        if not any(_divides(k, c) for k in kept):
            kept.append(c)
    return sorted(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    """dim-variable monomial ideal; gens is a lex-sorted antichain.

    Construct through from_gens, which canonicalizes arbitrary input.
    The unit ideal is representable (gens = the zero vector); the zero
    ideal is not.
    """

    dim: int
    gens: tuple

    @staticmethod
    def from_gens(dim, raw):
        raw = [tuple(g) for g in raw]
        if not raw:
            raise ValueError("an ideal needs at least one generator")
        for g in raw:
            if len(g) != dim:
                raise ValueError("generator of wrong dimension")
            if any(a < 0 or not isinstance(a, int) for a in g):
                raise ValueError("exponents must be nonnegative integers")
        return MonomialIdeal(dim=dim, gens=tuple(minimalize(raw)))

    @staticmethod
    def unit(dim):
        return MonomialIdeal(dim=dim, gens=((0,) * dim,))

    @property
    def is_unit(self):
        return self.gens == ((0,) * self.dim,)

    def contains(self, x):
        """Monomial membership: some generator divides x."""
        if len(x) != self.dim:
            raise ValueError("dimension mismatch")
        return any(_divides(g, x) for g in self.gens)

    def __contains__(self, x):
        return self.contains(x)

    def issubset(self, other):
        return all(other.contains(g) for g in self.gens)

    def is_cofinite(self):
        """True when some generator is a pure power of each variable."""
        return _missing_pure_power(self.gens, self.dim) is None

    def intersect(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        lcms = [
            tuple(max(a, b) for a, b in zip(g, h))
            for g in self.gens
            for h in other.gens
        ]
        return MonomialIdeal.from_gens(self.dim, lcms)

    def colon(self, m):
        """The colon ideal self : (z^m)."""
        m = tuple(m)
        if len(m) != self.dim:
            raise ValueError("dimension mismatch")
        shifted = [
            tuple(max(a, b) - b for a, b in zip(g, m)) for g in self.gens
        ]
        return MonomialIdeal.from_gens(self.dim, shifted)

    def multiply(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        sums = [
            tuple(a + b for a, b in zip(g, h))
            for g in self.gens
            for h in other.gens
        ]
        return MonomialIdeal.from_gens(self.dim, sums)

    def power(self, k):
        if k < 1:
            raise ValueError("power requires a positive exponent")
        out = self
        for _ in range(k - 1):
            out = out.multiply(self)
        return out

    def newton_polyhedron(self):
        return newton_polyhedron(self.gens, self.dim)

    def integral_closure(self):
        """Monomials with exponents in the Newton polyhedron.

        Minimal lattice points of the polyhedron; only supported for
        cofinite ideals (the polyhedron is described by compact facets
        then); newton_polyhedron raises NotCofiniteError otherwise.
        """
        pairs = [(f.normal, f.level) for f in self.newton_polyhedron().facets]
        return MonomialIdeal.from_gens(self.dim, minimal_points(pairs, self.dim))

