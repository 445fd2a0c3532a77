"""Tropical hypersurfaces of min-plus polynomials.

The corner locus of min_m (<m, x> + c_m) is the codimension-1 complex where
the minimum is attained at least twice.  It is read off the hypograph
Gamma = {(x, t) : t <= <m, x> + c_m for all m} in R^{r+1}, built with one
double description: each facet of Gamma is the graph of one monomial over
the region where it attains the minimum, and each cell of the locus is the
projection of a ridge of Gamma, which lies in exactly two facets.  The
ridges are dual to the edges of the regular subdivision of the Newton
polytope induced by lifting each exponent by its coefficient (Maclagan &
Sturmfels, "Introduction to Tropical Geometry", section 3.1); the cell
weight is the lattice length of that edge.  The resulting weighted complex
is balanced, which makes this a generator of nontrivial tropical cycles for
the rest of the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .cycle import WeightedComplex
from .lattice import (
    _hull,
    integer_row,
    primitive,
    reduce_echelon,
    vec_sub,
)
from .polyhedra import (
    _assemble,
    _bits,
    _maximal,
    _rational_order,
    _reduce_mod_rows,
    _restrict,
    from_halfspaces,
)


@dataclass(frozen=True)
class TropicalPolynomial:
    """Finite collection of terms (exponent in Z^r, coefficient in Q) with a
    min or max convention."""

    ambient_dim: int
    terms: tuple  # tuple of (exponent tuple, Fraction)
    convention: str = "min"

    def __post_init__(self):
        if self.convention not in ("min", "max"):
            raise ValueError("convention must be 'min' or 'max'")
        if len(self.terms) < 2:
            raise ValueError("need at least two terms")
        seen = set()
        for m, _ in self.terms:
            if len(m) != self.ambient_dim:
                raise ValueError("exponent length does not match ambient dimension")
            if m in seen:
                raise ValueError("duplicate exponent %r" % (m,))
            seen.add(m)


def tropical_polynomial(terms, ambient_dim, convention="min"):
    return TropicalPolynomial(
        ambient_dim,
        tuple((tuple(integer_row(m)), Fraction(c)) for m, c in terms),
        convention,
    )


def corner_locus(tp):
    """Weighted complex where the min (or max) is attained at least twice.

    The max of <m, x> + c_m is minus the min of <-m, x> - c_m, so both
    conventions build the hypograph of a min.  Its rows are
    <-m, x> + t <= c_m; they are primitive and Gamma is full-dimensional,
    so the stored facet halfspaces are the rows of the monomials that
    attain the minimum somewhere.  A ridge is an inclusion-maximal
    nonempty meet of two facet masks.  On the ridge of the facets of m_i
    and m_j, the other facets' rows read <m_i - m_k, x> <= c_k - c_i, so
    they are the candidate facets of the cell, with their masks on the
    ridge as incidence; vertices and rays drop t and are reduced modulo the
    projected lineality of Gamma, which is nonzero when the exponents span
    less than R^r.  The weight is the lattice length of m_i - m_j."""
    r = tp.ambient_dim
    sign = -1 if tp.convention == "max" else 1
    gamma = from_halfspaces([(tuple(-sign * x for x in m) + (1,), sign * c)
                             for m, c in tp.terms], r + 1)
    # each generator of Gamma is reduced once here, not once per ridge as
    # through _from_incidence, which gives the same loci 1.1-1.3x slower
    lin = _hull([l[:-1] for l in gamma.lineality], r)[1].basis
    verts = [_reduce_mod_rows(v[:r], v[-1], lin) for v in gamma.points]
    rays = [primitive(reduce_echelon(d[:-1], lin)[1]) for d in gamma.rays]
    gens, vertex_bits = verts + rays, (1 << len(verts)) - 1
    # a ridge lists its vertices in rational order, its rays sorted
    rank = list(map(_rational_order(verts), verts)) + rays
    masks = gamma.facet_masks
    meets = {}
    for i, j in combinations(range(len(masks)), 2):
        meet = masks[i] & masks[j]
        if meet & vertex_bits:
            meets.setdefault(meet, (i, j))
    weighted = []
    for ridge in _maximal(meets):
        i, j = meets[ridge]
        vi = sorted(_bits(ridge & vertex_bits), key=rank.__getitem__)
        ri = sorted(_bits(ridge & ~vertex_bits), key=rank.__getitem__)
        ui, ci = gamma.halfspaces[i]
        # only facets through a vertex of the ridge can cut out a facet of
        # it; the facets of m_i and m_j hold all of it and are not proper
        near = [(h, m) for h, m in zip(gamma.halfspaces, masks) if m & ridge & vertex_bits]
        candidates = [(vec_sub(u[:-1], ui[:-1]), c - ci) for (u, c), _ in near]
        cell = _assemble(r, candidates, [_restrict(m, vi + ri) for _, m in near],
                         [gens[k] for k in vi], [gens[k] for k in ri], lin)
        weighted.append((cell, gcd(*vec_sub(gamma.halfspaces[j][0], ui))))
    return WeightedComplex(weighted)
