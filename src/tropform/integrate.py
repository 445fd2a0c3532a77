"""Exact integration of superforms over integral affine polytopes.

An (n, n)-form a is integrated over an n-dimensional polytope sigma
against the lattice-normalized measure of its affine hull, with no chart.
For B the HNF basis of the direction lattice taken as columns, the top
coefficient of a pulled back along the chart y -> v + B y is h(v + B y),
where h = sum_{I,J} det(B_I) det(B_J) a_IJ (B_I the rows I of B) is one
ambient polynomial, summed as in ``pullback``.  The chart composed with a
simplex of a placing triangulation is the simplex's own parametrization
t -> u_0 + sum_i t_i (u_i - u_0) by its ambient vertices, so each simplex
composes h once, on integers, and integrates it over the standard simplex
with integer monomial weights (Baldoni, Berline, De Loera, Koeppe &
Vergne, "How to integrate a polynomial over a simplex", Math. Comp. 80,
2011).  The simplex's chart volume factor is |det| of its edges restricted
to the pivot columns S of B, over the product of the pivots, since B
restricted to S is triangular.  The sign (-1)^{n(n-1)/2} makes
d'x_1 ^ d''x_1 ^ ... ^ d'x_n ^ d''x_n positive.  Everything is over Q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial, lcm, prod

from .lattice import determinant
from .polyhedra import _facet_records, faces, triangulate
from .superform import (
    _compose_packed,
    _minor_sums,
    contract,
    d_prime,
    d_second,
    is_symmetric,
    wedge,
)


def integrate_monomial_simplex(exponents):
    """Integral of t^a over the standard simplex {t_i >= 0, sum t_i <= 1}."""
    n = len(exponents)
    num = 1
    for a in exponents:
        num *= factorial(a)
    return Fraction(num, factorial(n + sum(exponents)))


@cache
def _simplex_weights(n, base):
    """Packed exponent e of n variables with |e| <= D = base - 1 ->
    e! (n + D)! / (n + |e|)!, the integral of t^e over the standard
    n-simplex times (n + D)!, an integer.  Callers only read the table."""
    top = factorial(n + base - 1)
    return {sum(x * base ** j for j, x in enumerate(e)): int(integrate_monomial_simplex(e) * top)
            for e in product(range(base), repeat=n) if sum(e) < base}


def integrate_polynomial_simplex(poly, simplex_vertices):
    """Integral over the standard n-simplex of poly composed with the
    parametrization t -> u_0 + sum_i t_i (u_i - u_0) of the simplex with
    vertices u_0, ..., u_n in the space of poly's variables.  Against a
    measure on the simplex's hull in which the simplex has volume V, the
    integral of poly over the simplex is n! V times this.  The composition
    is on integers, sum_k a_k t^k / den, and the result is the one Fraction
    sum_k a_k w_k / (den (n + D)!), w the weights of ``_simplex_weights``
    and D the degree of poly."""
    u0 = simplex_vertices[0]
    n = len(simplex_vertices) - 1
    rows = [[v[i] - u0[i] for v in simplex_vertices[1:]] for i in range(poly.nvars)]
    out, den, base = _compose_packed(poly, rows, u0, n)
    weights = _simplex_weights(n, base)
    return Fraction(sum(a * weights[k] for k, a in out.items()),
                    den * factorial(n + base - 1))


def integrate_polytope(sigma, a):
    """Lattice-normalized integral of the (n, n)-form a over the bounded
    n-dimensional polyhedron sigma."""
    if sigma.is_empty:
        return Fraction(0)
    if not sigma.is_bounded:
        raise ValueError("cannot integrate over an unbounded polyhedron")
    n = sigma.dim
    if a.bidegree != (n, n):
        raise ValueError("form bidegree %r does not match dim %d" % (a.bidegree, n))
    if a.ambient_dim != sigma.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    basis = sigma.direction_lattice.basis
    top = tuple(range(n))
    h = _minor_sums(list(zip(*basis)), a, [top], [top]).get((top, top))
    if h is None:
        return Fraction(0)
    # the vertices at the pivot columns of the basis, as integers over t
    pivots = [next(i for i, x in enumerate(b) if x) for b in basis]
    t = lcm(*(v[p].denominator for v in sigma.vertices for p in pivots))
    scaled = {v: [v[p].numerator * (t // v[p].denominator) for p in pivots]
              for v in sigma.vertices}
    total = Fraction(0)
    for simplex in triangulate(sigma):
        x0 = scaled[simplex[0]]
        det = determinant([[x - y for x, y in zip(scaled[v], x0)] for v in simplex[1:]])
        total += abs(det) * integrate_polynomial_simplex(h, simplex)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * total / (t ** n * prod(b[p] for b, p in zip(basis, pivots)))


def outward_vector(sigma, rho):
    """Canonical primitive lattice vector in N_sigma generating
    N_sigma / N_rho and pointing out of sigma across its facet rho,
    looked up by rho's key among sigma's facet records.  Each call reads
    all of them: a caller that needs several reads the records once."""
    for key, _, omega in _facet_records(sigma):
        if key == rho.key():
            return omega
    raise ValueError("rho is not a facet of sigma")


def integrate_boundary(sigma, eta):
    """Boundary integral: sum over codimension-1 faces of the integral of the
    contraction by the outward vector, inserted at slot 2n-1 for (n-1, n)
    forms and at slot n for (n, n-1) forms."""
    if sigma.is_empty:
        return Fraction(0)
    if not sigma.is_bounded:
        raise ValueError("cannot integrate over an unbounded polyhedron")
    n = sigma.dim
    if eta.bidegree == (n - 1, n):
        pos = 2 * n - 1
    elif eta.bidegree == (n, n - 1):
        pos = n
    else:
        raise ValueError("boundary integrand must have bidegree (n-1,n) or (n,n-1)")
    outward = {key: omega for key, _, omega in _facet_records(sigma)}
    total = Fraction(0)
    for rho in faces(sigma, 1):
        total += integrate_polytope(rho, contract(eta, [outward[rho.key()]], [pos]))
    return total


def _weighted_sum(wc, integral, form):
    """sum_sigma m_sigma integral(sigma, form) over the maximal cells of wc,
    which must all be bounded."""
    cells = wc.weighted_cells()
    if not all(cell.is_bounded for cell, _ in cells):
        raise ValueError("truncate the complex before integrating")
    return sum((m * integral(cell, form) for cell, m in cells if m), Fraction(0))


def integrate_complex(wc, a):
    """Weighted integral sum_sigma m_sigma int_sigma a over the maximal cells."""
    return _weighted_sum(wc, integrate_polytope, a)


def integrate_complex_boundary(wc, eta):
    """Weighted boundary integral sum_sigma m_sigma int_{boundary sigma} eta."""
    return _weighted_sum(wc, integrate_boundary, eta)


def stokes_residual(domain, eta_prime, eta_second):
    """(int d'eta' - int_boundary eta', int d''eta'' - int_boundary eta'');
    both are exactly zero by Stokes' formula.  ``domain`` is a bounded
    polyhedron or a weighted complex of bounded cells."""
    if hasattr(domain, "weighted_cells"):
        whole, boundary = integrate_complex, integrate_complex_boundary
    else:
        whole, boundary = integrate_polytope, integrate_boundary
    return tuple(whole(domain, d(eta)) - boundary(domain, eta)
                 for d, eta in ((d_prime, eta_prime), (d_second, eta_second)))


def green_residual(sigma, alpha, beta):
    """int_sigma (alpha ^ d'd''beta - beta ^ d'd''alpha)
    - int_boundary (alpha ^ d''beta - beta ^ d''alpha); exactly zero."""
    if not is_symmetric(alpha) or not is_symmetric(beta):
        raise ValueError("Green's formula needs symmetric forms")
    n = sigma.dim
    if alpha.p + beta.p != n - 1:
        raise ValueError("bidegrees must satisfy p + q = n - 1")
    dd_beta = d_prime(d_second(beta))
    dd_alpha = d_prime(d_second(alpha))
    interior = wedge(alpha, dd_beta) - wedge(beta, dd_alpha)
    boundary = wedge(alpha, d_second(beta)) - wedge(beta, d_second(alpha))
    return integrate_polytope(sigma, interior) - integrate_boundary(sigma, boundary)
