"""Exact integration of superforms over integral affine polytopes.

An (n, n)-form a is integrated over an n-dimensional polytope in intrinsic
coordinates given by a Z-basis B of the polytope's direction lattice.  The
top coefficient of the pullback is read off the chart's minors: in ambient
coordinates it is sum_{I,J} det(B_I) det(B_J) a_IJ, with B_I the rows I of
B, and this one polynomial is composed with the chart once, not each
component of a.  The sign (-1)^{n(n-1)/2} makes
d'x_1 ^ d''x_1 ^ ... ^ d'x_n ^ d''x_n positive, and the polynomial is
integrated over a placing triangulation with the closed-form
monomial-over-simplex formula.  Everything is over Q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from .lattice import coords_in_basis, determinant, dot, primitive_outward, vec_sub
from .polyhedra import _integral, faces, triangulate
from .superform import AffineMap, Polynomial, contract


def _intrinsic_map(sigma):
    """Affine map R^n -> R^r onto the hull of sigma: base point the
    lexicographically smallest vertex, columns a Z-basis of N_sigma."""
    basis = sigma.direction_lattice.basis
    n = len(basis)
    linear = [[basis[j][i] for j in range(n)] for i in range(sigma.ambient_dim)]
    return AffineMap(linear, sigma.base_point)


def _vertex_coords(sigma, point):
    """Coordinates of an ambient point in the intrinsic chart of sigma."""
    sol = coords_in_basis(sigma.direction_lattice.basis, vec_sub(point, sigma.base_point))
    if sol is None:
        raise ValueError("point does not lie in the affine hull")
    return tuple(sol)


def integrate_monomial_simplex(exponents):
    """Integral of t^a over the standard simplex {t_i >= 0, sum t_i <= 1}."""
    n = len(exponents)
    num = 1
    for a in exponents:
        num *= factorial(a)
    return Fraction(num, factorial(n + sum(exponents)))


def integrate_polynomial_simplex(poly, simplex_vertices):
    """Exact integral of a polynomial over a simplex in R^n."""
    v0 = simplex_vertices[0]
    n = poly.nvars
    edges = [vec_sub(v, v0) for v in simplex_vertices[1:]]
    if len(edges) != n:
        raise ValueError("simplex is not full-dimensional in the chart")
    linear = [[Fraction(edges[j][i]) for j in range(n)] for i in range(n)]
    det = determinant(linear)
    if det == 0:
        return Fraction(0)
    sub = poly.compose_affine(linear, v0, n)
    total = Fraction(0)
    for e, c in sub.terms.items():
        total += c * integrate_monomial_simplex(e)
    return abs(det) * total


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
    if n == 0:
        poly = a.coefficient((), ())
        return poly.evaluate(sigma.vertices[0])
    phi = _intrinsic_map(sigma)
    minor = cache(lambda rows: determinant([phi.linear[i] for i in rows]))
    g = Polynomial(sigma.ambient_dim)
    for (I, J), poly in a.components.items():
        g = g + poly.scale(minor(I) * minor(J))
    g = g.compose_affine(phi.linear, phi.translate, n)
    if g.is_zero:
        return Fraction(0)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    total = Fraction(0)
    coords = {v: _vertex_coords(sigma, v) for v in sigma.vertices}
    for simplex in triangulate(sigma):
        total += integrate_polynomial_simplex(g, [coords[v] for v in simplex])
    return sign * total


def outward_vector(sigma, rho):
    """Canonical primitive lattice vector in N_sigma generating
    N_sigma / N_rho and pointing out of sigma across its facet rho."""
    verts = [_integral(v) for v in rho.vertices]
    for u, c in sigma.halfspaces:
        tight = all(dot(u, x) * c.denominator == c.numerator * t for x, t in verts) \
            and all(dot(u, r) == 0 for r in rho.rays) \
            and all(dot(u, l) == 0 for l in rho.lineality)
        if tight:
            return primitive_outward(sigma.direction_lattice,
                                     rho.direction_lattice, u)
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
    total = Fraction(0)
    for rho in faces(sigma, 1):
        omega = outward_vector(sigma, rho)
        total += integrate_polytope(rho, contract(eta, [omega], [pos]))
    return total


def _check_weighted(wc):
    n = wc.dim
    for cell in wc.maximal_cells():
        if cell.dim != n:
            raise ValueError("weighted complex is not of pure dimension")
        if not cell.is_bounded:
            raise ValueError("truncate the complex before integrating")
    return n


def integrate_complex(wc, a):
    """Weighted integral sum_sigma m_sigma int_sigma a over the maximal cells."""
    if wc.is_zero:
        return Fraction(0)
    _check_weighted(wc)
    total = Fraction(0)
    for cell, m in wc.weighted_cells():
        if m:
            total += m * integrate_polytope(cell, a)
    return total


def integrate_complex_boundary(wc, eta):
    """Weighted boundary integral sum_sigma m_sigma int_{boundary sigma} eta."""
    if wc.is_zero:
        return Fraction(0)
    _check_weighted(wc)
    total = Fraction(0)
    for cell, m in wc.weighted_cells():
        if m:
            total += m * integrate_boundary(cell, eta)
    return total


def stokes_residual(domain, eta_prime, eta_second):
    """(int d'eta' - int_boundary eta', int d''eta'' - int_boundary eta'');
    both are exactly zero by Stokes' formula.  ``domain`` is a bounded
    polyhedron or a weighted complex of bounded cells."""
    from .superform import d_prime, d_second
    if hasattr(domain, "weighted_cells"):
        r1 = integrate_complex(domain, d_prime(eta_prime)) \
            - integrate_complex_boundary(domain, eta_prime)
        r2 = integrate_complex(domain, d_second(eta_second)) \
            - integrate_complex_boundary(domain, eta_second)
    else:
        r1 = integrate_polytope(domain, d_prime(eta_prime)) \
            - integrate_boundary(domain, eta_prime)
        r2 = integrate_polytope(domain, d_second(eta_second)) \
            - integrate_boundary(domain, eta_second)
    return (r1, r2)


def green_residual(sigma, alpha, beta):
    """int_sigma (alpha ^ d'd''beta - beta ^ d'd''alpha)
    - int_boundary (alpha ^ d''beta - beta ^ d''alpha); exactly zero."""
    from .superform import d_prime, d_second, is_symmetric, wedge
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
