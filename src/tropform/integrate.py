"""Exact integration of superforms over integral affine polytopes.

An (n, n)-form a is integrated over an n-dimensional polytope sigma
against the lattice-normalized measure of its affine hull, with no chart
and no composition.  For B the HNF basis of the direction lattice taken as
columns, the top coefficient of a pulled back along the chart y -> v + B y
is h(v + B y), where h = sum_{I,J} det(B_I) det(B_J) a_IJ (B_I the rows I of
B) is one ambient polynomial, summed as in ``pullback``.  The chart
composed with a simplex of a placing triangulation is the simplex's own
parametrization t -> s_0 + sum_i t_i (s_i - s_0) by its ambient vertices,
and along it the moments of the standard simplex are read off the
vertices (Lasserre & Avrachenkov, "The multi-dimensional version of
int_a^b x^p dx", Amer. Math. Monthly 108, 2001; Baldoni, Berline,
De Loera, Koeppe & Vergne, "How to integrate a polynomial over a simplex",
Math. Comp. 80, 2011):

    int x(t)^e dt = e! / (|e| + n)! [l^e] h_|e|(<l, s_0>, ..., <l, s_n>),

h_d the complete homogeneous symmetric polynomial.  The integral is a
linear functional of h that depends only on sigma, so each polytope keeps
its triangulation and one table of these moments, summed over its
simplices with their volume factors, and an integral is one dot product
of h's coefficients with the table.  The table holds the exponents asked
of the polytope so far and their divisors, the monomials the recursion
for h_d reads them from, and grows by the exponents it lacks.  The
simplex's chart volume factor is |det| of its edges restricted to the
pivot columns S of B, over the product of the pivots, since B restricted
to S is triangular.  The sign (-1)^{n(n-1)/2} makes
d'x_1 ^ d''x_1 ^ ... ^ d'x_n ^ d''x_n positive.  A simplex indexes the
polytope's points, scaled once to ints; only the integral is a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial, lcm, prod
from operator import add

from .lattice import determinant
from .polyhedra import _facet, _facet_records, triangulate
from .superform import (
    MAX_TERMS,
    _minor_sums,
    contract,
    d_prime,
    d_second,
    is_symmetric,
    wedge,
)


def _vertex_moments(simplices, exponents):
    """The moments of weighted simplices with integer vertices for the
    exponents dividing one of the given ones: for (w, [X_0, ..., X_n]) in
    simplices, the map from each such exponent e to the int
    sum_simplices w e! [l^e] h_|e|(<l, X_0>, ..., <l, X_n>), which is
    (|e| + n)! times the sum of w times the integral of x^e over the
    standard simplex along t -> X_0 + sum_i t_i (X_i - X_0).  The h_d of a
    simplex come from h_0 = w and h_d <- h_d + <l, X_v> h_{d-1}, for d
    rising, one vertex at a time, so the coefficient of l^e in the new h_d
    adds sum_j X_v[j] times that of l^(e - e_j): the recursion reads only
    the divisors of e, and runs on those of the given exponents alone.
    ValueError if they count more than MAX_TERMS with repeats."""
    count = sum(prod(a + 1 for a in e) for e in exponents)
    if count > MAX_TERMS:
        raise ValueError("moment table of %d monomials, more than %d" % (count, MAX_TERMS))
    divisors = set()
    for e in exponents:
        divisors.update(product(*(range(a + 1) for a in e)))
    order = sorted(divisors, key=sum)
    index = {e: i for i, e in enumerate(order)}
    # preds[i]: the (j, k) with order[k] = order[i] - e_j, so k < i by degree
    preds = [[(j, index[e[:j] + (a - 1,) + e[j + 1:]]) for j, a in enumerate(e) if a]
             for e in order]
    sums = [0] * len(order)
    for w, points in simplices:
        h = [w] + [0] * (len(order) - 1)
        for x in points:
            for i, pairs in enumerate(preds):
                for j, k in pairs:
                    if x[j]:
                        h[i] += x[j] * h[k]
        sums = list(map(add, sums, h))
    return {e: c * prod(map(factorial, e)) for e, c in zip(order, sums)}


def _dot(poly, moments, n, t):
    """(s, q) with s / q = sum_e num_e M[e] / (den (|e| + n)! t^|e|) for
    poly = sum_e num_e x^e / den and M a map from poly's exponents to the
    moments ``_vertex_moments`` gives of vertices scaled by t: the
    integral of poly over the table's simplices, with x = X / t.  It is
    s = sum_e num_e M[e] (D + n)! / (|e| + n)! t^(D - |e|) over
    q = den (D + n)! t^D, D poly's degree, all on ints."""
    degree = max(map(sum, poly.num))
    top = factorial(degree + n)
    weights = [top // factorial(d + n) * t ** (degree - d) for d in range(degree + 1)]
    s = sum(c * moments[e] * weights[sum(e)] for e, c in poly.num.items())
    return s, poly.den * top * t ** degree


def integrate_polynomial_simplex(poly, simplex_vertices):
    """Integral over the standard n-simplex of poly composed with the
    parametrization t -> u_0 + sum_i t_i (u_i - u_0) of the simplex with
    vertices u_0, ..., u_n in the space of poly's variables.  Against a
    measure on the simplex's hull in which the simplex has volume V, the
    integral of poly over the simplex is n! V times this.  It is the dot
    product of poly's coefficients with the simplex's vertex moments, on
    the vertices scaled to integers; nothing is composed.  ValueError if
    there is no vertex or a vertex does not have poly.nvars coordinates."""
    if not simplex_vertices or any(len(v) != poly.nvars for v in simplex_vertices):
        raise ValueError("simplex vertices must be given, each of %d coordinates" % poly.nvars)
    if not poly.num:
        return Fraction(0)
    t = lcm(*(x.denominator for v in simplex_vertices for x in v))
    points = [tuple(x.numerator * (t // x.denominator) for x in v) for v in simplex_vertices]
    moments = _vertex_moments([(1, points)], poly.num)
    return Fraction(*_dot(poly, moments, len(points) - 1, t))


def _moment_table(sigma, exponents):
    """(t, q, M) for the bounded n-polyhedron sigma: M maps each of the
    given exponents, and each exponent asked of sigma before, to the
    ``_vertex_moments`` of the simplices of sigma's placing triangulation,
    each weighted by |det| of its edges at the pivot columns of the
    direction lattice's basis, on sigma's points (x, s) scaled once to
    the ints x t / s, t the least common multiple of their s; q = t^n
    times the product of the pivots.  The triangulation, its weights and M
    are kept on sigma, and M grows by the exponents it lacks."""
    if sigma._moments is None:
        basis = sigma.direction_lattice.basis
        pivots = [next(i for i, x in enumerate(b) if x) for b in basis]
        t = lcm(*(v[-1] for v in sigma.points))
        xs = [tuple(a * (t // v[-1]) for a in v[:-1]) for v in sigma.points]
        simplices = []
        for simplex in triangulate(sigma):
            x0 = xs[simplex[0]]
            det = determinant([[xs[i][p] - x0[p] for p in pivots] for i in simplex[1:]])
            simplices.append((abs(det), [xs[i] for i in simplex]))
        q = t ** len(pivots) * prod(b[p] for b, p in zip(basis, pivots))
        sigma._moments = (t, q, simplices, {})
    t, q, simplices, table = sigma._moments
    missing = [e for e in exponents if e not in table]
    if missing:
        table.update(_vertex_moments(simplices, missing))
    return t, q, table


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
    top = tuple(range(n))
    h = _minor_sums(list(zip(*sigma.direction_lattice.basis)), a, [top], [top]).get((top, top))
    if h is None:
        return Fraction(0)
    t, q, moments = _moment_table(sigma, h.num)
    s, den = _dot(h, moments, n, t)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return Fraction(sign * s, den * q)


def outward_vector(sigma, rho):
    """Canonical primitive lattice vector in N_sigma generating
    N_sigma / N_rho and pointing out of sigma across its facet rho,
    looked up by rho's key among sigma's facet records, which sigma keeps
    once computed."""
    for key, _, omega in _facet_records(sigma):
        if key == rho.key():
            return omega
    raise ValueError("rho is not a facet of sigma")


def integrate_boundary(sigma, eta):
    """Boundary integral: sum over codimension-1 faces of the integral of the
    contraction by the outward vector, inserted at slot 2n-1 for (n-1, n)
    forms and at slot n for (n, n-1) forms; each facet is taken with the
    outward vector of the facet record at its position."""
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
    return sum((integrate_polytope(_facet(sigma, i), contract(eta, [omega], [pos]))
                for i, (_, _, omega) in enumerate(_facet_records(sigma))), Fraction(0))


def _weighted_sum(domain, integral, form):
    """sum_sigma m_sigma integral(sigma, form) over the maximal cells of a
    weighted complex, all bounded; a polyhedron, EMPTY too, is one cell."""
    if not hasattr(domain, "weighted_cells"):
        return integral(domain, form)
    cells = domain.weighted_cells()
    if not all(cell.is_bounded for cell, _ in cells):
        raise ValueError("truncate the complex before integrating")
    return sum((m * integral(cell, form) for cell, m in cells), Fraction(0))


def integrate_complex(domain, a):
    """sum_sigma m_sigma int_sigma a; a polyhedron is one cell of weight 1."""
    return _weighted_sum(domain, integrate_polytope, a)


def integrate_complex_boundary(domain, eta):
    """sum_sigma m_sigma int_{boundary sigma} eta; a polyhedron is one cell."""
    return _weighted_sum(domain, integrate_boundary, eta)


def stokes_residual(domain, eta_prime, eta_second):
    """(int d'eta' - int_boundary eta', int d''eta'' - int_boundary eta'')
    over a bounded polyhedron or a weighted complex of bounded cells, as in
    ``integrate_complex``; both are exactly zero by Stokes' formula."""
    return tuple(integrate_complex(domain, d(eta)) - integrate_complex_boundary(domain, eta)
                 for d, eta in ((d_prime, eta_prime), (d_second, eta_second)))


def green_residual(sigma, alpha, beta):
    """int_sigma (alpha ^ d'd''beta - beta ^ d'd''alpha)
    - int_boundary (alpha ^ d''beta - beta ^ d''alpha); exactly zero."""
    if not is_symmetric(alpha) or not is_symmetric(beta):
        raise ValueError("Green's formula needs symmetric forms")
    n = sigma.dim
    if alpha.p + beta.p != n - 1:
        raise ValueError("bidegrees must satisfy p + q = n - 1")
    ds_alpha, ds_beta = d_second(alpha), d_second(beta)
    interior = wedge(alpha, d_prime(ds_beta)) - wedge(beta, d_prime(ds_alpha))
    boundary = wedge(alpha, ds_beta) - wedge(beta, ds_alpha)
    return integrate_polytope(sigma, interior) - integrate_boundary(sigma, boundary)
