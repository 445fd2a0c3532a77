"""Exact integration of superforms over integral affine polytopes.

An (n, n)-form a is integrated over an n-dimensional polytope sigma
against the lattice-normalized measure of its affine hull, with no chart
and no composition.  For B the HNF basis of the direction lattice taken as
columns, the top coefficient of a pulled back along the chart y -> v + B y
is h(v + B y), where h = sum_{I,J} w_IJ a_IJ with w_IJ = det(B_I) det(B_J)
(B_I the rows I of B) is one ambient polynomial, one linear combination of
the components over a common denominator.  The minors det(B_I) and h
depend only on the direction lattice, so the cells of a weighted complex
are integrated one lattice class at a time, each class building its
minors and h once; a polytope is the one-cell case.  The chart composed
with a simplex of a placing triangulation is the simplex's own
parametrization t -> s_0 + sum_i t_i (s_i - s_0) by its ambient vertices,
and along it the moments of the standard simplex are read off the vertices
(Lasserre & Avrachenkov, "The multi-dimensional version of int_a^b x^p dx",
Amer. Math. Monthly 108, 2001; Baldoni, Berline, De Loera, Koeppe &
Vergne, "How to integrate a polynomial over a simplex", Math. Comp. 80,
2011):

    int x(t)^e dt = e! / (|e| + n)! [l^e] h_|e|(<l, s_0>, ..., <l, s_n>),

h_d the complete homogeneous symmetric polynomial.  The integral is a
linear functional of h that depends only on sigma, so each polytope keeps
its triangulation and one table of these moments, summed over its
simplices with their volume factors, and an integral is one dot product
of h's coefficients with the table.  The table holds the exponents asked
of the polytope so far and their divisors, the monomials the recursion
for h_d reads them from, and grows by the exponents it lacks.  The
recursion's plan (the divisors in order and the predecessors of each)
depends on the exponents alone, so the cells asked for one exponent set
in a call share it.  The simplex's chart volume factor is |det| of its
edges restricted to the pivot columns S of B, over the product of the
pivots, since B restricted to S is triangular.  The sign (-1)^{n(n-1)/2}
makes d'x_1 ^ d''x_1 ^ ... ^ d'x_n ^ d''x_n positive.  A simplex indexes
the polytope's points, scaled once to ints, and the integrals over the
cells of a call are summed on ints: only their sum is a Fraction.

The boundary integral is a sum over the facets rho of sigma of the
integral over rho of the contraction by the outward vector omega, and
that contraction is linear in the components too: for D the minors of
rho's basis, the contraction at d'' slot 2n-1 of an (n-1, n)-form eta has
the top coefficient sum_{I,J} w_IJ eta_IJ on rho with

    w_IJ = (-1)^n D(I) sum_k (-1)^k omega_{J_k} D(J without J_k),

k running over the 1-based places of J, and the contraction at d' slot n
of an (n, n-1)-form has w_IJ = D(J) sum_k (-1)^k omega_{I_k}
D(I without I_k), with no (-1)^n.  No contracted form is built.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial, lcm, prod
from operator import add

from .lattice import determinant
from .polyhedra import EmptyPolyhedron, Polyhedron, _facet, _facet_records, triangulate
from .superform import MAX_TERMS, _linear_combination, d_prime, d_second, is_symmetric, wedge


def _plan(exponents):
    """The recursion scaffold of ``_vertex_moments`` for the given
    exponents: (order, preds, factors), order their divisors sorted by
    degree, preds[i] the pairs (j, k) with order[k] = order[i] - e_j, so
    k < i, and factors[i] = order[i]!.  It depends on the exponents alone,
    so cells asked for one exponent set share it.  ValueError if the
    exponents count more than MAX_TERMS divisors with repeats."""
    count = sum(prod(a + 1 for a in e) for e in exponents)
    if count > MAX_TERMS:
        raise ValueError("moment table of %d monomials, more than %d" % (count, MAX_TERMS))
    divisors = set()
    for e in exponents:
        divisors.update(product(*(range(a + 1) for a in e)))
    order = sorted(divisors, key=sum)
    index = {e: i for i, e in enumerate(order)}
    preds = [[(j, index[e[:j] + (a - 1,) + e[j + 1:]]) for j, a in enumerate(e) if a]
             for e in order]
    return order, preds, [prod(map(factorial, e)) for e in order]


def _vertex_moments(simplices, plan):
    """The moments of weighted simplices with integer vertices for the
    divisors in the ``_plan`` of some exponents: for (w, [X_0, ..., X_n])
    in simplices, the map from each divisor e to the int
    sum_simplices w e! [l^e] h_|e|(<l, X_0>, ..., <l, X_n>), which is
    (|e| + n)! times the sum of w times the integral of x^e over the
    standard simplex along t -> X_0 + sum_i t_i (X_i - X_0).  The h_d of a
    simplex come from h_0 = w and h_d <- h_d + <l, X_v> h_{d-1}, for d
    rising, one vertex at a time, so the coefficient of l^e in the new h_d
    adds sum_j X_v[j] times that of l^(e - e_j): the recursion reads only
    the divisors of e."""
    order, preds, factors = plan
    sums = [0] * len(order)
    for w, points in simplices:
        h = [w] + [0] * (len(order) - 1)
        for x in points:
            for i, pairs in enumerate(preds):
                for j, k in pairs:
                    if x[j]:
                        h[i] += x[j] * h[k]
        sums = list(map(add, sums, h))
    return {e: c * f for e, c, f in zip(order, sums, factors)}


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


def _fraction_sum(ratios):
    """sum s / q over the pairs (s, q) of ints, q > 0, as one Fraction: each
    numerator is brought to the lcm of the denominators so far, which the
    cells of one scale share."""
    total, den = 0, 1
    for s, q in ratios:
        if q != den:
            common = lcm(den, q)
            total *= common // den
            s *= common // q
            den = common
        total += s
    return Fraction(total, den)


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
    moments = _vertex_moments([(1, points)], _plan(poly.num))
    return Fraction(*_dot(poly, moments, len(points) - 1, t))


def _moment_table(sigma, exponents, plans):
    """(t, q, M) for the bounded n-polyhedron sigma: M maps each of the
    given exponents, and each exponent asked of sigma before, to the
    ``_vertex_moments`` of the simplices of sigma's placing triangulation,
    each weighted by |det| of its edges at the pivot columns of the
    direction lattice's basis, on sigma's points (x, s) scaled once to
    the ints x t / s, t the least common multiple of their s; q = t^n
    times the product of the pivots.  The triangulation, its weights and M
    are kept on sigma, and M grows by the exponents it lacks, through the
    plan for them in ``plans``, which maps each exponent set planned in
    the caller to its ``_plan``."""
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
    missing = frozenset(e for e in exponents if e not in table)
    if missing:
        plan = plans.get(missing)
        if plan is None:
            plan = plans[missing] = _plan(missing)
        table.update(_vertex_moments(simplices, plan))
    return t, q, table


def _minors(sigma):
    """{I: det B_I} over the n-subsets I of the coordinates with det B_I
    nonzero, B the HNF basis of sigma's direction lattice as columns and
    B_I its rows I; kept on sigma."""
    if sigma._minors is None:
        basis = sigma.direction_lattice.basis
        minors = {}
        for I in combinations(range(sigma.ambient_dim), len(basis)):
            det = determinant([[b[i] for b in basis] for i in I])
            if det:
                minors[I] = det
        sigma._minors = minors
    return sigma._minors


def _ratios(cells, h, plans):
    """(m s, q) for each (sigma, m) in cells, s / q the integral over the
    bounded n-polyhedron sigma of the (n, n)-form with top coefficient h,
    the cells sharing one direction lattice, so that h fits them all; each
    cell reads its moment table through ``plans``.  Nothing is asked of a
    cell when h is zero."""
    if not h.num:
        return
    n = cells[0][0].dim
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    for sigma, m in cells:
        t, q, moments = _moment_table(sigma, h.num, plans)
        s, den = _dot(h, moments, n, t)
        yield sign * m * s, den * q


def _integrate_cells(cells, a):
    """sum_sigma m_sigma int_sigma a over the (sigma, m_sigma) in cells,
    bounded n-polyhedra in R^r for a of bidegree (n, n), each weighted by
    w_IJ = det B_I det B_J.  The minors and h = sum w_IJ a_IJ depend only
    on the direction lattice, so the cells are grouped by it and each class
    builds them once; the recursion plan depends only on the exponents
    asked, so cells asked for the same ones share it.  The sum stays on
    ints and becomes one Fraction at the end."""
    if not cells:
        return Fraction(0)
    n = cells[0][0].dim
    if a.bidegree != (n, n):
        raise ValueError("form bidegree %r does not match dim %d" % (a.bidegree, n))
    if a.ambient_dim != cells[0][0].ambient_dim:
        raise ValueError("ambient dimension mismatch")
    classes = {}
    for sigma, m in cells:
        classes.setdefault(sigma.direction_lattice, []).append((sigma, m))
    plans = {}
    ratios = []
    for members in classes.values():
        minors = _minors(members[0][0])
        h = _linear_combination(a.ambient_dim, [(minors[I] * minors[J], f)
                                                for (I, J), f in a.components.items()
                                                if I in minors and J in minors])
        ratios.extend(_ratios(members, h, plans))
    return _fraction_sum(ratios)


def _cells(domain):
    """The maximal cells (sigma, m_sigma) of a weighted complex, all
    bounded; a polyhedron is one cell of weight 1, and EMPTY none."""
    if isinstance(domain, (Polyhedron, EmptyPolyhedron)):
        if domain.is_empty:
            return []
        if not domain.is_bounded:
            raise ValueError("cannot integrate over an unbounded polyhedron")
        return [(domain, 1)]
    cells = domain.weighted_cells()
    if not all(cell.is_bounded for cell, _ in cells):
        raise ValueError("truncate the complex before integrating")
    return cells


def integrate_polytope(sigma, a):
    """Lattice-normalized integral of the (n, n)-form a over the bounded
    n-dimensional polyhedron sigma, weighted by w_IJ = det B_I det B_J:
    the one-cell case of ``integrate_complex``."""
    return _integrate_cells(_cells(sigma), a)


def outward_vector(sigma, rho):
    """Canonical primitive lattice vector in N_sigma generating
    N_sigma / N_rho and pointing out of sigma across its facet rho,
    looked up by rho's key among sigma's facet records, which sigma keeps
    once computed."""
    for key, _, omega in _facet_records(sigma):
        if key == rho.key():
            return omega
    raise ValueError("rho is not a facet of sigma")


def _slot_sum(omega, minors, K):
    """sum_k (-1)^k omega_{K_k} D(K without K_k) over the 1-based places k
    of K, D the given minors of a basis B: minus the determinant of the
    rows K of (omega | B), expanded along omega."""
    s = 0
    for k, j in enumerate(K):
        c = omega[j]
        if c:
            d = minors.get(K[:k] + K[k + 1:])
            if d:
                s += -c * d if k % 2 == 0 else c * d
    return s


def _boundary_of_cells(cells, eta):
    """sum_sigma m_sigma int_{boundary sigma} eta over the (sigma, m_sigma)
    in cells, bounded polyhedra, as one sum on ints over their facets."""
    plans = {}
    ratios = []
    for sigma, m in cells:
        n = sigma.dim
        if eta.bidegree not in ((n - 1, n), (n, n - 1)):
            raise ValueError("boundary integrand must have bidegree (n-1,n) or (n,n-1)")
        if eta.ambient_dim != sigma.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        # the d' slot n of an (n, n-1)-form, else the d'' slot 2n-1
        front = eta.p == n
        sign = 1 if front or n % 2 == 0 else -1
        for i, (_, _, omega) in enumerate(_facet_records(sigma)):
            rho = _facet(sigma, i)
            minors = _minors(rho)
            pairs = []
            for (I, J), f in eta.components.items():
                if front:
                    I, J = J, I
                d = minors.get(I)
                if d:
                    w = d * _slot_sum(omega, minors, J)
                    if w:
                        pairs.append((sign * w, f))
            ratios.extend(_ratios([(rho, m)], _linear_combination(rho.ambient_dim, pairs),
                                  plans))
    return _fraction_sum(ratios)


def integrate_boundary(sigma, eta):
    """Boundary integral: sum over the facets rho of sigma of the integral
    of the contraction of eta by the outward vector omega of rho's facet
    record, inserted at d'' slot 2n-1 of an (n-1, n)-form and at d' slot n
    of an (n, n-1)-form.  For D the minors of rho, the contraction of an
    (n-1, n)-form has top coefficient sum_IJ w_IJ eta_IJ on rho with
    w_IJ = (-1)^n D(I) sum_k (-1)^k omega_{J_k} D(J without J_k), k the
    1-based places of J; for an (n, n-1)-form, w_IJ = D(J) sum_k (-1)^k
    omega_{I_k} D(I without I_k), with no (-1)^n.  The slot is chosen by
    bidegree: at n = 1 both slots are 1.  The one-cell case of
    ``integrate_complex_boundary``."""
    return _boundary_of_cells(_cells(sigma), eta)


def integrate_complex(domain, a):
    """sum_sigma m_sigma int_sigma a over a weighted complex of bounded
    cells, as one sum grouped by direction lattice; a polyhedron is one
    cell of weight 1."""
    return _integrate_cells(_cells(domain), a)


def integrate_complex_boundary(domain, eta):
    """sum_sigma m_sigma int_{boundary sigma} eta, as one sum over the
    facets of the cells; a polyhedron is one cell."""
    return _boundary_of_cells(_cells(domain), eta)


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
