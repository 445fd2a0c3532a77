"""Reference computations that only the tests use: each is a textbook
formula the library's own code is checked against, and none is called from
src/."""

from fractions import Fraction
from itertools import combinations
from math import factorial, lcm

from tropform.lattice import determinant, dot, gauss_jordan, solve_exact, vec_sub
from tropform.polyhedra import triangulate


def rational_kernel(rows, n):
    """Basis of {x in Q^n : rows . x = 0}, one vector per free column."""
    reduced, pivots = gauss_jordan(rows, n)
    kern = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        kern.append(v)
    return kern


def rational_determinant(rows):
    """Determinant of a square rational matrix: each row cleared of its
    denominators, and the integer determinant divided by the factors."""
    cleared, scale = [], 1
    for row in rows:
        t = lcm(*(Fraction(x).denominator for x in row))
        cleared.append([x * t for x in row])
        scale *= t
    return Fraction(determinant(cleared), scale)


def vertex_simplices(p):
    """The simplices of ``triangulate(p)`` as tuples of p's vertices."""
    verts = p.vertices
    return [tuple(verts[i] for i in s) for s in triangulate(p)]


def simplex_volume(simplex):
    """Euclidean volume of a full-dimensional simplex (vertex tuple)."""
    v0 = simplex[0]
    rows = [list(vec_sub(v, v0)) for v in simplex[1:]]
    n = len(rows)
    return abs(rational_determinant(rows)) / factorial(n)


def integrate_monomial_simplex(exponents):
    """Integral of t^a over the standard simplex {t_i >= 0, sum t_i <= 1}."""
    n = len(exponents)
    num = 1
    for a in exponents:
        num *= factorial(a)
    return Fraction(num, factorial(n + sum(exponents)))


def brute_force_vertices(halfspaces, r):
    """Vertices of {x in R^r : <u, x> <= c for (u, c) in halfspaces}, by
    solving every r of the rows as equations and keeping each unique
    solution that satisfies every row: for a polyhedron with no lines these
    are exactly its vertices, and an infeasible system has none."""
    out = set()
    for chosen in combinations(halfspaces, r):
        rows = [list(u) for u, _ in chosen]
        if rational_determinant(rows) == 0:
            continue
        x = solve_exact(rows, [Fraction(c) for _, c in chosen])
        if all(dot(u, x) <= c for u, c in halfspaces):
            out.add(tuple(x))
    return out


def equal_up_to_refinement(fine, coarse):
    """True when the weighted complex fine refines coarse within each affine
    hull and both represent one cycle: at the relative interior point of
    every cell of fine, the weights of the cells of coarse in its hull that
    contain the point sum to its weight, and every cell of coarse contains
    the relative interior point of some cell of fine in its hull."""
    coarse_cells = coarse.weighted_cells()
    points = []
    for p, m in fine.weighted_cells():
        x = p.rel_interior_point()
        points.append((p.equalities, x))
        if sum(w for q, w in coarse_cells if q.equalities == p.equalities and q.contains(x)) != m:
            return False
    return all(any(e == q.equalities and q.contains(x) for e, x in points)
               for q, _ in coarse_cells)


def shuffle_sign(a, b):
    """Sign of merging two disjoint increasing tuples into sorted order,
    counting each transposition of odd generators as -1; 0 if they overlap."""
    if set(a) & set(b):
        return 0
    inversions = 0
    for x in a:
        inversions += sum(1 for y in b if y < x)
    return -1 if inversions % 2 else 1
