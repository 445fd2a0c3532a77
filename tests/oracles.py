"""Reference computations that only the tests use: each is a textbook
formula the library's own code is checked against, and none is called from
src/."""

from fractions import Fraction
from math import factorial

from tropform.lattice import determinant, gauss_jordan, vec_sub


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


def simplex_volume(simplex):
    """Euclidean volume of a full-dimensional simplex (vertex tuple)."""
    v0 = simplex[0]
    rows = [list(vec_sub(v, v0)) for v in simplex[1:]]
    n = len(rows)
    return Fraction(abs(determinant(rows)), factorial(n))


def integrate_monomial_simplex(exponents):
    """Integral of t^a over the standard simplex {t_i >= 0, sum t_i <= 1}."""
    n = len(exponents)
    num = 1
    for a in exponents:
        num *= factorial(a)
    return Fraction(num, factorial(n + sum(exponents)))
