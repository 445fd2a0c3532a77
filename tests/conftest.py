"""Shared helpers for the test suite: standard geometry and random data."""

import random
from fractions import Fraction
from itertools import combinations, product

from tropform.polyhedra import from_halfspaces
from tropform.superform import Polynomial, Superform, basis_form, zero_form


def box(r, lo=0, hi=1):
    """The box [lo, hi]^r as a polyhedron in R^r."""
    hs = []
    for i in range(r):
        u = [0] * r
        u[i] = 1
        hs.append((tuple(u), Fraction(hi)))
        u = [0] * r
        u[i] = -1
        hs.append((tuple(u), Fraction(-lo)))
    return from_halfspaces(hs, r)


def simplex(r):
    """Standard simplex {x_i >= 0, sum x_i <= 1} in R^r."""
    hs = [(tuple(1 for _ in range(r)), Fraction(1))]
    for i in range(r):
        u = [0] * r
        u[i] = -1
        hs.append((tuple(u), Fraction(0)))
    return from_halfspaces(hs, r)


def segment(a, b, r=None):
    """Segment from point a to point b (rational coordinate tuples)."""
    from tropform.polyhedra import from_generators
    return from_generators([a, b], [], [], r if r is not None else len(a))


def dense_terms(rng, r, d):
    """Terms of a dense tropical polynomial: every exponent m of total degree
    at most d, with coefficient |m|^2 plus a seeded multiple of 1/4."""
    return [(m, Fraction(sum(x * x for x in m)) + Fraction(rng.randint(0, 3), 4))
            for m in product(range(d + 1), repeat=r) if sum(m) <= d]


def rand_poly(rng, r, deg=3, terms=3, coeff=6):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, deg) for _ in range(r))
        out[e] = out.get(e, Fraction(0)) + Fraction(rng.randint(-coeff, coeff),
                                                    rng.randint(1, 3))
    return Polynomial(r, out)


def rand_form(rng, r, p, q, deg=3):
    f = zero_form(r, p, q)
    for I in combinations(range(r), p):
        for J in combinations(range(r), q):
            f = f + basis_form(r, I, J, rand_poly(rng, r, deg))
    return f


def rand_symmetric(rng, r, p, deg=2):
    """Random swap-fixed (p, p)-form."""
    f = zero_form(r, p, p)
    idx = list(combinations(range(r), p))
    for a in range(len(idx)):
        f = f + basis_form(r, idx[a], idx[a], rand_poly(rng, r, deg))
        for b in range(a + 1, len(idx)):
            g = rand_poly(rng, r, deg)
            f = f + basis_form(r, idx[a], idx[b], g) \
                  + basis_form(r, idx[b], idx[a], g)
    return f


def interleaved_volume_form(r):
    """d'x_1 ^ d''x_1 ^ ... ^ d'x_r ^ d''x_r, built by repeated wedging."""
    from tropform.superform import wedge
    form = None
    for i in range(r):
        t = basis_form(r, (i,), (i,))
        form = t if form is None else wedge(form, t)
    return form
