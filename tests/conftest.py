"""Shared helpers for the test suite: standard geometry and random data."""

import random
from fractions import Fraction
from itertools import combinations, product

from tropform.cycle import Current, current_eval
from tropform.polyhedra import faces, from_halfspaces, intersect
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


def cube(center, half):
    """The box with the given center and half-width, as a polyhedron."""
    r = len(center)
    hs = []
    for i, x in enumerate(center):
        u = [0] * r
        u[i] = 1
        hs.append((tuple(u), x + half))
        u[i] = -1
        hs.append((tuple(u), half - x))
    return from_halfspaces(hs, r)


def witness_faces(wc):
    """Codimension-1 faces rho of wc, sorted by key, near which the Dirac
    current of wc is not d'-closed, found by integration alone.

    The box around the relative interior point of rho is halved from
    half-width 1/2 until it meets no other codimension-1 face.  With
    b = prod (x_i - lo_i)(hi_i - x_i) on that box, rho is a witness iff
    (d' delta_wc)(b^2 d'x_I (x) d''x_J) != 0 for some I of size n - 1 and
    J of size n: b^2 vanishes with its first derivatives on the boundary of
    the box, so by Stokes the value is the integral over rho of the test
    form contracted with the weighted outward sum at rho, which is nonzero
    for some (I, J) iff that sum leaves the span of N_rho.  Faces that meet
    only in faces of lower dimension are required."""
    if wc.dim < 1:
        return []
    n, r = wc.dim, wc.maximal_cells()[0].ambient_dim
    found = {}
    for sigma, m in wc.weighted_cells():
        if m:
            found.update((rho.key(), rho) for rho in faces(sigma, 1))
    current = Current.dirac(wc).apply("d_prime")
    witnesses = []
    for key in sorted(found):
        x = found[key].rel_interior_point()
        others = [rho for k, rho in found.items() if k != key]
        assert not any(rho.contains(x) for rho in others), "faces overlap"
        half = Fraction(1, 2)
        window = cube(x, half)
        while not all(intersect(window, rho).is_empty for rho in others):
            half /= 2
            window = cube(x, half)
        b = Polynomial.constant(r, 1)
        for i in range(r):
            t = Polynomial.variable(r, i)
            b = b * (t - Polynomial.constant(r, x[i] - half)) \
                  * (Polynomial.constant(r, x[i] + half) - t)
        if any(current_eval(current, basis_form(r, I, J, b * b), window) != 0
               for I in combinations(range(r), n - 1)
               for J in combinations(range(r), n)):
            witnesses.append(found[key])
    return witnesses


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
