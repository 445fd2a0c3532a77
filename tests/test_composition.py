"""Polynomial composition and polytope integration against the earlier
polynomial-arithmetic implementations, kept here as exact oracles."""

from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from hypothesis import assume, given, settings, strategies as st

from conftest import box, rand_form

from tropform.integrate import (
    _intrinsic_map,
    _vertex_coords,
    integrate_polynomial_simplex,
    integrate_polytope,
)
from tropform.polyhedra import all_faces, faces, from_halfspaces, triangulate
from tropform.superform import Polynomial, Superform, pullback


def _oracle_compose_affine(self, linear_rows, translate, new_nvars):
    """Composition by Polynomial arithmetic: every power of every substituted
    variable is a Polynomial, and each term is multiplied out and added."""
    subs = []
    for i in range(self.nvars):
        t = {}
        for j in range(new_nvars):
            a = Fraction(linear_rows[i][j])
            if a:
                e = [0] * new_nvars
                e[j] = 1
                t[tuple(e)] = a
        tc = Fraction(translate[i])
        if tc:
            e0 = (0,) * new_nvars
            t[e0] = t.get(e0, Fraction(0)) + tc
        subs.append(Polynomial(new_nvars, t))
    powers = [{0: Polynomial.constant(new_nvars, 1)} for _ in range(self.nvars)]

    def power(i, k):
        cached = powers[i]
        if k not in cached:
            cached[k] = power(i, k - 1) * subs[i]
        return cached[k]

    out = Polynomial(new_nvars)
    for e, c in self.terms.items():
        term = Polynomial.constant(new_nvars, c)
        for i, k in enumerate(e):
            if k:
                term = term * power(i, k)
        out = out + term
    return out


@contextmanager
def _oracle_composition():
    kernel = Polynomial.compose_affine
    Polynomial.compose_affine = _oracle_compose_affine
    try:
        yield
    finally:
        Polynomial.compose_affine = kernel


def _oracle_integrate_polytope(sigma, a):
    """Every component of a pulled back to the chart, then the top
    coefficient integrated over each simplex, all by the oracle
    composition."""
    n = sigma.dim
    if n == 0:
        return a.coefficient((), ()).evaluate(sigma.vertices[0])
    with _oracle_composition():
        top = tuple(range(n))
        g = pullback(_intrinsic_map(sigma), a).coefficient(top, top)
        if g.is_zero:
            return Fraction(0)
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        total = Fraction(0)
        for simplex in triangulate(sigma):
            coords = [_vertex_coords(sigma, v) for v in simplex]
            total += integrate_polynomial_simplex(g, coords)
        return sign * total


ORACLE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                           database=None)
_RATIONAL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _substitutions(draw):
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    exponent = st.tuples(*[st.integers(0, 6)] * n).filter(lambda e: sum(e) <= 6)
    terms = draw(st.dictionaries(exponent, _RATIONAL, max_size=8))
    entry = st.one_of(st.integers(-3, 3), _RATIONAL)
    row = st.one_of(st.just([0] * m), st.lists(entry, min_size=m, max_size=m))
    rows = draw(st.lists(row, min_size=n, max_size=n))
    shift = draw(st.lists(st.one_of(st.just(Fraction(0)), _RATIONAL),
                          min_size=n, max_size=n))
    return Polynomial(n, terms), rows, shift, m


@ORACLE_SETTINGS
@given(_substitutions())
def test_compose_affine_matches_polynomial_arithmetic(case):
    poly, rows, shift, m = case
    got = poly.compose_affine(rows, shift, m)
    want = _oracle_compose_affine(poly, rows, shift, m)
    assert got.nvars == want.nvars == m
    assert got.terms == want.terms
    assert all(type(c) is Fraction for c in got.terms.values())


@st.composite
def _polytopes(draw):
    """A box with rational corners cut by up to two rational halfspaces."""
    r = draw(st.integers(2, 3))
    bound = st.builds(Fraction, st.integers(1, 5), st.integers(1, 3))
    hs = []
    for i in range(r):
        u = [0] * r
        u[i] = 1
        hs.append((tuple(u), draw(bound)))
        u[i] = -1
        hs.append((tuple(u), draw(bound)))
    normal = st.tuples(*[st.integers(-2, 2)] * r).filter(any)
    hs += draw(st.lists(st.tuples(normal, _RATIONAL), max_size=2))
    p = from_halfspaces(hs, r)
    assume(not p.is_empty)
    return p


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_polytopes(), st.randoms(use_true_random=False))
def test_integrate_polytope_matches_pullback_per_simplex(p, rng):
    for sigma in all_faces(p):
        k = sigma.dim
        a = rand_form(rng, p.ambient_dim, k, k, deg=3)
        assert integrate_polytope(sigma, a) == _oracle_integrate_polytope(sigma, a)


def test_integrate_polytope_builds_only_what_it_reads(monkeypatch):
    facet = faces(box(3), 1)[0]
    pairs = list(combinations(range(3), 2))
    positive = Polynomial(3, {(0, 0, 0): 1, (2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    a = Superform(3, 2, 2, {(I, J): positive for I in pairs for J in pairs})
    calls = []
    compose = Polynomial.compose_affine
    monkeypatch.setattr(Polynomial, "compose_affine",
                        lambda self, *args: calls.append(args) or compose(self, *args))
    assert integrate_polytope(facet, a) != 0
    assert len(calls) == 1 + len(triangulate(facet))


def test_integrate_polytope_solves_each_vertex_once(monkeypatch):
    from tropform import integrate
    cube = box(3)
    a = Superform(3, 3, 3, {((0, 1, 2), (0, 1, 2)): Polynomial(3, {(1, 0, 0): 1})})
    calls = []
    solve = integrate.coords_in_basis
    monkeypatch.setattr(integrate, "coords_in_basis",
                        lambda *args: calls.append(args) or solve(*args))
    assert integrate_polytope(cube, a) != 0
    assert len(triangulate(cube)) == 6
    assert len(calls) == len(cube.vertices) == 8
