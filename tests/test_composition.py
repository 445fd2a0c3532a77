"""Polynomial composition, wedge, d'', contraction, pullback and polytope
integration against their earlier implementations, kept here as exact
oracles: composition by polynomial arithmetic, wedge adding one signed
product per pair of components, d'' and the d''-slot
contraction written out on the d'' block, pullback composing every
component before summing, polytope integration through the intrinsic
chart, each vertex solved into chart coordinates and each simplex
integrated there with its Euclidean determinant, and chart-free polytope
integration composing the ambient polynomial along every simplex and
weighting the composite's monomials."""

import random
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import lcm, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import box, rand_form, rand_poly, segment
from oracles import (
    integrate_monomial_simplex,
    rational_determinant,
    shuffle_sign,
    vertex_simplices,
)

from tropform import integrate, lattice, superform
from tropform.integrate import integrate_polynomial_simplex, integrate_polytope
from tropform.lattice import coords_in_basis, determinant, vec_sub
from tropform.polyhedra import all_faces, faces, from_generators, from_halfspaces
from tropform.superform import (
    AffineMap,
    Polynomial,
    Superform,
    _accumulate,
    _minor_sums,
    contract,
    d_second,
    pullback,
    wedge,
)


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


def _oracle_wedge(a, b):
    """Wedge product one pair of components at a time: each product f g is
    built, signed (-1)^{|J1||I2|} shuffle(I1,I2) shuffle(J1,J2) and added
    into its component."""
    r = a.ambient_dim
    p, q = a.p + b.p, a.q + b.q
    if p > r or q > r:
        return Superform(r, min(p, r), min(q, r))
    out = {}
    for (I1, J1), f in a.components.items():
        for (I2, J2), g in b.components.items():
            s1 = shuffle_sign(I1, I2)
            s2 = shuffle_sign(J1, J2)
            if s1 == 0 or s2 == 0:
                continue
            sign = s1 * s2 * (-1 if (len(J1) * len(I2)) % 2 else 1)
            key = (tuple(sorted(I1 + I2)), tuple(sorted(J1 + J2)))
            _accumulate(out, key, (f * g).scale(sign))
    return Superform(r, p, q, out)


def _oracle_d_second(a):
    """d'': insert d''x_j in front; it passes the p generators of the d'
    block, contributing (-1)^p, then shuffles into J."""
    r = a.ambient_dim
    if a.q == r:
        return Superform(r, a.p, r)
    out = {}
    for (I, J), f in a.components.items():
        block = -1 if len(I) % 2 else 1
        for j in range(r):
            if j in J:
                continue
            df = f.partial(j)
            if df.is_zero:
                continue
            sign = block * shuffle_sign((j,), J)
            _accumulate(out, (I, tuple(sorted(J + (j,)))), df.scale(sign))
    return Superform(r, a.p, a.q + 1, out)


def _oracle_insert_one(a, v, pos):
    """Insert v at 1-based slot pos, each block expanded on its own: a d'
    slot t signs the term at place k of I by (-1)^{k+t+p}, a d'' slot t the
    term at place k of J by (-1)^{k+t}."""
    r = a.ambient_dim
    if not 1 <= pos <= a.p + a.q:
        raise ValueError("contraction position out of range")
    out = {}
    if pos <= a.p:
        t = pos
        for (I, J), f in a.components.items():
            for k, i in enumerate(I, start=1):
                coeff = Fraction(v[i])
                if not coeff:
                    continue
                sign = -1 if (k + t + a.p) % 2 else 1
                key = (tuple(x for x in I if x != i), J)
                _accumulate(out, key, f.scale(sign * coeff))
        return Superform(r, a.p - 1, a.q, out)
    t = pos - a.p
    for (I, J), f in a.components.items():
        for k, j in enumerate(J, start=1):
            coeff = Fraction(v[j])
            if not coeff:
                continue
            sign = -1 if (k + t) % 2 else 1
            key = (I, tuple(x for x in J if x != j))
            _accumulate(out, key, f.scale(sign * coeff))
    return Superform(r, a.p, a.q - 1, out)


def _oracle_pullback(f, a):
    """Every coefficient of a composed with f, then spread over the output
    components with the minors of the linear part."""
    if a.ambient_dim != f.codomain_dim:
        raise ValueError("form does not live on the codomain of the map")
    rin = f.domain_dim
    rows = f.linear

    @cache
    def minor(row_idx, col_idx):
        return determinant([[rows[i][j] for j in col_idx] for i in row_idx])

    out = {}
    index_sets_p = list(combinations(range(rin), a.p))
    index_sets_q = list(combinations(range(rin), a.q))
    for (I, J), poly in a.components.items():
        newpoly = poly.compose_affine(rows, f.translate, rin)
        if newpoly.is_zero:
            continue
        for K in index_sets_p:
            dI = minor(I, K)
            if not dI:
                continue
            for L in index_sets_q:
                dJ = minor(J, L)
                if not dJ:
                    continue
                _accumulate(out, (K, L), newpoly.scale(dI * dJ))
    if a.p > rin or a.q > rin:
        return Superform(rin, min(a.p, rin), min(a.q, rin))
    return Superform(rin, a.p, a.q, out)


def _intrinsic_map(sigma):
    """Affine map R^n -> R^r onto the hull of sigma: base point the
    lexicographically smallest vertex, columns a Z-basis of N_sigma."""
    basis = sigma.direction_lattice.basis
    n = len(basis)
    linear = [[basis[j][i] for j in range(n)] for i in range(sigma.ambient_dim)]
    return AffineMap(linear, sigma.vertices[0])


def _vertex_coords(sigma, point):
    """Coordinates of an ambient point in the intrinsic chart of sigma."""
    sol = coords_in_basis(sigma.direction_lattice.basis, vec_sub(point, sigma.vertices[0]))
    if sol is None:
        raise ValueError("point does not lie in the affine hull")
    return tuple(sol)


def _oracle_integrate_simplex(poly, simplex_vertices):
    """Integral of poly over a full-dimensional simplex of R^n: |det| of its
    edges times the integral of the composite over the standard simplex."""
    v0 = simplex_vertices[0]
    n = poly.nvars
    edges = [vec_sub(v, v0) for v in simplex_vertices[1:]]
    linear = [[Fraction(edges[j][i]) for j in range(n)] for i in range(n)]
    sub = poly.compose_affine(linear, v0, n)
    total = sum((c * integrate_monomial_simplex(e) for e, c in sub.terms.items()),
                Fraction(0))
    return abs(rational_determinant(linear)) * total


def _oracle_integrate_polytope(sigma, a):
    """Every component of a pulled back to the chart by the oracle pullback,
    then the top coefficient integrated over each simplex in chart
    coordinates, all by the oracle composition."""
    n = sigma.dim
    if n == 0:
        return a.coefficient((), ()).evaluate(sigma.vertices[0])
    with _oracle_composition():
        top = tuple(range(n))
        g = _oracle_pullback(_intrinsic_map(sigma), a).coefficient(top, top)
        if g.is_zero:
            return Fraction(0)
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        total = Fraction(0)
        for simplex in vertex_simplices(sigma):
            coords = [_vertex_coords(sigma, v) for v in simplex]
            total += _oracle_integrate_simplex(g, coords)
        return sign * total


def _oracle_integrate_polynomial_simplex(poly, simplex_vertices):
    """Integral over the standard n-simplex of poly composed with the
    simplex's parametrization t -> u_0 + sum_i t_i (u_i - u_0): the
    composite by polynomial arithmetic, each monomial t^e weighted by its
    integral over the standard simplex."""
    u0 = simplex_vertices[0]
    n = len(simplex_vertices) - 1
    rows = [[v[i] - u0[i] for v in simplex_vertices[1:]] for i in range(poly.nvars)]
    composite = _oracle_compose_affine(poly, rows, u0, n)
    return sum((c * integrate_monomial_simplex(e) for e, c in composite.terms.items()),
               Fraction(0))


def _oracle_composed_integral(sigma, a):
    """Chart-free integral that composes the ambient polynomial h along
    every simplex: |det| of the simplex's edges at the pivot columns, over
    the product of the pivots, times the oracle simplex integral of h."""
    n = sigma.dim
    basis = sigma.direction_lattice.basis
    top = tuple(range(n))
    h = _minor_sums(list(zip(*basis)), a, [top], [top]).get((top, top))
    if h is None:
        return Fraction(0)
    pivots = [next(i for i, x in enumerate(b) if x) for b in basis]
    t = lcm(*(v[p].denominator for v in sigma.vertices for p in pivots))
    scaled = {v: [v[p].numerator * (t // v[p].denominator) for p in pivots]
              for v in sigma.vertices}
    total = Fraction(0)
    for simplex in vertex_simplices(sigma):
        x0 = scaled[simplex[0]]
        det = determinant([[x - y for x, y in zip(scaled[v], x0)] for v in simplex[1:]])
        total += abs(det) * _oracle_integrate_polynomial_simplex(h, simplex)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * total / (t ** n * prod(b[p] for b, p in zip(basis, pivots)))


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


@ORACLE_SETTINGS
@given(_substitutions(), st.data())
def test_compose_affine_evaluates_as_the_substituted_point(case, data):
    """The composite at a rational point y is poly at A y + tau, a check
    that shares no algorithm with composition."""
    poly, rows, shift, m = case
    y = data.draw(st.lists(_RATIONAL, min_size=m, max_size=m))
    x = [sum(Fraction(a) * b for a, b in zip(row, y)) + t for row, t in zip(rows, shift)]
    assert poly.compose_affine(rows, shift, m).evaluate(y) == poly.evaluate(x)


@pytest.mark.parametrize("seed", [2, 14, 17])
def test_composition_bound_caps_each_term_at_the_monomials_of_its_degree(seed):
    """A partial product of degree D composed into m variables has at most
    C(D + m, m) monomials, however many entries the map's rows have.
    Counted without that cap, these pullbacks from R^4 may take over
    MAX_TERMS multiply-adds, yet each component has under 500 monomials:
    they run, and equal the oracle pullback, which composes with no bound.
    An input over the capped bound still raises (the CLI exits 2 on it, see
    test_cli.py::test_term_bound_exits_2_before_anything_is_built)."""
    rng = random.Random(seed)
    a = rand_form(rng, 4, 3, 2, deg=2)
    f = AffineMap([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)],
                  [rng.randint(-1, 1) for _ in range(4)])
    with _oracle_composition():
        want = _oracle_pullback(f, a)
    assert pullback(f, a) == want
    # x_0^11 into 8 variables: C(19, 8) = 75582 > MAX_TERMS either way
    x11 = Polynomial(1, {(11,): 1})
    with pytest.raises(ValueError, match="more than %d" % superform.MAX_TERMS):
        x11.compose_affine([[1] * 8], [0], 8)


def test_composition_bound_counts_the_multiply_adds():
    """The bound counts the work of each product, not only its size:
    x_0^10 x_1^10 along a dense map of R^3 has at most C(23, 3) = 1771
    monomials, but multiplying the two powers of C(13, 3) = 286 terms each
    takes 286^2 = 81796 multiply-adds, over MAX_TERMS; one power alone, or
    x_0^10 x_1^3, stays under it."""
    rows, shift = [[1, 2, 1], [1, 1, 2], [2, 1, 1]], [0, 1, 0]
    with pytest.raises(ValueError, match="more than %d" % superform.MAX_TERMS):
        Polynomial(3, {(10, 10, 0): 1}).compose_affine(rows, shift, 3)
    for e in ((10, 0, 0), (10, 3, 0)):
        poly = Polynomial(3, {e: 1})
        got = poly.compose_affine(rows, shift, 3)
        assert got.terms == _oracle_compose_affine(poly, rows, shift, 3).terms


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


@st.composite
def _sublattice_polytopes(draw):
    """conv of up to five rational points v + sum_k c_k d_k in R^3 on the
    affine hull through a rational v along direction rows d_k, rows chosen
    so that the direction lattice has pivots greater than 1."""
    directions = draw(st.sampled_from([
        [(2, 1, 3)], [(0, 3, 1)], [(3, 0, -2)],
        [(2, 1, 3), (0, 3, 1)], [(2, 0, 1), (0, 2, 3)], [(1, 2, 0), (3, -1, 4)]]))
    v = draw(st.tuples(*[_RATIONAL] * 3))
    coef = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2))
    points = [tuple(x + sum(c * d[i] for c, d in zip(cs, directions))
                    for i, x in enumerate(v))
              for cs in draw(st.lists(st.tuples(*[coef] * len(directions)),
                                      min_size=2, max_size=5))]
    p = from_generators(points)
    assume(p.dim == len(directions))
    return p


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_sublattice_polytopes(), st.randoms(use_true_random=False))
def test_integrate_polytope_matches_the_chart_on_sublattices(p, rng):
    basis = p.direction_lattice.basis
    assert prod(next(x for x in row if x) for row in basis) > 1
    for sigma in all_faces(p):
        k = sigma.dim
        a = rand_form(rng, 3, k, k, deg=3)
        assert integrate_polytope(sigma, a) == _oracle_integrate_polytope(sigma, a)


@st.composite
def _rational_polytopes(draw):
    """conv of up to six rational points v + sum_k c_k d_k in R^r, r <= 3,
    on the affine hull through a rational v along n <= r integer
    directions d_k."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(0, r))
    direction = st.tuples(*[st.integers(-2, 2)] * r)
    directions = draw(st.lists(direction, min_size=n, max_size=n))
    v = draw(st.tuples(*[_RATIONAL] * r))
    coef = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    points = [tuple(x + sum(c * d[i] for c, d in zip(cs, directions))
                    for i, x in enumerate(v))
              for cs in draw(st.lists(st.tuples(*[coef] * n), min_size=1, max_size=6))]
    return from_generators(points)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_rational_polytopes(), st.lists(st.integers(0, 4), min_size=1, max_size=5),
       st.randoms(use_true_random=False))
def test_vertex_moments_match_the_composition_oracle(p, degrees, rng):
    """Every face of a rational polytope, integrated once per drawn degree
    on the same object, the degrees rising and falling, against the
    composition oracle; and each simplex on its own."""
    r = p.ambient_dim
    for sigma in all_faces(p):
        k = sigma.dim
        for deg in degrees + degrees[::-1]:
            a = rand_form(rng, r, k, k, deg=deg)
            assert integrate_polytope(sigma, a) == _oracle_composed_integral(sigma, a)
        poly = rand_poly(rng, r, deg=max(degrees))
        for simplex in vertex_simplices(sigma):
            assert integrate_polynomial_simplex(poly, simplex) \
                == _oracle_integrate_polynomial_simplex(poly, simplex)


def test_integrate_polytope_makes_no_chart(monkeypatch):
    """No composition, no pullback and no vertex solve; one triangulation
    per polytope object and none for a zero integrand; moments computed
    only for the exponents not asked of the object before, and kept only
    for the divisors of the exponents asked."""
    forbidden = []
    for owner, name in ((Polynomial, "compose_affine"), (superform, "pullback"),
                        (lattice, "coords_in_basis"),
                        (integrate, "integrate_polynomial_simplex")):
        def stub(*args, name=name):
            forbidden.append(name)
        monkeypatch.setattr(owner, name, stub)
        if hasattr(integrate, name):
            monkeypatch.setattr(integrate, name, stub)
    triangulated = []
    each = integrate.triangulate
    monkeypatch.setattr(integrate, "triangulate",
                        lambda p: triangulated.append(p) or each(p))
    asked = []
    plan = integrate._plan
    monkeypatch.setattr(integrate, "_plan", lambda es: asked.append(set(es)) or plan(es))
    cube = box(3)
    for sigma in (cube, faces(cube, 1)[0], faces(cube, 2)[0], segment((0, 0, 0), (2, 1, 3))):
        k = sigma.dim
        keys = list(combinations(range(3), k))

        def form(poly):
            return Superform(3, k, k, {(I, J): poly for I in keys for J in keys})

        triangulated.clear()
        assert integrate_polytope(sigma, Superform(3, k, k)) == 0
        assert triangulated == [] and sigma._moments is None
        for deg in (2, 2, 1, 4, 0, 3, 5):
            poly = Polynomial(3, {(0, 0, 0): 1, (deg, 0, 0): 1, (0, 0, deg): 2})
            missing = set(poly.num) - set(sigma._moments[3] if sigma._moments else ())
            asked.clear()
            assert integrate_polytope(sigma, form(poly)) != 0
            assert asked == ([missing] if missing else [])
        assert triangulated == [sigma]
        assert set(sigma._moments[3]) == {(0, 0, 0)} | {
            e for d in range(1, 6) for e in ((d, 0, 0), (0, 0, d))}
    assert forbidden == []


@pytest.mark.parametrize("r, exponents", [
    (12, [(12,) + (0,) * 11]),
    (64, [(1, 1, 1, 1) + (0,) * 60, (0,) * 63 + (4,)]),
    (8, [(3, 0, 0, 0, 0, 0, 0, 5), (0, 2, 0, 0, 0, 0, 6, 0)]),
])
def test_moments_of_a_sparse_integrand_in_many_variables(r, exponents):
    """A sparse high-degree integrand on a segment and on a triangle in
    R^r: the integral equals the composition oracle, and the table holds
    the divisors of the integrand's exponents alone, not every exponent of
    its degree in r variables."""
    poly = Polynomial(r, {e: Fraction(i + 1, 3) for i, e in enumerate(exponents)})
    divisors = {d for e in exponents for d in product(*(range(a + 1) for a in e))}
    points = [tuple(Fraction((i + 1) * (j + 1) % 5, 2 + i) for j in range(r))
              for i in range(3)]
    for sigma in (segment(*points[:2]), from_generators(points)):
        pivots = tuple(next(i for i, x in enumerate(b) if x)
                       for b in sigma.direction_lattice.basis)
        a = Superform(r, sigma.dim, sigma.dim, {(pivots, pivots): poly})
        assert integrate_polytope(sigma, a) == _oracle_composed_integral(sigma, a) != 0
        assert set(sigma._moments[3]) == divisors


def test_integrand_vanishing_on_the_hull_integrates_to_zero():
    """(x_3 - 1) f is zero on the face x_3 = 1 of the cube but not as a
    polynomial, so its terms reach the face's moment table, and the dot
    product, like the integral over each simplex, is exactly 0."""
    cube = box(3)
    face = next(f for f in faces(cube, 1) if f.equalities == (((0, 0, 1), 1),))
    f = Polynomial(3, {(2, 1, 0): Fraction(3, 2), (0, 0, 3): -1, (0, 0, 0): 5})
    g = Polynomial(3, {(0, 0, 1): 1, (0, 0, 0): -1}) * f
    assert integrate_polytope(face, Superform(3, 2, 2, {((0, 1), (0, 1)): g})) == 0
    assert face._moments is not None
    assert all(integrate_polynomial_simplex(g, s) == 0 for s in vertex_simplices(face))
    assert integrate_polytope(cube, Superform(3, 3, 3, {((0, 1, 2), (0, 1, 2)): g})) != 0


def _form(data, r, p, q):
    """A nonzero (p, q)-form on R^r with up to three components of low
    degree and rational coefficients, drawn from data."""
    keys = [(I, J) for I in combinations(range(r), p) for J in combinations(range(r), q)]
    chosen = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    exponent = st.tuples(*[st.integers(0, 2)] * r)
    poly = st.dictionaries(exponent, _RATIONAL.filter(bool), min_size=1, max_size=3)
    return Superform(r, p, q, {k: Polynomial(r, data.draw(poly)) for k in chosen})


def _bidegrees(r):
    return [(p, q) for p in range(r + 1) for q in range(r + 1)]


CALCULUS_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             database=None)


def _form_with_distinct_denominators(rng, r, p, q):
    """A nonzero (p, q)-form on R^r with one to three components of one to
    three terms; the coefficients of a component are n / d for its own d,
    no two components alike."""
    keys = [(I, J) for I in combinations(range(r), p) for J in combinations(range(r), q)]
    chosen = rng.sample(keys, rng.randint(1, min(3, len(keys))))
    dens = rng.sample((1, 2, 3, 5, 7, 9), len(chosen))
    return Superform(r, p, q, {
        k: Polynomial(r, {tuple(rng.randint(0, 2) for _ in range(r)):
                          Fraction(rng.choice((-5, -3, -1, 1, 2, 4, 6)), d)
                          for _ in range(rng.randint(1, 3))})
        for k, d in zip(chosen, dens)})


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_wedge_matches_the_pairwise_products(r):
    """Every pair of bidegrees on R^r, (r + 1)^4 pairs of seeded random
    forms over distinct denominators; and a a and a (a + c) for a of odd
    total degree, whose products cancel in every component, or in all but
    those of a c."""
    rng = random.Random(r)
    left, right = ({pq: _form_with_distinct_denominators(rng, r, *pq) for pq in _bidegrees(r)}
                   for _ in range(2))
    for a in left.values():
        for b in right.values():
            assert wedge(a, b) == _oracle_wedge(a, b)
        if (a.p + a.q) % 2:
            c = right[a.bidegree]
            assert wedge(a, a).is_zero and _oracle_wedge(a, a).is_zero
            assert wedge(a, a + c) == _oracle_wedge(a, a + c) == _oracle_wedge(a, c)


@CALCULUS_SETTINGS
@given(st.integers(1, 4), st.data())
def test_d_second_matches_the_d_second_block_expansion(r, data):
    for p, q in _bidegrees(r):
        a = _form(data, r, p, q)
        assert d_second(a) == _oracle_d_second(a)


@CALCULUS_SETTINGS
@given(st.integers(1, 4), st.data())
def test_contract_matches_the_blockwise_expansion_at_every_slot(r, data):
    vector = st.lists(st.one_of(st.integers(-3, 3), _RATIONAL), min_size=r, max_size=r)
    for p, q in _bidegrees(r):
        a = _form(data, r, p, q)
        for pos in range(1, p + q + 1):
            v = data.draw(vector)
            assert contract(a, [v], [pos]) == _oracle_insert_one(a, v, pos)
        if p + q >= 2:
            pos = data.draw(st.lists(st.integers(1, p + q), min_size=2, max_size=2,
                                     unique=True))
            vs = [data.draw(vector) for _ in pos]
            want = a
            for t, v in sorted(zip(pos, vs), key=lambda x: -x[0]):
                want = _oracle_insert_one(want, v, t)
            assert contract(a, vs, pos) == want


def _map(data, r, k, deficient):
    """An integral affine map R^k -> R^r with a rational shift, drawn from
    data.  Its linear part is arbitrary, or, if deficient, C B for C of
    shape r x s and B of shape s x k with s < min(r, k)."""
    def matrix(rows, cols):
        row = st.lists(st.integers(-2, 2), min_size=cols, max_size=cols)
        return data.draw(st.lists(row, min_size=rows, max_size=rows))

    if deficient:
        s = data.draw(st.integers(0, min(r, k) - 1))
        c, b = matrix(r, s), matrix(s, k)
        linear = [[sum(c[i][t] * b[t][j] for t in range(s)) for j in range(k)]
                  for i in range(r)]
    else:
        linear = matrix(r, k)
    return AffineMap(linear, data.draw(st.lists(_RATIONAL, min_size=r, max_size=r)))


@CALCULUS_SETTINGS
@given(st.integers(1, 4), st.data())
def test_pullback_matches_composing_each_component(r, data):
    """Every bidegree on R^r, pulled back from R^k, k in 1..4, along an
    arbitrary and a rank-deficient map."""
    k = data.draw(st.integers(1, 4))
    for deficient in (False, True):
        f = _map(data, r, k, deficient)
        for p, q in _bidegrees(r):
            a = _form(data, r, p, q)
            got, want = pullback(f, a), _oracle_pullback(f, a)
            assert got.bidegree == want.bidegree
            assert got == want
            assert all(type(c) is Fraction for poly in got.components.values()
                       for c in poly.terms.values())
