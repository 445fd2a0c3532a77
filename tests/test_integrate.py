"""Exact integration: normalization, transformation formula, Stokes, Green."""

import random
from fractions import Fraction

import pytest

from conftest import (
    box,
    interleaved_volume_form,
    rand_form,
    rand_poly,
    rand_symmetric,
    segment,
    simplex,
)
from oracles import integrate_monomial_simplex

from tropform import integrate, polyhedra
from tropform.cycle import WeightedComplex, preimage_polyhedron
from tropform.integrate import (
    green_residual,
    integrate_boundary,
    integrate_complex,
    integrate_complex_boundary,
    integrate_polytope,
    outward_vector,
    stokes_residual,
)
from tropform.polyhedra import from_halfspaces, refine, complex_from_cells
from tropform.superform import (
    AffineMap,
    Polynomial,
    basis_form,
    pullback,
)


def P(r, terms):
    return Polynomial(r, {tuple(e): Fraction(c) for e, c in terms.items()})


def test_monomial_simplex():
    assert integrate_monomial_simplex((0,)) == 1
    assert integrate_monomial_simplex((1,)) == Fraction(1, 2)
    assert integrate_monomial_simplex((1, 1)) == Fraction(1, 24)
    assert integrate_monomial_simplex((0, 0)) == Fraction(1, 2)


def test_normalization():
    for r in (1, 2, 3):
        assert integrate_polytope(box(r), interleaved_volume_form(r)) == 1


def test_basic_integrals():
    a = basis_form(1, (0,), (0,), P(1, {(1,): 1}))  # x d'x ^ d''x
    assert integrate_polytope(box(1), a) == Fraction(1, 2)
    assert integrate_polytope(simplex(2),
                              interleaved_volume_form(2)) == Fraction(1, 2)


def test_lower_dimensional_integral():
    diag = segment((0, 0), (1, 1))
    a = basis_form(2, (0,), (0,))  # d'x1 ^ d''x1 restricted to the diagonal
    assert integrate_polytope(diag, a) == 1
    b = basis_form(2, (0,), (1,))
    assert integrate_polytope(diag, b) == 1
    # lattice normalization: (0,0)-(2,2) has lattice length 2
    assert integrate_polytope(segment((0, 0), (2, 2)), a) == 2
    # the segment to (1,2) has primitive direction (1,2); d'x1^d''x1 sees 1
    assert integrate_polytope(segment((0, 0), (1, 2)), a) == 1


def test_point_integral():
    pt = segment((2, 3), (2, 3))
    from tropform.superform import function_form
    f = function_form(P(2, {(1, 1): 1}))
    assert integrate_polytope(pt, f) == 6
    # a rational point in r = 3: the value of x y + z^2 there
    pt3 = segment((Fraction(1, 2), Fraction(-2, 3), 3), (Fraction(1, 2), Fraction(-2, 3), 3))
    g = function_form(P(3, {(1, 1, 0): 1, (0, 0, 2): 1}))
    assert integrate_polytope(pt3, g) == Fraction(26, 3)


def test_integral_unimodular_invariance(seed=21):
    # int_sigma a equals int_{U sigma} (U^{-1})* a for unimodular U: the
    # value depends only on the integral affine structure
    rng = random.Random(seed)
    from tropform.polyhedra import affine_image
    for _ in range(10):
        r = rng.randint(1, 3)
        a = rand_form(rng, r, r, r, deg=2)
        u = _random_unimodular(rng, r)
        uinv = _int_inverse(u)
        sigma = box(r)
        img = affine_image(u, tuple(Fraction(0) for _ in range(r)), sigma)
        back = AffineMap(uinv, [Fraction(0)] * r)
        assert integrate_polytope(img, pullback(back, a)) == \
            integrate_polytope(sigma, a)


def _random_unimodular(rng, n):
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(5):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def _int_inverse(u):
    from tropform.lattice import solve_exact
    n = len(u)
    cols = []
    for j in range(n):
        e = [Fraction(1) if i == j else Fraction(0) for i in range(n)]
        cols.append(solve_exact([list(row) for row in u], e))
    return [[int(cols[j][i]) for j in range(n)] for i in range(n)]


def test_transformation_formula(seed=17):
    # int_{F^{-1}(B)} F* a = |det F| int_B a for invertible integer F
    rng = random.Random(seed)
    done = 0
    while done < 12:
        r = rng.randint(1, 2)
        m = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
        det = _det(m)
        if det == 0:
            continue
        f = AffineMap(m, [Fraction(rng.randint(-2, 2)) for _ in range(r)])
        b = box(r, -2, 2)
        a = rand_form(rng, r, r, r, deg=2)
        pre = preimage_polyhedron(f, b)
        assert integrate_polytope(pre, pullback(f, a)) == \
            abs(det) * integrate_polytope(b, a)
        done += 1


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def test_outward_vector_segment():
    seg = box(1)
    for rho in _faces1(seg):
        w = outward_vector(seg, rho)
        if rho.vertices[0] == (Fraction(1),):
            assert w == (1,)
        else:
            assert w == (-1,)


def _faces1(p):
    from tropform.polyhedra import faces
    return faces(p, 1)


def test_boundary_integral_segment():
    # eta = f d''x: boundary integral is f(1) - f(0)
    eta = basis_form(1, (), (0,), P(1, {(2,): 1}))
    assert integrate_boundary(box(1), eta) == 1
    # eta = f d'x: the d'-block contraction carries (-1)^p = -1
    eta2 = basis_form(1, (0,), (), P(1, {(2,): 1}))
    assert integrate_boundary(box(1), eta2) == -1


def test_boundary_integrals_keep_each_facet_and_its_moments(monkeypatch):
    """The facets of a boundary integral are those faces() returns, kept on
    the polytope with their moment tables: a second integral of the same
    form builds no polyhedron and triangulates nothing."""
    cube = box(3)
    eta = rand_form(random.Random(5), 3, 2, 3, deg=2)
    first = integrate_boundary(cube, eta)
    kept = list(cube._facets)
    assert list(map(id, sorted(kept, key=polyhedra.Polyhedron.key))) \
        == list(map(id, _faces1(cube)))
    calls = []
    assemble, triangulate = polyhedra._assemble, integrate.triangulate
    monkeypatch.setattr(polyhedra, "_assemble", lambda *a: calls.append(a) or assemble(*a))
    monkeypatch.setattr(integrate, "triangulate",
                        lambda p: calls.append(p) or triangulate(p))
    assert integrate_boundary(cube, eta) == first
    assert calls == [] and all(a is b for a, b in zip(cube._facets, kept))


def test_stokes_polytopes(seed=31):
    rng = random.Random(seed)
    domains = [box(1), box(2), simplex(2), box(3), simplex(3)]
    for sigma in domains:
        n = sigma.dim
        for _ in range(3):
            ep = rand_form(rng, n, n - 1, n, deg=3)
            es = rand_form(rng, n, n, n - 1, deg=3)
            assert stokes_residual(sigma, ep, es) == (0, 0)


def test_stokes_weighted_complex(seed=32):
    rng = random.Random(seed)
    # weighted multi-segment with integer weights
    wc = WeightedComplex([(segment((0,), (1,)), 2),
                          (segment((1,), (3,)), -1)])
    for _ in range(5):
        ep = rand_form(rng, 1, 0, 1, deg=3)
        es = rand_form(rng, 1, 1, 0, deg=3)
        assert stokes_residual(wc, ep, es) == (0, 0)
    # subdivided square
    cells = [from_halfspaces([((1, 0), Fraction(1)), ((-1, 0), Fraction(0)),
                              ((0, 1), Fraction(1)), ((0, -1), Fraction(0)),
                              ((1, -1), Fraction(0))], 2),
             from_halfspaces([((1, 0), Fraction(1)), ((-1, 0), Fraction(0)),
                              ((0, 1), Fraction(1)), ((0, -1), Fraction(0)),
                              ((-1, 1), Fraction(0))], 2)]
    wc2 = WeightedComplex([(cells[0], 1), (cells[1], 1)])
    for _ in range(5):
        ep = rand_form(rng, 2, 1, 2, deg=3)
        es = rand_form(rng, 2, 2, 1, deg=3)
        assert stokes_residual(wc2, ep, es) == (0, 0)


def test_green(seed=33):
    rng = random.Random(33)
    sq = box(2)
    cube = box(3)
    for _ in range(5):
        alpha = rand_symmetric(rng, 2, 0)
        beta = rand_symmetric(rng, 2, 1)
        assert green_residual(sq, alpha, beta) == 0
        a3 = rand_symmetric(rng, 3, 1)
        b3 = rand_symmetric(rng, 3, 1)
        assert green_residual(cube, a3, b3) == 0
        assert green_residual(cube, rand_symmetric(rng, 3, 0),
                              rand_symmetric(rng, 3, 2)) == 0


def test_green_rejects_nonsymmetric():
    sq = box(2)
    import pytest
    with pytest.raises(ValueError):
        green_residual(sq, basis_form(2, (0,), (1,)),
                       rand_symmetric(random.Random(0), 2, 0))


def test_integrate_complex_additivity():
    wc = WeightedComplex([(segment((0,), (1,)), 1), (segment((1,), (2,)), 1)])
    a = basis_form(1, (0,), (0,), P(1, {(1,): 1}))
    assert integrate_complex(wc, a) == 2


def test_a_polyhedron_is_integrated_as_one_cell_of_weight_1(seed=34):
    """integrate_complex and integrate_complex_boundary take a polyhedron,
    EMPTY included, as integrate_polytope and integrate_boundary do, and
    keep their errors."""
    rng = random.Random(seed)
    for sigma in (box(1), box(2), simplex(2), simplex(3), segment((0, 0), (1, 2))):
        n, r = sigma.dim, sigma.ambient_dim
        a = rand_form(rng, r, n, n, deg=2)
        eta = rand_form(rng, r, n - 1, n, deg=2)
        want = integrate_polytope(sigma, a)
        assert want != 0 and integrate_complex(sigma, a) == want
        want = integrate_boundary(sigma, eta)
        assert want != 0 and integrate_complex_boundary(sigma, eta) == want
    a, eta = interleaved_volume_form(2), rand_form(rng, 2, 1, 2, deg=2)
    assert integrate_complex(polyhedra.EMPTY, a) == integrate_polytope(polyhedra.EMPTY, a) == 0
    assert integrate_complex_boundary(polyhedra.EMPTY, eta) \
        == integrate_boundary(polyhedra.EMPTY, eta) == 0
    half_line = from_halfspaces([((-1,), Fraction(0))], 1)
    for integral in (integrate_complex, integrate_complex_boundary):
        with pytest.raises(ValueError, match="cannot integrate over an unbounded polyhedron"):
            integral(half_line, interleaved_volume_form(1))
    with pytest.raises(ValueError, match="truncate the complex before integrating"):
        integrate_complex(WeightedComplex([(half_line, 1)]), interleaved_volume_form(1))
