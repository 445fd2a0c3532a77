"""Superform algebra: wedge, swap, d'/d'', contraction, pullback."""

import random
from fractions import Fraction

import pytest

from conftest import rand_form, rand_poly

from tropform.superform import (
    AffineMap,
    Polynomial,
    Superform,
    basis_form,
    contract,
    d_prime,
    d_second,
    function_form,
    is_symmetric,
    pullback,
    swap,
    wedge,
    zero_form,
)


def P(r, terms):
    return Polynomial(r, {tuple(e): Fraction(c) for e, c in terms.items()})


def test_polynomial_arithmetic():
    f = P(2, {(1, 0): 1, (0, 1): 2})
    g = P(2, {(1, 0): -1})
    assert (f + g).terms == {(0, 1): Fraction(2)}
    assert f.partial(0).terms == {(0, 0): Fraction(1)}
    assert f.evaluate((Fraction(3), Fraction(1))) == 5


def test_polynomial_rejects_malformed_exponents():
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        Polynomial(1, {(-1,): 1})
    with pytest.raises(ValueError):
        Polynomial(1, {(1, 0): 0})
    assert Polynomial(2, {(1, 0): 0}).is_zero


def test_superform_constructor_rejects_each_bad_input():
    f = rand_poly(random.Random(2), 2)
    for p, q in ((-1, 0), (0, -1), (3, 0), (0, 3)):
        with pytest.raises(ValueError, match="bidegree out of range"):
            Superform(2, p, q)
    for key in (((0, 1), (0,)), ((0,), ()), ((0,), (0, 1))):
        with pytest.raises(ValueError, match="index pair does not match bidegree"):
            Superform(2, 1, 1, {key: f})
    with pytest.raises(ValueError, match="coefficient in 3 variables on R\\^2"):
        Superform(2, 1, 1, {((0,), (1,)): rand_poly(random.Random(2), 3)})


def test_forms_built_without_checks_pass_them(seed=3):
    """swap, wedge, d', d'' and contraction build their results without
    the constructor's checks; each result passes them and has no zero
    coefficient."""
    rng = random.Random(seed)
    for r in range(1, 4):
        for p in range(r + 1):
            for q in range(r + 1):
                a = rand_form(rng, r, p, q, deg=2)
                b = rand_form(rng, r, (p + 1) % (r + 1), q % r, deg=2)
                built = [swap(a), wedge(a, b), d_prime(a), d_second(a)]
                built += [contract(a, [[rng.randint(-2, 2) for _ in range(r)]], [pos])
                          for pos in range(1, p + q + 1)]
                for c in built:
                    assert Superform(r, c.p, c.q, c.components) == c
                    assert all(not f.is_zero for f in c.components.values())


def test_affine_map_rejects_non_integral_linear_part():
    with pytest.raises(ValueError, match="non-integral"):
        AffineMap([[Fraction(1, 2)]], [0])
    assert AffineMap([[Fraction(2), 1.0]], [0]).linear == ((2, 1),)


def test_affine_map_rejects_ragged_linear_rows():
    for rows in ([[1], [1, 2]], [[1, 0], [0]]):
        with pytest.raises(ValueError, match="differ in length"):
            AffineMap(rows, [0, 0])


def test_affine_map_apply_checks_the_point_length():
    f = AffineMap([[1, 2]], [0])
    assert f.apply((1, 1)) == (3,)
    for point in ((1, 1, 1), (1,)):
        with pytest.raises(ValueError, match=r"point in R\^%d, but the map starts in R\^2$"
                           % len(point)):
            f.apply(point)


def test_affine_map_compose_checks_that_the_maps_meet():
    g = AffineMap([[1, 1]], [1]).compose(AffineMap([[1], [2]], [0, Fraction(1, 2)]))
    assert (g.linear, g.translate) == (((3,),), (Fraction(3, 2),))
    with pytest.raises(ValueError, match=r"inner map lands in R\^1, but the outer map "
                                         r"starts in R\^2$"):
        AffineMap([[1, 1]], [0]).compose(AffineMap([[1]], [0]))
    with pytest.raises(ValueError, match=r"inner map lands in R\^2, but the outer map "
                                         r"starts in R\^1$"):
        AffineMap([[1]], [0]).compose(AffineMap([[1], [1]], [0, 0]))


def test_affine_map_without_rows_is_rejected():
    for linear, translate in (([], []), ((), ())):
        with pytest.raises(ValueError, match="has no rows"):
            AffineMap(linear, translate)
    assert AffineMap([[]], [1]).domain_dim == 0


def test_polynomial_compose_affine():
    f = P(1, {(2,): 1})  # x^2
    # substitute x = 2t + 1
    g = f.compose_affine([[Fraction(2)]], (Fraction(1),), 1)
    assert g.terms == {(2,): Fraction(4), (1,): Fraction(4), (0,): Fraction(1)}


def test_wedge_alternating():
    a = basis_form(2, (0,), ())
    assert wedge(a, a).is_zero


def test_wedge_simple():
    a = basis_form(2, (0,), (), P(2, {(1, 0): 1}))
    b = basis_form(2, (), (1,))
    c = wedge(a, b)
    assert c.components == {((0,), (1,)): P(2, {(1, 0): 1})}


def test_wedge_graded_commutativity(seed=1):
    rng = random.Random(seed)
    for _ in range(40):
        r = rng.randint(1, 3)
        a = rand_form(rng, r, rng.randint(0, r), rng.randint(0, r), deg=2)
        b = rand_form(rng, r, rng.randint(0, r), rng.randint(0, r), deg=2)
        s = (-1) ** ((a.p + a.q) * (b.p + b.q))
        assert (wedge(a, b) - wedge(b, a).scale(s)).is_zero


def test_wedge_associative(seed=8):
    rng = random.Random(seed)
    for _ in range(15):
        r = 3
        a = rand_form(rng, r, 1, 0, deg=1)
        b = rand_form(rng, r, 0, 1, deg=1)
        c = rand_form(rng, r, 1, 1, deg=1)
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        assert (lhs - rhs).is_zero


def test_swap_examples():
    a = basis_form(2, (0,), (1,))
    assert swap(a).components == {((1,), (0,)): P(2, {(0, 0): 1})}
    f = function_form(P(2, {(1, 1): 5}))
    assert swap(f) == f
    sym = basis_form(2, (0,), (0,)) + basis_form(2, (1,), (1,))
    assert is_symmetric(sym)
    assert not is_symmetric(basis_form(2, (0,), (1,)))


def test_swap_involution_and_product_sign(seed=4):
    rng = random.Random(seed)
    for _ in range(30):
        r = rng.randint(1, 3)
        a = rand_form(rng, r, rng.randint(0, r), rng.randint(0, r), deg=2)
        assert swap(swap(a)) == a
        b = rand_form(rng, r, rng.randint(0, r), rng.randint(0, r), deg=2)
        s = (-1) ** (a.p * b.p + a.q * b.q)
        assert (swap(wedge(a, b)) - wedge(swap(b), swap(a)).scale(s)).is_zero


def test_d_second_product_rule():
    f = function_form(P(2, {(1, 1): 1}))
    d = d_second(f)
    assert d.components == {((), (0,)): P(2, {(0, 1): 1}),
                            ((), (1,)): P(2, {(1, 0): 1})}


def test_d_prime_d_second_expansion():
    # d'd''(x1^2 x2) = 2x2 d'x1^d''x1 + 2x1 d'x1^d''x2 + 2x1 d'x2^d''x1
    f = function_form(P(2, {(2, 1): 1}))
    dd = d_prime(d_second(f))
    assert dd.components == {
        ((0,), (0,)): P(2, {(0, 1): 2}),
        ((0,), (1,)): P(2, {(1, 0): 2}),
        ((1,), (0,)): P(2, {(1, 0): 2}),
    }
    assert (dd + d_second(d_prime(f))).is_zero


def test_calculus_identities(seed=9):
    rng = random.Random(seed)
    for _ in range(60):
        r = rng.randint(1, 4)
        a = rand_form(rng, r, rng.randint(0, r), rng.randint(0, r), deg=2)
        assert d_prime(d_prime(a)).is_zero
        assert d_second(d_second(a)).is_zero
        assert (d_prime(d_second(a)) + d_second(d_prime(a))).is_zero


def test_contract_examples():
    a = basis_form(2, (0,), (1,))  # d'x1 ^ d''x2
    e1 = (1, 0)
    # evaluation convention carries (-1)^{p(p+1)/2}: inserting into the
    # d' block of a (1,1)-form contributes (-1)^1
    got = contract(a, [e1], [1])
    assert got.components == {((), (1,)): P(2, {(0, 0): -1})}
    assert contract(a, [e1], [2]).is_zero
    # d''-block insertion has no extra sign
    got = contract(a, [(0, 1)], [2])
    assert got.components == {((0,), ()): P(2, {(0, 0): 1})}


def test_contract_linear_alternating(seed=6):
    rng = random.Random(seed)
    for _ in range(20):
        r = 3
        a = rand_form(rng, r, 2, 1, deg=2)
        u = tuple(rng.randint(-3, 3) for _ in range(r))
        v = tuple(rng.randint(-3, 3) for _ in range(r))
        w = tuple(x + y for x, y in zip(u, v))
        lin = contract(a, [w], [1]) - contract(a, [u], [1]) - contract(a, [v], [1])
        assert lin.is_zero
        # alternating within the d' block: inserting u twice gives zero
        assert contract(a, [u, u], [1, 2]).is_zero
        # insertion order across slots agrees with simultaneous insertion
        ab = contract(contract(a, [v], [2]), [u], [1])
        ba = contract(a, [u, v], [1, 2])
        assert (ab - ba).is_zero


def test_contract_integration_identity():
    # for a in A^{n,n}: int a = (-1)^{n(n-1)/2} int <a; e_1..e_n>_{n+1..2n}
    # as a classical n-form, on the unit cube
    from conftest import box
    from tropform.integrate import integrate_polytope
    rng = random.Random(13)
    for n in (1, 2, 3):
        a = rand_form(rng, n, n, n, deg=2)
        basis = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
        c = contract(a, basis, list(range(n + 1, 2 * n + 1)))
        # c = g d'x_L; the classical integral of g dx_L over [0,1]^n
        g = c.coefficient(tuple(range(n)), ())
        classical = _integrate_box_poly(g, n)
        sign = (-1) ** (n * (n - 1) // 2)
        assert integrate_polytope(box(n), a) == sign * classical


def _integrate_box_poly(g, n):
    total = Fraction(0)
    for e, coeff in g.terms.items():
        piece = coeff
        for k in e:
            piece /= (k + 1)
        total += piece
    return total


def test_pullback_examples():
    a = basis_form(1, (0,), (0,), P(1, {(1,): 1}))
    ident = AffineMap([[1]], [Fraction(0)])
    assert pullback(ident, a) == a
    double = AffineMap([[2]], [Fraction(0)])
    got = pullback(double, basis_form(1, (0,), (0,)))
    assert got.components == {((0,), (0,)): P(1, {(0,): 4})}


def test_pullback_functorial_and_commutes_with_d(seed=7):
    rng = random.Random(seed)
    for _ in range(25):
        r, k, m = 2, 3, 2
        a = rand_form(rng, r, rng.randint(0, 1), rng.randint(0, 1), deg=2)
        f = AffineMap([[rng.randint(-2, 2) for _ in range(k)] for _ in range(r)],
                      [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                       for _ in range(r)])
        g = AffineMap([[rng.randint(-2, 2) for _ in range(m)] for _ in range(k)],
                      [Fraction(rng.randint(-2, 2)) for _ in range(k)])
        assert pullback(g, pullback(f, a)) == pullback(f.compose(g), a)
        assert (pullback(f, d_prime(a)) - d_prime(pullback(f, a))).is_zero
        assert (pullback(f, d_second(a)) - d_second(pullback(f, a))).is_zero


def test_zero_and_bidegree_bounds():
    z = zero_form(2, 1, 1)
    assert z.is_zero
    a = rand_form(random.Random(0), 2, 2, 1, deg=1)
    assert d_prime(a).is_zero  # p already equals r
