"""Polynomial arithmetic on integer numerators over one denominator against
the earlier Fraction-coefficient polynomial, kept here as an exact oracle,
and a guard that no polynomial of the calculus holds a Fraction."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from conftest import box, rand_form, rand_symmetric, simplex

from tropform.integrate import green_residual, stokes_residual
from tropform.superform import Polynomial, basis_form


class FractionPolynomial:
    """Multivariate polynomial over Q whose terms map exponent tuples to
    nonzero Fractions; composition by its own arithmetic."""

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {tuple(e): Fraction(c) for e, c in (terms or {}).items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return FractionPolynomial(self.nvars, out)

    def __neg__(self):
        return FractionPolynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return FractionPolynomial(self.nvars, out)

    def scale(self, c):
        return FractionPolynomial(self.nvars, {e: c * x for e, x in self.terms.items()})

    def partial(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return FractionPolynomial(self.nvars, out)

    def evaluate(self, point):
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                for _ in range(k):
                    v *= x
            total += v
        return total

    def compose_affine(self, linear_rows, translate, new_nvars):
        one = FractionPolynomial(new_nvars, {(0,) * new_nvars: 1})
        subs = []
        for row, t in zip(linear_rows, translate):
            s = FractionPolynomial(new_nvars, {(0,) * new_nvars: t})
            for j, a in enumerate(row):
                e = [0] * new_nvars
                e[j] = 1
                s = s + FractionPolynomial(new_nvars, {tuple(e): a})
            subs.append(s)
        out = FractionPolynomial(new_nvars)
        for e, c in self.terms.items():
            term = one.scale(c)
            for s, k in zip(subs, e):
                for _ in range(k):
                    term = term * s
            out = out + term
        return out


def assert_canonical(poly):
    assert type(poly.den) is int and poly.den > 0
    assert all(type(n) is int and n for n in poly.num.values())
    assert gcd(poly.den, *poly.num.values()) == 1


SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)
_RATIONAL = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


def _terms(data, r):
    exponent = st.tuples(*[st.integers(0, 3)] * r)
    return data.draw(st.dictionaries(exponent, st.one_of(st.integers(-5, 5), _RATIONAL),
                                     max_size=5))


@SETTINGS
@given(st.integers(1, 4), st.data())
def test_arithmetic_matches_fraction_polynomials(r, data):
    ta, tb = _terms(data, r), _terms(data, r)
    a, b = Polynomial(r, ta), Polynomial(r, tb)
    oa, ob = FractionPolynomial(r, ta), FractionPolynomial(r, tb)
    results = [(a + b, oa + ob), (a - b, oa - ob), (a * b, oa * ob), (-a, -oa)]
    for c in (0, 1, -1, data.draw(st.integers(-9, 9)), data.draw(_RATIONAL),
              Fraction(0), Fraction(-1)):
        results.append((a.scale(c), oa.scale(c)))
    i = data.draw(st.integers(0, r - 1))
    results.append((a.partial(i), oa.partial(i)))
    m = data.draw(st.integers(0, 3))
    entry = st.one_of(st.integers(-3, 3), _RATIONAL)
    rows = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=r, max_size=r))
    shift = data.draw(st.lists(_RATIONAL, min_size=r, max_size=r))
    results.append((a.compose_affine(rows, shift, m), oa.compose_affine(rows, shift, m)))
    for got, want in [(a, oa), (b, ob)] + results:
        assert_canonical(got)
        assert got.nvars == want.nvars
        assert got.terms == want.terms
        assert all(type(c) is Fraction for c in got.terms.values())
    point = data.draw(st.lists(entry, min_size=r, max_size=r))
    value = a.evaluate(point)
    assert type(value) is Fraction and value == oa.evaluate(point)


@SETTINGS
@given(st.integers(1, 4), st.data())
def test_equal_polynomials_built_differently_are_equal_and_hash_equal(r, data):
    a, b = Polynomial(r, _terms(data, r)), Polynomial(r, _terms(data, r))
    c = data.draw(_RATIONAL.filter(bool))
    for same in (a + b - b, b + a - b, a.scale(c).scale(1 / c), (a * b) - (b * a) + a,
                 Polynomial(r, a.terms)):
        assert_canonical(same)
        assert same == a and hash(same) == hash(a)
    zero = a - a
    assert zero == Polynomial(r) and hash(zero) == hash(Polynomial(r))
    assert zero.den == 1


def test_mixed_variable_counts_are_rejected():
    two, three = Polynomial(2, {(1, 0): 1}), Polynomial(3, {(0, 0, 1): 1})
    for op in (lambda: two * three, lambda: two + three, lambda: three - two):
        with pytest.raises(ValueError, match="2 and 3 variables|3 and 2 variables"):
            op()
    with pytest.raises(ValueError, match="3 variables on R\\^2"):
        basis_form(2, (0,), (1,), three)


def test_green_and_stokes_build_no_fraction_coefficient(monkeypatch):
    """Every polynomial that one Green and one Stokes residual on the cube
    and on the simplex build, the forms' own included, holds int numerators
    over an int denominator in lowest terms.  Polynomials are built by the
    public constructor or by ``_trusted``; both are wrapped."""
    built = []
    init, trusted = Polynomial.__init__, Polynomial._trusted

    def recording_init(poly, *args):
        init(poly, *args)
        built.append(poly)

    def recording_trusted(cls, *args):
        built.append(trusted(*args))
        return built[-1]

    monkeypatch.setattr(Polynomial, "__init__", recording_init)
    monkeypatch.setattr(Polynomial, "_trusted", classmethod(recording_trusted))
    rng = random.Random(3)
    for sigma in (box(3), simplex(3)):
        alpha, beta = rand_symmetric(rng, 3, 1), rand_symmetric(rng, 3, 1)
        assert green_residual(sigma, alpha, beta) == 0
        eta = [rand_form(rng, 3, p, q, deg=2) for p, q in ((2, 3), (3, 2))]
        assert stokes_residual(sigma, *eta) == (0, 0)
    monkeypatch.undo()
    assert len(built) > 100
    for poly in built:
        assert_canonical(poly)
