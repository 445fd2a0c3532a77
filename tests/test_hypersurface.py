"""Corner loci of tropical polynomials and their balancing."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from tropform import io as tio
from tropform import polyhedra
from tropform.cycle import WeightedComplex, check_balancing
from tropform.hypersurface import corner_locus, tropical_polynomial
from tropform.lattice import dot, vec_neg, vec_sub
from tropform.polyhedra import from_generators, from_halfspaces


def test_tropical_line():
    tp = tropical_polynomial([((1, 0), 0), ((0, 1), 0), ((0, 0), 0)], 2)
    wc = corner_locus(tp)
    cells = wc.weighted_cells()
    assert len(cells) == 3
    dirs = set()
    for cell, m in cells:
        assert m == 1
        assert len(cell.rays) == 1
        dirs.add(cell.rays[0])
    assert dirs == {(1, 0), (0, 1), (-1, -1)}
    assert check_balancing(wc) == []


def test_double_point():
    # min(2x, 0): corner at x=0 with weight = lattice length of [0,2]
    tp = tropical_polynomial([((2,), 0), ((0,), 0)], 1)
    cells = corner_locus(tp).weighted_cells()
    assert len(cells) == 1
    cell, m = cells[0]
    assert cell.vertices == ((Fraction(0),),)
    assert m == 2


def test_duplicate_exponent_rejected():
    with pytest.raises(ValueError):
        tropical_polynomial([((1, 0), 0), ((1, 0), 1)], 2)
    with pytest.raises(ValueError):
        tropical_polynomial([((1, 0), 0)], 2)


def test_non_integral_exponent_rejected():
    with pytest.raises(ValueError, match="non-integral"):
        tropical_polynomial([((Fraction(1, 2),), 0), ((1,), 1)], 1)
    assert tropical_polynomial([((Fraction(2),), 0), ((1,), 1)], 1).terms[0][0] == (2,)


def test_min_oracle_sampling(seed=51):
    # the locus is exactly where the min is attained at least twice
    rng = random.Random(seed)
    tp = tropical_polynomial([((1, 0), Fraction(1)), ((0, 1), Fraction(-1)),
                              ((0, 0), Fraction(0)), ((1, 1), Fraction(2))], 2)
    wc = corner_locus(tp)
    cells = [c for c, _ in wc.weighted_cells()]
    for _ in range(200):
        x = (Fraction(rng.randint(-40, 40), 8), Fraction(rng.randint(-40, 40), 8))
        values = sorted(dot(m, x) + c for m, c in tp.terms)
        on_locus = values[0] == values[1]
        in_cells = any(c.contains(x) for c in cells)
        assert on_locus == in_cells


def test_balanced_random_coefficients(seed=52):
    rng = random.Random(seed)
    supports = [
        [(1, 0), (0, 1), (0, 0)],
        [(2, 0), (0, 2), (0, 0), (1, 1)],
        [(1, 0), (0, 1), (0, 0), (2, 1), (1, 2)],
    ]
    for support in supports:
        for _ in range(4):
            terms = [(m, Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
                     for m in support]
            wc = corner_locus(tropical_polynomial(terms, 2))
            assert check_balancing(wc) == []
    # a 3-dimensional example
    terms = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((0, 0, 0), 1)]
    wc = corner_locus(tropical_polynomial(terms, 3))
    assert wc.dim == 2
    assert check_balancing(wc) == []


def test_translation_invariances():
    base = [((1, 0), Fraction(1)), ((0, 1), Fraction(0)), ((0, 0), Fraction(2))]
    wc = corner_locus(tropical_polynomial(base, 2))
    # common constant shift leaves the cycle unchanged
    shifted = [(m, c + 5) for m, c in base]
    wc2 = corner_locus(tropical_polynomial(shifted, 2))
    assert [(c.key(), m) for c, m in wc.weighted_cells()] == \
        [(c.key(), m) for c, m in wc2.weighted_cells()]
    # adding <a, m> translates the cycle by -a (min convention)
    a = (2, -3)
    moved = [(m, c + dot(a, m)) for m, c in base]
    wc3 = corner_locus(tropical_polynomial(moved, 2))
    expected = set()
    for cell, m in wc.weighted_cells():
        verts = [tuple(v[i] - a[i] for i in range(2)) for v in cell.vertices]
        tr = from_generators(verts, [list(r) for r in cell.rays],
                             [list(l) for l in cell.lineality], 2)
        expected.add((tr.key(), m))
    got = set((c.key(), m) for c, m in wc3.weighted_cells())
    assert got == expected


def test_max_convention():
    tp_min = tropical_polynomial([((1,), 0), ((0,), 0)], 1, "min")
    tp_max = tropical_polynomial([((1,), 0), ((0,), 0)], 1, "max")
    for tp in (tp_min, tp_max):
        cells = corner_locus(tp).weighted_cells()
        assert len(cells) == 1
        assert cells[0][0].vertices == ((Fraction(0),),)
        assert cells[0][1] == 1
    # max of (2x, x, 0) has corners where the max ties: x=0 only for max of
    # the upper envelope; weight via the negated-terms reduction
    tp = tropical_polynomial([((2,), 0), ((1,), 0), ((0,), 0)], 1, "max")
    cells = corner_locus(tp).weighted_cells()
    assert [(c.vertices, m) for c, m in cells] == [((((Fraction(0),)),), 2)]


def test_binomial_locus_is_hyperplane():
    # min(x, y) ties exactly on the diagonal, an unbounded 1-cell of weight 1
    wc = corner_locus(tropical_polynomial([((1, 0), 0), ((0, 1), 0)], 2))
    assert wc.dim == 1
    cells = wc.weighted_cells()
    assert len(cells) == 1
    cell, m = cells[0]
    assert m == 1
    assert cell.lineality == ((1, 1),)


# -- the hypograph construction against the pairwise one ------------------

def _oracle_corner_locus(tp):
    """Corner locus built pair by pair: for each pair of monomials, the cell
    where both attain the minimum, kept when it has codimension 1, with the
    lattice length between the extreme monomials active at its interior."""
    r = tp.ambient_dim
    if tp.convention == "max":
        terms = [(tuple(-x for x in m), -c) for m, c in tp.terms]
    else:
        terms = [(m, Fraction(c)) for m, c in tp.terms]
    cells = {}
    for (m1, c1), (m2, c2) in combinations(terms, 2):
        u = vec_sub(m1, m2)
        hs = [(u, c2 - c1), (vec_neg(u), c1 - c2)]
        hs += [(vec_sub(m1, m), c - c1) for m, c in terms if m != m1]
        cell = from_halfspaces(hs, r)
        if not cell.is_empty and cell.dim == r - 1:
            cells.setdefault(cell.key(), cell)
    weighted = []
    for cell in cells.values():
        x = cell.rel_interior_point()
        values = [dot(m, x) + c for m, c in terms]
        active = [m for (m, _), v in zip(terms, values) if v == min(values)]
        weighted.append((cell, gcd(*vec_sub(max(active), min(active)))))
    return WeightedComplex(weighted)


@st.composite
def _tropical_polynomials(draw):
    """Supports in R^1, R^2, R^3 spanning a line, a plane or everything,
    with negative exponents and rational coefficients, under both
    conventions.  A support spanning less than R^r gives a hypograph with
    lineality."""
    r = draw(st.integers(1, 3))
    span = draw(st.integers(1, r))
    small = st.integers(-2, 2)
    base = draw(st.tuples(*[small] * r))
    dirs = draw(st.lists(st.tuples(*[small] * r), min_size=span, max_size=span))
    steps = draw(st.lists(st.tuples(*[small] * span), min_size=2, max_size=7, unique=True))
    support = sorted({tuple(b + sum(a * d[i] for a, d in zip(step, dirs))
                            for i, b in enumerate(base)) for step in steps})
    assume(len(support) >= 2)
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    return tropical_polynomial([(m, draw(coeff)) for m in support], r,
                               draw(st.sampled_from(["min", "max"])))


def _cells(wc):
    return [(c.key(), c.halfspaces, c.equalities, c.direction_lattice.basis,
             c.facet_vertices, c.facet_rays, m) for c, m in wc.weighted_cells()]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_tropical_polynomials())
def test_corner_locus_matches_pairwise_construction(tp):
    got, want = corner_locus(tp), _oracle_corner_locus(tp)
    assert tio.emit(got) == tio.emit(want)
    assert _cells(got) == _cells(want)


def test_corner_locus_runs_one_double_description(monkeypatch):
    # dense r = 2, d = 4: 15 monomials, 105 pairs
    terms = [(m, sum(x * x for x in m) + Fraction(i % 3, 4))
             for i, m in enumerate(m for m in product(range(5), repeat=2) if sum(m) <= 4)]
    tp = tropical_polynomial(terms, 2)
    calls = []
    dd = polyhedra.dual_description
    monkeypatch.setattr(polyhedra, "dual_description",
                        lambda *args: calls.append(args) or dd(*args))
    wc = corner_locus(tp)
    assert len(calls) == 1
    assert check_balancing(wc) == []
