"""Bergman fans of matroids: balanced cycles of every codimension, built
with no corner locus.

The matroid of n integer columns has the flats of their rank function.  Its
Bergman fan lives in R^n / R(1, ..., 1), taken as R^(n-1) with element 0
sent to e_0 = -(e_1 + ... + e_(n-1)): one cone for each maximal chain of
proper nonempty flats F_1 < ... < F_(d-1), d the rank, spanned by the
indicator vectors e_F = sum_(i in F) e_i, each with weight 1.  It is
balanced (Ardila & Klivans, J. Combin. Theory Ser. B 96, 2006; Maclagan &
Sturmfels, "Introduction to Tropical Geometry", section 4.2).  A chain's
e_F are part of a lattice basis, so raising one cone's weight by 1 leaves
at each of its facets the outward vector -e_F of the ray the facet omits.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import witness_faces

from tropform.cycle import WeightedComplex, check_balancing, pushforward
from tropform.lattice import lattice_from_rows, reduce_mod_lattice, vec_neg
from tropform.polyhedra import from_generators
from tropform.superform import AffineMap


def uniform(k, n):
    """Vandermonde columns (1, x, ..., x^(k-1)) at x = 0, ..., n - 1: every
    k of them are independent, so their matroid is U_(k,n)."""
    return [tuple(x ** j for j in range(k)) for x in range(n)]


# rank 3 on five elements, the last two columns parallel
PARALLEL = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 2, 2)]


def maximal_chains(cols):
    """The maximal chains of proper nonempty flats of the matroid of the
    columns, which must have no zero column, as tuples of frozensets."""
    n, k = len(cols), len(cols[0])

    def rank(s):
        return lattice_from_rows([cols[i] for i in s], k).rank

    flats = {}
    for size in range(1, n):
        for s in combinations(range(n), size):
            r = rank(s)
            if all(rank(s + (i,)) > r for i in range(n) if i not in s):
                flats.setdefault(r, []).append(frozenset(s))
    chains = [(f,) for f in flats[1]]
    for r in range(2, rank(range(n))):
        chains = [c + (f,) for c in chains for f in flats[r] if c[-1] < f]
    return chains


def indicator(flat, n):
    """e_F in R^(n-1), element 0 sent to -(e_1 + ... + e_(n-1))."""
    return tuple((i + 1 in flat) - (0 in flat) for i in range(n - 1))


def bergman_fan(cols, apex):
    """The Bergman fan of the matroid of cols, its apex moved to apex."""
    n = len(cols)
    return WeightedComplex([(from_generators([apex], [indicator(f, n) for f in chain]), 1)
                            for chain in maximal_chains(cols)])


def raised(wc):
    """wc with the weight of its first cell raised by 1."""
    return WeightedComplex([(c, m + (i == 0)) for i, (c, m) in enumerate(wc.weighted_cells())])


def random_apex(rng, n):
    return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n - 1))


# (k, n) -> violations of the fan with its first cell's weight raised by 1:
# one at each facet of that cell, whose dimension is k - 1
UNIFORM = {(2, 3): 1, (2, 4): 1, (3, 4): 2, (2, 5): 1, (3, 5): 2, (4, 5): 3, (2, 6): 1}


def test_uniform_matroids_have_the_expected_fans():
    assert [len(maximal_chains(uniform(k, n))) for k, n in UNIFORM] == \
        [3, 4, 12, 5, 20, 60, 6]
    assert sorted(maximal_chains(uniform(2, 3))) == [({0},), ({1},), ({2},)]
    # the parallel pair {3, 4} is one flat of rank 1
    assert frozenset({3, 4}) in {c[0] for c in maximal_chains(PARALLEL)}


@pytest.mark.parametrize("cols, violations",
                         [(uniform(k, n), v) for (k, n), v in UNIFORM.items()]
                         + [(PARALLEL, 2)])
def test_bergman_fans_are_balanced_and_a_raised_weight_is_not(cols, violations):
    n = len(cols)
    wc = bergman_fan(cols, random_apex(random.Random(n), n))
    assert wc.dim == len(maximal_chains(cols)[0])
    assert check_balancing(wc) == []
    # the raised cell's facet that omits its ray e_F is left with the excess
    # -e_F modulo the direction lattice of the facet, spanned by the other rays
    rays = wc.weighted_cells()[0][0].rays
    expected = sorted(tuple(reduce_mod_lattice(vec_neg(e), lattice_from_rows(
        [d for d in rays if d != e], n - 1))) for e in rays)
    found = check_balancing(raised(wc))
    assert len(found) == violations
    assert sorted(tuple(excess) for _, excess in found) == expected


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5)])
def test_witness_faces_agree_on_bergman_fans(k, n):
    wc = bergman_fan(uniform(k, n), random_apex(random.Random(k * n), n))
    assert witness_faces(wc) == []
    broken = raised(wc)
    assert [w.key() for w in witness_faces(broken)] == \
        [rho.key() for rho, _ in check_balancing(broken)]


@st.composite
def _fans_and_maps(draw):
    """A shifted Bergman fan of a small matroid and an integral affine map
    from its R^(n-1) to R^m, with m from the fan's dimension up to 3."""
    cols = draw(st.sampled_from([uniform(2, 3), uniform(2, 4), uniform(3, 4),
                                 uniform(2, 5), PARALLEL]))
    n = len(cols)
    halves = st.fractions(-2, 2, max_denominator=2)
    wc = bergman_fan(cols, draw(st.tuples(*[halves] * (n - 1))))
    m = draw(st.integers(wc.dim, 3))
    linear = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1),
                           min_size=m, max_size=m))
    return wc, AffineMap(linear, draw(st.lists(halves, min_size=m, max_size=m)))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_fans_and_maps())
def test_pushforwards_of_bergman_fans_are_balanced(case):
    wc, f = case
    assert check_balancing(pushforward(f, wc)) == []
