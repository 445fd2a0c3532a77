"""Balancing and outward vectors against their earlier implementations,
kept here as exact oracles: ``outward_vector`` finding the facet
inequality of sigma tight on rho by dot products and handing it to
``primitive_outward``, and ``check_balancing`` building every facet as a
polyhedron and grouping the faces by their hull equalities."""

import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from conftest import dense_terms, output_key

from tropform.cycle import (
    WeightedComplex,
    _overlay,
    _split,
    check_balancing,
    pushforward,
)
from tropform.hypersurface import corner_locus, tropical_polynomial
from tropform.integrate import outward_vector
from tropform.lattice import (
    determinant,
    dot,
    member,
    primitive_outward,
    reduce_mod_lattice,
)
from tropform.polyhedra import (
    _facet_records,
    _integral,
    faces,
    from_generators,
    from_halfspaces,
)
from tropform.superform import AffineMap


def _oracle_outward_vector(sigma, rho):
    """The facet inequality of sigma tight at every vertex, ray and line of
    rho, found by dot products, and its outward generator."""
    verts = [_integral(v) for v in rho.vertices]
    for u, c in sigma.halfspaces:
        tight = all(dot(u, x) * c.denominator == c.numerator * t for x, t in verts) \
            and all(dot(u, r) == 0 for r in rho.rays) \
            and all(dot(u, l) == 0 for l in rho.lineality)
        if tight:
            return primitive_outward(sigma.direction_lattice, rho.direction_lattice, u)
    raise ValueError("rho is not a facet of sigma")


def _oracle_check_balancing(wc):
    """Every facet of every cell built, grouped by its hull equalities and
    overlaid within each group."""
    if wc.dim < 1:
        return []
    hulls = {}
    for sigma, m in wc.weighted_cells():
        if m == 0:
            continue
        for rho in faces(sigma, 1):
            _, excess = hulls.setdefault(rho.equalities, {}).setdefault(
                rho.key(), (rho, [0] * rho.ambient_dim))
            for i, x in enumerate(_oracle_outward_vector(sigma, rho)):
                excess[i] += m * x
    totals = {}
    for found in hulls.values():
        for rho, _, sums in _overlay(list(found.values())):
            total = [sum(xs) for xs in zip(*sums)]
            totals[rho.key(), tuple(total)] = (rho, total)
    order = sorted(totals, key=lambda k: (output_key(totals[k][0]), k[1]))
    return [(rho, reduce_mod_lattice(total, rho.direction_lattice))
            for rho, total in (totals[k] for k in order)
            if not member(total, rho.direction_lattice)]


RANK2 = AffineMap([[1, 2, -1], [0, 1, 1], [0, 1, 1]], [0, 0, 0])


@st.composite
def _cycles(draw):
    """A corner locus in r = 2 or 3 of a random subset of the dense
    exponents (supports on a line or a plane give cells with lineality),
    then pushed forward (for r = 3 also along a rank-2 map), summed with a
    second locus, or cut through the relative interior of some cells: a
    tropical cycle.  With it, a copy with the weight of one cell changed,
    and that cell."""
    r = draw(st.sampled_from([2, 3]))
    d = 2 if r == 3 else draw(st.integers(2, 3))

    def locus():
        terms = dense_terms(random.Random(draw(st.integers(0, 1 << 16))), r, d)
        keep = draw(st.sets(st.integers(0, len(terms) - 1), min_size=2))
        return corner_locus(tropical_polynomial([terms[i] for i in sorted(keep)], r))
    wc = locus()
    how = draw(st.sampled_from(["locus", "push", "sum", "cut"]))
    if how == "push":
        if r == 3 and draw(st.booleans()):
            f = RANK2
        else:
            linear = [draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
                      for _ in range(r)]
            assume(determinant(linear) != 0)
            f = AffineMap(linear, [Fraction(draw(st.integers(-2, 2)), 2)] * r)
        wc = pushforward(f, wc)
    cells = wc.weighted_cells()
    if how == "sum":
        cells += locus().weighted_cells()
    if how == "cut":
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(cells) - 1))
            cell, m = cells[i]
            u = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
            x = cell.rel_interior_point()
            cells[i:i + 1] = [(half, m) for half in _split(cell, u, dot(u, x))]
    assume(cells)
    mutated = list(cells)
    k = draw(st.integers(0, len(cells) - 1))
    mutated[k] = (cells[k][0], cells[k][1] + draw(st.sampled_from([-1, 1, 2])))
    return WeightedComplex(cells), WeightedComplex(mutated), cells[k][0]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_cycles())
def test_balancing_and_facet_records_match_the_oracles(case):
    wc, mutated, changed = case
    found = [check_balancing(cycle) for cycle in (wc, mutated)]
    assert [repr([(rho.key(), excess) for rho, excess in out]) for out in found] \
        == [repr([(rho.key(), excess) for rho, excess in _oracle_check_balancing(cycle)])
            for cycle in (wc, mutated)]
    # a changed weight unbalances the cycle at every facet of its cell
    assert found[0] == []
    assert bool(found[1]) == bool(changed.halfspaces)
    for sigma, _ in wc.weighted_cells():
        assert hash(sigma) == hash(sigma.key())
        records = _facet_records(sigma)
        want = [(f.key(), f.direction_lattice, _oracle_outward_vector(sigma, f))
                for f in faces(sigma, 1)]
        assert sorted(records, key=lambda rec: rec[0]) == sorted(want, key=lambda rec: rec[0])
        for f in faces(sigma, 1):
            assert outward_vector(sigma, f) == _oracle_outward_vector(sigma, f)
    if not wc.is_zero:
        # the same cell from either representation is one cell of a complex
        sigma, m = wc.weighted_cells()[0]
        r = sigma.ambient_dim
        hs = from_halfspaces(sigma.all_halfspaces(), r)
        gs = from_generators(list(sigma.vertices), sigma.rays, sigma.lineality, r)
        assert hs == gs and hs is not gs and hash(hs) == hash(gs)
        merged = WeightedComplex([(hs, 1), (gs, 2)])
        assert merged.weighted_cells() == [(hs, 3)]
        assert merged.weight(sigma) == merged.weight(gs) == 3
        assert WeightedComplex(wc.weighted_cells() + [(gs, 1)]).weight(hs) == m + 1
