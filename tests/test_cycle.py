"""Tropical cycles: balancing, closedness, Dirac currents, push-forward."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import box, dense_terms, rand_form, segment, witness_faces

from tropform import io as tio
from tropform import cycle, integrate, polyhedra
from tropform.cycle import (
    Current,
    WeightedComplex,
    _split,
    check_balancing,
    current_eval,
    projection_check,
    pushforward,
)
from tropform.hypersurface import corner_locus, tropical_polynomial
from tropform.integrate import integrate_complex, integrate_polytope
from tropform.lattice import (
    determinant,
    dot,
    full_lattice,
    lattice_from_rows,
    lattice_index,
    vec_neg,
)
from tropform.polyhedra import affine_image, from_halfspaces, intersect
from tropform.superform import AffineMap, Polynomial, basis_form, d_prime


def P(r, terms):
    return Polynomial(r, {tuple(e): Fraction(c) for e, c in terms.items()})


def ray(direction, apex=None):
    """Ray from apex (default origin) in the given integer direction."""
    from tropform.polyhedra import from_generators
    r = len(direction)
    if apex is None:
        apex = tuple(0 for _ in range(r))
    return from_generators([apex], [direction], [], r)


def tropical_line():
    return WeightedComplex([(ray((1, 0)), 1), (ray((0, 1)), 1),
                            (ray((-1, -1)), 1)])


def test_weights_must_be_integers():
    seg = segment((0,), (1,))
    for weight in (Fraction(1, 2), 1.5, Fraction(-7, 3)):
        with pytest.raises(ValueError, match="not an integer"):
            WeightedComplex([(seg, weight)])
    wc = WeightedComplex([(seg, Fraction(4, 2)), (seg, 1.0), (seg, -1)])
    assert [(c.key(), m) for c, m in wc.weighted_cells()] == [(seg.key(), 2)]
    assert type(wc.weighted_cells()[0][1]) is int


def test_balanced_line():
    assert check_balancing(tropical_line()) == []
    assert witness_faces(tropical_line()) == []


def test_unbalanced_two_rays():
    wc = WeightedComplex([(ray((1, 0)), 1), (ray((0, 1)), 1)])
    violations = check_balancing(wc)
    assert len(violations) == 1
    rho, t = violations[0]
    assert rho.dim == 0
    # outward vectors across the origin point away from each ray, so the
    # weighted sum is minus the sum of the primitive ray directions
    assert tuple(t) == (-1, -1)
    witnesses = witness_faces(wc)
    assert [w.key() for w in witnesses] == [rho.key()]


def test_balancing_zero_and_point_cycles():
    assert check_balancing(WeightedComplex([])) == []
    pts = WeightedComplex([(segment((0,), (0,)), 3)])
    assert check_balancing(pts) == []
    assert witness_faces(pts) == []
    assert witness_faces(WeightedComplex([])) == []


def test_balancing_weight_sensitivity():
    # doubling one weight of the line breaks balancing at the origin
    wc = WeightedComplex([(ray((1, 0)), 2), (ray((0, 1)), 1),
                          (ray((-1, -1)), 1)])
    assert len(check_balancing(wc)) == 1
    # zero-weight cells are ignored
    wc2 = WeightedComplex([(ray((1, 0)), 1), (ray((0, 1)), 1),
                           (ray((-1, -1)), 1), (ray((1, 1)), 0)])
    assert check_balancing(wc2) == []


def test_balancing_matches_closedness_corpus(seed=41):
    rng = random.Random(seed)
    corpus = []
    for _ in range(10):
        terms = [((1, 0), Fraction(rng.randint(-3, 3))),
                 ((0, 1), Fraction(rng.randint(-3, 3))),
                 ((0, 0), Fraction(rng.randint(-3, 3))),
                 ((1, 1), Fraction(rng.randint(-3, 3)))]
        corpus.append(corner_locus(tropical_polynomial(terms, 2)))
    for wc in corpus:
        assert check_balancing(wc) == []
        assert witness_faces(wc) == []
        cells = wc.weighted_cells()
        broken = WeightedComplex([(c, m + (1 if i == 0 else 0))
                                  for i, (c, m) in enumerate(cells)])
        bal = check_balancing(broken)
        assert bal
        assert sorted(set(r.key() for r, _ in bal)) == [r.key() for r in witness_faces(broken)]


def test_dirac_evaluation():
    wc = WeightedComplex([(segment((0,), (1,)), 1), (segment((1,), (2,)), 1)])
    a = basis_form(1, (0,), (0,), P(1, {(1,): 1}))
    cur = Current.dirac(wc)
    window = box(1, -5, 5)
    assert current_eval(cur, a, window) == 2
    assert current_eval(cur, a, window) == integrate_complex(wc, a)


def test_dirac_operator_sign():
    # (d' delta)(alpha) = -delta(d' alpha) for a 1-dim Dirac on (0,1)-forms
    wc = WeightedComplex([(segment((0,), (2,)), 1)])
    alpha = basis_form(1, (), (0,), P(1, {(2,): 1}))
    window = box(1, -5, 5)
    d_cur = Current.dirac(wc).apply("d_prime")
    plain = Current.dirac(wc)
    assert current_eval(d_cur, alpha, window) == \
        -current_eval(plain, d_prime(alpha), window)


def test_embedded_current():
    from tropform.superform import function_form
    omega = function_form(P(2, {(0, 0): 1}))
    cur = Current.embedded(omega)
    a = rand_form(random.Random(3), 2, 2, 2, deg=2)
    window = box(2)
    assert current_eval(cur, a, window) == integrate_polytope(window, a)


def test_pushforward_scaling():
    f = AffineMap([[2]], [Fraction(0)])
    wc = WeightedComplex([(segment((0,), (1,)), 1)])
    out = pushforward(f, wc)
    cells = out.weighted_cells()
    assert len(cells) == 1
    cell, m = cells[0]
    assert cell == segment((0,), (2,))
    assert m == 2


def test_pushforward_projections():
    proj1 = AffineMap([[1, 0]], [Fraction(0)])
    proj2 = AffineMap([[0, 1]], [Fraction(0)])
    diag = WeightedComplex([(segment((0, 0), (1, 1)), 1)])
    out = pushforward(proj1, diag)
    assert out.weighted_cells()[0][0] == segment((0,), (1,))
    assert out.weighted_cells()[0][1] == 1
    steep = WeightedComplex([(segment((0, 0), (1, 2)), 1)])
    out1 = pushforward(proj1, steep)
    assert out1.weighted_cells() == [(segment((0,), (1,)), 1)]
    # second projection maps Z(1,2) onto 2Z, so the lattice index is 2;
    # the projection formula pins this weight (see test below)
    out2 = pushforward(proj2, steep)
    assert out2.weighted_cells() == [(segment((0,), (2,)), 2)]


def test_pushforward_weight_forced_by_projection_formula():
    proj2 = AffineMap([[0, 1]], [Fraction(0)])
    steep = WeightedComplex([(segment((0, 0), (1, 2)), 1)])
    a = basis_form(1, (0,), (0,))
    left, right = projection_check(proj2, steep, a, box(1, 0, 2))
    assert left == right == 4


def test_pushforward_drops_collapsed_cells():
    proj = AffineMap([[1, 0]], [Fraction(0)])
    vert = WeightedComplex([(segment((0, 0), (0, 1)), 1)])
    assert pushforward(proj, vert).is_zero
    assert pushforward(proj, WeightedComplex([])).is_zero


def test_pushforward_cancellation():
    # opposite weights on mirrored segments cancel in the image
    f = AffineMap([[1, 0]], [Fraction(0)])
    wc = WeightedComplex([(segment((0, 0), (1, 1)), 1),
                          (segment((0, 1), (1, 0)), -1)])
    assert pushforward(f, wc).is_zero


def test_pushforward_preserves_balancing(seed=43):
    rng = random.Random(seed)
    done = 0
    while done < 8:
        terms = [((1, 0), Fraction(rng.randint(-2, 2))),
                 ((0, 1), Fraction(rng.randint(-2, 2))),
                 ((0, 0), Fraction(rng.randint(-2, 2))),
                 ((2, 1), Fraction(rng.randint(-2, 2)))]
        wc = corner_locus(tropical_polynomial(terms, 2))
        assert check_balancing(wc) == []
        m = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] == 0:
            continue
        f = AffineMap(m, [Fraction(0), Fraction(0)])
        out = pushforward(f, wc)
        assert check_balancing(out) == []
        done += 1


def test_pushforward_functoriality():
    f = AffineMap([[2]], [Fraction(0)])
    g = AffineMap([[3]], [Fraction(1)])
    wc = WeightedComplex([(segment((0,), (1,)), 1)])
    gf = AffineMap([[6]], [Fraction(1)])
    a = pushforward(gf, wc)
    b = pushforward(g, pushforward(f, wc))
    assert a.weighted_cells() == b.weighted_cells()


def test_projection_check_times2():
    f = AffineMap([[2]], [Fraction(0)])
    wc = WeightedComplex([(segment((0,), (1,)), 1)])
    a = basis_form(1, (0,), (0,))
    window = box(1, 0, 2)
    left, right = projection_check(f, wc, a, window)
    assert left == right == 4


def test_projection_check_identity_and_diagonal():
    ident = AffineMap([[1]], [Fraction(0)])
    wc = WeightedComplex([(segment((0,), (3,)), 2)])
    a = basis_form(1, (0,), (0,), P(1, {(1,): 1}))
    left, right = projection_check(ident, wc, a, box(1, 0, 3))
    assert left == right
    proj = AffineMap([[1, 0]], [Fraction(0)])
    diag = WeightedComplex([(segment((0, 0), (1, 1)), 1)])
    left, right = projection_check(proj, diag, a, box(1, 0, 1))
    assert left == right


def test_projection_check_random(seed=47):
    rng = random.Random(seed)
    done = 0
    while done < 8:
        m = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] == 0:
            continue
        f = AffineMap(m, [Fraction(rng.randint(-1, 1)), Fraction(0)])
        terms = [((1, 0), Fraction(rng.randint(-2, 2))),
                 ((0, 1), Fraction(rng.randint(-2, 2))),
                 ((0, 0), Fraction(rng.randint(-2, 2)))]
        wc = corner_locus(tropical_polynomial(terms, 2))
        a = rand_form(rng, 2, 1, 1, deg=1)
        left, right = projection_check(f, wc, a, box(2, -4, 4))
        assert left == right
        done += 1


def _oracle_pushforward(f, wc):
    """Reference push-forward: images grouped by affine hull, every ordered
    pair of images intersected, and every cut applied to every piece as two
    intersections with halfspace polyhedra."""
    n, r = wc.dim, f.codomain_dim
    sources = []
    for cell, m in wc.weighted_cells():
        if m != 0:
            img = affine_image(f.linear, f.translate, cell)
            if img.dim == n:
                sources.append((cell, m, img))
    groups = {}
    for entry in sources:
        groups.setdefault(entry[2].equalities, []).append(entry)
    pieces = {}
    for entries in groups.values():
        cuts = set()
        for _, _, img in entries:
            cuts.update((u, Fraction(c)) for u, c in img.halfspaces)
            for x in [intersect(img, other) for _, _, other in sources if other is not img]:
                if not x.is_empty:
                    cuts.update((tuple(e), Fraction(c)) for e, c in x.equalities)
        for _, _, img in entries:
            parts = [img]
            for u, c in sorted(cuts):
                halves = [intersect(p, from_halfspaces([cut], r)) for p in parts
                          for cut in ((u, c), (vec_neg(u), -c))]
                parts = [h for h in halves if not h.is_empty and h.dim == n]
            pieces.update((p.key(), p) for p in parts)
    weighted = []
    for key in sorted(pieces):
        piece = pieces[key]
        x = piece.rel_interior_point()
        total = 0
        for cell, m, img in sources:
            if img.contains(x):
                rows = [f.apply_linear(b) for b in cell.direction_lattice.basis]
                sub = lattice_from_rows([v for v in rows if any(v)], r)
                total += m * lattice_index(sub, piece.direction_lattice)
        if total:
            weighted.append((piece, total))
    return WeightedComplex(weighted)


_EXPONENTS = [(i, j) for i in range(3) for j in range(3)]


@st.composite
def _cycle_and_map(draw):
    """The sum of one or two corner loci of random tropical polynomials in
    r = 2, so that cells may cross, and a random 2x2 integer affine map,
    singular and rank-1 maps included.  The flag is set for one locus under
    an invertible map: its images form a polyhedral complex, so no image
    crosses the relative interior of another."""
    cells = []
    loci = draw(st.integers(1, 2))
    for _ in range(loci):
        exps = draw(st.lists(st.sampled_from(_EXPONENTS), min_size=2, max_size=5,
                             unique=True))
        coeffs = draw(st.lists(st.integers(-6, 6), min_size=len(exps),
                               max_size=len(exps)))
        tp = tropical_polynomial([(e, Fraction(c, 2)) for e, c in zip(exps, coeffs)], 2)
        cells += corner_locus(tp).weighted_cells()
    entry = st.integers(-2, 2)
    linear = draw(st.lists(st.lists(entry, min_size=2, max_size=2), min_size=2, max_size=2))
    shift = draw(st.lists(st.integers(-1, 1), min_size=2, max_size=2))
    invertible = linear[0][0] * linear[1][1] != linear[0][1] * linear[1][0]
    return (WeightedComplex(cells), AffineMap(linear, [Fraction(t) for t in shift]),
            loci == 1 and invertible)


def _equal_up_to_refinement(fine, coarse):
    """True when the weighted complex fine refines coarse within each affine
    hull and both represent one cycle: at the relative interior point of
    every cell of fine, the weights of the cells of coarse in its hull that
    contain the point sum to its weight, and every cell of coarse contains
    the relative interior point of some cell of fine in its hull."""
    coarse_cells = coarse.weighted_cells()
    points = []
    for p, m in fine.weighted_cells():
        x = p.rel_interior_point()
        points.append((p.equalities, x))
        if sum(w for q, w in coarse_cells if q.equalities == p.equalities and q.contains(x)) != m:
            return False
    return all(any(e == q.equalities and q.contains(x) for e, x in points)
               for q, _ in coarse_cells)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_cycle_and_map())
def test_pushforward_matches_pairwise_refinement(case):
    wc, f, no_crossing = case
    new, oracle = pushforward(f, wc), _oracle_pushforward(f, wc)
    # the oracle also cuts each image where an image of another hull meets
    # it, so its pieces refine the new ones; without crossings they agree
    if no_crossing:
        assert tio.emit(new) == tio.emit(oracle)
    assert _equal_up_to_refinement(oracle, new)


def test_equal_up_to_refinement_tells_cycles_apart():
    whole = WeightedComplex([(segment((0,), (2,)), 1)])
    halves = WeightedComplex([(segment((0,), (1,)), 1), (segment((1,), (2,)), 1)])
    assert _equal_up_to_refinement(halves, whole)
    assert not _equal_up_to_refinement(
        WeightedComplex([(segment((0,), (1,)), 1), (segment((1,), (2,)), 2)]), whole)
    assert not _equal_up_to_refinement(
        halves, WeightedComplex([(segment((0,), (2,)), 1), (segment((3,), (4,)), 1)]))


def _mutations(wc):
    """Copies of wc with one weight raised by 1, one per cell."""
    cells = wc.weighted_cells()
    return [WeightedComplex([(c, m + (i == k)) for i, (c, m) in enumerate(cells)])
            for k in range(len(cells))]


def test_balancing_overlays_faces_that_share_a_line():
    # a rectangle below half of the edge [0, 2] x {0} of the top one: on the
    # x-axis the sums differ between the two halves of that edge
    top = from_halfspaces([((1, 0), 2), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)], 2)
    edge, right = ((0, 0), (2, 0)), ((1, 0), (2, 0))
    for lo, m, want in ((0, 1, [(edge, (0, -1))]),
                        (1, 2, [(edge, (0, -1)), (edge, (0, 1)), (right, (0, 1))])):
        bottom = from_halfspaces([((1, 0), lo + 1), ((-1, 0), -lo), ((0, 1), 0),
                                  ((0, -1), 1)], 2)
        bad = check_balancing(WeightedComplex([(top, 1), (bottom, m)]))
        assert [(rho.vertices, tuple(t)) for rho, t in bad
                if all(v[1] == 0 for v in rho.vertices)] == want


def test_pushforward_r3_is_balanced():
    # in-hull cuts leave pieces that meet cells of other planes in part of
    # an edge; balancing is read off the overlay of the edges on each line
    wc = corner_locus(tropical_polynomial(dense_terms(random.Random(5), 3, 2), 3))
    assert check_balancing(wc) == []
    rng = random.Random(3)
    while True:
        linear = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        if determinant(linear) != 0:
            break
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    for lin in (identity, linear):
        pf = pushforward(AffineMap(lin, [Fraction(1), Fraction(0), Fraction(-1, 2)]), wc)
        assert check_balancing(pf) == []
        assert all(check_balancing(m) for m in _mutations(pf))


_CUT_AT = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]


@st.composite
def _locus_and_refinement(draw):
    """A corner locus in r = 2 or 3 of a random subset of the dense
    exponents (supports on a line or a plane give cells with lineality),
    optionally with the weight of a cell with a facet raised by 1, and a
    random refinement of it: cells cut by random hyperplanes through their
    relative interior, keeping their weights."""
    r = draw(st.sampled_from([2, 3]))
    d = 2 if r == 3 else draw(st.integers(2, 3))
    terms = dense_terms(random.Random(draw(st.integers(0, 1 << 16))), r, d)
    keep = draw(st.sets(st.integers(0, len(terms) - 1), min_size=2))
    cells = corner_locus(tropical_polynomial([terms[i] for i in sorted(keep)], r)) \
        .weighted_cells()
    # raising the weight of a cell with a facet unbalances the locus there
    k = draw(st.integers(0, len(cells) - 1))
    mutated = draw(st.booleans()) and bool(cells[k][0].halfspaces)
    if mutated:
        cells[k] = (cells[k][0], cells[k][1] + 1)
    locus = WeightedComplex(cells)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(cells) - 1))
        cell, m = cells[i]
        u = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
        v = cell.vertices[draw(st.integers(0, len(cell.vertices) - 1))]
        t = draw(st.sampled_from(_CUT_AT))
        x = [a + t * (b - a) for a, b in zip(cell.rel_interior_point(), v)]
        cells[i:i + 1] = [(half, m) for half in _split(cell, u, dot(u, x))]
    return locus, WeightedComplex(cells), mutated


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_locus_and_refinement())
def test_balancing_is_invariant_under_refinement(case):
    locus, refined, mutated = case
    assert bool(check_balancing(locus)) == mutated
    assert bool(check_balancing(refined)) == mutated


def _count_facet_builds(monkeypatch):
    """A list that records (p, i) for each facet ``_facet`` builds, not
    for those it finds kept on p, wherever it is called from."""
    builds = []
    build = polyhedra._facet

    def counted(p, i):
        if p._facets is None or p._facets[i] is None:
            builds.append((p, i))
        return build(p, i)
    for module in (polyhedra, cycle, integrate):
        monkeypatch.setattr(module, "_facet", counted)
    return builds


def test_weighted_complex_and_pushforward_build_only_what_they_read(monkeypatch):
    a, b = segment((0, 0), (1, 2)), segment((1, 2), (3, 2))
    one = WeightedComplex([(segment((0, 0), (1, 2)), 1)])
    ident = AffineMap([[1, 0], [0, 1]], [Fraction(0), Fraction(0)])
    builds, dd_calls = _count_facet_builds(monkeypatch), []
    dd = polyhedra.dual_description
    monkeypatch.setattr(polyhedra, "dual_description",
                        lambda *args: dd_calls.append(args) or dd(*args))
    WeightedComplex([(a, 1), (b, 1)])
    assert builds == []
    # the image is built with one double description, and neither facet
    # hyperplane crosses the segment
    assert pushforward(ident, one).weighted_cells() == one.weighted_cells()
    assert len(dd_calls) == 1 and builds == []


def test_balancing_builds_only_the_faces_it_overlays_or_reports(monkeypatch):
    builds, dd_calls = _count_facet_builds(monkeypatch), []
    dd = polyhedra.dual_description
    monkeypatch.setattr(polyhedra, "dual_description",
                        lambda *args: dd_calls.append(args) or dd(*args))
    # a balanced locus is read off the incidence of its cells alone
    locus = corner_locus(tropical_polynomial(dense_terms(random.Random(1), 2, 3), 2))
    dd_calls.clear()
    assert check_balancing(locus) == []
    assert builds == [] and dd_calls == []
    # the tropical plane in R^3 with cone(e1, e2) cut along x = 1: the
    # line R e1 holds three faces and is overlaid, each face built alone
    # from one cell that has it; every other line holds one face, and no
    # other facet is built
    e1, e2, e3, e0 = (1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)
    origin = (0, 0, 0)

    def cone(*rays):
        return polyhedra.from_generators([origin], rays, [], 3)
    cut = [polyhedra.from_generators([origin, e1], [e2], [], 3),
           polyhedra.from_generators([e1], [e1, e2], [], 3)]
    on_e1 = [cone(e1, e3), cone(e1, e0)] + cut
    elsewhere = [cone(e2, e3), cone(e2, e0), cone(e3, e0)]
    plane = WeightedComplex([(c, 1) for c in on_e1 + elsewhere])
    assert check_balancing(plane) == []
    assert len(builds) == 3 and {p for p, _ in builds} <= set(on_e1)
    assert sorted((p._facets[i].vertices, p._facets[i].rays) for p, i in builds) == [
        (((0, 0, 0),), ((1, 0, 0),)), (((0, 0, 0), (1, 0, 0)), ()), (((1, 0, 0),), ((1, 0, 0),))]
    # a violation at the ends of a segment off a balanced line builds that
    # segment's two facets and nothing else
    builds.clear()
    seg = segment((5, 5), (6, 5))
    bad = check_balancing(WeightedComplex(tropical_line().weighted_cells() + [(seg, 1)]))
    assert [(rho.vertices, tuple(t)) for rho, t in bad] == [(((5, 5),), (-1, 0)),
                                                            (((6, 5),), (1, 0))]
    assert sorted(i for _, i in builds) == [0, 1] and {p for p, _ in builds} == {seg}
    # with a ray continuing it past (6, 5), only the facet at (5, 5) is
    # reported, and it is the one facet built
    builds.clear()
    seg = segment((5, 5), (6, 5))
    ray = polyhedra.from_generators([(6, 5)], [(1, 0)], [], 2)
    bad = check_balancing(WeightedComplex(tropical_line().weighted_cells() + [(seg, 1),
                                                                              (ray, 1)]))
    assert [(rho.vertices, tuple(t)) for rho, t in bad] == [(((5, 5),), (-1, 0))]
    assert [(p, p._facets[i].vertices) for p, i in builds] == [(seg, ((5, 5),))]


def test_truncated_keeps_cells_inside_the_window(monkeypatch):
    inside, crossing = segment((0, 0), (1, 2)), segment((1, 2), (5, 2))
    wc = WeightedComplex([(inside, 1), (crossing, 2)])
    window, cut = box(2, -1, 3), segment((1, 2), (3, 2))
    dd_calls = []
    dd = polyhedra.dual_description
    monkeypatch.setattr(polyhedra, "dual_description",
                        lambda *args: dd_calls.append(args) or dd(*args))
    out = wc.truncated(window)
    assert out.weighted_cells() == [(inside, 1), (cut, 2)]
    # only the crossing cell is intersected with the window
    assert len(dd_calls) == 1


def test_construction_runs_no_smith_form(monkeypatch):
    from tropform import lattice
    calls = []
    snf_transform = lattice.snf_transform
    monkeypatch.setattr(lattice, "snf_transform",
                        lambda *args: calls.append(args) or snf_transform(*args))
    wedge = polyhedra.from_generators([(0, 0, 0), (1, 2, 0)], [(1, 0, 0)], [(0, 1, 3)], 3)
    image = affine_image([[1, 1, 0], [0, 2, 1]], [0, Fraction(1, 2)], box(3))
    for p in (from_halfspaces([((2, 1, 0), 4), ((-1, 0, 0), 0), ((0, -1, 0), 0)], 3),
              wedge, image, box(3)):
        for codim in range(p.dim + 1):
            polyhedra.faces(p, codim)
    rng = random.Random(5)
    plane, space = (corner_locus(tropical_polynomial(dense_terms(rng, r, 2), r))
                    for r in (2, 3))
    assert check_balancing(space) == []
    pushed = pushforward(AffineMap([[2, 1], [0, 1]], [0, 0]), plane)
    assert check_balancing(pushed) == []
    assert lattice_index(lattice_from_rows([[2, 0], [1, 3]], 2), full_lattice(2)) == 6
    assert calls == []
