"""Polyhedra: canonical forms, faces, complexes, refinement, triangulation."""

import gc
import random
import weakref
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import box, segment, simplex
from oracles import brute_force_vertices, simplex_volume, vertex_simplices

from tropform import io as tio, polyhedra
from tropform.cycle import _split
from tropform.lattice import (
    dot,
    full_lattice,
    lattice_from_rows,
    primitive,
    rational_rank,
    saturate,
    vec_neg,
    vec_sub,
)
from tropform.polyhedra import (
    EMPTY,
    Complex,
    all_faces,
    affine_image,
    complex_from_cells,
    faces,
    facets,
    from_generators,
    from_halfspaces,
    intersect,
    refine,
    triangulate,
    truncate,
    validate_complex,
)


def test_empty_and_point():
    p = from_halfspaces([((1,), Fraction(0)), ((-1,), Fraction(-1))], 1)
    assert p.is_empty
    pt = from_halfspaces([((1,), Fraction(2)), ((-1,), Fraction(-2))], 1)
    assert pt.dim == 0
    assert pt.vertices == ((Fraction(2),),)


def test_square_geometry():
    sq = box(2)
    assert sq.dim == 2
    assert len(sq.vertices) == 4
    assert sq.is_bounded
    assert len(faces(sq, 1)) == 4
    assert len(faces(sq, 2)) == 4
    assert faces(sq, 0) == [sq]


def test_canonical_identity_from_redundant_descriptions():
    a = box(2)
    extra = [((1, 1), Fraction(5))] + list(a.halfspaces)
    b = from_halfspaces(extra, 2)
    assert a.key() == b.key()
    assert a == b
    c = from_generators([(0, 0), (1, 0), (0, 1), (1, 1),
                         (Fraction(1, 2), Fraction(1, 2))], [], [], 2)
    assert c == a


def test_unbounded_cells():
    quad = from_halfspaces([((-1, 0), Fraction(0)), ((0, -1), Fraction(0))], 2)
    assert quad.dim == 2
    assert not quad.is_bounded
    assert len(quad.rays) == 2
    line = from_halfspaces([((0, 1), Fraction(0)), ((0, -1), Fraction(0))], 2)
    assert line.dim == 1
    assert len(line.lineality) == 1


def test_lower_dimensional_cell():
    diag = segment((0, 0), (2, 2))
    assert diag.dim == 1
    assert diag.direction_lattice.basis == ((1, 1),)
    assert len(diag.equalities) == 1


def test_contains_and_rel_interior():
    s = simplex(3)
    x = s.rel_interior_point()
    assert s.contains(x)
    assert not s.contains((2, 0, 0))
    for f in faces(s, 1):
        assert s.contains(f.rel_interior_point())


def test_contains_rejects_a_point_of_another_dimension():
    # a dot product stops at the shorter vector, so (1/2,) would pass the
    # unit square's rows on x alone
    square = box(2)
    for point in ((Fraction(1, 2),), (0, 0, 0)):
        with pytest.raises(ValueError, match="point length does not match ambient dimension"):
            square.contains(point)
    assert square.contains((Fraction(1, 2), 0))


def test_intersect():
    quad = from_halfspaces([((-1, 0), Fraction(0)), ((0, -1), Fraction(0))], 2)
    window = box(2, -1, 1)
    assert intersect(quad, window) == box(2, 0, 1)
    assert intersect(box(2, 0, 1), box(2, 2, 3)).is_empty


def test_affine_image(monkeypatch):
    sq = box(2)
    img = affine_image([[1, 0]], (Fraction(0),), sq)
    assert img == box(1, 0, 1)
    # an injective map keeps the square's incidence: no double description
    monkeypatch.setattr(polyhedra, "dual_description", None)
    shear = affine_image([[1, 1], [0, 1]], (0, 0), sq)
    assert shear.dim == 2
    assert set(shear.vertices) == {(0, 0), (1, 0), (1, 1), (2, 1)}


def test_complex_face_closure_and_validation():
    sq = box(2)
    cx = complex_from_cells([sq])
    assert len([c for c in cx.cells if c.dim == 1]) == 4
    assert len([c for c in cx.cells if c.dim == 0]) == 4
    assert validate_complex(cx) == []
    # overlapping cells whose intersection is not a common face
    bad = Complex([box(2, 0, 2), box(2, 1, 3)])
    assert validate_complex(bad) != []


def test_refine_segments():
    c = complex_from_cells([segment((0,), (2,))])
    d = complex_from_cells([segment((0,), (1,)), segment((1,), (2,))])
    r = refine(c, d)
    assert validate_complex(r) == []
    tops = r.maximal_cells()
    assert sorted(cell.vertices for cell in tops) == \
        sorted([((Fraction(0),), (Fraction(1),)), ((Fraction(1),), (Fraction(2),))])


def test_truncate_quadrant():
    quad = from_halfspaces([((-1, 0), Fraction(0)), ((0, -1), Fraction(0))], 2)
    cx = complex_from_cells([quad])
    t = truncate(cx, box(2, -1, 1))
    assert validate_complex(t) == []
    assert t.maximal_cells() == [box(2, 0, 1)]


def test_truncate_is_refinement_by_the_window():
    window = box(2, 0, 3)
    inside = box(2, 1, 2)
    crossing = from_halfspaces([((1, 0), 4), ((-1, 0), -2), ((0, 1), 1), ((0, -1), 0)], 2)
    ray = from_generators([(1, 3)], [(1, -1)], [], 2)
    disjoint = [box(2, 5, 6), segment((-1, -1), (-2, 0))]
    cx = complex_from_cells([inside, crossing, ray] + disjoint)
    t = truncate(cx, window)
    assert window._facets is None
    assert [c.key() for c in t.cells] == \
        [c.key() for c in refine(cx, complex_from_cells([window])).cells]
    assert inside in t and crossing not in t and not any(c in t for c in disjoint)
    assert intersect(crossing, window) in t and intersect(ray, window) in t


def test_triangulate_cube():
    cube = box(3)
    tets = vertex_simplices(cube)
    assert len(tets) == 6
    total = sum(simplex_volume(t) for t in tets)
    assert total == 1


def test_triangulate_random_polytopes(seed=2):
    rng = random.Random(seed)
    for _ in range(10):
        pts = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))
               for _ in range(6)]
        p = from_generators(pts, [], [], 2)
        if p.dim < 2:
            continue
        tris = vertex_simplices(p)
        vol = sum(simplex_volume(t) for t in tris)
        assert vol > 0
        # each simplex sits inside p
        for t in tris:
            for v in t:
                assert p.contains(v)


def test_empty_marker():
    assert EMPTY.is_empty
    assert EMPTY.dim == -1
    assert all_faces(box(1)) is not None
    assert from_generators([]) is EMPTY


def test_the_empty_set_is_no_cell_of_a_complex():
    cx = Complex([box(1), EMPTY])
    assert cx.cells == [box(1)]
    assert box(1) in cx and EMPTY not in cx


# -- faces and triangulations from the incidence, against the DD path ------

def _dd_facets(p):
    """Facets found by running the double description method once more on
    the facet's H-description."""
    if p.dim <= 0:
        return []
    out = {}
    for u, c in p.halfspaces:
        f = from_halfspaces(list(p.all_halfspaces()) + [(vec_neg(u), -c)], p.ambient_dim)
        if not f.is_empty and f.dim == p.dim - 1:
            out[f.key()] = f
    return [out[k] for k in sorted(out)]


def _dd_triangulate(p):
    """Placing triangulation from the smallest vertex over _dd_facets."""
    if p.dim == 0:
        return [(p.vertices[0],)]
    if len(p.vertices) == p.dim + 1:
        return [tuple(p.vertices)]
    v0 = p.vertices[0]
    return [s + (v0,) for f in _dd_facets(p) if v0 not in f.vertices
            for s in _dd_triangulate(f)]


def _canonical(f):
    return (f.key(), f.halfspaces, f.equalities, f.direction_lattice.basis)


def _generated(bounded):
    def build(r):
        vec = st.tuples(*[st.integers(-2, 2)] * r)
        return st.builds(
            lambda pts, rays, lines: from_generators(pts, rays, lines, r),
            st.lists(st.tuples(*[st.integers(-3, 3)] * r), min_size=1, max_size=7),
            st.just([]) if bounded else st.lists(vec, max_size=2),
            st.just([]) if bounded else st.lists(vec, max_size=1))
    return st.integers(2, 3).flatmap(build)


FACE_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@FACE_SETTINGS
@given(st.one_of(_generated(True), _generated(False)))
def test_facets_match_double_description(p):
    todo, seen = [p], {p.key()}
    while todo:
        q = todo.pop()
        got = facets(q)
        assert [_canonical(f) for f in got] == [_canonical(f) for f in _dd_facets(q)]
        for f in got:
            if f.key() not in seen:
                seen.add(f.key())
                todo.append(f)


@FACE_SETTINGS
@given(_generated(True))
def test_triangulate_matches_recursive_placing(p):
    assert vertex_simplices(p) == _dd_triangulate(p)


def test_faces_of_built_polyhedra_run_no_double_description(monkeypatch):
    cube = box(3)
    wedge = from_generators([(0, 0, 0), (1, 0, 0), (0, 1, 0)],
                            [(0, 0, 1), (1, 1, 1)], [], 3)
    calls = []
    dd = polyhedra.dual_description
    monkeypatch.setattr(polyhedra, "dual_description",
                        lambda *args: calls.append(args) or dd(*args))
    for p in (cube, wedge):
        facets(p)
        for codim in range(p.dim + 1):
            faces(p, codim)
        all_faces(p)
    triangulate(cube)
    assert calls == []
    box(2)  # the counter does see conversions of input data
    assert calls


def test_face_caches_hold_no_reference_cycle():
    # a polyhedron whose faces were read is freed when its last reference
    # goes, not only when the cyclic garbage collector next runs
    p = box(3)
    all_faces(p)
    triangulate(p)
    alive = weakref.ref(p)
    gc.disable()
    try:
        del p
        assert alive() is None
    finally:
        gc.enable()


# -- the incidence carried from the double description on -----------------

def _reference_dual_description(rows, dim):
    """The double description method with tight sets recomputed by dot
    products at every step."""
    lines = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays, processed = [], []

    def tight_set(r):
        return frozenset(i for i, g in enumerate(processed) if dot(g, r) == 0)

    for g in rows:
        g = tuple(g)
        if not any(g):
            continue
        vals = [dot(g, l) for l in lines]
        if any(vals):
            k = next(i for i, v in enumerate(vals) if v != 0)
            l0, v0 = lines[k], vals[k]
            if v0 > 0:
                l0, v0 = vec_neg(l0), -v0
            lines = [primitive([v0 * a - vals[i] * b for a, b in zip(l, l0)])
                     for i, l in enumerate(lines) if i != k]
            rays = [primitive([-v0 * a + dot(g, r) * b for a, b in zip(r, l0)])
                    for r in rays] + [primitive(l0)]
        else:
            neg = [r for r in rays if dot(g, r) < 0]
            zero = [r for r in rays if dot(g, r) == 0]
            pos = [r for r in rays if dot(g, r) > 0]
            if pos:
                tights = [tight_set(r) for r in rays]
                combos = []
                for rp in pos:
                    for rn in neg:
                        common = tights[rays.index(rp)] & tights[rays.index(rn)]
                        if any(common <= t for r3, t in zip(rays, tights)
                               if r3 is not rp and r3 is not rn):
                            continue
                        vp, vn = dot(g, rp), dot(g, rn)
                        combos.append(primitive([vp * a - vn * b for a, b in zip(rn, rp)]))
                seen = set()
                rays = [r for r in neg + zero + [c for c in combos if any(c)]
                        if not (r in seen or seen.add(r))]
        processed.append(g)
    return lines, rays


def _row_sets():
    """Homogeneous rows in dimension 2-4 with zero rows, duplicate rows and
    equality pairs mixed in, so that cones with rays and lines both occur."""
    def build(dim):
        row = st.tuples(*[st.integers(-2, 2)] * dim)
        extra = st.sampled_from(["zero", "duplicate", "negated"])
        return st.tuples(st.just(dim), st.lists(row, min_size=1, max_size=9),
                         st.lists(st.tuples(extra, st.integers(0, 6)), max_size=3))

    def mix(case):
        dim, rows, extras = case
        rows = list(rows)
        for kind, i in extras:
            g = rows[i % len(rows)]
            rows.insert(i % (len(rows) + 1), {"zero": (0,) * dim, "duplicate": g,
                                              "negated": vec_neg(g)}[kind])
        return dim, rows
    return st.integers(2, 4).flatmap(build).map(mix)


ORACLE_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@ORACLE_SETTINGS
@given(_row_sets())
def test_dual_description_masks_are_the_tight_sets(case):
    dim, rows = case
    lines, rays, masks = polyhedra.dual_description(rows, full_lattice(dim).basis, [], [], 1)
    assert (lines, rays) == _reference_dual_description(rows, dim)
    assert all(dot(g, l) == 0 for g in rows for l in lines)
    # bit k is row k; a zero row's bit is set at every ray
    assert masks == [sum(1 << k for k, g in enumerate(rows) if dot(g, r) == 0)
                     for r in rays]


def _rank_facets(candidates, p):
    """The facets of p among the candidate inequalities, chosen by the rank
    of the directions on each candidate's hyperplane."""
    out = {}
    for u, c in candidates:
        c = Fraction(c)
        tv = [v for v in p.vertices if dot(u, v) == c]
        tr = [r for r in p.rays if dot(u, r) == 0]
        tl = [l for l in p.lineality if dot(u, l) == 0]
        if not tv or (len(tv), len(tr), len(tl)) == \
                (len(p.vertices), len(p.rays), len(p.lineality)):
            continue
        dirs = [vec_sub(v, tv[0]) for v in tv[1:]] + tr + tl
        if (rational_rank(dirs) if dirs else 0) == p.dim - 1:
            normal, const = _fraction_canonical_halfspace(u, c, p.equalities)
            out[normal] = const
    return tuple(sorted(out.items()))


def _dot_incidence(p):
    """The mask of every facet of p over its vertices, then its rays, by dot
    products."""
    nv = len(p.vertices)
    return [sum(1 << k for k, v in enumerate(p.vertices) if dot(u, v) == c)
            | sum(1 << nv + k for k, r in enumerate(p.rays) if dot(u, r) == 0)
            for u, c in p.halfspaces]


@st.composite
def _halfspace_sets(draw):
    """Random H-descriptions in r = 2, 3 with redundant rows, implicit
    equalities (a row and its negation), zero rows and unbounded results."""
    r = draw(st.integers(2, 3))
    normal = st.tuples(*[st.integers(-2, 2)] * r)
    const = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2))
    hs = draw(st.lists(st.tuples(normal, const), min_size=1, max_size=7))
    # some or all of the bounds |x_i| <= 3
    hs += draw(st.lists(st.sampled_from(
        [(tuple(s if j == i else 0 for j in range(r)), Fraction(3))
         for i in range(r) for s in (1, -1)]), max_size=2 * r, unique=True))
    for kind, i in draw(st.lists(st.tuples(st.sampled_from(
            ["equality", "duplicate", "scaled", "loose", "zero"]), st.integers(0, 6)),
            max_size=3)):
        u, c = hs[i % len(hs)]
        hs.append({"equality": (vec_neg(u), -c), "duplicate": (u, c),
                   "scaled": (tuple(2 * x for x in u), 2 * c), "loose": (u, c + 1),
                   "zero": ((0,) * r, Fraction(draw(st.integers(0, 2))))}[kind])
    p = from_halfspaces(hs, r)
    assume(not p.is_empty)
    return hs, p


@ORACLE_SETTINGS
@given(_halfspace_sets())
def test_facets_chosen_by_incidence_match_rank_test(case):
    hs, p = case
    assert p.halfspaces == _rank_facets(hs, p)
    todo = [p]
    while todo:
        q = todo.pop()
        assert list(q.facet_masks) == _dot_incidence(q)
        for f in facets(q):
            assert f.halfspaces == _rank_facets(q.halfspaces, f)
            todo.append(f)
    for codim in range(p.dim + 1):
        for f in faces(p, codim):
            assert list(f.facet_masks) == _dot_incidence(f)


@ORACLE_SETTINGS
@given(_halfspace_sets(), st.data())
def test_canonical_data_survive_permuted_and_redundant_halfspaces(case, data):
    """Each row scaled by a positive integer, weakened copies (c + k, k > 0)
    and duplicates added, and the rows shuffled: the same polyhedron, with
    the original's key, facet halfspaces and equalities."""
    hs, p = case
    rows = []
    for u, c in hs:
        m = data.draw(st.integers(1, 3))
        rows.append((tuple(m * x for x in u), m * c))
        for k in data.draw(st.lists(st.integers(0, 2), max_size=2)):
            rows.append((u, c + k))  # k == 0 duplicates the row
    q = from_halfspaces(data.draw(st.permutations(rows)), len(hs[0][0]))
    assert (q.key(), q.halfspaces, q.equalities) == (p.key(), p.halfspaces, p.equalities)


def test_polyhedra_are_built_without_rank_computations(monkeypatch):
    from tropform import lattice
    calls = []
    rank = lattice.rational_rank
    for mod in (lattice, polyhedra):
        monkeypatch.setattr(mod, "rational_rank",
                            lambda rows: calls.append(rows) or rank(rows), raising=False)
    cube = box(3)
    wedge = from_generators([(0, 0, 0), (1, 0, 0), (0, 1, 0)],
                            [(0, 0, 1), (1, 1, 1)], [], 3)
    for p in (cube, wedge):
        facets(p)
        all_faces(p)
    triangulate(cube)
    assert calls == []


def test_triangulate_leaves_no_garbage():
    cube = box(3)
    gc.collect()
    gc.disable()
    try:
        triangulate(cube)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- intersections match the double description of both descriptions -----

def _pairs():
    def build(r):
        pt = st.tuples(*[st.integers(-2, 2)] * r)
        vec = st.tuples(*[st.integers(-1, 1)] * r)
        poly = st.builds(lambda pts, rays, lines: from_generators(pts, rays, lines, r),
                         st.lists(pt, min_size=1, max_size=5), st.lists(vec, max_size=1),
                         st.lists(vec, max_size=1))
        random_pair = st.tuples(poly, poly)
        # unit boxes shifted by a vector in {-1, 0, 1}^r, 2 e_i or far away:
        # they overlap, share a facet or a vertex, or are apart
        shifted_boxes = st.builds(
            lambda t: (from_halfspaces(_box(r, (0,) * r), r), from_halfspaces(_box(r, t), r)),
            st.one_of(vec, st.just((2,) + (0,) * (r - 1)), st.just((5,) * r)))
        # segments on one line through a and along d, with integer parameters
        collinear = st.builds(
            lambda a, d, s, t: (segment(*[tuple(x + k * y for x, y in zip(a, d)) for k in s]),
                                segment(*[tuple(x + k * y for x, y in zip(a, d)) for k in t])),
            pt, vec.filter(any), *[st.tuples(st.integers(-3, 3), st.integers(-3, 3))
                                   .filter(lambda k: k[0] != k[1])] * 2)
        return st.one_of(random_pair, shifted_boxes, collinear)
    return st.integers(2, 3).flatmap(build)


def _box(r, t):
    """Halfspaces of the unit box shifted by t: upper bounds, then lower."""
    return [(tuple(1 if j == i else 0 for j in range(r)), Fraction(t[i] + 1)) for i in range(r)] \
        + [(tuple(-1 if j == i else 0 for j in range(r)), Fraction(-t[i])) for i in range(r)]


def _canonical_or_empty(p):
    return ("empty",) if p.is_empty else _canonical(p)


@ORACLE_SETTINGS
@given(_pairs())
def test_intersect_matches_double_description_of_both_descriptions(pair):
    p, q = pair
    both = from_halfspaces(p.all_halfspaces() + q.all_halfspaces(), p.ambient_dim)
    assert _canonical_or_empty(intersect(p, q)) == _canonical_or_empty(both)
    assert _canonical_or_empty(intersect(q, p)) == _canonical_or_empty(both)


def test_intersect_of_separated_and_touching_segments():
    apart = segment((0, 0), (1, 1)), segment((2, 0), (3, 1))
    touching = segment((0, 0), (1, 1)), segment((1, 1), (2, 0))
    assert intersect(*apart).is_empty
    assert intersect(*touching).vertices == ((Fraction(1), Fraction(1)),)


# -- a cut continues the double description of the polyhedron it cuts ------

@st.composite
def _cut_cases(draw):
    """In R^r, r = 1..3: two polyhedra spanned by points, at most one ray
    and at most one line in an affine subspace of dimension 0..r, so that
    lower-dimensional, unbounded and lineality cases all occur; a
    hyperplane (u, c); and a list of halfspaces."""
    r = draw(st.integers(1, 3))
    small = st.integers(-2, 2)

    def spanned():
        base = draw(st.tuples(*[small] * r))
        dirs = draw(st.lists(st.tuples(*[small] * r), max_size=r))
        steps = st.tuples(*[small] * len(dirs))

        def move(point, step):
            return tuple(x + sum(a * d[i] for a, d in zip(step, dirs))
                         for i, x in enumerate(point))
        pts = [move(base, s) for s in draw(st.lists(steps, min_size=1, max_size=4))]
        rays, lines = ([move((0,) * r, s) for s in draw(st.lists(steps, max_size=1))]
                       for _ in range(2))
        return from_generators(pts, [d for d in rays if any(d)], [l for l in lines if any(l)], r)
    p, q = spanned(), spanned()
    u = draw(st.tuples(*[small] * r).filter(any))
    c = draw(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2)))
    hs = draw(st.lists(st.tuples(st.tuples(*[small] * r), st.integers(-3, 3)), max_size=6))
    return r, p, q, (u, c), hs


def _check_cut(halfspaces, r, got):
    """got is {x : <u, x> <= c for (u, c) in halfspaces}: with no lines, its
    vertices are the brute-force ones, and whatever it is, its V-data
    rebuild the same canonical cell."""
    verts = brute_force_vertices(halfspaces, r)
    if got.is_empty:
        assert not verts
        return
    if not got.lineality:
        assert set(got.vertices) == verts
    again = from_generators(got.vertices, got.rays, got.lineality, r)
    assert _canonical_with_incidence(got) == _canonical_with_incidence(again)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_cut_cases())
def test_cuts_match_brute_force_vertices(case):
    r, p, q, (u, c), hs = case
    _check_cut(p.all_halfspaces() + q.all_halfspaces(), r, intersect(p, q))
    halves = _split(p, u, c)
    if len(halves) == 2:
        for half, cut in zip(halves, ((u, c), (vec_neg(u), -c))):
            _check_cut(p.all_halfspaces() + [cut], r, half)
    _check_cut(hs, r, from_halfspaces(hs, r))


def _rebuilt(x):
    return _canonical_with_incidence(from_generators(x.vertices, x.rays, x.lineality,
                                                     x.ambient_dim))


def test_cut_through_the_relative_interior_keeps_the_hull():
    sq = box(2)
    half = intersect(sq, from_halfspaces([((1, 0), Fraction(1, 2))], 2))
    assert half.direction_lattice == sq.direction_lattice
    assert half.vertices == ((0, 0), (0, 1), (Fraction(1, 2), 0), (Fraction(1, 2), 1))
    assert _canonical_with_incidence(half) == _rebuilt(half)


def test_cut_meeting_only_a_facet_takes_the_facet_hull():
    x = intersect(box(2), from_halfspaces(_box(2, (1, 0)), 2))
    assert (x.dim, x.equalities) == (1, (((1, 0), Fraction(1)),))
    assert _canonical_with_incidence(x) == _canonical_with_incidence(segment((1, 0), (1, 1)))
    assert _canonical_with_incidence(x) == _rebuilt(x)


def test_cut_by_a_hyperplane_through_the_relative_interior():
    line = from_halfspaces([((1, 0), Fraction(1, 2)), ((-1, 0), Fraction(-1, 2))], 2)
    want = segment((Fraction(1, 2), 0), (Fraction(1, 2), 1))
    for x in (intersect(box(2), line), intersect(line, box(2))):
        assert (x.dim, x.equalities) == (1, (((1, 0), Fraction(1, 2)),))
        assert _canonical_with_incidence(x) == _canonical_with_incidence(want)
        assert _canonical_with_incidence(x) == _rebuilt(x)


def test_cut_of_a_line_of_the_lineality():
    strip = from_generators([(0, 0), (0, 1)], [], [(1, 0)], 2)
    right = from_halfspaces([((-1, 0), 0)], 2)
    half_strip = from_generators([(0, 0), (0, 1)], [(1, 0)], [], 2)
    for q, want in ((right, half_strip), (box(2), box(2))):
        x = intersect(strip, q)
        assert x.lineality == ()
        assert _canonical_with_incidence(x) == _canonical_with_incidence(want)
        assert _canonical_with_incidence(x) == _rebuilt(x)


def test_cut_finds_what_separation_by_a_facet_misses():
    # skew segments in R^3: no facet or equality of one has the other
    # strictly beyond it
    p, q = segment((1, 2, 1), (2, 3, 2)), segment((2, 0, 2), (3, 3, 1))
    assert intersect(p, q) is EMPTY and intersect(q, p) is EMPTY


def test_intersect_returns_a_polyhedron_inside_the_other(monkeypatch):
    square, wide, tall = box(2), box(2, -1, 2), box(2, 0, 9)
    quadrant = from_halfspaces([((-1, 0), 0), ((0, -1), 0)], 2)
    corner = from_generators([(1, 1)], [(1, 0), (1, 2)], [], 2)
    strip = from_generators([(0, 0), (0, 1)], [], [(1, 0)], 2)
    band = from_halfspaces([((0, 1), 2), ((0, -1), 1)], 2)
    facets(square)
    records = polyhedra._facet_records(square)
    calls = []
    dd = polyhedra.dual_description
    monkeypatch.setattr(polyhedra, "dual_description",
                        lambda *args: calls.append(args) or dd(*args))
    for p, q in ((square, wide), (corner, quadrant), (strip, band), (wide, wide)):
        assert intersect(p, q) is p
    assert calls == []
    assert polyhedra._facet_records(square) is records
    # a ray outside the recession cone, a line outside the lineality
    for p, q in ((corner, tall), (strip, quadrant)):
        assert intersect(p, q) is not p
    assert len(calls) == 2


# -- membership in integer arithmetic ----------------------------------------

def _fraction_contains(p, point):
    """Membership tested with rational dot products."""
    return (all(dot(u, point) <= c for u, c in p.halfspaces)
            and all(dot(e, point) == c for e, c in p.equalities))


@st.composite
def _polyhedra_and_points(draw):
    """A polyhedron spanned by points and rays in an affine subspace of
    dimension 0..r of R^r, so that most have equalities, and points inside
    it, on its boundary, and outside it and its affine hull."""
    r = draw(st.integers(1, 3))
    small = st.integers(-2, 2)
    base = draw(st.tuples(*[small] * r))
    dirs = draw(st.lists(st.tuples(*[small] * r), max_size=r))
    steps = st.tuples(*[small] * len(dirs))

    def move(point, step):
        return tuple(x + sum(a * d[i] for a, d in zip(step, dirs)) for i, x in enumerate(point))
    pts = [move(base, s) for s in draw(st.lists(steps, min_size=1, max_size=5))]
    rays = [move((0,) * r, s) for s in draw(st.lists(steps, max_size=1))]
    p = from_generators(pts, [d for d in rays if any(d)], [], r)
    frac = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 4))
    points = list(p.vertices) + [p.rel_interior_point()]
    # along lines through two vertices: on the segment, then beyond it
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(p.vertices)), draw(st.sampled_from(p.vertices))
        t = draw(frac)
        points.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
    # off the affine hull, or just outside a facet
    for _ in range(draw(st.integers(0, 3))):
        v = draw(st.sampled_from(points))
        points.append(tuple(x + draw(frac) for x in v))
    return p, points


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_polyhedra_and_points())
def test_contains_matches_rational_arithmetic(case):
    p, points = case
    for x in points:
        assert p.contains(x) == _fraction_contains(p, x)


def test_validate_complex_reports_records():
    assert validate_complex(Complex([box(2)])) == [{"kind": "missing-face", "cell": box(2)}]
    a, b = box(2, 0, 2), box(2, 1, 3)
    assert validate_complex(Complex([a, b])) == [
        {"kind": "missing-face", "cell": a}, {"kind": "missing-face", "cell": b},
        {"kind": "not-a-common-face", "cells": (a, b), "intersection": box(2, 1, 2)}]


# -- integer assembly, and one double description per V-description ---------

def _two_dd_from_generators(points, rays, lines, r):
    """from_generators through two double descriptions: generators to
    halfspaces, then from_halfspaces recovers the V-data."""
    gens = []
    for p in points:
        cf = [Fraction(x) for x in p]
        den = lcm(*(x.denominator for x in cf))
        gens.append(tuple(int(x * den) for x in cf) + (den,))
    for d in list(rays) + list(lines) + [vec_neg(l) for l in lines]:
        if any(d):
            gens.append(primitive(d) + (0,))
    dlines, drays, _ = polyhedra.dual_description(gens, full_lattice(r + 1).basis, [], [], 1)
    hs = [(a[:-1], -Fraction(a[-1])) for a in drays]
    for a in dlines:
        hs += [(a[:-1], -Fraction(a[-1])), (vec_neg(a[:-1]), Fraction(a[-1]))]
    return from_halfspaces([(u, c) for u, c in hs if any(u)], r)


@st.composite
def _generator_sets(draw):
    """V-descriptions in r = 1..4 on an affine subspace of dimension 0..r,
    with duplicate points, rational points inside the hull, non-extreme
    rays (sums of two rays), opposite rays that make a line, and lines."""
    r = draw(st.integers(1, 4))
    small = st.integers(-2, 2)
    base = draw(st.tuples(*[small] * r))
    dirs = draw(st.lists(st.tuples(*[small] * r), max_size=r))

    def move(point, step):
        return tuple(x + sum(a * d[i] for a, d in zip(step, dirs)) for i, x in enumerate(point))
    steps = st.tuples(*[small] * len(dirs))
    pts = [move(base, s) for s in draw(st.lists(steps, min_size=1, max_size=5))]
    rays = [move((0,) * r, s) for s in draw(st.lists(steps, max_size=2))]
    lines = [move((0,) * r, s) for s in draw(st.lists(steps, max_size=1))]
    for kind in draw(st.lists(st.sampled_from(["duplicate", "inside", "sum", "opposite"]),
                              max_size=3)):
        if kind == "duplicate":
            pts.append(draw(st.sampled_from(pts)))
        elif kind == "inside":
            some = draw(st.lists(st.sampled_from(pts), min_size=1, max_size=3))
            pts.append(tuple(sum(Fraction(x) for x in col) / len(some) for col in zip(*some)))
        elif kind == "sum" and rays:
            a, b = draw(st.sampled_from(rays)), draw(st.sampled_from(rays))
            rays.append(tuple(x + y for x, y in zip(a, b)))
        elif kind == "opposite" and rays:
            rays.append(vec_neg(draw(st.sampled_from(rays))))
    return pts, rays, lines, r


def _canonical_with_incidence(p):
    return _canonical(p) + (p.facet_masks,)


@ORACLE_SETTINGS
@given(_generator_sets())
def test_from_generators_matches_two_double_descriptions(case):
    assert _canonical_with_incidence(from_generators(*case)) == \
        _canonical_with_incidence(_two_dd_from_generators(*case))


@ORACLE_SETTINGS
@given(_generator_sets(), st.data())
def test_affine_image_is_the_hull_of_the_mapped_vertices(case, data):
    """The image of a polyhedron in R^r, with rays and lines, under an
    integer map to R^k with a rational shift is the hull of its generators
    mapped by Fraction arithmetic, with the same canonical data and
    incidence: read off p's incidence when the map is injective on p, and
    the hull of the mapped generators when it is not."""
    points, rays, lines, r = case
    p = from_generators(points, rays, lines, r)
    k = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=r, max_size=r),
                              min_size=k, max_size=k))
    rational = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    shift = data.draw(st.lists(st.one_of(st.integers(-2, 2), rational),
                               min_size=k, max_size=k))

    def linear(v):
        return tuple(dot(row, v) for row in rows)
    mapped = [tuple(x + Fraction(c) for x, c in zip(linear(v), shift)) for v in p.vertices]
    hull = from_generators(mapped, list(map(linear, p.rays)), list(map(linear, p.lineality)), k)
    assert _canonical_with_incidence(affine_image(rows, shift, p)) == \
        _canonical_with_incidence(hull)


def test_from_generators_runs_one_double_description(monkeypatch):
    calls = []
    dd = polyhedra.dual_description
    monkeypatch.setattr(polyhedra, "dual_description",
                        lambda *args: calls.append(args) or dd(*args))
    monkeypatch.setattr(polyhedra, "from_halfspaces", None)
    wedge = from_generators([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 0)],
                            [(0, 0, 1), (1, 1, 1), (1, 1, 2)], [(1, -1, 0)], 3)
    assert len(calls) == 1
    # modulo the line, a duplicate point and the ray (1, 1, 2) between the
    # rays (0, 0, 1) and (1, 1, 1) are not extreme
    assert wedge.lineality == ((1, -1, 0),)
    assert wedge.vertices == ((0, 0, 0), (0, 1, 0))
    assert wedge.rays == ((0, 0, 1), (0, 2, 1))


def test_from_generators_rejects_generators_of_another_dimension():
    for points, rays, lines, r in [([(0, 0), (1, 1)], [(1, 0, 5)], [], None),
                                   ([(0, 0), (1,)], [], [], None),
                                   ([(0, 0), (1, 0)], [], [], 3),
                                   ([(0, 0)], [], [(1, 1, 1)], 2)]:
        with pytest.raises(ValueError, match="generator length"):
            from_generators(points, rays, lines, r)


def test_from_halfspaces_rejects_non_integral_normals():
    with pytest.raises(ValueError, match="non-integral"):
        from_halfspaces([((Fraction(1, 2),), 1), ((-1,), 0)], 1)
    with pytest.raises(ValueError, match="normal length does not match ambient dimension"):
        from_halfspaces([((1,), 1), ((-1, 0), 0)], 1)
    # an integral Fraction is accepted: 0 <= x <= 2
    assert from_halfspaces([((Fraction(2),), 4), ((-1,), 0)], 1).vertices == ((0,), (2,))


def _pivot_order(hull_rows):
    """Equalities (e, c) of an HNF basis sorted by the pivot of e."""
    return sorted(hull_rows, key=lambda row: next(i for i, x in enumerate(row[0]) if x))


def _integer_rows(hull_rows):
    """The rows (c.den e, c.num) that _canonical_halfspace reduces by."""
    return [[x * c.denominator for x in e] + [c.numerator] for e, c in _pivot_order(hull_rows)]


def _fraction_canonical_halfspace(u, c, hull_rows):
    """The reduction modulo the equality normals over Fraction, in pivot
    order, so that the result is zero at every pivot."""
    uu, cc = [Fraction(x) for x in u], Fraction(c)
    for e, ec in _pivot_order(hull_rows):
        p = next(i for i, x in enumerate(e) if x != 0)
        f = uu[p] / e[p]
        if f:
            uu = [x - f * y for x, y in zip(uu, e)]
            cc -= f * ec
    den = lcm(*(x.denominator for x in uu))
    iu = [int(x * den) for x in uu]
    g = gcd(*iu)
    return tuple(x // g for x in iu), cc * den / g


@st.composite
def _halfspaces_modulo_hulls(draw):
    """A normal and constant with the equalities of a random affine hull in
    r = 1..4: HNF normals, some negated, in any order, with rational
    constants; the normal lies outside their span."""
    r = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-4, 4)] * r)
    hull = saturate(lattice_from_rows(draw(st.lists(vec, max_size=r - 1)), r))
    frac = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    rows = [(vec_neg(e) if draw(st.booleans()) else e, draw(frac))
            for e in draw(st.permutations(hull.basis))]
    u = draw(vec)
    assume(rational_rank([u] + list(hull.basis)) > hull.rank)
    return u, draw(frac), rows


@ORACLE_SETTINGS
@given(_halfspaces_modulo_hulls())
def test_canonical_halfspace_matches_fraction_reduction(case):
    u, c, rows = case
    assert polyhedra._canonical_halfspace(u, c, _integer_rows(rows)) == \
        _fraction_canonical_halfspace(u, c, rows)


def test_facet_inequalities_do_not_depend_on_the_cutting_row():
    # the segment (0,0,0)-(1,2,3) on the line 2x = y, 3x = z, cut out by
    # 0 <= x <= 1 or by 0 <= y <= 2
    line = [((2, -1, 0), 0), ((-2, 1, 0), 0), ((3, 0, -1), 0), ((-3, 0, 1), 0)]
    by_x = from_halfspaces(line + [((1, 0, 0), 1), ((-1, 0, 0), 0)], 3)
    by_y = from_halfspaces(line + [((0, 1, 0), 2), ((0, -1, 0), 0)], 3)
    assert by_x.key() == by_y.key()
    assert by_x.halfspaces == by_y.halfspaces
    assert tio.emit(by_x) == tio.emit(by_y)


@st.composite
def _redescribed(draw):
    """A polyhedron in r = 3, 4 whose affine hull has at least two
    equalities, and another H-description of it: each facet row scaled and
    shifted by integer multiples of the equality rows, the equalities mixed
    unimodularly and negated, loosened and duplicated rows added, and all
    rows shuffled."""
    r = draw(st.integers(3, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * r)
    dirs = draw(st.lists(vec, max_size=r - 2))
    frac = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
    base = draw(st.tuples(*[frac] * r))
    combos = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * len(dirs)), min_size=1, max_size=5))
    pts = [tuple(b + sum(c * d[i] for c, d in zip(cs, dirs)) for i, b in enumerate(base))
           for cs in combos]
    rays = draw(st.lists(st.sampled_from(dirs), max_size=1)) if dirs else []
    p = from_generators(pts, rays, [], r)
    assume(len(p.equalities) >= 2)
    eqs = [list(e) + [c] for e, c in p.equalities]
    k = len(eqs)
    for i, j, m in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1),
                                           st.integers(-2, 2)), max_size=4)):
        if i != j:
            eqs[i] = [a + m * b for a, b in zip(eqs[i], eqs[j])]
    rows = []
    for row in eqs:
        row = [-x for x in row] if draw(st.booleans()) else row
        rows += [(tuple(row[:-1]), row[-1]), (tuple(-x for x in row[:-1]), -row[-1])]
    for u, c in p.halfspaces:
        shift = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        scale = draw(st.integers(1, 2))
        row = [scale * x for x in list(u) + [c]]
        row = [x + sum(m * e[i] for m, e in zip(shift, eqs)) for i, x in enumerate(row)]
        rows.append((tuple(row[:-1]), row[-1]))
        extra = draw(st.sampled_from(["none", "loose", "duplicate"]))
        if extra != "none":
            rows.append((tuple(row[:-1]), row[-1] + (extra == "loose")))
    return p, draw(st.permutations(rows)), r


@ORACLE_SETTINGS
@given(_redescribed())
def test_equal_polyhedra_emit_the_same_document(case):
    p, rows, r = case
    q = from_halfspaces(rows, r)
    assert q.key() == p.key()
    assert tio.emit(q) == tio.emit(p)


# -- vertices stored as normalized homogeneous integer points --------------

@st.composite
def _four_ways(draw):
    """A polyhedron in r = 2, 3 built one of four ways: from halfspaces with
    rational constants, from rational generators, as the image of one of
    those along an invertible integer map with a rational shift, or as the
    intersection of one of each."""
    r = draw(st.integers(2, 3))
    rational = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * r)

    def by_halfspaces():
        hs = draw(st.lists(st.tuples(vec, rational), min_size=1, max_size=6))
        hs += [(tuple(s if j == i else 0 for j in range(r)), Fraction(3))
               for i in range(r) for s in (1, -1) if draw(st.booleans())]
        return from_halfspaces(hs, r)

    def by_generators():
        return from_generators(draw(st.lists(st.tuples(*[rational] * r), min_size=1, max_size=6)),
                               draw(st.lists(vec, max_size=2)), draw(st.lists(vec, max_size=1)), r)
    way = draw(st.sampled_from(["halfspaces", "generators", "image", "intersect"]))
    if way == "halfspaces":
        p = by_halfspaces()
    elif way == "generators":
        p = by_generators()
    elif way == "image":
        rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=r, max_size=r),
                             min_size=r, max_size=r))
        assume(rational_rank(rows) == r)
        base = by_halfspaces() if draw(st.booleans()) else by_generators()
        assume(not base.is_empty)
        p = affine_image(rows, draw(st.lists(rational, min_size=r, max_size=r)), base)
    else:
        p = intersect(by_halfspaces(), by_generators())
    assume(not p.is_empty)
    return p


@ORACLE_SETTINGS
@given(_four_ways())
def test_points_are_normalized_in_rational_order_and_give_the_key(p):
    """Every point (x, t) has t > 0 and gcd(x, t) = 1, the points list the
    vertices in increasing rational order, ``vertices`` is their Fraction
    view, and the same set built from p's vertices or halfspaces has p's
    key and hash."""
    r = p.ambient_dim
    for point in p.points:
        assert len(point) == r + 1 and point[-1] > 0 and gcd(*point) == 1
    view = tuple(tuple(Fraction(a, pt[-1]) for a in pt[:-1]) for pt in p.points)
    assert p.vertices == view
    assert list(view) == sorted(set(view))
    assert p.key() == (r, p.lineality, p.points, p.rays)
    for q in (from_generators(list(p.vertices), p.rays, p.lineality, r),
              from_halfspaces(p.all_halfspaces(), r)):
        assert q.key() == p.key() and hash(q) == hash(p) and q == p
