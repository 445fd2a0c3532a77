"""Polyhedra: canonical forms, faces, complexes, refinement, triangulation."""

import gc
import random
import weakref
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import box, segment, simplex

from tropform import polyhedra
from tropform.lattice import vec_neg
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
    simplex_volume,
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


def test_intersect():
    quad = from_halfspaces([((-1, 0), Fraction(0)), ((0, -1), Fraction(0))], 2)
    window = box(2, -1, 1)
    assert intersect(quad, window) == box(2, 0, 1)
    assert intersect(box(2, 0, 1), box(2, 2, 3)).is_empty


def test_affine_image():
    sq = box(2)
    img = affine_image([[1, 0]], (Fraction(0),), sq)
    assert img == box(1, 0, 1)
    shear = affine_image([[1, 1], [0, 1]], (0, 0), sq)
    assert shear.dim == 2
    assert set(shear.vertices) == {(0, 0), (1, 0), (1, 1), (2, 1)}


def test_complex_face_closure_and_validation():
    sq = box(2)
    cx = complex_from_cells([sq])
    assert len(cx.cells_of_dim(1)) == 4
    assert len(cx.cells_of_dim(0)) == 4
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


def test_triangulate_cube():
    cube = box(3)
    tets = triangulate(cube)
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
        tris = triangulate(p)
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
    assert triangulate(p) == _dd_triangulate(p)


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
