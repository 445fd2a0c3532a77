"""Integral Q-affine polyhedra and polyhedral complexes.

Polyhedra are intersections of halfspaces <u, x> <= c with integer normals u
and rational constants c.  Conversion between H- and V-representations uses
an exact double description method, which also yields the rows tight at each
vertex and ray; either conversion runs it once.  A built polyhedron keeps
that vertex-facet incidence, as a vertex and a ray bitmask per facet: its
facets are chosen from it combinatorially, and its faces and triangulations
are read off it with no further double description and no dot products.
Cells are assembled on integers, a vertex v taken as x / t with x integer
and t > 0 (as lrs and cdd do): directions, the affine hull and the canonical
facet inequalities need no rational arithmetic, and Fractions are built
only for the stored vertices, keys and constants.  The hull equalities are
the orthogonal complement of the raw directions, and the direction lattice
is the complement of those, both read off Hermite forms with no Smith form.
Identity of cells is decided through a canonical key built from the V-data,
which makes complex validation and deduplication deterministic; a
polyhedron hashes its key once.  What balancing and boundary integrals need
of a facet, its key, direction lattice and outward vector, is read off the
incidence as a record (``_facet_records``) without building the facet,
and kept on the polyhedron once read; the facet itself, where it is
needed, is built alone from the same position (``_facet``) and kept too.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .lattice import (
    Lattice,
    _facet_split,
    identity_matrix,
    dot,
    full_lattice,
    integer_row,
    lattice_from_rows,
    orthogonal_complement,
    primitive,
    reduce_echelon,
    saturate,
    vec_neg,
)


class EmptyPolyhedron:
    """Distinct marker for the empty set (allowed as a face of any cell)."""

    is_empty = True
    dim = -1

    def key(self):
        return ("empty",)

    def __repr__(self):
        return "EmptyPolyhedron()"


EMPTY = EmptyPolyhedron()


# ---------------------------------------------------------------------------
# double description: minimal generators of {x : g.x <= 0 for g in rows}

def dual_description(rows, dim):
    """Minimal generators of the polyhedral cone cut out by the homogeneous
    inequalities g.x <= 0, computed exactly, with the rows tight at each.

    Returns (lines, rays, masks): ``masks[i]`` is the set of rows tight at
    ``rays[i]`` as an int whose bit k stands for row k (a zero row is tight
    at every ray); every line is tight at every row.  The masks are
    carried along as the rows are added, never recomputed: a ray with value
    0 on the new row gains its bit, the combination of an adjacent pair gets
    the pair's common bits and the new one, a ray projected in a line step
    gains the new bit, and the ray made from the eliminated line gets every
    earlier bit.  Two rays are adjacent when no third ray's mask contains
    their common bits (Fukuda & Prodon, "Double description method
    revisited", 1996)."""
    lines = [tuple(r) for r in identity_matrix(dim)]
    rays, masks = [], []
    bit = 1
    for g in rows:
        vals = [dot(g, l) for l in lines]
        k = next((i for i, v in enumerate(vals) if v != 0), None)
        if k is not None:
            l0, v0 = lines[k], vals[k]
            if v0 > 0:
                l0, v0 = vec_neg(l0), -v0
            # project onto g.x = 0 along l0
            lines = [primitive([v0 * a - vals[i] * b for a, b in zip(l, l0)])
                     for i, l in enumerate(lines) if i != k]
            rays = [primitive([(-v0) * a + dot(g, r) * b for a, b in zip(r, l0)])
                    for r in rays]
            rays.append(primitive(l0))
            masks = [m | bit for m in masks] + [bit - 1]
        else:
            vals = [dot(g, r) for r in rays]
            if any(v > 0 for v in vals):
                neg = [i for i, v in enumerate(vals) if v < 0]
                new = [(rays[i], masks[i]) for i in neg]
                new += [(r, m | bit) for r, m, v in zip(rays, masks, vals) if v == 0]
                for p, vp in enumerate(vals):
                    if vp <= 0:
                        continue
                    for n in neg:
                        common = masks[p] & masks[n]
                        # adjacent iff no third ray is tight wherever both are
                        if len([m for m in masks if common & m == common]) > 2:
                            continue
                        vn = vals[n]
                        c = primitive([vp * a - vn * b for a, b in zip(rays[n], rays[p])])
                        if any(c):
                            new.append((c, common | bit))
                seen = set()
                new = [(r, m) for r, m in new if not (r in seen or seen.add(r))]
                rays, masks = [r for r, _ in new], [m for _, m in new]
            else:
                masks = [m | bit if v == 0 else m for m, v in zip(masks, vals)]
        bit <<= 1
    return lines, rays, masks


# ---------------------------------------------------------------------------
# Polyhedron

class Polyhedron:
    """Nonempty integral Q-affine polyhedron with cached H- and V-data and
    its vertex-facet incidence.

    Construct through :func:`from_halfspaces` or :func:`from_generators`.
    ``vertices`` are the canonical base points of the minimal faces (reduced
    modulo the lineality space), sorted; ``rays`` the primitive extreme ray
    representatives, sorted; ``lineality`` an HNF basis of the lineality
    lattice.  ``facet_vertices[i]`` and ``facet_rays[i]`` are the vertices
    and rays on the facet ``halfspaces[i]``, as bitmasks over ``vertices``
    and ``rays`` (bit k stands for index k); every line lies on every facet.
    """

    is_empty = False
    # no per-instance dict: face caches keep many small polyhedra alive
    __slots__ = ("ambient_dim", "halfspaces", "equalities", "vertices", "rays", "lineality",
                 "direction_lattice", "facet_vertices", "facet_rays", "dim",
                 "_facets", "_records", "_moments", "_key", "_hash",
                 "__weakref__")

    def __init__(self, ambient_dim, halfspaces, equalities, vertices, rays, lineality,
                 direction_lattice, facet_vertices, facet_rays):
        self.ambient_dim = ambient_dim
        self.halfspaces = tuple(halfspaces)      # canonical facet inequalities
        self.equalities = tuple(equalities)      # canonical affine-hull equations
        self.vertices = tuple(vertices)
        self.rays = tuple(rays)
        self.lineality = tuple(lineality)
        self.direction_lattice = direction_lattice
        self.facet_vertices = tuple(facet_vertices)
        self.facet_rays = tuple(facet_rays)
        self.dim = self.direction_lattice.rank
        self._facets = None      # _facet, by position, on first use
        self._records = None     # _facet_records, on first use
        self._moments = None     # integrate's simplices and moment table, on first use
        self._key = (ambient_dim, self.lineality, self.vertices, self.rays)
        self._hash = None

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self._key == other._key

    def __hash__(self):
        # the key is a tuple of Fraction tuples: hash it once, on first use
        if self._hash is None:
            self._hash = hash(self._key)
        return self._hash

    def __repr__(self):
        return "Polyhedron(dim=%d, vertices=%r, rays=%r, lineality=%r)" % (
            self.dim, self.vertices, self.rays, self.lineality)

    @property
    def is_bounded(self):
        return not self.rays and not self.lineality

    def contains(self, point):
        x, t = _integral(point)
        return (all(dot(u, x) * c.denominator <= c.numerator * t for u, c in self.halfspaces)
                and all(dot(e, x) * c.denominator == c.numerator * t
                        for e, c in self.equalities))

    def rel_interior_point(self):
        """A rational point in the relative interior."""
        n = len(self.vertices)
        pt = [sum(Fraction(v[i]) for v in self.vertices) / n for i in range(self.ambient_dim)]
        for r in self.rays:
            for i in range(self.ambient_dim):
                pt[i] += r[i]
        return tuple(pt)

    def all_halfspaces(self):
        """Facets plus equalities written as pairs of inequalities."""
        hs = list(self.halfspaces)
        for e, c in self.equalities:
            hs.append((e, c))
            hs.append((vec_neg(e), -c))
        return hs


def _integral(point):
    """(x, t) with x an integer vector and t > 0 such that point = x / t."""
    t = lcm(*(x.denominator for x in point))
    return [x.numerator * (t // x.denominator) for x in point], t


def _reduce_mod_rows(x, t, rows):
    """The point x / t (x integer, t > 0) with the pivot coordinates of
    ``rows`` (an HNF basis) zeroed by a rational combination of them."""
    s, w = reduce_echelon(x, rows)
    return tuple(Fraction(a, s * t) for a in w)


def _canonical_halfspace(u, c, hull):
    """Canonical form of the facet inequality <u, x> <= c on an affine hull.

    ``hull`` holds the integer row (d.den e, d.num) of each hull equality
    <e, x> = d, in the pivot order of the HNF basis of the normals e.  The
    row (c.den u, c.num) reduced at their pivots is a row w that states the
    same inequality on the hull and depends only on the facet, not on the
    row that cut it out; with g the gcd of its normal part, the result is
    (w[:-1] / g, w[-1] / g)."""
    _, w = reduce_echelon([x * c.denominator for x in u] + [c.numerator], hull)
    g = gcd(*w[:-1])
    return tuple(x // g for x in w[:-1]), Fraction(w[-1], g)


def from_halfspaces(halfspaces, ambient_dim):
    """Polyhedron from inequalities <u, x> <= c; returns EMPTY if infeasible."""
    candidates, rows = [], []
    for u, c in halfspaces:
        if len(u) != ambient_dim:
            raise ValueError("normal length does not match ambient dimension")
        u, c = tuple(integer_row(u)), Fraction(c)
        candidates.append((u, c))
        rows.append(tuple(x * c.denominator for x in u) + (-c.numerator,))
    rows.append(tuple([0] * ambient_dim + [-1]))  # t >= 0
    lines, rays, masks = dual_description(rows, ambient_dim + 1)
    if not any(r[-1] > 0 for r in rays):
        return EMPTY
    # lines always have t == 0 (they satisfy -t <= 0 and t unbounded both ways)
    lin = saturate(lattice_from_rows([l[:-1] for l in lines], ambient_dim))
    return _from_incidence(ambient_dim, candidates, [1 << j for j in range(len(candidates))],
                           zip(rays, masks), lin)


def _from_incidence(ambient_dim, candidates, bits, tight, lin):
    """Assemble from pairs (g, m) in ``tight``: g = (x, t) a homogeneous
    generator of a minimal face, t > 0 for a vertex x / t and t == 0 for a
    ray, and m the bitmask of the candidates tight at g (candidate j has bit
    ``bits[j]``).  Vertices and rays are reduced modulo the lineality
    ``lin``; generators equal modulo the lineality are tight at the same
    candidates."""
    vert_rows, ray_rows = {}, {}
    for g, m in tight:
        x, t = g[:-1], g[-1]
        if t > 0:
            vert_rows[_reduce_mod_rows(x, t, lin.basis)] = m
        else:
            d = primitive(reduce_echelon(x, lin.basis)[1])
            if any(d):
                ray_rows[d] = m
    verts, vert_rows = zip(*sorted(vert_rows.items()))
    rec, ray_rows = zip(*sorted(ray_rows.items())) if ray_rows else ((), ())
    incidence = [(_select(vert_rows, b), _select(ray_rows, b)) for b in bits]
    return _assemble(ambient_dim, candidates, incidence, verts, rec, lin.basis)


def _select(row_masks, bit):
    """Bitmask of the positions whose row mask has the given bit."""
    return sum(1 << k for k, m in enumerate(row_masks) if m & bit)


def _bits(mask):
    """Positions of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _restrict(mask, positions):
    """The bits of mask at the given positions, renumbered 0, 1, ..."""
    return sum(1 << k for k, p in enumerate(positions) if mask >> p & 1)


def _maximal(masks):
    """The masks that no other of the given masks contains."""
    return [g for g in masks if not any(g | h == h and g != h for h in masks)]


def _assemble(ambient_dim, candidates, incidence, verts, rec, lin_basis):
    """Finish construction: affine hull, canonical facets, computed on
    integers; Fractions are built only for the equality and facet constants.

    ``verts`` and ``rec`` are sorted, and ``incidence[j]`` holds the
    vertices and rays on the hyperplane of ``candidates[j]`` as bitmasks
    over them.  Every candidate is valid and every facet is cut out by some
    candidate, so a candidate defines a facet exactly when its face is
    nonempty, proper and inclusion-maximal among the candidates' faces."""
    # v - v0 is a positive multiple of x t0 - x0 t for v = x / t, v0 = x0 / t0
    x0, t0 = _integral(verts[0])
    dirs = [primitive([a * t0 - b * t for a, b in zip(x, x0)])
            for x, t in map(_integral, verts[1:])] + list(rec) + list(lin_basis)
    # affine hull equalities: HNF basis of the orthogonal complement of the
    # directions, stored sorted; facets are reduced by their rows in HNF
    # order.  The direction lattice is the complement of the complement,
    # with no elimination where one side is Z^r: a vertex (no directions)
    # or a full-dimensional cell (no equalities).
    if dirs:
        comp = orthogonal_complement(dirs, ambient_dim)
        dir_lat = Lattice(ambient_dim, orthogonal_complement(comp, ambient_dim)) \
            if comp else full_lattice(ambient_dim)
    else:
        comp, dir_lat = full_lattice(ambient_dim).basis, Lattice(ambient_dim, ())
    consts = [Fraction(dot(e, x0), t0) for e in comp]
    hull = [[x * c.denominator for x in e] + [c.numerator] for e, c in zip(comp, consts)]
    equalities = sorted(zip(comp, consts))
    # a face is one int: its vertex mask, then its ray mask shifted past it
    nv = len(verts)
    everything = (1 << (nv + len(rec))) - 1
    proper = {}
    for h, (vs, rs) in zip(candidates, incidence):
        face = vs | rs << nv
        if vs and face != everything:
            proper.setdefault(face, h)
    facets = {}
    for face in _maximal(proper):
        normal, const = _canonical_halfspace(*proper[face], hull)
        facets[normal] = (const, face & ((1 << nv) - 1), face >> nv)
    hs = sorted(facets.items())
    return Polyhedron(ambient_dim, [(u, c) for u, (c, _, _) in hs], equalities, verts, rec,
                      lin_basis, dir_lat, [vs for _, (_, vs, _) in hs],
                      [rs for _, (_, _, rs) in hs])


def from_generators(points, rays=(), lines=(), ambient_dim=None):
    """Polyhedron as conv(points) + cone(rays) + span(lines), with integer or
    Fraction coordinates.

    One double description turns the homogeneous generators (x, t) of the
    cone over the polyhedron (a point x / t, t > 0; a ray or a line, t == 0,
    a line both ways) into the dual rays, the facet normals of the cone,
    with the generators tight at each.  The rest is read off these masks
    (Fukuda & Prodon, 1996).  A generator tight at every dual ray lies in
    the lineality.  A generator is extreme when its set of tight dual rays
    is inclusion-maximal among the sets that are not full: it spans a
    minimal face of the cone beyond the lineality, a vertex when t > 0 and
    an extreme ray when t == 0.  The candidate facets are the dual rays with
    a nonzero normal part; the dual lines are equalities and never cut out a
    facet."""
    if not points:
        return EMPTY
    if ambient_dim is None:
        ambient_dim = len(points[0])
    gens = [tuple(x) + (t,) for x, t in map(_integral, points)]
    gens += [primitive(r) + (0,) for r in rays]
    for l in lines:
        g = primitive(l)
        gens += [g + (0,), vec_neg(g) + (0,)]
    _, drays, masks = dual_description(gens, ambient_dim + 1)
    # generator k has DD bit k; tight[k] holds the dual rays at which it is
    # tight, all of them for a zero generator, which joins the lineality
    tight = [_select(masks, 1 << k) for k in range(len(gens))]
    full = (1 << len(drays)) - 1
    lin = saturate(lattice_from_rows([g[:-1] for g, m in zip(gens, tight) if m == full],
                                     ambient_dim))
    extreme = set(_maximal({m for m in tight if m != full}))
    cand = [i for i, a in enumerate(drays) if any(a[:-1])]
    return _from_incidence(ambient_dim, [(drays[i][:-1], -drays[i][-1]) for i in cand],
                           [1 << i for i in cand],
                           [(g, m) for g, m in zip(gens, tight) if m in extreme], lin)


def intersect(p, q):
    """Intersection of two polyhedra (EMPTY allowed) in the same ambient space."""
    if p.is_empty or q.is_empty:
        return EMPTY
    if p.ambient_dim != q.ambient_dim:
        raise ValueError("polyhedra in different ambient spaces do not intersect")
    if _separated(p, q) or _separated(q, p):
        return EMPTY
    return from_halfspaces(p.all_halfspaces() + q.all_halfspaces(), p.ambient_dim)


def _separated(p, q):
    """True if q lies strictly beyond some halfspace of p: every vertex of q
    strictly, every ray weakly, the lineality parallel to its hyperplane.
    A vertex v is compared as the integer vector x = t v, t > 0."""
    verts = [_integral(v) for v in q.vertices]
    return any(all(dot(u, x) * c.denominator > c.numerator * t for x, t in verts)
               and all(dot(u, r) >= 0 for r in q.rays)
               and all(dot(u, l) == 0 for l in q.lineality)
               for u, c in p.all_halfspaces())


def affine_image(linear_rows, translate, p):
    """Image of p under x -> A x + tau (A integer matrix given by rows).
    A vertex v = x / t (x integer, t > 0) maps to (A x + t tau) / t, on
    ints, with one Fraction per output coordinate."""
    if p.is_empty:
        return EMPTY
    out_dim = len(linear_rows)
    shift = [Fraction(c) for c in translate]

    def apply(v):
        x, t = _integral(v)
        return tuple(Fraction(dot(row, x) * c.denominator + t * c.numerator, t * c.denominator)
                     for row, c in zip(linear_rows, shift))

    def apply_lin(v):
        return tuple(dot(row, v) for row in linear_rows)

    return from_generators([apply(v) for v in p.vertices], [apply_lin(r) for r in p.rays],
                           [apply_lin(l) for l in p.lineality], ambient_dim=out_dim)


def _facet(p, i):
    """The facet of p on ``halfspaces[i]``, a canonical polyhedron read off
    the incidence: the candidates for its facets are the facet
    inequalities of p, tight on it where their masks meet its own.  It is
    built on first use and kept on p."""
    if p._facets is None:
        p._facets = [None] * len(p.halfspaces)
    if p._facets[i] is None:
        vi, ri = _bits(p.facet_vertices[i]), _bits(p.facet_rays[i])
        incidence = [(_restrict(vs, vi), _restrict(rs, ri))
                     for vs, rs in zip(p.facet_vertices, p.facet_rays)]
        p._facets[i] = _assemble(p.ambient_dim, p.halfspaces, incidence,
                                 [p.vertices[k] for k in vi], [p.rays[k] for k in ri],
                                 p.lineality)
    return p._facets[i]


def facets(p):
    """Closed faces of codimension 1, sorted by key."""
    if p.is_empty or p.dim <= 0:
        return []
    return sorted((_facet(p, i) for i in range(len(p.halfspaces))), key=Polyhedron.key)


def _facet_records(p):
    """(key, N, w) for each facet rho of p, in the order of ``halfspaces``,
    read off the incidence with no facet polyhedron built: the key that
    rho has, its direction lattice N and the canonical outward vector w of
    p across rho, from one Hermite form of the facet normal over p's
    direction lattice (see ``lattice._facet_split``).  They are computed
    on first use and kept on p as a tuple."""
    if p._records is None:
        out = []
        for (u, _), vs, rs in zip(p.halfspaces, p.facet_vertices, p.facet_rays):
            omega, n_rho = _facet_split(p.direction_lattice, u)
            key = (p.ambient_dim, p.lineality, tuple(p.vertices[k] for k in _bits(vs)),
                   tuple(p.rays[k] for k in _bits(rs)))
            out.append((key, n_rho, omega))
        p._records = tuple(out)
    return p._records


def faces(p, codim):
    """All closed faces of the given codimension; codim 0 returns [p]."""
    if p.is_empty:
        raise ValueError("empty polyhedron has no graded faces")
    if codim < 0 or codim > p.dim:
        raise ValueError("codimension out of range")
    level = [p]
    for _ in range(codim):
        found = {f.key(): f for cell in level for f in facets(cell)}
        level = [found[k] for k in sorted(found)]
    return level


def all_faces(p):
    """All nonempty closed faces of p, including p itself."""
    out = []
    for cd in range(p.dim + 1):
        out.extend(faces(p, cd))
    return out


# ---------------------------------------------------------------------------
# complexes

class Complex:
    """Finite polyhedral complex: cells closed under faces, intersections are
    common faces.  Use :func:`complex_from_cells` to build with face closure,
    and :func:`validate_complex` to verify the axioms."""

    def __init__(self, cells):
        self._cells = {}
        for c in cells:
            if c.is_empty:
                continue
            self._cells[c.key()] = c

    @property
    def cells(self):
        return [self._cells[k] for k in sorted(self._cells)]

    @property
    def dim(self):
        return max((c.dim for c in self._cells.values()), default=-1)

    def maximal_cells(self):
        """Cells that are no facet of another cell; the cells are closed
        under faces, so these are the cells in no other cell."""
        facet_keys = {f.key() for c in self._cells.values() if c.dim > 0
                      for f in faces(c, 1)}
        return [self._cells[k] for k in sorted(set(self._cells) - facet_keys)]

    def __contains__(self, cell):
        return cell.key() in self._cells

    def __len__(self):
        return len(self._cells)


def complex_from_cells(cells):
    """Complex generated by the given cells: add all their closed faces."""
    closed = {}
    for c in cells:
        if c.is_empty:
            continue
        for f in all_faces(c):
            closed[f.key()] = f
    return Complex(closed.values())


def validate_complex(cx):
    """List of axiom violations; empty iff cx is a valid polyhedral complex.

    A violation is a record: ``{"kind": "missing-face", "cell": c}`` for a
    cell with a face that is not a cell, and ``{"kind": "not-a-common-face",
    "cells": (a, b), "intersection": x}`` for two cells that meet in x,
    which is not a face of both."""
    violations = []
    cell_list = cx.cells
    keys = set(c.key() for c in cell_list)
    face_sets = {}
    for c in cell_list:
        fs = set(f.key() for f in all_faces(c))
        face_sets[c.key()] = fs
        if not fs <= keys:
            violations.append({"kind": "missing-face", "cell": c})
    for i, a in enumerate(cell_list):
        for b in cell_list[i + 1:]:
            x = intersect(a, b)
            if x.is_empty:
                continue
            if x.key() not in face_sets[a.key()] or x.key() not in face_sets[b.key()]:
                violations.append({"kind": "not-a-common-face", "cells": (a, b),
                                   "intersection": x})
    return violations


def _intersections(cx, cells):
    """Complex of the nonempty intersections of the maximal cells of cx with
    the given cells."""
    pieces = []
    for a in cx.maximal_cells():
        for b in cells:
            x = intersect(a, b)
            if not x.is_empty:
                pieces.append(x)
    return complex_from_cells(pieces)


def refine(cx, dx):
    """Common refinement: complex of pairwise intersections of cells of cx
    with cells of dx (restricted to the support of cx where dx covers it)."""
    return _intersections(cx, dx.maximal_cells())


def check_window(box):
    """Reject a truncation window that is not a bounded polytope."""
    if box.is_empty or not box.is_bounded:
        raise ValueError("truncation window must be a bounded polytope")


def truncate(cx, box):
    """Intersect every cell with a bounded full-dimensional polytope."""
    check_window(box)
    return _intersections(cx, [box])


def triangulate(p):
    """Placing triangulation of a polytope from the lexicographically
    smallest vertex; returns simplices as tuples of vertices.

    Purely combinatorial: a face is the bitmask of its vertex indices, and
    the facets of a face F are the inclusion-maximal proper sets F & t, with
    t the vertex mask of a facet of p."""
    if p.is_empty:
        return []
    if not p.is_bounded:
        raise ValueError("cannot triangulate an unbounded polyhedron")
    verts = p.vertices
    simplices = _place((1 << len(verts)) - 1, p.dim, p.facet_vertices)
    return [tuple(verts[i] for i in s) for s in simplices]


def _place(face, dim, tight):
    """Index tuples of the placing triangulation of a dim-dimensional face
    from its smallest vertex, each simplex ending with its placed vertices."""
    if face.bit_count() == dim + 1:
        return [_bits(face)]
    cuts = {face & t for t in tight} - {face}
    sub = sorted((_bits(g), g) for g in _maximal(cuts))
    v0 = face & -face
    i0 = v0.bit_length() - 1
    out = []
    for _, g in sub:
        if not g & v0:
            out.extend(s + (i0,) for s in _place(g, dim - 1, tight))
    return out

