"""Integral Q-affine polyhedra and polyhedral complexes.

Polyhedra are intersections of halfspaces <u, x> <= c with integer normals u
and rational constants c.  Conversion between H- and V-representations uses
an exact double description method; faces and triangulations of a built
polyhedron come from its vertex-facet incidence without running it again.
Identity of cells is decided through a canonical key built from the V-data,
which makes complex validation and deduplication deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd

from .lattice import (
    determinant,
    identity_matrix,
    dot,
    is_zero_vec,
    lattice_from_rows,
    primitive,
    rational_kernel,
    rational_rank,
    saturate,
    vec_neg,
    vec_sub,
    zero_lattice,
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


def _clear_denominators(v):
    """Scale a rational vector to a primitive integer vector (same ray)."""
    den = reduce(lambda a, b: a * b // gcd(a, b), (Fraction(x).denominator for x in v), 1)
    return primitive([int(Fraction(x) * den) for x in v])


# ---------------------------------------------------------------------------
# double description: minimal generators of {x : g.x <= 0 for g in rows}

def dual_description(rows, dim):
    """Minimal generators (lines, rays) of the polyhedral cone cut out by the
    homogeneous inequalities g.x <= 0, computed exactly."""
    lines = [tuple(r) for r in identity_matrix(dim)]
    rays = []
    processed = []

    def tight_set(r):
        return frozenset(i for i, g in enumerate(processed) if dot(g, r) == 0)

    for g in rows:
        g = tuple(g)
        if is_zero_vec(g):
            continue
        vals = [dot(g, l) for l in lines]
        if any(v != 0 for v in vals):
            k = next(i for i, v in enumerate(vals) if v != 0)
            l0, v0 = lines[k], vals[k]
            if v0 > 0:
                l0, v0 = vec_neg(l0), -v0
            new_lines = []
            for i, l in enumerate(lines):
                if i == k:
                    continue
                # project onto g.x = 0 along l0
                new_lines.append(primitive([v0 * a - vals[i] * b for a, b in zip(l, l0)]))
            new_rays = []
            for r in rays:
                vr = dot(g, r)
                new_rays.append(primitive([(-v0) * a + vr * b for a, b in zip(r, l0)]))
            new_rays.append(primitive(l0))
            lines, rays = new_lines, new_rays
        else:
            neg = [r for r in rays if dot(g, r) < 0]
            zero = [r for r in rays if dot(g, r) == 0]
            pos = [r for r in rays if dot(g, r) > 0]
            if pos:
                tights = {r: tight_set(r) for r in rays}
                combos = []
                for rp in pos:
                    for rn in neg:
                        common = tights[rp] & tights[rn]
                        adjacent = True
                        for r3 in rays:
                            if r3 is rp or r3 is rn:
                                continue
                            if common <= tights[r3]:
                                adjacent = False
                                break
                        if adjacent:
                            vp, vn = dot(g, rp), dot(g, rn)
                            combos.append(primitive([vp * a - vn * b for a, b in zip(rn, rp)]))
                rays = neg + zero + [c for c in combos if not is_zero_vec(c)]
                seen = set()
                rays = [r for r in rays if not (tuple(r) in seen or seen.add(tuple(r)))]
        processed.append(g)
    return [tuple(l) for l in lines], [tuple(r) for r in rays]


# ---------------------------------------------------------------------------
# Polyhedron

class Polyhedron:
    """Nonempty integral Q-affine polyhedron with cached H- and V-data.

    Construct through :func:`from_halfspaces` or :func:`from_generators`.
    ``vertices`` are the canonical base points of the minimal faces (reduced
    modulo the lineality space), ``rays`` the primitive extreme ray
    representatives, ``lineality`` an HNF basis of the lineality lattice.
    """

    is_empty = False

    def __init__(self, ambient_dim, halfspaces, equalities, vertices, rays, lineality,
                 direction_lattice):
        self.ambient_dim = ambient_dim
        self.halfspaces = tuple(halfspaces)      # canonical facet inequalities
        self.equalities = tuple(equalities)      # canonical affine-hull equations
        self.vertices = tuple(sorted(vertices))
        self.rays = tuple(sorted(rays))
        self.lineality = tuple(lineality)
        self.direction_lattice = direction_lattice
        self.dim = self.direction_lattice.rank
        self._faces_by_codim = {}
        self._key = (ambient_dim, self.lineality, self.vertices, self.rays)

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "Polyhedron(dim=%d, vertices=%r, rays=%r, lineality=%r)" % (
            self.dim, self.vertices, self.rays, self.lineality)

    @property
    def is_bounded(self):
        return not self.rays and not self.lineality

    @property
    def base_point(self):
        """Lexicographically smallest canonical vertex (determinism anchor)."""
        return self.vertices[0]

    def contains(self, point):
        for u, c in self.halfspaces:
            if dot(u, point) > c:
                return False
        for e, c in self.equalities:
            if dot(e, point) != c:
                return False
        return True

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


def _reduce_mod_rows(point, rows):
    """Zero out the pivot coordinates of ``rows`` (an HNF basis) in point."""
    pt = [Fraction(x) for x in point]
    for row in rows:
        p = next(i for i, x in enumerate(row) if x != 0)
        f = pt[p] / row[p]
        if f:
            for i in range(len(pt)):
                pt[i] -= f * row[i]
    return tuple(pt)


def _canonical_halfspace(u, c, hull_rows):
    """Reduce a facet normal modulo the affine-hull equality normals and make
    it primitive; the constant is adjusted to keep the same restriction."""
    # u and the equality normals are integer; reduce over Q then clear.
    uu = [Fraction(x) for x in u]
    cc = Fraction(c)
    for e, ec in hull_rows:
        p = next(i for i, x in enumerate(e) if x != 0)
        f = uu[p] / e[p]
        if f:
            for i in range(len(uu)):
                uu[i] -= f * e[i]
            cc -= f * ec
    den = reduce(lambda a, b: a * b // gcd(a, b), (x.denominator for x in uu), 1)
    iu = [int(x * den) for x in uu]
    g = 0
    for x in iu:
        g = gcd(g, x)
    if g == 0:
        return None
    return (tuple(x // g for x in iu), cc * den / g)


def from_halfspaces(halfspaces, ambient_dim):
    """Polyhedron from inequalities <u, x> <= c; returns EMPTY if infeasible."""
    rows = []
    for u, c in halfspaces:
        if len(u) != ambient_dim:
            raise ValueError("normal length does not match ambient dimension")
        cf = Fraction(c)
        den = cf.denominator
        rows.append(tuple(int(x) * den for x in u) + (-cf.numerator,))
    rows.append(tuple([0] * ambient_dim + [-1]))  # t >= 0
    lines, rays = dual_description(rows, ambient_dim + 1)
    # lines always have t == 0 (they satisfy -t <= 0 and t unbounded both ways)
    lin_rows = [l[:-1] for l in lines]
    verts = []
    rec = []
    for r in rays:
        t = r[-1]
        if t > 0:
            verts.append(tuple(Fraction(x, t) for x in r[:-1]))
        else:
            rec.append(r[:-1])
    if not verts:
        return EMPTY
    lin = saturate(lattice_from_rows(lin_rows, ambient_dim)) if lin_rows else zero_lattice(ambient_dim)
    lin_basis = [list(r) for r in lin.basis]
    verts = sorted(set(_reduce_mod_rows(v, lin_basis) for v in verts))
    rec = sorted(set(
        primitive(_clear_denominators(_reduce_mod_rows(r, lin_basis)))
        for r in rec))
    rec = [r for r in rec if not is_zero_vec(r)]
    return _assemble(ambient_dim, halfspaces, verts, rec, lin.basis)


def _assemble(ambient_dim, candidate_halfspaces, verts, rec, lin_basis):
    """Finish construction: affine hull, canonical facets."""
    v0 = verts[0]
    dirs = [_clear_denominators(vec_sub(v, v0)) for v in verts[1:]] + list(rec) + list(lin_basis)
    dir_lat = saturate(lattice_from_rows(dirs, ambient_dim)) if dirs else zero_lattice(ambient_dim)
    dim = dir_lat.rank
    # affine hull equalities: integer basis of the orthogonal complement
    comp = _orthogonal_complement(dir_lat, ambient_dim)
    equalities = sorted((tuple(e), Fraction(dot(e, v0))) for e in comp)
    # facets among the candidate halfspaces
    facets = {}
    for u, c in candidate_halfspaces:
        c = Fraction(c)
        tv = [v for v in verts if dot(u, v) == c]
        if not tv:
            continue
        all_tight = len(tv) == len(verts)
        w0 = tv[0]
        tight_dirs = [_clear_denominators(vec_sub(v, w0)) for v in tv[1:]]
        for r in rec:
            if dot(u, r) == 0:
                tight_dirs.append(r)
            else:
                all_tight = False
        for l in lin_basis:
            if dot(u, l) == 0:
                tight_dirs.append(tuple(l))
            else:
                all_tight = False
        if all_tight:
            continue  # implicit equality, already in the affine hull
        face_dim = rational_rank(tight_dirs) if tight_dirs else 0
        if face_dim == dim - 1:
            ch = _canonical_halfspace(u, c, equalities)
            if ch is not None:
                facets[ch[0]] = ch[1]
    hs = sorted(facets.items())
    return Polyhedron(ambient_dim, hs, equalities, verts, rec, lin_basis, dir_lat)


def _orthogonal_complement(lat, ambient_dim):
    """HNF basis of {u in Z^r : <u, v> = 0 for v in lat}."""
    if lat.rank == 0:
        return [tuple(row) for row in identity_matrix(ambient_dim)]
    if lat.rank == ambient_dim:
        return []
    # integer kernel of basis * x^T = 0: solve over Q, then saturate.
    kern = rational_kernel(lat.basis, ambient_dim)
    rows = [_clear_denominators(k) for k in kern]
    return [tuple(r) for r in saturate(lattice_from_rows(rows, ambient_dim)).basis]


def from_generators(points, rays=(), lines=(), ambient_dim=None):
    """Polyhedron as conv(points) + cone(rays) + span(lines)."""
    if ambient_dim is None:
        ambient_dim = len(points[0])
    if not points:
        return EMPTY
    gens = []
    for p in points:
        cf = [Fraction(x) for x in p]
        den = reduce(lambda a, b: a * b // gcd(a, b), (x.denominator for x in cf), 1)
        gens.append(tuple(int(x * den) for x in cf) + (den,))
    for r in rays:
        g = primitive(r)
        if not is_zero_vec(g):
            gens.append(tuple(g) + (0,))
    for l in lines:
        g = primitive(l)
        if not is_zero_vec(g):
            gens.append(tuple(g) + (0,))
            gens.append(tuple(-x for x in g) + (0,))
    dlines, drays = dual_description(gens, ambient_dim + 1)
    hs = []
    for a in drays:
        hs.append((a[:-1], -Fraction(a[-1])))
    for a in dlines:
        hs.append((a[:-1], -Fraction(a[-1])))
        hs.append((vec_neg(a[:-1]), Fraction(a[-1])))
    hs = [(u, c) for u, c in hs if not is_zero_vec(u)]
    return from_halfspaces(hs, ambient_dim)


def intersect(p, q):
    """Intersection of two polyhedra (EMPTY allowed)."""
    if p.is_empty or q.is_empty:
        return EMPTY
    return from_halfspaces(p.all_halfspaces() + q.all_halfspaces(), p.ambient_dim)


def affine_image(linear_rows, translate, p):
    """Image of p under x -> A x + t (A integer matrix given by rows)."""
    if p.is_empty:
        return EMPTY
    out_dim = len(linear_rows)

    def apply(v):
        return tuple(sum(Fraction(row[j]) * v[j] for j in range(p.ambient_dim)) + Fraction(translate[i])
                     for i, row in enumerate(linear_rows))

    def apply_lin(v):
        return tuple(sum(row[j] * v[j] for j in range(p.ambient_dim)) for row in linear_rows)

    pts = [apply(v) for v in p.vertices]
    rys = [apply_lin(r) for r in p.rays]
    lns = [apply_lin(l) for l in p.lineality]
    rys = [r for r in rys if not is_zero_vec(r)]
    lns = [l for l in lns if not is_zero_vec(l)]
    return from_generators(pts, rys, lns, ambient_dim=out_dim)


def facets(p):
    """Closed faces of codimension 1 (canonical polyhedra), read off the
    vertices and rays tight at each facet inequality of p."""
    if p.is_empty or p.dim <= 0:
        return []
    out = []
    for u, c in p.halfspaces:
        verts = [v for v in p.vertices if dot(u, v) == c]
        rec = [r for r in p.rays if dot(u, r) == 0]
        out.append(_assemble(p.ambient_dim, p.halfspaces, verts, rec, p.lineality))
    return sorted(out, key=Polyhedron.key)


def faces(p, codim):
    """All closed faces of the given codimension; codim 0 returns [p]."""
    if p.is_empty:
        raise ValueError("empty polyhedron has no graded faces")
    if codim < 0 or codim > p.dim:
        raise ValueError("codimension out of range")
    if codim == 0:
        return [p]
    if codim not in p._faces_by_codim:
        found = {f.key(): f for cell in faces(p, codim - 1) for f in facets(cell)}
        p._faces_by_codim[codim] = [found[k] for k in sorted(found)]
    return list(p._faces_by_codim[codim])


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

    def cells_of_dim(self, d):
        return [c for c in self.cells if c.dim == d]

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
    """List of axiom violations; empty iff cx is a valid polyhedral complex."""
    violations = []
    cell_list = cx.cells
    keys = set(c.key() for c in cell_list)
    face_sets = {}
    for c in cell_list:
        fs = set(f.key() for f in all_faces(c))
        face_sets[c.key()] = fs
        for fk in fs:
            if fk not in keys:
                violations.append("missing face of cell %r" % (c,))
                break
    for i, a in enumerate(cell_list):
        for b in cell_list[i + 1:]:
            x = intersect(a, b)
            if x.is_empty:
                continue
            if x.key() not in face_sets[a.key()] or x.key() not in face_sets[b.key()]:
                violations.append(
                    "intersection of %r and %r is not a common face" % (a, b))
    return violations


def refine(cx, dx):
    """Common refinement: complex of pairwise intersections of cells of cx
    with cells of dx (restricted to the support of cx where dx covers it)."""
    pieces = []
    for a in cx.maximal_cells():
        for b in dx.maximal_cells():
            x = intersect(a, b)
            if not x.is_empty:
                pieces.append(x)
    return complex_from_cells(pieces)


def check_window(box):
    """Reject a truncation window that is not a bounded polytope."""
    if box.is_empty or not box.is_bounded:
        raise ValueError("truncation window must be a bounded polytope")


def truncate(cx, box):
    """Intersect every cell with a bounded full-dimensional polytope."""
    check_window(box)
    pieces = []
    for a in cx.maximal_cells():
        x = intersect(a, box)
        if not x.is_empty:
            pieces.append(x)
    return complex_from_cells(pieces)


def triangulate(p):
    """Placing triangulation of a polytope from the lexicographically
    smallest vertex; returns simplices as tuples of vertices.

    Purely combinatorial: a face is its set of vertex indices, and the
    facets of a face F are the inclusion-maximal proper sets F & t, with t
    the vertex set of a facet of p."""
    if p.is_empty:
        return []
    if not p.is_bounded:
        raise ValueError("cannot triangulate an unbounded polyhedron")
    verts = p.vertices
    tight = [frozenset(i for i, v in enumerate(verts) if dot(u, v) == c)
             for u, c in p.halfspaces]

    def place(face, dim):
        if len(face) == dim + 1:
            return [tuple(sorted(face))]
        cuts = {face & t for t in tight} - {face}
        sub = sorted(tuple(sorted(g)) for g in cuts if not any(g < h for h in cuts))
        v0 = min(face)
        out = []
        for g in sub:
            if v0 not in g:
                out.extend(s + (v0,) for s in place(frozenset(g), dim - 1))
        return out

    simplices = place(frozenset(range(len(verts))), p.dim)
    return [tuple(verts[i] for i in s) for s in simplices]


def simplex_volume(simplex):
    """Euclidean volume of a full-dimensional simplex (vertex tuple)."""
    from math import factorial
    v0 = simplex[0]
    rows = [list(vec_sub(v, v0)) for v in simplex[1:]]
    n = len(rows)
    return abs(determinant(rows)) / factorial(n)
