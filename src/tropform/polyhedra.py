"""Integral Q-affine polyhedra and polyhedral complexes.

Polyhedra are intersections of halfspaces <u, x> <= c with integer normals u
and rational constants c.  Conversion between H- and V-representations uses
an exact double description method (DD), which also yields the rows tight at
each vertex and ray; either conversion runs it once.  An affine image
along a map injective on the polyhedron runs none: it keeps the
polyhedron's incidence, with facet normals mapped through
``lattice._linear_image``.  A cut of a polyhedron by halfspaces
(``intersect``, and ``from_halfspaces`` as the cut of R^r) continues the DD
of the polyhedron's homogenized cone over the new rows that do not hold on
it already, and is the polyhedron itself when none is left; it finds an
empty intersection the same way.  A built polyhedron keeps the vertex-facet
incidence, one bitmask per facet over its vertices, then its rays: its
facets are chosen from it combinatorially, and its faces and triangulations
are read off it with no further double description and no dot products.
A vertex v is stored as the homogeneous integer point (x, t) with v = x / t,
t > 0 and gcd(x, t) = 1, as lrs and cdd compute it: ``points`` is the
stored form, and ``vertices`` a view that builds the Fractions when asked.
Every cell, built, cut or read off as a facet, is assembled on integers by
``_assemble``: directions, the affine hull and the canonical facet
inequalities need no rational arithmetic, and Fractions are built only for
the equality and facet constants.  The hull equalities are
the orthogonal complement of the raw directions, and the direction lattice
is the complement of those, both read off Hermite forms with no Smith form
and computed once per distinct set of directions (``lattice._hull``, a
cache of 4096 entries), as is the split across each facet.
Identity of cells is decided through a canonical key of ints built from the
V-data, which makes complex validation and deduplication deterministic; a
polyhedron hashes its key once.  The key is not the output order: points,
cells and faces are listed in the lexicographic order of their rational
vertices (``_rational_order``, ``_key_order``).  What balancing and
boundary integrals need of a facet, its key, direction lattice and outward
vector, is read off the incidence as a record (``_facet_records``) without
building the facet, and kept on the polyhedron once read; the facet itself,
where it is needed, is built alone from the same position (``_facet``) and
kept too.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .lattice import (
    _facet_split,
    _hull,
    _integral,
    _linear_image,
    dot,
    full_lattice,
    integer_row,
    primitive,
    reduce_echelon,
    vec_neg,
)


class EmptyPolyhedron:
    """Distinct marker for the empty set (allowed as a face of any cell)."""

    is_empty = True
    dim = -1

    def __repr__(self):
        return "EmptyPolyhedron()"


EMPTY = EmptyPolyhedron()


# ---------------------------------------------------------------------------
# double description: minimal generators of {x : g.x <= 0 for g in rows}

def dual_description(rows, lines, rays, masks, bit):
    """Minimal generators of the polyhedral cone C cut out by the homogeneous
    inequalities g.x <= 0, computed exactly, with the rows tight at each.

    The method is continued from a cone the caller gives: ``lines`` and
    ``rays`` generate it, ``masks[i]`` holds the rows already processed
    that are tight at ``rays[i]``, and ``bit`` is the bit of the first new
    row, every lower bit standing for a row processed before.  The full
    space of dimension n is the n unit lines, no ray and bit 1.

    Returns (lines, rays, masks) for C cut by the new rows: ``masks[i]`` is
    the set of rows tight at ``rays[i]`` as an int (a zero row is tight at
    every ray); every line is tight at every row.  The masks are carried
    along as the rows are added, never recomputed: a ray with value 0 on
    the new row gains its bit, the combination of an adjacent pair gets the
    pair's common bits and the new one, a ray projected in a line step
    gains the new bit, and the ray made from the eliminated line gets every
    earlier bit.  Two rays are adjacent when no third ray's mask contains
    their common bits (Fukuda & Prodon, "Double description method
    revisited", 1996)."""
    lines, rays, masks = list(lines), list(rays), list(masks)
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
    ``points`` are the canonical base points of the minimal faces (reduced
    modulo the lineality space), each the normalized homogeneous integer
    point (x_1, ..., x_r, t) of the vertex x / t, listed in the
    lexicographic order of the vertices; ``vertices`` is their Fraction
    view, built on each access.  ``rays`` are the primitive extreme ray
    representatives, sorted; ``lineality`` an HNF basis of the lineality
    lattice.  ``facet_masks[i]`` holds the generators on the facet
    ``halfspaces[i]`` as a bitmask over ``points + rays`` (bit k for
    index k, the vertices on the low bits); every line lies on every facet.
    ``key()``, all ints, decides identity; it does not order the output.
    """

    is_empty = False
    # no per-instance dict: face caches keep many small polyhedra alive
    __slots__ = ("ambient_dim", "halfspaces", "equalities", "points", "rays", "lineality",
                 "direction_lattice", "facet_masks", "dim",
                 "_facets", "_records", "_moments", "_key", "_hash",
                 "__weakref__")

    def __init__(self, ambient_dim, halfspaces, equalities, points, rays, lineality,
                 direction_lattice, facet_masks):
        self.ambient_dim = ambient_dim
        self.halfspaces = tuple(halfspaces)      # canonical facet inequalities
        self.equalities = tuple(equalities)      # canonical affine-hull equations
        self.points = tuple(points)
        self.rays = tuple(rays)
        self.lineality = tuple(lineality)
        self.direction_lattice = direction_lattice
        self.facet_masks = tuple(facet_masks)
        self.dim = self.direction_lattice.rank
        self._facets = None      # _facet, by position, on first use
        self._records = None     # _facet_records, on first use
        self._moments = None     # integrate's simplices and moment table, on first use
        self._key = (ambient_dim, self.lineality, self.points, self.rays)
        self._hash = None

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self._key == other._key

    def __hash__(self):
        # the key nests a tuple per point: hash it once, on first use
        if self._hash is None:
            self._hash = hash(self._key)
        return self._hash

    def __repr__(self):
        return "Polyhedron(dim=%d, vertices=%r, rays=%r, lineality=%r)" % (
            self.dim, self.vertices, self.rays, self.lineality)

    @property
    def vertices(self):
        """The vertices x / t of ``points`` as Fraction tuples."""
        return tuple(tuple(Fraction(a, p[-1]) for a in p[:-1]) for p in self.points)

    @property
    def is_bounded(self):
        return not self.rays and not self.lineality

    def contains(self, point):
        if len(point) != self.ambient_dim:
            raise ValueError("point length does not match ambient dimension")
        x, t = _integral(point)
        return (all(dot(u, x) * c.denominator <= c.numerator * t for u, c in self.halfspaces)
                and all(dot(e, x) * c.denominator == c.numerator * t
                        for e, c in self.equalities))

    def rel_interior_point(self):
        """A rational point in the relative interior: the mean of the
        vertices plus the sum of the rays."""
        den = lcm(*(p[-1] for p in self.points))
        n = den * len(self.points)
        return tuple(Fraction(sum(p[i] * (den // p[-1]) for p in self.points)
                              + n * sum(d[i] for d in self.rays), n)
                     for i in range(self.ambient_dim))

    def all_halfspaces(self):
        """Facets plus equalities written as pairs of inequalities."""
        hs = list(self.halfspaces)
        for e, c in self.equalities:
            hs.append((e, c))
            hs.append((vec_neg(e), -c))
        return hs


def _reduce_mod_rows(x, t, rows):
    """The point x / t (x integer, t > 0) with the pivot coordinates of
    ``rows`` (an HNF basis) zeroed by a rational combination of them, as a
    normalized homogeneous point: (x', t') with t' > 0 and gcd(x', t') = 1."""
    s, w = reduce_echelon(x, rows)
    return primitive(w + [s * t])


def _rational_order(points):
    """Sort key on homogeneous points (x, t), t > 0, that lists them in the
    lexicographic order of the rational points x / t: each x is scaled to
    the common denominator of the given points and the ints are compared."""
    den = lcm(*{p[-1] for p in points})
    return lambda p: [a * (den // p[-1]) for a in p[:-1]]


def _key_order(keys):
    """Sort key on cell keys (ambient_dim, lineality, points, rays) that
    lists them in the output order: as the keys with each point's rational
    vertex in its place compare, through ``_rational_order`` over every
    point of the given keys."""
    order = _rational_order([p for k in keys for p in k[2]])
    return lambda k: (k[0], k[1], [order(p) for p in k[2]], k[3])


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
    """Polyhedron from inequalities <u, x> <= c, u integral and c rational;
    EMPTY if infeasible.  It is R^r cut by them (``_cut``), and the one
    entry that checks rows given from outside."""
    rows = []
    for u, c in halfspaces:
        if len(u) != ambient_dim:
            raise ValueError("normal length does not match ambient dimension")
        rows.append((tuple(integer_row(u)), Fraction(c)))
    origin, space = (0,) * ambient_dim + (1,), full_lattice(ambient_dim)
    return _cut(Polyhedron(ambient_dim, (), (), (origin,), (), space.basis, space, ()), rows)


def _cut(p, halfspaces):
    """p cut by the inequalities <u, x> <= c, u an integer tuple and c a
    Fraction; p itself when each holds on p, EMPTY if infeasible.

    The double description of p's homogenized cone, with p's lineality as
    lines and each vertex x / t as the ray (x, t), each ray d as (d, 0), is
    continued over the rows that do not hold on p: those not 0 on every
    line or not at most 0 on every ray.  In a ray's mask, bit k stands for
    p's facet k, bit K = len(p.halfspaces) for t >= 0 and bit K + 1 + j for
    kept row j; p's equalities hold at every generator and need no bit.
    The lines left span the lineality of the cut, which is assembled as any
    cell is, p's facets and the kept rows its candidate facets."""
    r, k = p.ambient_dim, len(p.halfspaces)
    lines = [l + (0,) for l in p.lineality]
    gens = list(p.points) + [d + (0,) for d in p.rays]
    cuts, rows = [], []
    for u, c in halfspaces:
        g = tuple(x * c.denominator for x in u) + (-c.numerator,)
        if any(dot(g, l) for l in lines) or any(dot(g, x) > 0 for x in gens):
            cuts.append((u, c))
            rows.append(g)
    if not rows:
        return p
    masks = [_select(p.facet_masks, 1 << i) | (g[-1] == 0) << k for i, g in enumerate(gens)]
    left, gens, masks = dual_description(rows, lines, gens, masks, 2 << k)
    if not any(g[-1] > 0 for g in gens):
        return EMPTY
    bits = [1 << j for j in range(k)] + [2 << (k + j) for j in range(len(cuts))]
    # lines always have t == 0 (they satisfy -t <= 0 and t unbounded both ways)
    return _from_incidence(r, p.halfspaces + tuple(cuts), bits, zip(gens, masks),
                           [l[:-1] for l in left])


def _from_incidence(ambient_dim, candidates, bits, tight, lines):
    """Assemble from pairs (g, m) in ``tight``: g = (x, t) a homogeneous
    generator of a minimal face, t > 0 for a vertex x / t and t == 0 for a
    ray, and m the bitmask of the candidates tight at g (candidate j has bit
    ``bits[j]``).  The lineality lattice is the saturation of the integer
    rows ``lines``, dependent or not, read off their cached hull
    (``lattice._hull``); generators equal modulo it, to which vertices and
    rays are reduced, are tight at the same candidates."""
    lin_basis = _hull(lines, ambient_dim)[1].basis
    vert_rows, ray_rows = {}, {}
    for g, m in tight:
        x, t = g[:-1], g[-1]
        if t > 0:
            vert_rows[_reduce_mod_rows(x, t, lin_basis)] = m
        else:
            d = primitive(reduce_echelon(x, lin_basis)[1])
            if any(d):
                ray_rows[d] = m
    verts = sorted(vert_rows, key=_rational_order(vert_rows))
    rec = sorted(ray_rows)
    row_masks = [vert_rows[v] for v in verts] + [ray_rows[d] for d in rec]
    masks = [_select(row_masks, b) for b in bits]
    return _assemble(ambient_dim, candidates, masks, verts, rec, lin_basis)


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


def _assemble(ambient_dim, candidates, masks, verts, rec, lin_basis):
    """Finish construction: affine hull, canonical facets, computed on
    integers; Fractions are built only for the equality and facet constants.

    ``verts`` are normalized homogeneous points in rational order and
    ``rec`` primitive rays, sorted; ``masks[j]`` holds the generators
    on the hyperplane of ``candidates[j]`` as a bitmask over ``verts + rec``,
    as ``facet_masks`` does.  Every candidate is valid and every facet is
    cut out by some candidate, so a candidate defines a facet exactly when
    its face holds a vertex, is proper and is inclusion-maximal among the
    candidates' faces."""
    # v - v0 is a positive multiple of x t0 - x0 t for v = x / t, v0 = x0 / t0
    x0, t0 = verts[0][:-1], verts[0][-1]
    dirs = [primitive([a * t0 - b * v[-1] for a, b in zip(v[:-1], x0)])
            for v in verts[1:]] + list(rec) + list(lin_basis)
    # affine hull equalities: HNF basis of the orthogonal complement of
    # the directions; the direction lattice is the complement of those
    comp, dir_lat = _hull(dirs, ambient_dim)
    equalities = sorted((e, Fraction(dot(e, x0), t0)) for e in comp)
    # stored sorted, the equalities run in reverse HNF order; facets are
    # reduced by their rows (d.den e, d.num) in HNF order
    hull = [[x * c.denominator for x in e] + [c.numerator] for e, c in reversed(equalities)]
    vertex_bits, everything = (1 << len(verts)) - 1, (1 << (len(verts) + len(rec))) - 1
    proper = {}
    for j, face in enumerate(masks):
        if face & vertex_bits and face != everything:
            proper.setdefault(face, j)
    facets = {}
    for face in _maximal(proper):
        normal, const = _canonical_halfspace(*candidates[proper[face]], hull)
        facets[normal] = (const, face)
    hs = sorted(facets.items())
    return Polyhedron(ambient_dim, [(u, c) for u, (c, _) in hs], equalities, verts, rec,
                      lin_basis, dir_lat, [face for _, (_, face) in hs])


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
    if any(len(g) != ambient_dim for g in (*points, *rays, *lines)):
        raise ValueError("generator length does not match ambient dimension")
    gens = [tuple(x) + (t,) for x, t in map(_integral, points)]
    gens += [primitive(r) + (0,) for r in rays]
    for l in lines:
        g = primitive(l)
        gens += [g + (0,), vec_neg(g) + (0,)]
    _, drays, masks = dual_description(gens, full_lattice(ambient_dim + 1).basis, [], [], 1)
    # generator k has DD bit k; tight[k] holds the dual rays at which it is
    # tight, all of them for a zero generator, which joins the lineality
    tight = [_select(masks, 1 << k) for k in range(len(gens))]
    full = (1 << len(drays)) - 1
    extreme = set(_maximal({m for m in tight if m != full}))
    cand = [i for i, a in enumerate(drays) if any(a[:-1])]
    return _from_incidence(ambient_dim, [(drays[i][:-1], -drays[i][-1]) for i in cand],
                           [1 << i for i in cand],
                           [(g, m) for g, m in zip(gens, tight) if m in extreme],
                           [g[:-1] for g, m in zip(gens, tight) if m == full])


def intersect(p, q):
    """Intersection of two polyhedra (EMPTY allowed) in the same ambient
    space: p cut by q (``_cut``), which is p itself when p lies in q."""
    if p.is_empty or q.is_empty:
        return EMPTY
    if p.ambient_dim != q.ambient_dim:
        raise ValueError("polyhedra in different ambient spaces do not intersect")
    return _cut(p, q.all_halfspaces())


def affine_image(linear_rows, translate, p):
    """Image of p under x -> A x + tau (A integer matrix given by rows).

    Where A is injective on p's direction lattice N, the image is affinely
    isomorphic to p and has p's vertex-facet incidence, so it is assembled
    from that incidence with no double description: a vertex x / t (x
    integer, t > 0) maps to the generator (A x D + t tau D, t D), D the
    common denominator of tau, a ray d to A d and the lineality to the
    saturation of its image; each generator keeps its facet mask.  The
    facet <u, x> <= c of p becomes the candidate <u', y> <= c', u' from
    ``lattice._linear_image`` (<u', A b> is a positive multiple of <u, b>
    on N) and c' its value at a vertex of the facet.  Elsewhere the face
    lattice changes, and the image is the hull of the mapped generators."""
    if p.is_empty:
        return EMPTY
    a = tuple(map(tuple, linear_rows))
    tau, d = _integral(translate)
    verts = [tuple(dot(row, v[:-1]) * d + v[-1] * c for row, c in zip(a, tau)) + (v[-1] * d,)
             for v in p.points]
    rays = [tuple(dot(row, r) for row in a) for r in p.rays]
    lines = [tuple(dot(row, l) for row in a) for l in p.lineality]
    _, pivots, to_image = _linear_image(a, p.direction_lattice)
    if pivots is None:
        points = [tuple(Fraction(y, g[-1]) for y in g[:-1]) for g in verts]
        return from_generators(points, rays, lines, ambient_dim=len(a))
    cands = []
    for (u, _), m in zip(p.halfspaces, p.facet_masks):
        w = [0] * len(a)
        for i, row in zip(pivots, to_image):
            w[i] = dot(row, u)
        # the lowest bit of a facet is a vertex
        g = verts[(m & -m).bit_length() - 1]
        cands.append((w, Fraction(dot(w, g[:-1]), g[-1])))
    gens = verts + [r + (0,) for r in rays]
    tight = [(g, _select(p.facet_masks, 1 << i)) for i, g in enumerate(gens)]
    return _from_incidence(len(a), cands, [1 << j for j in range(len(cands))], tight, lines)


def _facet(p, i):
    """The facet of p on ``halfspaces[i]``, a canonical polyhedron read off
    the incidence: its candidate facets are the facet inequalities of p,
    with their masks restricted to its generators.  It is built on first
    use and kept on p."""
    if p._facets is None:
        p._facets = [None] * len(p.halfspaces)
    if p._facets[i] is None:
        on = _bits(p.facet_masks[i])
        p._facets[i] = _assemble(p.ambient_dim, p.halfspaces,
                                 [_restrict(m, on) for m in p.facet_masks],
                                 *_generators(p, on), p.lineality)
    return p._facets[i]


def _generators(p, positions):
    """The points, then the rays of p at the given positions."""
    nv = len(p.points)
    return (tuple(p.points[k] for k in positions if k < nv),
            tuple(p.rays[k - nv] for k in positions if k >= nv))


def facets(p):
    """Closed faces of codimension 1, in the output order of their keys."""
    if p.is_empty or p.dim <= 0:
        return []
    out = [_facet(p, i) for i in range(len(p.halfspaces))]
    order = _key_order([f.key() for f in out])
    return sorted(out, key=lambda f: order(f.key()))


def _facet_records(p):
    """(key, N, w) for each facet rho of p, in the order of ``halfspaces``,
    read off the incidence with no facet polyhedron built: the key that
    rho has, its direction lattice N and the canonical outward vector w of
    p across rho, from one Hermite form of the facet normal over p's
    direction lattice (see ``lattice._facet_split``).  They are computed
    on first use and kept on p as a tuple."""
    if p._records is None:
        out = []
        for (u, _), m in zip(p.halfspaces, p.facet_masks):
            omega, n_rho = _facet_split(p.direction_lattice, u)
            key = (p.ambient_dim, p.lineality) + _generators(p, _bits(m))
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
        level = [found[k] for k in sorted(found, key=_key_order(found))]
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
        return [self._cells[k] for k in sorted(self._cells, key=_key_order(self._cells))]

    def maximal_cells(self):
        """Cells that are no facet of another cell; the cells are closed
        under faces, so these are the cells in no other cell."""
        facet_keys = {f.key() for c in self._cells.values() if c.dim > 0
                      for f in faces(c, 1)}
        keys = set(self._cells) - facet_keys
        return [self._cells[k] for k in sorted(keys, key=_key_order(keys))]

    def __contains__(self, cell):
        return not cell.is_empty and cell.key() in self._cells


def complex_from_cells(cells):
    """Complex generated by the given cells: add all their closed faces."""
    closed = {}
    for c in cells:
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


def refine(cx, dx):
    """Common refinement: complex of pairwise intersections of cells of cx
    with cells of dx (restricted to the support of cx where dx covers it)."""
    others = dx.maximal_cells()
    return complex_from_cells(intersect(a, b) for a in cx.maximal_cells() for b in others)


def check_window(box):
    """Reject a truncation window that is not a bounded polytope."""
    if box.is_empty or not box.is_bounded:
        raise ValueError("truncation window must be a bounded polytope")


def truncate(cx, box):
    """The face-closed complex of every cell intersected with the window."""
    check_window(box)
    return complex_from_cells(intersect(a, box) for a in cx.maximal_cells())


def triangulate(p):
    """Placing triangulation of a polytope from the lexicographically
    smallest vertex; returns simplices as tuples of indices into
    ``p.points``.

    Purely combinatorial: a face is the bitmask of its vertex indices, and
    the facets of a face F are the inclusion-maximal proper sets F & t, with
    t the vertex mask of a facet of p."""
    if p.is_empty:
        return []
    if not p.is_bounded:
        raise ValueError("cannot triangulate an unbounded polyhedron")
    return _place((1 << len(p.points)) - 1, p.dim, p.facet_masks)


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

