"""Weighted complexes, tropical cycles, Dirac supercurrents, push-forward.

A weighted complex represents a tropical cycle, which is a class modulo
refinement; its cells need not form a polyhedral complex, and two cells of
different affine hulls may meet in part of a face.  The balancing condition
at a point x in the relative interior of a codimension-1 face reads
sum m_sigma w_{rho,sigma} in N_rho over the pairs (sigma, rho) with rho a
facet of sigma whose relative interior holds x; a weighted complex is a
tropical cycle iff it holds everywhere, which is also exactly when the
associated Dirac supercurrent is d'-closed (and d''-closed).
"""

from __future__ import annotations

from .lattice import (
    _linear_image,
    dot,
    lattice_index,
    member,
    reduce_mod_lattice,
    vec_neg,
)
from .polyhedra import (
    _cut,
    _facet,
    _facet_records,
    _key_order,
    _reduce_mod_rows,
    affine_image,
    check_window,
    from_halfspaces,
    intersect,
)
from .superform import d_prime, d_second, pullback, wedge
from .integrate import integrate_complex, integrate_polytope


class WeightedComplex:
    """Pure-dimensional polyhedra with integer weights, representing a
    tropical cycle up to refinement: the cells need not form a polyhedral
    complex, and may meet in part of a face.  The empty weighted complex is
    the tropical zero cycle."""

    def __init__(self, weighted_cells):
        """weighted_cells: iterable of (polyhedron, integer weight), all of
        one dimension in one ambient space, checked before a cell whose
        weights sum to 0 is dropped.  These are the maximal cells; their faces
        are not stored, and weights of equal cells add up.  A weight that is
        not an integer raises ValueError."""
        # keyed by the polyhedron, whose hash is that of its key, taken once
        self._weights = {}
        for c, m in weighted_cells:
            if c.is_empty:
                continue
            w = int(m)
            if w != m:
                raise ValueError("weight %s is not an integer" % m)
            self._weights[c] = self._weights.get(c, 0) + w
        if len(set(c.ambient_dim for c in self._weights)) > 1:
            raise ValueError("weighted cells must lie in one ambient space")
        if len(set(c.dim for c in self._weights)) > 1:
            raise ValueError("weighted cells must have equal dimension")
        self._weights = {c: w for c, w in self._weights.items() if w}
        # sorted once, as the cells never change after construction, in the
        # output order of their keys
        order = _key_order([c.key() for c in self._weights])
        self._cells = sorted(self._weights.items(), key=lambda cm: order(cm[0].key()))
        self.dim = self._cells[0][0].dim if self._cells else -1

    @property
    def is_zero(self):
        """True for the zero cycle, which has no cell."""
        return self.dim < 0

    def weighted_cells(self):
        return list(self._cells)

    def maximal_cells(self):
        return [c for c, _ in self._cells]

    def weight(self, cell):
        return self._weights.get(cell, 0)

    def truncated(self, box):
        """Weighted complex of intersections with a bounded window; pieces of
        full dimension inherit the weight of their cell."""
        check_window(box)
        pieces = ((intersect(c, box), m) for c, m in self._cells)
        return WeightedComplex((x, m) for x, m in pieces if x.dim == self.dim)


def _split(p, u, c):
    """The closed halves of p on either side of the hyperplane u.x = c when
    it crosses the relative interior of p; otherwise p itself."""
    # the sign of <u, v> - c, for v = x / t, is that of <u, x> d - n t
    n, d = c.numerator, c.denominator
    vals = [dot(u, v[:-1]) * d - n * v[-1] for v in p.points]
    vals += [dot(u, r) for r in p.rays]
    vals += [x for l in p.lineality for x in (dot(u, l), -dot(u, l))]
    if not min(vals) < 0 < max(vals):
        return [p]
    return [_cut(p, [cut]) for cut in ((u, c), (vec_neg(u), -c))]


def _overlay(entries):
    """Overlay of weighted polyhedra (cell, value) that share one affine
    hull: each cell cut by the facet hyperplanes of the others where they
    cross its relative interior.  Yields (cell, piece, values) for each
    piece of each cell, with the values of the cells that contain it."""
    if len(entries) == 1:
        (cell, value), = entries
        yield cell, cell, [value]
        return
    cuts = sorted({h for cell, _ in entries for h in cell.halfspaces})
    for cell, _ in entries:
        parts = [cell]
        for u, c in cuts:
            parts = [half for p in parts for half in _split(p, u, c)]
        for p in parts:
            x = p.rel_interior_point()
            yield cell, p, [v for other, v in entries if other.contains(x)]


def check_balancing(wc):
    """Violations of the balancing condition: list of (face, excess), in the
    output order of the face keys (``polyhedra._key_order``), where the
    excess is the canonical representative modulo N_rho of
    sum m_sigma w_{rho,sigma}; empty iff wc is a tropical cycle.

    The sums are read off each cell's facet records (key, N_rho, w) and
    taken per affine hull, keyed on integers by N_rho's basis and a vertex
    of rho reduced at its pivots.  A hull that holds one face gives that
    face's sum; the faces that share a hull are overlaid, and each piece of
    a face receives the sums of every face that contains it.  A face is
    reported once per distinct violating sum over its pieces; on a
    polyhedral complex that is once, with its own sum.  Only the faces
    overlaid or reported are built as polyhedra, each alone from the
    position of its record in one cell that has it.  The verdict belongs to
    the cycle: it is the same for every refinement of wc, also when the
    cells are not a polyhedral complex."""
    if wc.dim < 1:
        return []
    found = {}
    for sigma, m in wc.weighted_cells():
        for i, (key, lat, omega) in enumerate(_facet_records(sigma)):
            _, _, excess = found.setdefault(key, ((sigma, i), lat, [0] * len(omega)))
            for j, x in enumerate(omega):
                excess[j] += m * x
    hulls = {}
    for key, (_, lat, _) in found.items():
        v = key[2][0]
        hulls.setdefault((lat.basis, _reduce_mod_rows(v[:-1], v[-1], lat.basis)), []).append(key)
    # (face key, sum) -> the face, where it is already built
    totals = {}
    for keys in hulls.values():
        if len(keys) == 1:
            totals[keys[0], tuple(found[keys[0]][2])] = None
            continue
        entries = [(_facet(*found[k][0]), found[k][2]) for k in keys]
        for rho, _, sums in _overlay(entries):
            totals[rho.key(), tuple(map(sum, zip(*sums)))] = rho
    bad = [(key, total) for key, total in totals if not member(total, found[key][1])]
    order = _key_order([key for key, _ in bad])
    out = []
    for key, total in sorted(bad, key=lambda kt: (order(kt[0]), kt[1])):
        cell_facet, lat, _ = found[key]
        rho = totals[key, total] or _facet(*cell_facet)
        out.append((rho, reduce_mod_lattice(total, lat)))
    return out


# ---------------------------------------------------------------------------
# supercurrents

class Current:
    """Dirac current of a weighted complex or the current of an embedded
    form, together with a stack of applied d'/d'' operators (last applied
    is outermost)."""

    DIRAC = "dirac"
    EMBEDDED = "embedded"

    def __init__(self, kind, payload, applied_ops=()):
        if kind not in (self.DIRAC, self.EMBEDDED):
            raise ValueError("unknown current kind")
        self.kind = kind
        self.payload = payload
        self.applied_ops = tuple(applied_ops)
        for op in self.applied_ops:
            if op not in ("d_prime", "d_second"):
                raise ValueError("unknown operator %r" % (op,))

    @classmethod
    def dirac(cls, wc):
        return cls(cls.DIRAC, wc)

    @classmethod
    def embedded(cls, form):
        return cls(cls.EMBEDDED, form)

    def apply(self, op):
        return Current(self.kind, self.payload, self.applied_ops + (op,))


_OPS = {"d_prime": d_prime, "d_second": d_second}


def current_eval(cur, a, window):
    """Evaluate the current on the form a over a window that passes
    ``check_window``, also for the zero cycle, which is 0 on any form.

    Each applied operator unfolds as (d T)(a) = (-1)^{p+q+1} T(d a) with
    (p, q) the bidegree of d a, matching the sign that makes the embedding
    of forms into currents commute with d' and d''."""
    sign = 1
    form = a
    for op in reversed(cur.applied_ops):
        form = _OPS[op](form)
        deg = form.p + form.q
        sign *= -1 if (deg + 1) % 2 else 1
    if cur.kind == Current.DIRAC:
        wc = cur.payload
        if not wc.is_zero and form.bidegree != (wc.dim, wc.dim):
            raise ValueError("bidegree mismatch for Dirac evaluation")
        return sign * integrate_complex(wc.truncated(window), form)
    omega = cur.payload
    prod = wedge(omega, form)
    r = omega.ambient_dim
    if prod.bidegree != (r, r):
        raise ValueError("bidegree mismatch for embedded-form evaluation")
    check_window(window)
    return sign * integrate_polytope(window, prod)


# ---------------------------------------------------------------------------
# push-forward

def pushforward(f, wc):
    """Push-forward of a weighted complex along an integral affine map, as a
    cycle represented up to refinement.

    The n-dimensional images of the maximal cells, those on which the map
    is injective, are read off the cells' vertex-facet incidence with no
    double description (``affine_image``), grouped by affine hull and
    overlaid within each hull: an image is cut by the facet
    hyperplanes of the images that share its hull, only where one crosses
    the relative interior.  Each piece receives the weight
    sum [N_piece : F(N_cell)] * m_cell over the cells whose image covers it.
    Pieces of different hulls are not cut against each other, so they may
    meet in part of a face.  Cells with rank F(N_cell) < n have
    lower-dimensional image and are dropped; the result may be the zero
    cycle.  The rank and F(N_cell) come from ``lattice._linear_image``,
    which ``affine_image`` reads too."""
    cells = wc.maximal_cells()
    if cells and cells[0].ambient_dim != f.domain_dim:
        raise ValueError("map domain is R^%d but the cycle lies in R^%d"
                         % (f.domain_dim, cells[0].ambient_dim))
    hulls = {}
    for cell, m in wc.weighted_cells():
        sub = _linear_image(f.linear, cell.direction_lattice)[0]
        if sub.rank == wc.dim:
            img = affine_image(f.linear, f.translate, cell)
            weight = m * lattice_index(sub, img.direction_lattice)
            hulls.setdefault(img.equalities, []).append((img, weight))
    pieces = {}
    for group in hulls.values():
        for _, piece, weights in _overlay(group):
            pieces[piece.key()] = (piece, sum(weights))
    return WeightedComplex(pieces.values())


def preimage_polyhedron(f, p):
    """F^{-1}(p) as a polyhedron in the domain of f."""
    hs = []
    for u, c in p.all_halfspaces():
        # u . (A x + t) <= c  ->  (u A) . x <= c - u . t
        hs.append((tuple(dot(u, col) for col in zip(*f.linear)), c - dot(u, f.translate)))
    return from_halfspaces(hs, f.domain_dim)


def projection_check(f, wc, a, window):
    """Both sides of the projection formula: the integral of a over the
    push-forward truncated to the window, and the integral of F* a over the
    source truncated to the preimage of the window, both as one sum over
    a weighted complex.  They agree exactly."""
    check_window(window)
    if window.dim != f.codomain_dim:
        raise ValueError("window must be full-dimensional")
    left = integrate_complex(pushforward(f, wc).truncated(window), a)
    pa = pullback(f, a)
    pre = preimage_polyhedron(f, window)
    n = wc.dim
    # F* a restricts to zero on a cell that F maps to lower dimension
    pieces = ((intersect(cell, pre), m) for cell, m in wc.weighted_cells()
              if _linear_image(f.linear, cell.direction_lattice)[0].rank == n)
    right = integrate_complex(WeightedComplex((dom, m) for dom, m in pieces if dom.dim == n), pa)
    return (left, right)
