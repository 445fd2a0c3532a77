"""Weighted complexes, tropical cycles, Dirac supercurrents, push-forward.

The balancing condition at a codimension-1 face rho reads
sum_{sigma > rho} m_sigma w_{rho,sigma} in N_rho; a weighted complex is a
tropical cycle iff it holds everywhere, which is also exactly when the
associated Dirac supercurrent is d'-closed (and d''-closed).
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import (
    dot,
    in_span,
    is_zero_vec,
    lattice_from_rows,
    member,
    reduce_mod_lattice,
    vec_neg,
)
from .polyhedra import (
    affine_image,
    check_window,
    complex_from_cells,
    faces,
    from_halfspaces,
    intersect,
)
from .superform import d_prime, d_second, pullback, wedge
from .integrate import integrate_complex, integrate_polytope, outward_vector


class WeightedComplex:
    """Pure-dimensional polyhedral complex with integer weights on the
    maximal cells.  The empty weighted complex is the tropical zero cycle."""

    def __init__(self, weighted_cells):
        """weighted_cells: iterable of (polyhedron, integer weight); faces are
        added automatically and must all have equal dimension at the top."""
        items = [(c, int(m)) for c, m in weighted_cells if not c.is_empty]
        self._weights = {}
        cells = []
        for c, m in items:
            key = c.key()
            self._weights[key] = self._weights.get(key, 0) + m
            cells.append(c)
        self.complex = complex_from_cells(cells)
        self._top = {}
        dims = set(c.dim for c, _ in items)
        if len(dims) > 1:
            raise ValueError("weighted cells must have equal dimension")
        self.dim = dims.pop() if dims else -1
        for c, _ in items:
            self._top[c.key()] = c
        # every maximal cell of the generated complex must carry a weight
        for c in self.complex.maximal_cells():
            if c.key() not in self._weights:
                raise ValueError("maximal cell without a weight")

    @property
    def is_zero(self):
        return self.dim < 0

    def weighted_cells(self):
        return [(self._top[k], self._weights[k]) for k in sorted(self._top)]

    def maximal_cells(self):
        return [self._top[k] for k in sorted(self._top)]

    def weight(self, cell):
        return self._weights.get(cell.key(), 0)

    def support_subcomplex(self):
        """Subcomplex generated by the nonzero-weight maximal cells."""
        return WeightedComplex([(c, m) for c, m in self.weighted_cells() if m])

    def truncated(self, box):
        """Weighted complex of intersections with a bounded window; pieces of
        full dimension inherit the weight of their cell."""
        check_window(box)
        pieces = []
        for c, m in self.weighted_cells():
            x = intersect(c, box)
            if not x.is_empty and x.dim == self.dim:
                pieces.append((x, m))
        return WeightedComplex(pieces)


def zero_cycle():
    return WeightedComplex([])


def _excess_by_face(wc):
    """Codimension-1 faces rho of the support of wc, sorted by key, each
    with the weighted outward sum sum_{sigma > rho} m_sigma w_{rho,sigma}."""
    support = wc.support_subcomplex()
    if support.dim < 1:
        return []
    found = {}
    for sigma, m in support.weighted_cells():
        for rho in faces(sigma, 1):
            _, excess = found.setdefault(rho.key(), (rho, [0] * rho.ambient_dim))
            for i, x in enumerate(outward_vector(sigma, rho)):
                excess[i] += m * x
    return [found[k] for k in sorted(found)]


def check_balancing(wc):
    """Violations of the balancing condition: list of (face, excess) where the
    excess is the canonical representative modulo N_rho of
    sum m_sigma w_{rho,sigma}; empty iff wc is a tropical cycle."""
    return [(rho, reduce_mod_lattice(excess, rho.direction_lattice))
            for rho, excess in _excess_by_face(wc)
            if not member(excess, rho.direction_lattice)]


def closedness_witness(wc):
    """Faces certifying that the Dirac supercurrent is not d'-closed.

    For each codimension-1 face, decompose the weighted outward sum as
    l + t with l in the real span of N_rho; a nonzero transversal part t
    makes some test form's contraction restrict nontrivially to rho.  An
    integer sum inside the span of the saturated N_rho is a member, and no
    smooth test form detects it (an alternating n-linear map on an
    (n-1)-dimensional space vanishes).  Empty iff no witness exists."""
    return [(rho, reduce_mod_lattice(excess, rho.direction_lattice))
            for rho, excess in _excess_by_face(wc)
            if not in_span([list(b) for b in rho.direction_lattice.basis], tuple(excess))]


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
    """Evaluate the current on the form a over the bounded window.

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
        if wc.is_zero:
            return Fraction(0)
        if form.bidegree != (wc.dim, wc.dim):
            raise ValueError("bidegree mismatch for Dirac evaluation")
        return sign * integrate_complex(wc.truncated(window), form)
    omega = cur.payload
    prod = wedge(omega, form)
    r = omega.ambient_dim
    if prod.bidegree != (r, r):
        raise ValueError("bidegree mismatch for embedded-form evaluation")
    return sign * integrate_polytope(window, prod)


# ---------------------------------------------------------------------------
# push-forward

def _image_lattice(f, lat):
    """Image of a lattice under the integer linear part of f (not saturated)."""
    rows = [f.apply_linear(b) for b in lat.basis]
    rows = [r for r in rows if not is_zero_vec(r)]
    return lattice_from_rows(rows, f.codomain_dim)


def pushforward(f, wc):
    """Push-forward of a weighted complex along an integral affine map.

    Images of maximal cells are refined (within each image affine hull, by
    all facet hyperplanes and by the hulls of pairwise intersections) until
    they form a complex; each n-dimensional piece receives the weight
    sum [N_piece : F(N_cell)] * m_cell over the cells covering it.  Cells
    with lower-dimensional image are dropped; the result may be the zero
    cycle."""
    if wc.is_zero:
        return zero_cycle()
    n = wc.dim
    sources = []
    for cell, m in wc.weighted_cells():
        if m == 0:
            continue
        img = affine_image(f.linear, f.translate, cell)
        if img.is_empty or img.dim < n:
            continue
        sources.append((cell, m, img))
    if not sources:
        return zero_cycle()
    # group images by affine hull
    groups = {}
    for entry in sources:
        hull_key = entry[2].equalities
        groups.setdefault(hull_key, []).append(entry)
    out_dim = f.codomain_dim
    all_images = [e[2] for e in sources]
    pieces = {}
    for hull_key, entries in groups.items():
        cuts = set()
        for _, _, img in entries:
            for u, c in img.halfspaces:
                cuts.add((u, Fraction(c)))
        for _, _, img in entries:
            for other in all_images:
                if other is img:
                    continue
                x = intersect(img, other)
                if x.is_empty:
                    continue
                for e, c in x.equalities:
                    cuts.add((tuple(e), Fraction(c)))
        for cell, m, img in entries:
            parts = [img]
            for u, c in sorted(cuts):
                nxt = []
                for p in parts:
                    lo = intersect(p, from_halfspaces([(u, c)], out_dim))
                    hi = intersect(p, from_halfspaces([(vec_neg(u), -c)], out_dim))
                    for piece in (lo, hi):
                        if not piece.is_empty and piece.dim == n:
                            nxt.append(piece)
                parts = nxt
            for p in parts:
                pieces.setdefault(p.key(), p)
    weighted = []
    for key in sorted(pieces):
        piece = pieces[key]
        x = piece.rel_interior_point()
        total = 0
        for cell, m, img in sources:
            if img.contains(x):
                idx = _index_of_images(f, cell, piece)
                total += idx * m
        weighted.append((piece, total))
    weighted = [(p, m) for p, m in weighted if m != 0]
    if not weighted:
        return zero_cycle()
    return WeightedComplex(weighted)


def _index_of_images(f, cell, piece):
    from .lattice import lattice_index
    sub = _image_lattice(f, cell.direction_lattice)
    idx = lattice_index(sub, piece.direction_lattice)
    if idx is None:
        raise ValueError("rank-deficient image slipped through")
    return idx


def preimage_polyhedron(f, p):
    """F^{-1}(p) as a polyhedron in the domain of f."""
    hs = []
    for u, c in p.all_halfspaces():
        # u . (A x + t) <= c  ->  (u A) . x <= c - u . t
        ua = tuple(sum(u[i] * f.linear[i][j] for i in range(f.codomain_dim))
                   for j in range(f.domain_dim))
        hs.append((ua, Fraction(c) - dot(u, f.translate)))
    return from_halfspaces(hs, f.domain_dim)


def projection_check(f, wc, a, window):
    """Both sides of the projection formula: the integral of a over the
    push-forward truncated to the window, and the integral of F* a over the
    source truncated to the preimage of the window.  They agree exactly."""
    if window.is_empty or not window.is_bounded or window.dim != f.codomain_dim:
        raise ValueError("window must be a bounded full-dimensional polytope")
    pf = pushforward(f, wc)
    if pf.is_zero:
        left = Fraction(0)
    else:
        left = integrate_complex(pf.truncated(window), a)
    pa = pullback(f, a)
    pre = preimage_polyhedron(f, window)
    right = Fraction(0)
    n = wc.dim
    for cell, m in wc.weighted_cells():
        if m == 0:
            continue
        img = affine_image(f.linear, f.translate, cell)
        if img.is_empty or img.dim < n:
            continue  # pullback form restricts to zero on such cells
        dom = intersect(cell, pre)
        if dom.is_empty or dom.dim < n:
            continue
        if not dom.is_bounded:
            raise ValueError("window truncation is incompatible with the map")
        right += m * integrate_polytope(dom, pa)
    return (left, right)
