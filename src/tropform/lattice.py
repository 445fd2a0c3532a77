"""Exact integer and rational linear algebra for lattice computations.

Everything here is over Z or Q, with no floating point, so that residuals
(Stokes, Green, balancing) come out exactly zero.  :func:`hnf`,
:func:`determinant` and :func:`reduce_mod_lattice` take integers only; a
rational point is cleared of denominators where it enters, :func:`_integral`.
Lattices are sublattices of Z^r given by basis rows kept in Hermite normal
form, so equal lattices have identical representations.  That basis is
echelon: reductions in it use :func:`reduce_echelon`, and an index is a
ratio of pivot products.  The Hermite form is the integer elimination
behind every lattice operation: orthogonal complements are read off its
transform, and the Smith form alternates row and column Hermite forms.
The kernels that every polyhedron and every facet record call, the
affine hull of a set of direction rows (:func:`_hull`), the facet split
of a direction lattice (:func:`_facet_split`), the image of a direction
lattice under a linear map with the facet normals' map when it is
injective (:func:`_linear_image`) and :func:`full_lattice`, are computed
once per distinct integer input: each keeps its last
``_CACHE_SIZE`` = 4096 results, tuples and frozen lattices, in a
least-recently-used cache, as the cells of a cycle share few direction
spaces; a saturation is the hull's direction lattice, from that cache.  A
determinant is Bareiss' fraction-free reduction: the Gram system of
:func:`reduce_mod_lattice` is solved with it by Cramer's rule.  Seven
definitions have no caller in the library; the tests and the perfbench
tracer still name them: :func:`gauss_jordan`, :func:`solve_exact`,
:func:`rational_rank`, :func:`in_span`, :func:`coords_in_basis`,
:func:`snf_transform` and :func:`snf`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul

# entries kept by each of the caches on the pure integer kernels below
_CACHE_SIZE = 4096


# ---------------------------------------------------------------------------
# small vector/matrix helpers (integers or Fractions)

def dot(a, b):
    return sum(map(mul, a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a):
    return tuple(-x for x in a)


def primitive(v):
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd(*v)
    if g == 0:
        return tuple(v)
    return tuple(x // g for x in v)


def integer_row(v):
    """The entries of v as a list of ints; ValueError if one is not integral."""
    row = list(map(int, v))
    if row != list(v):
        raise ValueError("non-integral entry in (%s)" % ", ".join(map(str, v)))
    return row


def _integral(point):
    """(x, t) with point = x / t: x a list of ints, t > 0 the least common denominator."""
    t = lcm(*(x.denominator for x in point))
    return [x.numerator * (t // x.denominator) for x in point], t


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    cols = len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for i in range(len(a))]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def _addmul(row, other, q):
    for i in range(len(row)):
        row[i] += q * other[i]


# ---------------------------------------------------------------------------
# exact rational Gaussian elimination

def gauss_jordan(rows, ncols=None):
    """Reduced row echelon form of a matrix over Q, computed exactly.

    Returns (reduced, pivots): the nonzero rows of the reduced form as
    lists of Fractions (each pivot entry 1 and the only nonzero entry of its
    column) and their pivot columns in increasing order."""
    m = [[Fraction(x) for x in row] for row in rows]
    nr = len(m)
    if ncols is None:
        ncols = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        row = m[r] = [x / piv for x in m[r]]
        for i in range(nr):
            f = m[i][c]
            if i != r and f != 0:
                m[i] = [x - f * y for x, y in zip(m[i], row)]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def solve_exact(a_rows, b):
    """Solve A x = b over Q.  Returns one solution as a list of Fractions,
    or None when the system is inconsistent."""
    n = len(a_rows[0]) if a_rows else 0
    reduced, pivots = gauss_jordan([list(row) + [c] for row, c in zip(a_rows, b)])
    if pivots and pivots[-1] == n:
        return None
    x = [Fraction(0)] * n
    for row, c in zip(reduced, pivots):
        x[c] = row[n]
    return x


def rational_rank(rows):
    """Rank of a matrix with integer or Fraction entries."""
    return len(gauss_jordan(rows)[1])


def determinant(rows):
    """Determinant of a square integer matrix (1 for the empty matrix), by
    Bareiss' fraction-free elimination, in which every division is exact.
    ValueError if the matrix is not square or an entry is not integral."""
    m = [integer_row(row) for row in rows]
    n, sign, prev = len(m), 1, 1
    if any(len(row) != n for row in m):
        raise ValueError("matrix of %d rows is not square" % n)
    for k in range(n - 1):
        if not m[k][k]:
            p = next((i for i in range(k + 1, n) if m[i][k]), None)
            if p is None:
                return 0
            m[k], m[p] = m[p], m[k]
            sign = -sign
        pivot, row = m[k][k], m[k]
        for other in m[k + 1:]:
            f = other[k]
            for j in range(k + 1, n):
                other[j] = (other[j] * pivot - f * row[j]) // prev
        prev = pivot
    return sign * m[-1][-1] if n else 1


def in_span(rows, v):
    """Whether v lies in the rational row span of rows."""
    if not any(v):
        return True
    if not rows:
        return False
    return solve_exact(transpose(rows), v) is not None


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms, orthogonal complements

def hnf(m):
    """Row-style Hermite normal form.

    Returns (h, u) with u unimodular and u*m == h.  Pivots are positive,
    entries above each pivot are reduced into [0, pivot), zero rows come
    last.  The form is canonical: hnf(w*m) == hnf(m) for unimodular w.
    """
    rows = [integer_row(r) for r in m]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    u = identity_matrix(nr)
    pr = 0
    for col in range(nc):
        if pr == nr:
            break
        for i in range(pr + 1, nr):
            while rows[i][col] != 0:
                if rows[pr][col] != 0:
                    q = rows[i][col] // rows[pr][col]
                    _addmul(rows[i], rows[pr], -q)
                    _addmul(u[i], u[pr], -q)
                if rows[i][col] != 0:
                    rows[pr], rows[i] = rows[i], rows[pr]
                    u[pr], u[i] = u[i], u[pr]
        if rows[pr][col] == 0:
            continue
        if rows[pr][col] < 0:
            rows[pr] = [-x for x in rows[pr]]
            u[pr] = [-x for x in u[pr]]
        for i in range(pr):
            q = rows[i][col] // rows[pr][col]
            if q:
                _addmul(rows[i], rows[pr], -q)
                _addmul(u[i], u[pr], -q)
        pr += 1
    return rows, u


def orthogonal_complement(rows, r):
    """HNF basis of {u in Z^r : <u, v> = 0 for every row v}, on integers.

    The rows may be dependent or unsaturated: the complement of a lattice
    is that of its saturation.  With U unimodular such that U B^T is in
    Hermite form, B the rows as a matrix of rank k, the rows of U B^T past
    the k-th are zero, and U's rows past the k-th span this kernel: it is
    saturated, being cut out of Z^r by a subspace, and U maps Z^r onto Z^r.
    Those rows are independent, so their Hermite form has no zero row.
    """
    h, u = hnf([[row[i] for row in rows] for i in range(r)])
    k = sum(1 for row in h if any(row))
    return tuple(map(tuple, hnf(u[k:])[0]))


def snf_transform(m):
    """Smith normal form with transforms, built on Hermite forms (Kannan &
    Bachem, SIAM J. Comput. 8, 1979).

    Returns (d, u, vinv) where u*m*v == d is diagonal with the divisibility
    chain d[0][0] | d[1][1] | ..., u and v unimodular, and vinv == v^{-1}.
    Row and column Hermite forms alternate until the matrix is diagonal.
    Where d_i does not divide a later d_j, column j is added to column i,
    and the next row form puts gcd(d_i, d_j) at (i, i).  (A row addition
    would be undone by that row form.)
    """
    a = [list(r) for r in m]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u, v = identity_matrix(nr), identity_matrix(nc)
    while nr and nc:
        a, w = hnf(a)
        u = mat_mul(w, u)
        h, w = hnf(transpose(a))
        a, v = transpose(h), mat_mul(v, transpose(w))
        if any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            continue
        d = [a[i][i] for i in range(min(nr, nc)) if a[i][i]]
        split = next(((i, j) for j in range(len(d)) for i in range(j) if d[j] % d[i]), None)
        if split is None:
            break
        i, j = split
        for row in a + v:  # column i += column j, in a and in v
            row[i] += row[j]
    return a, u, hnf(v)[1]


def snf(m):
    """Elementary divisors d_1 | d_2 | ... | d_k with k = min(rows, cols)."""
    d = snf_transform(m)[0]
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


# ---------------------------------------------------------------------------
# lattices

@dataclass(frozen=True, slots=True)
class Lattice:
    """Sublattice of Z^r spanned by the rows of ``basis`` (HNF, no zero rows).
    Slotted: every polyhedron and every facet record holds one."""

    ambient_rank: int
    basis: tuple

    @property
    def rank(self):
        return len(self.basis)


def lattice_from_rows(rows, ambient_rank):
    """Lattice spanned by integer row vectors, brought to canonical HNF."""
    for r in rows:
        if len(r) != ambient_rank:
            raise ValueError("row length does not match ambient rank")
    h, _ = hnf(rows)
    basis = tuple(tuple(r) for r in h if any(r))
    return Lattice(ambient_rank, basis)


@lru_cache(maxsize=_CACHE_SIZE)
def full_lattice(r):
    return Lattice(r, tuple(tuple(row) for row in identity_matrix(r)))


def reduce_echelon(v, rows):
    """Reduce the integer vector v at the pivots of echelon rows (an HNF
    basis, say), fraction-free: (s, w) with s > 0 and w = s v - sum mu_k
    rows[k] zero at every pivot.  In pivot order no step refills a cleared
    pivot, so w / s is the one such vector in v + span(rows).  A step scales
    w by |a| / gcd(a, f), a the pivot entry and f the entry of w there, so
    s == 1 exactly when every step subtracted an integer multiple."""
    s, w = 1, list(v)
    for row in rows:
        p = next(i for i, x in enumerate(row) if x)
        f = w[p]
        if f:
            a = row[p]
            g = gcd(a, f)
            m, q = abs(a) // g, (f if a > 0 else -f) // g
            w = [m * x - q * y for x, y in zip(w, row)]
            s *= m
    return s, w


def member(v, lat):
    """Exact membership test v in lat, via the HNF basis; a vector with a
    non-integral entry is in no lattice."""
    if len(v) != lat.ambient_rank:
        raise ValueError("vector length does not match ambient rank")
    iv = list(map(int, v))
    if iv != list(v):
        return False
    s, w = reduce_echelon(iv, lat.basis)
    return s == 1 and not any(w)


def saturate(lat):
    """Saturation span_R(lat) cap Z^r, the orthogonal complement of the
    orthogonal complement of lat (:func:`_hull`); idempotent."""
    return _hull(lat.basis, lat.ambient_rank)[1]


def _hull(dirs, r):
    """(comp, N) for integer direction rows in Z^r: comp the HNF basis of
    the integer vectors orthogonal to every row, the normals of an affine
    hull spanned by these directions, and N = comp^perp their saturated
    lattice.  Neither depends on the order of the rows or on repeats, so
    the cache is keyed on the sorted distinct rows: the cells of a cycle
    share few direction spaces."""
    return _cached_hull(tuple(sorted(set(dirs))), r)


@lru_cache(maxsize=_CACHE_SIZE)
def _cached_hull(rows, r):
    """:func:`_hull` of its key."""
    comp = orthogonal_complement(rows, r)
    return comp, Lattice(r, orthogonal_complement(comp, r))


def lattice_index(sub, sup):
    """Index of sub inside sup, or None (infinite) when rank(sub) <
    rank(sup): |det C| for sub = C sup, which is the ratio of the products
    of their pivot entries, as echelon bases of one span share their pivot
    columns.  Requires span(sub) subseteq span(sup) and sub <= sup."""
    if sub.ambient_rank != sup.ambient_rank:
        raise ValueError("ambient rank mismatch")
    for b in sub.basis:
        s, w = reduce_echelon(b, sup.basis)
        if any(w):
            raise ValueError("sub is not contained in the span of sup")
        if s != 1:
            raise ValueError("sub is not a sublattice of sup")
    if sub.rank < sup.rank:
        return None
    pivots = [prod(next(filter(None, b)) for b in lat.basis) for lat in (sub, sup)]
    return pivots[0] // pivots[1]


def coords_in_basis(basis_rows, v):
    """Rational coordinates of v in echelon rows, by substitution in pivot
    order as in :func:`reduce_echelon`, or None when v is off their span."""
    w = [Fraction(x) for x in v]
    coords = []
    for row in basis_rows:
        p = next(i for i, x in enumerate(row) if x)
        c = w[p] / row[p]
        if c:
            w = [x - c * y for x, y in zip(w, row)]
        coords.append(c)
    return None if any(w) else coords


def reduce_mod_lattice(v, lat):
    """Canonical representative of the integer vector v modulo lat, as ints.

    Decomposes v = l + t with l in span(lat) (orthogonal projection) and
    subtracts the floor part of l's coordinates in the HNF basis, so the
    reduction coefficients land in [0, 1).  The coordinates solve the
    integer Gram system G c = B v, so by Cramer's rule c_k = det G_k / det G,
    G_k being G with column k replaced by B v, and det G > 0.  ValueError
    if v's length is not lat's ambient rank or an entry is not integral."""
    out = integer_row(v)
    if len(out) != lat.ambient_rank:
        raise ValueError("vector length does not match ambient rank")
    b = lat.basis
    gram = [[dot(x, y) for y in b] for x in b]
    rhs = [dot(x, out) for x in b]
    scale = determinant(gram)
    for k, row in enumerate(b):
        q = determinant([g[:k] + [c] + g[k + 1:] for g, c in zip(gram, rhs)]) // scale
        if q:
            for i in range(len(out)):
                out[i] -= q * row[i]
    return tuple(out)


@lru_cache(maxsize=_CACHE_SIZE)
def _facet_split(n_sigma, u):
    """(w, n_rho) for the facet of a cell with the saturated direction
    lattice n_sigma cut out by the integer normal u, with <u, .> larger
    outside the cell: n_rho = n_sigma cap u^perp, and w in n_sigma with
    <u, w> > 0 generating n_sigma / n_rho, as ints reduced modulo n_rho.
    v -> <u, v> maps n_sigma onto g Z with kernel n_rho, so with U the
    transform of the Hermite form of the column (<u, b>)_b over the basis,
    U's row 0 combines the basis into w with <u, w> = g, and its other rows
    into a basis of n_rho.  ValueError if u vanishes on n_sigma.  Cached
    on (n_sigma, u), u a tuple: the cells of a cycle share few direction
    lattices and facet normals."""
    h, t = hnf([[dot(u, b)] for b in n_sigma.basis])
    if h[0][0] == 0:
        raise ValueError("outward functional does not separate across the facet")
    cols = list(zip(*n_sigma.basis))
    w, *rest = ([dot(row, col) for col in cols] for row in t)
    n_rho = Lattice(n_sigma.ambient_rank, tuple(map(tuple, hnf(rest)[0])))
    return reduce_mod_lattice(w, n_rho), n_rho


@lru_cache(maxsize=_CACHE_SIZE)
def _linear_image(a, n):
    """(A N, S, P) for the integer map A, a tuple of rows, and the lattice
    N: A N is the image lattice in Hermite form, not saturated.  When A is
    injective on N, S holds the pivot columns of A N and P the integer rows
    sign(det M) adj(M) B, with B the basis of N and M the square matrix of
    the columns S of the rows A b, b in B.  Then for any integer vector u,
    the vector u' that is P u on S and 0 elsewhere has <u', A b> =
    |det M| <u, b> for every b in N, as M P = |det M| B.  S and P are None
    when A is not injective on N.  Cached on (A, N): the cells of a cycle
    share few direction lattices."""
    rows = [[dot(row, b) for row in a] for b in n.basis]
    image = lattice_from_rows(rows, len(a))
    if image.rank < n.rank:
        return image, None, None
    pivots = tuple(next(i for i, x in enumerate(b) if x) for b in image.basis)
    m = [[row[i] for i in pivots] for row in rows]
    adj = [[(-1) ** (i + j) * determinant([row[:i] + row[i + 1:]
                                           for k, row in enumerate(m) if k != j])
            for j in range(len(m))] for i in range(len(m))]
    sign = 1 if determinant(m) > 0 else -1
    p = tuple(tuple(sign * dot(col, c) for col in zip(*n.basis)) for c in adj)
    return image, pivots, p


def primitive_outward(n_sigma, n_rho, outward_functional):
    """Primitive generator of n_sigma / n_rho pointing outwards.

    ``outward_functional`` is an integer vector u with <u, .> constant on the
    facet and <u, x> smaller on the cell, i.e. the facet's inequality normal.
    Requires n_rho = n_sigma cap u^perp, true for saturated lattices such as
    direction lattices; n_rho outside n_sigma or u^perp raises ValueError.
    The generator is that of :func:`_facet_split`, canonicalized modulo n_rho
    (reduction coefficients in [0, 1))."""
    if n_rho.rank != n_sigma.rank - 1:
        raise ValueError("rho is not of codimension one in sigma")
    if not all(member(b, n_sigma) and dot(outward_functional, b) == 0 for b in n_rho.basis):
        raise ValueError("n_rho is not a sublattice of n_sigma on the facet hyperplane")
    return _facet_split(n_sigma, tuple(outward_functional))[0]
