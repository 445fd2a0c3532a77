"""Bigraded superforms with polynomial coefficients.

A form of bidegree (p, q) on R^r is stored as a map from index pairs (I, J)
(strictly increasing tuples of 0-based variable indices, |I| = p, |J| = q)
to multivariate polynomials over Q.  The basis element for (I, J) is the
tensor d'x_I (x) d''x_J; products of generators in any other order are
normalized into this form with the Koszul sign for odd generators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm, prod

from .lattice import determinant, integer_row


# ---------------------------------------------------------------------------
# polynomials over Q

class Polynomial:
    """Multivariate polynomial over Q; terms map exponent tuples to nonzero
    rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                e = tuple(e)
                if len(e) != nvars or any(k < 0 for k in e):
                    raise ValueError("exponent %r is not %d nonnegative integers"
                                     % (e, nvars))
                c = Fraction(c)
                if c != 0:
                    self.terms[e] = c

    @classmethod
    def _trusted(cls, nvars, terms):
        """The polynomial with the ready map terms (exponent tuples of length
        nvars to nonzero Fractions), taken as is: no checks, no copy."""
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        return poly

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.nvars == other.nvars \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return Polynomial._trusted(self.nvars, out)

    def __neg__(self):
        return Polynomial._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return Polynomial._trusted(self.nvars, out)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return Polynomial._trusted(self.nvars, {})
        return Polynomial._trusted(self.nvars, {e: c * x for e, x in self.terms.items()})

    def partial(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * e[i]
        return Polynomial._trusted(self.nvars, out)

    def evaluate(self, point):
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                for _ in range(k):
                    v *= x
            total += v
        return total

    def compose_affine(self, linear_rows, translate, new_nvars):
        """Substitute x_i = sum_j linear_rows[i][j] y_j + translate[i].

        The work is on integers.  Each x_i becomes s_i / d_i, with d_i the
        common denominator of its row and shift and s_i integral, and each
        term c x^e becomes (m_e / L) prod_i s_i^e_i, with L the common
        denominator of all terms.  Exponents of y are packed into one int in
        base deg + 1, so multiplying monomials adds ints and never carries.
        The powers of each s_i and the products of leading powers that
        several terms share are cached for the call; the terms that share
        all but their last exponent are summed first and multiplied by that
        product once, adding into one accumulator in place.  One Fraction is
        built per output term."""
        n, m = self.nvars, new_nvars
        if not self.terms:
            return Polynomial._trusted(m, {})
        if not n:
            return Polynomial._trusted(m, {(0,) * m: self.terms[()]})
        base = max(map(sum, self.terms)) + 1
        subs, dens = [], []
        for i in range(n):
            row = [(base ** j, linear_rows[i][j]) for j in range(m)] + [(0, translate[i])]
            d = lcm(*(a.denominator for _, a in row))
            subs.append({k: a.numerator * (d // a.denominator) for k, a in row if a})
            dens.append(d)
        powers = [[{0: 1}] for _ in range(n)]

        def power(i, k):
            cached = powers[i]
            while len(cached) <= k:
                cached.append(_add_product({}, cached[-1], subs[i]))
            return cached[k]

        scales = {e: c.denominator * prod(d ** k for d, k in zip(dens, e))
                  for e, c in self.terms.items()}
        den = lcm(*scales.values())
        last = n - 1
        groups = {}
        for e, c in self.terms.items():
            _add_product(groups.setdefault(e[:last], {}),
                         {0: c.numerator * (den // scales[e])}, power(last, e[last]))
        leading = {(): {0: 1}}
        out = {}
        for head, group in groups.items():
            for i, k in enumerate(head):
                if head[:i + 1] not in leading:
                    rest = leading[head[:i]]
                    leading[head[:i + 1]] = _add_product({}, rest, power(i, k)) if k else rest
            _add_product(out, leading[head], group)
        terms = {}
        for k, a in out.items():
            if a:
                e = []
                for _ in range(m):
                    k, x = divmod(k, base)
                    e.append(x)
                terms[tuple(e)] = Fraction(a, den)
        return Polynomial._trusted(m, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join("x%d^%d" % (i, k) for i, k in enumerate(e) if k)
            bits.append(("%s*%s" % (c, mono)) if mono else str(c))
        return " + ".join(bits)


def _add_product(out, a, b):
    """Add the product of the integer polynomials a and b, maps from packed
    exponents to ints, into out in place; returns out."""
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


# ---------------------------------------------------------------------------
# sign bookkeeping

def shuffle_sign(a, b):
    """Sign of merging two disjoint increasing tuples into sorted order,
    counting each transposition of odd generators as -1; 0 if they overlap."""
    if set(a) & set(b):
        return 0
    inversions = 0
    for x in a:
        inversions += sum(1 for y in b if y < x)
    return -1 if inversions % 2 else 1


def insert_sign(i, tup):
    """Sign for moving a generator with index i into sorted position within
    tup (i not in tup): (-1)^{#elements smaller than i... passed over}."""
    passed = sum(1 for x in tup if x < i)
    return -1 if passed % 2 else 1


# ---------------------------------------------------------------------------
# superforms

def _accumulate(out, key, poly):
    """Add poly into the component map out at key, dropping zero sums."""
    cur = out.get(key)
    s = poly if cur is None else cur + poly
    if s.is_zero:
        out.pop(key, None)
    else:
        out[key] = s


class Superform:
    """Superform of bidegree (p, q) on R^r with polynomial coefficients."""

    __slots__ = ("ambient_dim", "p", "q", "components")

    def __init__(self, ambient_dim, p, q, components=None):
        if p < 0 or q < 0 or p > ambient_dim or q > ambient_dim:
            raise ValueError("bidegree out of range")
        self.ambient_dim = ambient_dim
        self.p = p
        self.q = q
        self.components = {}
        if components:
            for (I, J), poly in components.items():
                if len(I) != p or len(J) != q:
                    raise ValueError("index pair does not match bidegree")
                if not poly.is_zero:
                    self.components[(tuple(I), tuple(J))] = poly

    @property
    def bidegree(self):
        return (self.p, self.q)

    @property
    def is_zero(self):
        return not self.components

    def coefficient(self, I, J):
        return self.components.get((tuple(I), tuple(J)), Polynomial(self.ambient_dim))

    def __eq__(self, other):
        return isinstance(other, Superform) and self.ambient_dim == other.ambient_dim \
            and self.bidegree == other.bidegree and self.components == other.components

    def __add__(self, other):
        if (self.ambient_dim, self.bidegree) != (other.ambient_dim, other.bidegree):
            raise ValueError("cannot add forms of different type")
        out = dict(self.components)
        for k, poly in other.components.items():
            _accumulate(out, k, poly)
        return Superform(self.ambient_dim, self.p, self.q, out)

    def __neg__(self):
        return Superform(self.ambient_dim, self.p, self.q,
                         {k: -v for k, v in self.components.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return Superform(self.ambient_dim, self.p, self.q,
                         {k: v.scale(c) for k, v in self.components.items()})

    def __repr__(self):
        return "Superform(%d, (%d,%d), %r)" % (self.ambient_dim, self.p, self.q,
                                               self.components)


def zero_form(r, p, q):
    return Superform(r, p, q)


def function_form(poly):
    """(0,0)-form from a polynomial."""
    return Superform(poly.nvars, 0, 0, {((), ()): poly})


def basis_form(r, I, J, poly=None):
    """poly * d'x_I (x) d''x_J with I, J strictly increasing."""
    if poly is None:
        poly = Polynomial.constant(r, 1)
    return Superform(r, len(I), len(J), {(tuple(I), tuple(J)): poly})


def wedge(a, b):
    """Wedge product; d'x_i and d''x_j are odd generators of the bigraded
    tensor algebra, so (f dx_I (x) dx_J)(g dx_K (x) dx_L) picks up the sign
    (-1)^{|J||K|} shuffle(I,K) shuffle(J,L)."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    r = a.ambient_dim
    p, q = a.p + b.p, a.q + b.q
    if p > r or q > r:
        return Superform(r, min(p, r), min(q, r))
    out = {}
    for (I1, J1), f in a.components.items():
        for (I2, J2), g in b.components.items():
            s1 = shuffle_sign(I1, I2)
            s2 = shuffle_sign(J1, J2)
            if s1 == 0 or s2 == 0:
                continue
            sign = s1 * s2 * (-1 if (len(J1) * len(I2)) % 2 else 1)
            key = (tuple(sorted(I1 + I2)), tuple(sorted(J1 + J2)))
            _accumulate(out, key, (f * g).scale(sign))
    return Superform(r, p, q, out)


def swap(a):
    """The involution J^{p,q}: switch the tensor factors, (I, J) -> (J, I)."""
    return Superform(a.ambient_dim, a.q, a.p,
                     {(J, I): poly for (I, J), poly in a.components.items()})


def is_symmetric(a):
    return a.p == a.q and swap(a) == a


def d_prime(a):
    """d': insert d'x_i in front; the new index shuffles into I."""
    r = a.ambient_dim
    if a.p == r:
        return Superform(r, r, a.q)
    out = {}
    for (I, J), f in a.components.items():
        for i in range(r):
            if i in I:
                continue
            df = f.partial(i)
            if df.is_zero:
                continue
            sign = insert_sign(i, I)
            _accumulate(out, (tuple(sorted(I + (i,))), J), df.scale(sign))
    return Superform(r, a.p + 1, a.q, out)


def d_second(a):
    """d'': insert d''x_j in front; it passes the p generators of the d'
    block, contributing (-1)^p, then shuffles into J."""
    r = a.ambient_dim
    if a.q == r:
        return Superform(r, a.p, r)
    out = {}
    for (I, J), f in a.components.items():
        block = -1 if len(I) % 2 else 1
        for j in range(r):
            if j in J:
                continue
            df = f.partial(j)
            if df.is_zero:
                continue
            sign = block * insert_sign(j, J)
            _accumulate(out, (I, tuple(sorted(J + (j,)))), df.scale(sign))
    return Superform(r, a.p, a.q + 1, out)


def _insert_one(a, v, pos):
    """Insert vector v at 1-based slot pos of the multilinear function.

    Slots 1..p belong to the d' block, p+1..p+q to the d'' block; each block
    evaluates as a determinant, so fixing one column expands with the usual
    alternating signs.  The evaluation convention carries an extra factor
    (-1)^{p(p+1)/2} relative to the plain product of the two determinants,
    so removing one d' slot contributes an additional (-1)^p; this is the
    convention under which both Stokes identities hold exactly alongside
    the anticommutation d'd'' = -d''d'."""
    r = a.ambient_dim
    if not 1 <= pos <= a.p + a.q:
        raise ValueError("contraction position out of range")
    out = {}
    if pos <= a.p:
        t = pos
        for (I, J), f in a.components.items():
            for k, i in enumerate(I, start=1):
                coeff = Fraction(v[i])
                if not coeff:
                    continue
                sign = -1 if (k + t + a.p) % 2 else 1
                key = (tuple(x for x in I if x != i), J)
                _accumulate(out, key, f.scale(sign * coeff))
        return Superform(r, a.p - 1, a.q, out)
    t = pos - a.p
    for (I, J), f in a.components.items():
        for k, j in enumerate(J, start=1):
            coeff = Fraction(v[j])
            if not coeff:
                continue
            sign = -1 if (k + t) % 2 else 1
            key = (I, tuple(x for x in J if x != j))
            _accumulate(out, key, f.scale(sign * coeff))
    return Superform(r, a.p, a.q - 1, out)


def contract(a, vectors, positions):
    """Contraction <a; v_1, ..., v_s>_P: insert the vectors at the 1-based
    slots listed in positions (matched to the vectors in increasing slot
    order)."""
    if len(vectors) != len(positions):
        raise ValueError("need as many vectors as positions")
    pairs = sorted(zip(positions, vectors), key=lambda x: -x[0])
    out = a
    for pos, v in pairs:
        out = _insert_one(out, v, pos)
    return out


# ---------------------------------------------------------------------------
# integral affine maps and pullback

class AffineMap:
    """x -> A x + t with integer linear part A (rows) and rational shift."""

    __slots__ = ("linear", "translate")

    def __init__(self, linear, translate):
        self.linear = tuple(tuple(integer_row(row)) for row in linear)
        self.translate = tuple(Fraction(x) for x in translate)
        if len(self.linear) != len(self.translate):
            raise ValueError("linear part and translate disagree on codomain")

    @property
    def codomain_dim(self):
        return len(self.linear)

    @property
    def domain_dim(self):
        return len(self.linear[0]) if self.linear else 0

    def apply(self, point):
        return tuple(sum(Fraction(a) * Fraction(x) for a, x in zip(row, point)) + t
                     for row, t in zip(self.linear, self.translate))

    def apply_linear(self, v):
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.linear)

    def compose(self, other):
        """self after other."""
        lin = [[sum(self.linear[i][k] * other.linear[k][j]
                    for k in range(other.codomain_dim))
                for j in range(other.domain_dim)]
               for i in range(self.codomain_dim)]
        tr = self.apply(other.translate)
        return AffineMap(lin, tr)


def pullback(f, a):
    """F* a for a on the codomain of f: coefficients composed with f, each
    d'x_I and d''x_J replaced through the minors of the linear part."""
    if a.ambient_dim != f.codomain_dim:
        raise ValueError("form does not live on the codomain of the map")
    rin = f.domain_dim
    rows = f.linear

    @cache
    def minor(row_idx, col_idx):
        return determinant([[rows[i][j] for j in col_idx] for i in row_idx])

    out = {}
    index_sets_p = list(combinations(range(rin), a.p))
    index_sets_q = list(combinations(range(rin), a.q))
    for (I, J), poly in a.components.items():
        newpoly = poly.compose_affine(rows, f.translate, rin)
        if newpoly.is_zero:
            continue
        for K in index_sets_p:
            dI = minor(I, K)
            if not dI:
                continue
            for L in index_sets_q:
                dJ = minor(J, L)
                if not dJ:
                    continue
                _accumulate(out, (K, L), newpoly.scale(dI * dJ))
    if a.p > rin or a.q > rin:
        return Superform(rin, min(a.p, rin), min(a.q, rin))
    return Superform(rin, a.p, a.q, out)
