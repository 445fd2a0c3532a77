"""Bigraded superforms with polynomial coefficients.

A form of bidegree (p, q) on R^r is stored as a map from index pairs (I, J)
(strictly increasing tuples of 0-based variable indices, |I| = p, |J| = q)
to multivariate polynomials over Q in r variables.  The basis element for
(I, J) is the tensor d'x_I (x) d''x_J; products of generators in any other
order are normalized into this form with the Koszul sign for odd
generators.  A polynomial holds integer numerators over one positive
denominator in lowest terms, so wedge, d', d'', contraction and the minor
sums of pullback and integration run on ints; Fractions appear only where
coefficients are read in or out (the constructor, ``Polynomial.terms``,
``evaluate``).  Composition with an affine map, which only pullback uses,
is that same arithmetic: each variable becomes an affine polynomial, and
each term is multiplied out from its powers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, gcd, lcm, prod
from operator import add

from .lattice import determinant, integer_row, mat_mul

# the most monomials one polynomial computation may be asked for: the term
# bound of a composition, or the divisors a moment table of integration
# reads; a request above it raises ValueError before anything is built
MAX_TERMS = 1 << 16


# ---------------------------------------------------------------------------
# polynomials over Q

class Polynomial:
    """Multivariate polynomial over Q, stored as integer numerators over one
    denominator, as FLINT's fmpq_poly is: num maps exponent tuples of
    length nvars to nonzero ints, den is a positive int, and the
    polynomial is sum_e num[e] x^e / den.  The storage is canonical,
    gcd(den, *num.values()) == 1, so equal polynomials have equal num and
    den.  Arithmetic runs on the ints with one gcd per result; ``terms``
    reads the coefficients as Fractions.

    A polynomial is never changed once built: no code writes into the
    numerators of an existing polynomial, so results may share them
    (``scale`` by 1 returns the polynomial itself)."""

    __slots__ = ("nvars", "num", "den")

    def __init__(self, nvars, terms=None):
        coeffs = {}
        for e, c in (terms or {}).items():
            e = tuple(e)
            if len(e) != nvars or any(k < 0 for k in e):
                raise ValueError("exponent %r is not %d nonnegative integers"
                                 % (e, nvars))
            c = Fraction(c)
            if c:
                coeffs[e] = c
        # canonical as built: each prime power in the lcm of the reduced
        # denominators is all of some term's denominator, and that term's
        # numerator is prime to it
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.nvars = nvars
        self.num = {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}
        self.den = den

    @classmethod
    def _trusted(cls, nvars, num, den):
        """The polynomial sum_e num[e] x^e / den, for num a map from
        exponent tuples of length nvars to ints and den a positive int,
        taken over without checks or copy: zero numerators are dropped and
        the fraction is reduced by one gcd."""
        if 0 in num.values():
            num = {e: n for e, n in num.items() if n}
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: n // g for e, n in num.items()}
            den //= g
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly.num = num
        poly.den = den
        return poly

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    @property
    def terms(self):
        """The coefficients as a new map from exponent tuples to Fractions."""
        return {e: Fraction(n, self.den) for e, n in self.num.items()}

    @property
    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.nvars == other.nvars \
            and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.num.items())))

    def _same_nvars(self, other):
        if self.nvars != other.nvars:
            raise ValueError("polynomials in %d and %d variables"
                             % (self.nvars, other.nvars))

    def _plus(self, other, sign):
        """self + sign * other, sign +1 or -1."""
        self._same_nvars(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        out = dict(self.num) if a == 1 else {e: n * a for e, n in self.num.items()}
        get = out.get
        for e, n in other.num.items():
            out[e] = get(e, 0) + n * b
        return Polynomial._trusted(self.nvars, out, den)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return Polynomial._trusted(self.nvars, {e: -n for e, n in self.num.items()},
                                   self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._same_nvars(other)
        out = {}
        get = out.get
        for e1, c1 in self.num.items():
            for e2, c2 in other.num.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return Polynomial._trusted(self.nvars, out, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c):
        """self times the int or Fraction c."""
        if c == 1:
            return self
        if c == -1:
            return -self
        a = c.numerator
        return Polynomial._trusted(self.nvars, {e: n * a for e, n in self.num.items()},
                                   self.den * c.denominator)

    def partial(self, i):
        out = {}
        for e, n in self.num.items():
            k = e[i]
            if k:
                out[e[:i] + (k - 1,) + e[i + 1:]] = n * k
        return Polynomial._trusted(self.nvars, out, self.den)

    def evaluate(self, point):
        total = 0
        for e, n in self.num.items():
            for x, k in zip(point, e):
                if k:
                    n *= x ** k
            total += n
        return Fraction(total, self.den)

    def compose_affine(self, linear_rows, translate, new_nvars):
        """Substitute x_i = sum_j linear_rows[i][j] y_j + translate[i]: each
        x_i becomes that affine polynomial in the y, whose powers are built
        once per call, and each term is multiplied out and added.  The
        power k of x_i has at most C(k + s_i, s_i) terms, s_i the nonzero
        entries of row i; ValueError if the sum over the terms of the
        products of these bounds exceeds MAX_TERMS."""
        sizes = [sum(1 for a in row if a) for row in linear_rows]
        bound = sum(prod(comb(k + s, s) for k, s in zip(e, sizes)) for e in self.num)
        if bound > MAX_TERMS:
            raise ValueError("composition may build %d terms, more than %d"
                             % (bound, MAX_TERMS))
        zero = (0,) * new_nvars
        powers = []
        for row, shift in zip(linear_rows, translate):
            x = {zero[:j] + (1,) + zero[j + 1:]: a for j, a in enumerate(row)}
            x[zero] = shift
            powers.append([Polynomial.constant(new_nvars, 1), Polynomial(new_nvars, x)])
        out = Polynomial(new_nvars)
        for e, n in self.num.items():
            term = Polynomial._trusted(new_nvars, {zero: n}, self.den)
            for p, k in zip(powers, e):
                while len(p) <= k:
                    p.append(p[-1] * p[1])
                term *= p[k]
            out += term
        return out

    def __repr__(self):
        if not self.num:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join("x%d^%d" % (i, k) for i, k in enumerate(e) if k)
            bits.append(("%s*%s" % (c, mono)) if mono else str(c))
        return " + ".join(bits)


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
                if poly.nvars != ambient_dim:
                    raise ValueError("coefficient in %d variables on R^%d"
                                     % (poly.nvars, ambient_dim))
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


def _d_front(a, block):
    """d' with every term times block, which is +1 or -1."""
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
            sign = block * shuffle_sign((i,), I)
            _accumulate(out, (tuple(sorted(I + (i,))), J), df.scale(sign))
    return Superform(r, a.p + 1, a.q, out)


def d_prime(a):
    """d': insert d'x_i in front; the new index shuffles into I."""
    return _d_front(a, 1)


def d_second(a):
    """d'' = (-1)^p J d' J on (p, q)-forms: d''x_j, inserted in front, passes
    the p generators of the d' block and shuffles into J, which the swap J
    moves to the front."""
    return swap(_d_front(swap(a), -1 if a.p % 2 else 1))


def _insert_front(a, v, t, extra):
    """Insert the vector v of ints or Fractions at slot t of the d' block,
    the term of d'x_i at place k of I signed (-1)^{k + t + extra}."""
    out = {}
    for (I, J), f in a.components.items():
        for k, i in enumerate(I, start=1):
            coeff = v[i]
            if not coeff:
                continue
            sign = -1 if (k + t + extra) % 2 else 1
            key = (tuple(x for x in I if x != i), J)
            _accumulate(out, key, f.scale(sign * coeff))
    return Superform(a.ambient_dim, a.p - 1, a.q, out)


def _insert_one(a, v, pos):
    """Insert vector v at 1-based slot pos of the multilinear function.

    Slots 1..p belong to the d' block, p+1..p+q to the d'' block; each block
    evaluates as a determinant, so fixing one column expands with the usual
    alternating signs.  The evaluation convention carries an extra factor
    (-1)^{p(p+1)/2} relative to the plain product of the two determinants,
    so removing one d' slot contributes an additional (-1)^p; this is the
    convention under which both Stokes identities hold exactly alongside
    the anticommutation d'd'' = -d''d'.  A d'' slot is a d' slot of the
    swapped form, without that sign."""
    if not 1 <= pos <= a.p + a.q:
        raise ValueError("contraction position out of range")
    if pos <= a.p:
        return _insert_front(a, v, pos, a.p)
    return swap(_insert_front(swap(a), v, pos - a.p, 0))


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
    """x -> A x + t from R^k to R^r, r >= 1, with the integer linear part A
    given by its r rows of length k and the rational shift t."""

    __slots__ = ("linear", "translate")

    def __init__(self, linear, translate):
        self.linear = tuple(tuple(integer_row(row)) for row in linear)
        self.translate = tuple(Fraction(x) for x in translate)
        if not self.linear:
            raise ValueError("the linear part of an affine map has no rows")
        if len(self.linear) != len(self.translate):
            raise ValueError("linear part and translate disagree on codomain")
        if len(set(map(len, self.linear))) > 1:
            raise ValueError("rows of the linear part differ in length")

    @property
    def codomain_dim(self):
        return len(self.linear)

    @property
    def domain_dim(self):
        return len(self.linear[0])

    def apply(self, point):
        if len(point) != self.domain_dim:
            raise ValueError("point in R^%d, but the map starts in R^%d"
                             % (len(point), self.domain_dim))
        return tuple(sum(Fraction(a) * Fraction(x) for a, x in zip(row, point)) + t
                     for row, t in zip(self.linear, self.translate))

    def compose(self, other):
        """self after other; ValueError unless other lands where self starts."""
        if other.codomain_dim != self.domain_dim:
            raise ValueError("inner map lands in R^%d, but the outer map starts in R^%d"
                             % (other.codomain_dim, self.domain_dim))
        return AffineMap(mat_mul(self.linear, other.linear), self.apply(other.translate))


def _minor_sums(rows, a, ks, ls):
    """{(K, L): sum_{I,J} det A_{I,K} det A_{J,L} a_IJ} over K in ks and L
    in ls, zero sums dropped, for the integer matrix A with the given rows
    and A_{I,K} its minor on rows I and columns K; each minor is computed
    once per call."""
    @cache
    def minor(row_idx, col_idx):
        return determinant([[rows[i][j] for j in col_idx] for i in row_idx])

    sums = {}
    for (I, J), poly in a.components.items():
        for K in ks:
            dI = minor(I, K)
            if not dI:
                continue
            for L in ls:
                dJ = minor(J, L)
                if dJ:
                    _accumulate(sums, (K, L), poly.scale(dI * dJ))
    return sums


def pullback(f, a):
    """F* a for a on the codomain of f: each d'x_I and d''x_J replaced
    through the minors of the linear part.  For each output (K, L) the
    coefficients are summed with weights det A_{I,K} det A_{J,L} first and
    the sum is composed with f once; composition is linear, so this is the
    same as composing each coefficient."""
    if a.ambient_dim != f.codomain_dim:
        raise ValueError("form does not live on the codomain of the map")
    rin = f.domain_dim
    if a.p > rin or a.q > rin:
        return Superform(rin, min(a.p, rin), min(a.q, rin))
    sums = _minor_sums(f.linear, a, list(combinations(range(rin), a.p)),
                       list(combinations(range(rin), a.q)))
    return Superform(rin, a.p, a.q, {key: g.compose_affine(f.linear, f.translate, rin)
                                     for key, g in sums.items()})
