"""Lattice arithmetic: normal forms, saturation, indices, outward vectors.

The heavier checks compare against brute-force oracles: coset enumeration
for indices and grid-point enumeration for saturation/membership.
"""

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import rational_kernel

from tropform.lattice import (
    Lattice,
    _cached_hull,
    _facet_split,
    _hull,
    coords_in_basis,
    determinant,
    dot,
    hnf,
    in_span,
    lattice_from_rows,
    lattice_index,
    member,
    primitive,
    primitive_outward,
    rational_rank,
    reduce_echelon,
    reduce_mod_lattice,
    saturate,
    snf,
    snf_transform,
    solve_exact,
    full_lattice,
    identity_matrix,
    mat_mul,
    orthogonal_complement,
    transpose,
)


def test_hnf_examples():
    h, u = hnf([[2, 4], [1, 3]])
    assert mat_mul(u, [[2, 4], [1, 3]]) == h
    assert abs(_det2(u)) == 1
    # canonical: pivots positive, entries above pivots reduced
    assert h == [[1, 3], [0, 2]] or h == [[1, 1], [0, 2]]
    # idempotence: HNF of an HNF is itself
    h2, _ = hnf(h)
    assert h2 == h


def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def test_hnf_canonical_under_unimodular(seed=5):
    rng = random.Random(seed)
    for _ in range(40):
        r = rng.randint(1, 3)
        m = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(r)]
        h, _ = hnf(m)
        # random unimodular row mix must not change the HNF when rank is full
        u = _random_unimodular(rng, r)
        h2, _ = hnf(mat_mul(u, m))
        if rational_rank(m) == r:
            assert h == h2


def _random_unimodular(rng, n):
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def test_snf_example():
    d, u, vinv = snf_transform([[2, 4], [6, 8]])
    diag = [d[i][i] for i in range(2)]
    assert diag == [2, 4]
    # u m v = d, with vinv tracking v^{-1}
    assert mat_mul(mat_mul(u, [[2, 4], [6, 8]]), hnf(vinv)[1]) == d
    assert snf([[2, 4], [6, 8]]) == diag


def test_saturate_brute_force():
    # lattice generated by (2, 0) and (0, 3) inside its span is already Z^2
    lat = lattice_from_rows([[2, 0], [0, 3]], 2)
    sat = saturate(lat)
    assert lattice_index(lat, sat) == 6
    # span of (1, 1) saturates to itself; (2, 2) saturates to (1, 1)
    lat = lattice_from_rows([[2, 2]], 2)
    sat = saturate(lat)
    assert member((1, 1), sat)
    assert not member((1, 1), lat)
    assert lattice_index(lat, sat) == 2


def test_index_against_coset_enumeration(seed=11):
    rng = random.Random(seed)
    checked = 0
    while checked < 25:
        r = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
        if rational_rank(rows) < r:
            continue
        sub = lattice_from_rows(rows, r)
        idx = lattice_index(sub, full_lattice(r))
        assert idx is not None
        if idx > 20:
            continue
        # oracle: count residues of grid points modulo the sublattice
        bound = 6
        residues = set()
        for pt in product(range(-bound, bound + 1), repeat=r):
            residues.add(tuple(reduce_mod_lattice(list(pt), sub)))
        assert len(residues) == idx
        checked += 1


def test_member_rejects_rational_vectors():
    assert not member((Fraction(1, 2), 0), full_lattice(2))
    assert not member((Fraction(3, 2),), lattice_from_rows([[1]], 1))
    assert member((Fraction(2), 0), full_lattice(2))


def test_determinant_rejects_a_non_square_matrix():
    for rows in ([[1, 2]], [[0, 1, 2], [1, 0, 3]], [[1], [2]], [[1, 2], [3]]):
        with pytest.raises(ValueError, match="not square"):
            determinant(rows)
    assert determinant([]) == 1 and determinant([[0, 1], [1, 0]]) == -1


def test_determinant_rejects_a_non_integral_entry():
    for rows in ([[Fraction(1, 2)]], [[1, 2], [3, Fraction(7, 3)]]):
        with pytest.raises(ValueError, match="non-integral"):
            determinant(rows)
    assert determinant([[Fraction(4), 1], [3, Fraction(6, 2)]]) == 9


def test_reduce_mod_lattice_rejects_a_vector_of_another_length():
    lat = lattice_from_rows([[2, 0, 0], [0, 3, 1]], 3)
    for v in ((5, 7), (5, 7, 1, 0)):
        with pytest.raises(ValueError, match="ambient rank"):
            reduce_mod_lattice(v, lat)
    assert reduce_mod_lattice((5, 7, 1), lat) == (1, 1, -1)


def test_lattice_from_rows_rejects_non_integral_rows():
    with pytest.raises(ValueError, match="non-integral"):
        lattice_from_rows([[Fraction(1, 2), 0]], 2)
    assert lattice_from_rows([[Fraction(2), 0]], 2).basis == ((2, 0),)


def test_member_and_coords():
    lat = lattice_from_rows([[1, 1, 0], [0, 2, 2]], 3)
    assert member((1, 3, 2), lat)
    assert not member((1, 2, 2), lat)
    assert not member((0, 1, 1), lat)  # in the saturation, not the lattice
    rows = [list(b) for b in lat.basis]
    c = coords_in_basis(rows, (1, 3, 2))
    got = [sum(c[k] * rows[k][i] for k in range(2)) for i in range(3)]
    assert tuple(got) == (1, 3, 2)


def test_in_span():
    assert in_span([[1, 1]], (Fraction(1, 2), Fraction(1, 2)))
    assert not in_span([[1, 1]], (1, 0))


def test_primitive():
    assert tuple(primitive([4, -6, 2])) == (2, -3, 1)
    assert tuple(primitive([0, 5, 0])) == (0, 1, 0)


def test_primitive_outward_segment():
    n_sigma = lattice_from_rows([[1]], 1)
    n_rho = lattice_from_rows([], 1)
    # facet {1} of [0,1]: outward functional u = +1
    assert primitive_outward(n_sigma, n_rho, (1,)) == (1,)
    assert primitive_outward(n_sigma, n_rho, (-1,)) == (-1,)


def test_primitive_outward_accepts_a_list():
    # the normal is a key of the cached facet split, so it is made a tuple
    n_sigma, n_rho = full_lattice(2), lattice_from_rows([[0, 1]], 2)
    assert primitive_outward(n_sigma, n_rho, [2, 0]) == (1, 0)
    assert primitive_outward(n_sigma, n_rho, (2, 0)) == (1, 0)


def test_primitive_outward_generates_quotient(seed=3):
    rng = random.Random(seed)
    for _ in range(30):
        r = rng.randint(2, 3)
        rows = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r - 1)]
        if rational_rank(rows) < r - 1:
            continue
        n_rho = saturate(lattice_from_rows(rows, r))
        n_sigma = full_lattice(r)
        u = _functional_outside(n_rho, r)
        w = primitive_outward(n_sigma, n_rho, u)
        assert member(list(w), n_sigma)
        assert not member(list(w), n_rho)
        assert dot(u, w) > 0
        # w plus N_rho generates N_sigma: index of (N_rho + Zw) is 1
        gen = lattice_from_rows([list(b) for b in n_rho.basis] + [list(w)], r)
        assert lattice_index(gen, n_sigma) == 1
        # representative is canonical: shifting the input functional by a
        # functional vanishing on nothing new gives the same answer
        assert primitive_outward(n_sigma, n_rho, u) == w


def _functional_outside(n_rho, r):
    """Primitive integer normal to the hyperplane lattice (cofactor vector)."""
    rows = [list(b) for b in n_rho.basis]
    if r == 2:
        (a, b), = rows
        return tuple(primitive([-b, a]))
    (a1, a2, a3), (b1, b2, b3) = rows
    cross = [a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1]
    return tuple(primitive(cross))


def test_solve_exact():
    sol = solve_exact([[2, 0], [0, 4]], [1, 2])
    assert sol == [Fraction(1, 2), Fraction(1, 2)]
    assert solve_exact([[1, 1], [2, 2]], [1, 3]) is None


# -- echelon reduction against the elimination and Smith-form paths --------

ORACLE_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _raw_rows():
    """Up to r + 1 integer rows in r = 1..4, scaled now and then, so that
    they are often dependent and often span an unsaturated lattice."""
    def build(r):
        row = st.tuples(st.integers(1, 3), st.tuples(*[st.integers(-3, 3)] * r))
        rows = st.lists(row.map(lambda kv: [kv[0] * x for x in kv[1]]), max_size=r + 1)
        return rows.map(lambda rows: (rows, r))
    return st.integers(1, 4).flatmap(build)


def _hnf_lattices(min_rank=0):
    """HNF lattices in r = 1..4 of every rank from min_rank up, some of them
    not saturated."""
    return _raw_rows().map(lambda case: lattice_from_rows(*case)).filter(
        lambda lat: lat.rank >= min_rank)


@st.composite
def _lattice_and_vector(draw):
    """A lattice and a vector of it, of its saturation, of its rational
    span (with Fraction entries), or anywhere."""
    lat = draw(_hnf_lattices())
    r = lat.ambient_rank
    kind = draw(st.sampled_from(["lattice", "saturation", "rational", "any"]))
    if kind == "any" or not lat.rank:
        return lat, draw(st.tuples(*[st.integers(-6, 6)] * r))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=lat.rank, max_size=lat.rank))
    den = draw(st.integers(2, 3)) if kind == "rational" else 1
    v = tuple(sum(Fraction(c, den) * b[i] for c, b in zip(coeffs, lat.basis)) for i in range(r))
    if kind == "rational":
        return lat, v
    v = tuple(int(x) for x in v)
    return lat, tuple(primitive(v)) if kind == "saturation" else v


def _elimination_coords(rows, v):
    """Coordinates by Gauss-Jordan elimination on the transposed basis."""
    if not rows:
        return [] if not any(v) else None
    return solve_exact(transpose([list(r) for r in rows]), list(v))


def _gram_elimination_reduce(v, lat):
    """reduce_mod_lattice with its Gram system solved by Fraction
    Gauss-Jordan elimination."""
    if lat.rank == 0:
        return tuple(Fraction(x) for x in v)
    b = [list(r) for r in lat.basis]
    gram = [[Fraction(dot(x, y)) for y in b] for x in b]
    rhs = [Fraction(dot(x, v)) for x in b]
    out = [Fraction(x) for x in v]
    for c, row in zip(solve_exact(gram, rhs), b):
        q = c.numerator // c.denominator  # floor
        if q:
            for i in range(len(out)):
                out[i] -= q * row[i]
    return tuple(out)


def _quotient_member(v, lat):
    """Membership by integer quotients at the HNF pivots."""
    w = list(v)
    for row in lat.basis:
        p = next(i for i, x in enumerate(row) if x != 0)
        if w[p] % row[p] != 0:
            return False
        q = w[p] // row[p]
        w = [a - q * b for a, b in zip(w, row)]
    return not any(w)


@ORACLE_SETTINGS
@given(_lattice_and_vector())
def test_coords_in_basis_matches_elimination(case):
    lat, v = case
    assert coords_in_basis(lat.basis, v) == _elimination_coords(lat.basis, v)


@ORACLE_SETTINGS
@given(_lattice_and_vector())
def test_member_and_reduce_echelon_match_pivot_quotients(case):
    lat, v = case
    # the quotients are exact on rational vectors too
    assert member(v, lat) == _quotient_member(v, lat)
    assume(all(isinstance(x, int) for x in v))
    s, w = reduce_echelon(v, lat.basis)
    assert s > 0
    assert all(w[next(i for i, x in enumerate(b) if x)] == 0 for b in lat.basis)
    # w / s is v minus a rational combination of the basis
    assert _elimination_coords(lat.basis, [Fraction(x, s) - y for x, y in zip(w, v)]) is not None


@st.composite
def _lattice_and_rational_vector(draw):
    """A lattice of rank 0..4 and a vector of its rational span or any
    rational vector."""
    lat, v = draw(_lattice_and_vector())
    if draw(st.booleans()):
        entry = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
        v = draw(st.tuples(*[entry] * lat.ambient_rank))
    return lat, v


@ORACLE_SETTINGS
@given(_lattice_and_rational_vector())
def test_reduce_mod_lattice_matches_gram_elimination(case):
    lat, v = case
    if any(Fraction(x).denominator != 1 for x in v):
        with pytest.raises(ValueError, match="non-integral"):
            reduce_mod_lattice(v, lat)
        return
    got = reduce_mod_lattice(v, lat)
    assert type(got) is tuple and all(type(x) is int for x in got)
    assert got == _gram_elimination_reduce(v, lat)


def _smith_lattice_index(sub, sup):
    """Index by Gauss-Jordan coordinates and the Smith form."""
    coords = []
    for b in sub.basis:
        sol = _elimination_coords(sup.basis, b)
        if sol is None:
            raise ValueError("sub is not contained in the span of sup")
        if any(x.denominator != 1 for x in sol):
            raise ValueError("sub is not a sublattice of sup")
        coords.append([int(x) for x in sol])
    if sub.rank < sup.rank:
        return None
    idx = 1
    for d in snf(coords):
        idx *= d
    return idx


@st.composite
def _lattice_pairs(draw):
    """sup and a lattice of integer combinations of its basis, of any rank,
    or sup and any lattice in the same ambient rank."""
    sup = draw(_hnf_lattices())
    r = sup.ambient_rank
    if sup.rank and draw(st.booleans()):
        coeffs = st.lists(st.integers(-3, 3), min_size=sup.rank, max_size=sup.rank)
        rows = [[sum(c * b[i] for c, b in zip(cs, sup.basis)) for i in range(r)]
                for cs in draw(st.lists(coeffs, max_size=sup.rank + 1))]
    else:
        rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * r), max_size=r))
    return lattice_from_rows(rows, r), sup


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return str(e)


@ORACLE_SETTINGS
@given(_lattice_pairs())
def test_lattice_index_matches_elimination_and_smith_form(pair):
    assert _outcome(lattice_index, *pair) == _outcome(_smith_lattice_index, *pair)


def _smith_primitive_outward(n_sigma, n_rho, u):
    """Outward generator from the Smith form of n_rho's coordinates in
    n_sigma: the last row of V^{-1}, its sign chosen by u."""
    bs = n_sigma.basis
    coords = [[int(x) for x in _elimination_coords(bs, b)] for b in n_rho.basis]
    w_coords = snf_transform(coords)[2][n_sigma.rank - 1] if coords else [1]
    omega = [dot(w_coords, col) for col in zip(*bs)]
    if dot(u, omega) < 0:
        omega = [-x for x in omega]
    return tuple(int(x) for x in reduce_mod_lattice(omega, n_rho))


@st.composite
def _facet_lattices(draw):
    """A saturated n_sigma of any rank >= 1, a functional u not zero on it,
    and n_rho = n_sigma cap u^perp, by rational kernel and saturation."""
    n_sigma = saturate(draw(_hnf_lattices(min_rank=1)))
    r = n_sigma.ambient_rank
    u = draw(st.tuples(*[st.integers(-3, 3)] * r))
    values = [dot(u, b) for b in n_sigma.basis]
    assume(any(values))
    rows = []
    for k in rational_kernel([values], n_sigma.rank):
        t = lcm(*(x.denominator for x in k))
        rows.append([dot([int(x * t) for x in k], col) for col in zip(*n_sigma.basis)])
    return n_sigma, saturate(lattice_from_rows(rows, r)), u


@ORACLE_SETTINGS
@given(_facet_lattices())
def test_primitive_outward_matches_smith_form(case):
    n_sigma, n_rho, u = case
    w = primitive_outward(n_sigma, n_rho, u)
    assert w == _smith_primitive_outward(n_sigma, n_rho, u)
    assert dot(u, w) > 0
    if n_rho.rank:
        # move one basis vector of n_rho off u^perp, inside n_sigma
        moved = [tuple(x + y for x, y in zip(n_rho.basis[0], w))] + list(n_rho.basis[1:])
        with pytest.raises(ValueError, match="facet hyperplane"):
            primitive_outward(n_sigma, lattice_from_rows(moved, n_sigma.ambient_rank), u)


def test_primitive_outward_rejects_sublattices_off_the_facet():
    with pytest.raises(ValueError, match="facet hyperplane"):
        primitive_outward(full_lattice(2), lattice_from_rows([[1, 1]], 2), (1, 0))
    with pytest.raises(ValueError, match="facet hyperplane"):
        primitive_outward(lattice_from_rows([[1, 0], [0, 2]], 2),
                          lattice_from_rows([[0, 1]], 2), (1, 0))


# -- Hermite-form complements and saturation, Smith form, against oracles --

def _smith_saturate(lat):
    """Saturation by a Smith form u B v = d: rows of B are combinations of
    the first rank(B) rows of v^{-1}, which extend to a unimodular basis."""
    vinv = snf_transform([list(b) for b in lat.basis])[2]
    return lattice_from_rows(vinv[:lat.rank], lat.ambient_rank)


def _kernel_complement(rows, r):
    """Saturated integer kernel from the rational kernel, as HNF rows."""
    kern = []
    for k in rational_kernel(rows, r):
        t = lcm(*(x.denominator for x in k))
        kern.append([int(x * t) for x in k])
    return _smith_saturate(lattice_from_rows(kern, r)).basis


@ORACLE_SETTINGS
@given(_raw_rows())
def test_orthogonal_complement_matches_rational_kernel(case):
    rows, r = case
    assert orthogonal_complement(rows, r) == _kernel_complement(rows, r)


def test_orthogonal_complement_runs_no_elimination(monkeypatch):
    from tropform import lattice
    calls = []
    gj = lattice.gauss_jordan
    monkeypatch.setattr(lattice, "gauss_jordan", lambda *args: calls.append(args) or gj(*args))
    assert orthogonal_complement([(1, 2, 3), (0, 1, 1)], 3) == ((1, 1, -1),)
    # dependent and unsaturated rows have the complement of their span
    assert orthogonal_complement([(2, 4, 6), (0, 2, 2), (1, 3, 4)], 3) == ((1, 1, -1),)
    # the kernel of x + 2y + 3w, with (1, 1, 0, -1) and (0, 3, 0, -2) a basis
    # of its (x, y, w) part
    assert orthogonal_complement([(2, 4, 0, 6)], 4) == \
        ((1, 1, 0, -1), (0, 3, 0, -2), (0, 0, 1, 0))
    assert orthogonal_complement([], 2) == ((1, 0), (0, 1))
    assert orthogonal_complement([(0, 3), (2, 0)], 2) == ()
    assert calls == []


def _shuffled_rows():
    """(rows, other, r, u): integer rows in r = 1..4 as tuples, the same
    rows permuted with some repeated, and an integer normal u."""
    def build(case):
        rows, r = case
        rows = [tuple(row) for row in rows]
        other = st.lists(st.sampled_from(rows), max_size=3).flatmap(
            lambda extra: st.permutations(rows + extra)) if rows else st.just([])
        u = st.tuples(*[st.integers(-3, 3)] * r)
        return st.tuples(st.just(rows), other, st.just(r), u)
    return _raw_rows().flatmap(build)


def _assert_frozen_lattice(lat):
    assert isinstance(lat, Lattice) and isinstance(lat.basis, tuple)
    assert all(isinstance(b, tuple) for b in lat.basis)
    with pytest.raises(FrozenInstanceError):
        lat.basis = ()


@ORACLE_SETTINGS
@given(_shuffled_rows())
def test_cached_kernels_match_their_computation(case):
    rows, other, r, u = case
    _cached_hull.cache_clear()
    comp, n_sigma = _hull(rows, r)
    # rows that differ only in order and repeats share one cache entry
    assert _hull(other, r) == (comp, n_sigma)
    assert _cached_hull.cache_info()[:2] == (1, 1)
    assert _cached_hull.__wrapped__(rows, r) == (comp, n_sigma)
    assert _cached_hull.__wrapped__(other, r) == (comp, n_sigma)
    assert isinstance(comp, tuple) and all(isinstance(e, tuple) for e in comp)
    _assert_frozen_lattice(n_sigma)
    assume(any(dot(u, b) for b in n_sigma.basis))
    w, n_rho = _facet_split(n_sigma, u)
    assert (w, n_rho) == _facet_split.__wrapped__(n_sigma, list(u))
    assert _facet_split(_hull(other, r)[1], u) is _facet_split(n_sigma, u)
    assert isinstance(w, tuple) and all(type(x) is int for x in w)
    _assert_frozen_lattice(n_rho)


@ORACLE_SETTINGS
@given(_hnf_lattices())
def test_saturate_matches_smith_form(lat):
    assert saturate(lat) == _smith_saturate(lat)


def _matrices():
    """Integer matrices of up to 4 x 4, with some rows and columns zeroed."""
    def build(shape):
        nr, nc = shape
        entries = st.lists(st.lists(st.integers(-6, 6), min_size=nc, max_size=nc),
                           min_size=nr, max_size=nr)
        zero_rows = st.sets(st.integers(0, nr - 1))
        zero_cols = st.sets(st.integers(0, nc - 1))
        return st.builds(lambda m, zr, zc: [[0 if i in zr or j in zc else x
                                              for j, x in enumerate(row)]
                                             for i, row in enumerate(m)],
                         entries, zero_rows, zero_cols)
    return st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(build)


@ORACLE_SETTINGS
@given(_matrices())
@example([[3, 0], [3, 1]])
@example([[0, 0], [0, 0], [0, 0]])
@example([[0, 2, 0], [0, 0, 0]])
@example([[-2]])
def test_snf_transform_transforms(m):
    d, u, vinv = snf_transform(m)
    v = hnf(vinv)[1]
    nr, nc = len(m), len(m[0])
    assert mat_mul(mat_mul(u, m), v) == d
    assert mat_mul(vinv, v) == identity_matrix(nc)
    assert abs(determinant(u)) == 1 and abs(determinant(vinv)) == 1
    assert all(x == 0 for i, row in enumerate(d) for j, x in enumerate(row) if i != j)
    diag = [d[i][i] for i in range(min(nr, nc))]
    assert all(x >= 0 for x in diag)
    # d_1 | d_2 | ...: zeros last, each nonzero entry divides the next
    assert all(b == 0 if a == 0 else b % a == 0 for a, b in zip(diag, diag[1:]))
    assert snf(m) == diag
