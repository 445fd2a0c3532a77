"""Acceptance criteria: ten exact (zero-tolerance) checks, one line each.

Every criterion prints a single ``[PASS]``/``[FAIL]`` line directly to the
terminal; the assertions make pytest agree with the printed verdict.
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from conftest import (
    box,
    interleaved_volume_form,
    rand_form,
    rand_symmetric,
    segment,
    simplex,
    witness_faces,
)

from tropform import io as tio
from tropform.cli import main as cli_main
from tropform.cycle import (
    WeightedComplex,
    check_balancing,
    projection_check,
    pushforward,
)
from tropform.hypersurface import corner_locus, tropical_polynomial
from tropform.integrate import (
    green_residual,
    integrate_polytope,
    stokes_residual,
)
from tropform.lattice import (
    full_lattice,
    in_span,
    lattice_from_rows,
    lattice_index,
    member,
    rational_rank,
    reduce_mod_lattice,
    saturate,
)
from tropform.polyhedra import from_halfspaces
from tropform.superform import (
    AffineMap,
    Polynomial,
    basis_form,
    d_prime,
    d_second,
    pullback,
    swap,
    wedge,
)


def _verdict(capsys, ok, label, detail):
    line = "[%s] %s: %s" % ("PASS" if ok else "FAIL", label, detail)
    with capsys.disabled():
        print(line)
    assert ok, line


def _halfopen_square_complex():
    """Unit square split along the diagonal into two triangles."""
    lower = from_halfspaces([((1, 0), Fraction(1)), ((-1, 0), Fraction(0)),
                             ((0, 1), Fraction(1)), ((0, -1), Fraction(0)),
                             ((-1, 1), Fraction(0))], 2)
    upper = from_halfspaces([((1, 0), Fraction(1)), ((-1, 0), Fraction(0)),
                             ((0, 1), Fraction(1)), ((0, -1), Fraction(0)),
                             ((1, -1), Fraction(0))], 2)
    return WeightedComplex([(lower, 1), (upper, 1)])


def test_criterion_01_stokes_exactness(capsys):
    rng = random.Random(101)
    start = time.time()
    domains = [box(3), simplex(3), box(2), simplex(2),
               _halfopen_square_complex(),
               WeightedComplex([(segment((0,), (1,)), 2),
                                (segment((1,), (3,)), -1),
                                (segment((3,), (4,)), 3)])]
    count = 0
    failures = 0
    while count < 200:
        for dom in domains:
            n = dom.dim
            ep = rand_form(rng, n, n - 1, n, deg=4)
            es = rand_form(rng, n, n, n - 1, deg=4)
            if stokes_residual(dom, ep, es) != (0, 0):
                failures += 1
            count += 2  # two residuals checked per call
    elapsed = time.time() - start
    _verdict(capsys, failures == 0 and elapsed < 60,
             "criterion 1 (Stokes exactness)",
             "%d residuals all exactly (0,0) in %.1fs" % (count, elapsed))


def test_criterion_02_green_exactness(capsys):
    rng = random.Random(102)
    failures = 0
    count = 0
    for _ in range(15):
        if green_residual(box(2), rand_symmetric(rng, 2, 0),
                          rand_symmetric(rng, 2, 1)) != 0:
            failures += 1
        if green_residual(box(3), rand_symmetric(rng, 3, 1),
                          rand_symmetric(rng, 3, 1)) != 0:
            failures += 1
        if green_residual(box(3), rand_symmetric(rng, 3, 0),
                          rand_symmetric(rng, 3, 2)) != 0:
            failures += 1
        if green_residual(box(3), rand_symmetric(rng, 3, 2),
                          rand_symmetric(rng, 3, 0)) != 0:
            failures += 1
        count += 4
    _verdict(capsys, failures == 0, "criterion 2 (Green exactness)",
             "%d symmetric pairs, residual exactly 0" % count)


def test_criterion_03_transformation_formula(capsys):
    from tropform.cycle import preimage_polyhedron
    rng = random.Random(103)
    count = 0
    failures = 0
    while count < 50:
        r = rng.randint(1, 2)
        if count % 3 == 0:
            m = _random_unimodular(rng, r)
        else:
            m = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
        det = _det(m)
        if det == 0:
            continue
        f = AffineMap(m, [Fraction(rng.randint(-2, 2)) for _ in range(r)])
        b = box(r, -2, 2)
        a = rand_form(rng, r, r, r, deg=3)
        pre = preimage_polyhedron(f, b)
        if integrate_polytope(pre, pullback(f, a)) != \
                abs(det) * integrate_polytope(b, a):
            failures += 1
        count += 1
    _verdict(capsys, failures == 0, "criterion 3 (transformation formula)",
             "%d integer maps, int F*a = |det F| * int a exactly" % count)


def _random_unimodular(rng, n):
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(5):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            u[i] = [a + rng.randint(-2, 2) * b for a, b in zip(u[i], u[j])]
    return u


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _cycle_corpus(rng):
    cycles = []
    supports = [
        [(1, 0), (0, 1), (0, 0)],
        [(2, 0), (0, 1), (0, 0)],
        [(1, 0), (0, 1), (0, 0), (1, 1)],
        [(2, 0), (0, 2), (0, 0), (1, 1)],
    ]
    for support in supports:
        for _ in range(3):
            terms = [(m, Fraction(rng.randint(-3, 3))) for m in support]
            cycles.append(corner_locus(tropical_polynomial(terms, 2)))
    terms3 = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((0, 0, 0), 1)]
    cycles.append(corner_locus(tropical_polynomial(terms3, 3)))
    return cycles


def test_criterion_04_balancing_iff_closedness(capsys):
    rng = random.Random(104)
    balanced = _cycle_corpus(rng)
    corpus = list(balanced)
    for wc in balanced:
        cells = wc.weighted_cells()
        k = rng.randrange(len(cells))
        corpus.append(WeightedComplex(
            [(c, m + (2 if i == k else 0)) for i, (c, m) in enumerate(cells)]))
    mismatches = 0
    failures = 0
    broken_found = 0
    for i, wc in enumerate(corpus):
        # the witnesses come from integrating d' of the Dirac current
        bal = check_balancing(wc)
        if sorted(set(r.key() for r, _ in bal)) != [r.key() for r in witness_faces(wc)]:
            mismatches += 1
        if i < len(balanced):
            if bal:
                failures += 1
        elif bal:
            broken_found += 1
    ok = mismatches == failures == 0 and broken_found == len(balanced)
    _verdict(capsys, ok, "criterion 4 (balancing iff closedness)",
             "integral witness and balancing disagree on %d of %d cycles; "
             "%d of %d mutations unbalanced" % (mismatches, len(corpus), broken_found,
                                                len(balanced)))


def test_criterion_05_projection_formula(capsys):
    rng = random.Random(105)
    failures = 0
    # pinned cases
    f2 = AffineMap([[2]], [Fraction(0)])
    seg = WeightedComplex([(segment((0,), (1,)), 1)])
    a = basis_form(1, (0,), (0,))
    left, right = projection_check(f2, seg, a, box(1, 0, 2))
    if not (left == right == 4):
        failures += 1
    proj = AffineMap([[1, 0]], [Fraction(0)])
    diag = WeightedComplex([(segment((0, 0), (1, 1)), 1)])
    ax = basis_form(1, (0,), (0,), Polynomial(1, {(1,): Fraction(1)}))
    left, right = projection_check(proj, diag, ax, box(1, 0, 1))
    if left != right:
        failures += 1
    count = 2
    while count < 22:
        m = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        if _det(m) == 0:
            continue
        f = AffineMap(m, [Fraction(rng.randint(-1, 1)), Fraction(0)])
        terms = [((1, 0), Fraction(rng.randint(-2, 2))),
                 ((0, 1), Fraction(rng.randint(-2, 2))),
                 ((0, 0), Fraction(rng.randint(-2, 2))),
                 ((1, 1), Fraction(rng.randint(-2, 2)))]
        wc = corner_locus(tropical_polynomial(terms, 2))
        form = rand_form(rng, 2, 1, 1, deg=1)
        left, right = projection_check(f, wc, form, box(2, -4, 4))
        if left != right:
            failures += 1
        count += 1
    _verdict(capsys, failures == 0, "criterion 5 (projection formula)",
             "%d (map, cycle, form) triples, both integrals equal" % count)


def test_criterion_06_pushforward_balanced(capsys):
    rng = random.Random(106)
    failures = 0
    count = 0
    while count < 20:
        terms = [((1, 0), Fraction(rng.randint(-2, 2))),
                 ((0, 1), Fraction(rng.randint(-2, 2))),
                 ((0, 0), Fraction(rng.randint(-2, 2))),
                 ((rng.randint(1, 2), rng.randint(1, 2)),
                  Fraction(rng.randint(-2, 2)))]
        try:
            wc = corner_locus(tropical_polynomial(terms, 2))
        except ValueError:
            continue
        if check_balancing(wc):
            failures += 1
        m = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        if _det(m) == 0:
            continue
        f = AffineMap(m, [Fraction(0), Fraction(0)])
        if check_balancing(pushforward(f, wc)):
            failures += 1
        count += 1
    # functoriality on a pinned composite
    f = AffineMap([[2]], [Fraction(0)])
    g = AffineMap([[3]], [Fraction(1)])
    gf = AffineMap([[6]], [Fraction(1)])
    wc1 = WeightedComplex([(segment((0,), (1,)), 1), (segment((1,), (2,)), 2)])
    if pushforward(gf, wc1).weighted_cells() != \
            pushforward(g, pushforward(f, wc1)).weighted_cells():
        failures += 1
    # functoriality in r = 2 on sums of two corner loci, whose cells cross:
    # (g f)_* C and g_* f_* C are one cycle exactly when the push-forward of
    # (g f)_* C + (-1) g_* f_* C along the identity is the zero cycle
    identity = AffineMap([[1, 0], [0, 1]], [Fraction(0), Fraction(0)])
    composites = 0
    while composites < 5:
        cells = []
        for _ in range(2):
            terms = [(e, Fraction(rng.randint(-4, 4), 2))
                     for e in rng.sample(list(product(range(3), repeat=2)), 4)]
            cells += corner_locus(tropical_polynomial(terms, 2)).weighted_cells()
        f, g = [AffineMap([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)],
                          [Fraction(rng.randint(-1, 1)) for _ in range(2)])
                for _ in range(2)]
        if _det(f.linear) == 0 or _det(g.linear) == 0:
            continue
        wc = WeightedComplex(cells)
        a = pushforward(g.compose(f), wc)
        b = pushforward(g, pushforward(f, wc))
        diff = WeightedComplex(a.weighted_cells() + [(c, -m) for c, m in b.weighted_cells()])
        if a.is_zero or not pushforward(identity, diff).is_zero:
            failures += 1
        composites += 1
    _verdict(capsys, failures == 0, "criterion 6 (pushforward balanced)",
             "%d (map, cycle) pairs stay balanced; %d composites agree"
             % (count, composites + 1))


def test_criterion_07_calculus_identities(capsys):
    rng = random.Random(107)
    failures = 0
    count = 0
    while count < 500:
        r = rng.randint(1, 4)
        p, q = rng.randint(0, r), rng.randint(0, r)
        a = rand_form(rng, r, p, q, deg=2)
        if not d_prime(d_prime(a)).is_zero:
            failures += 1
        if not d_second(d_second(a)).is_zero:
            failures += 1
        if not (d_prime(d_second(a)) + d_second(d_prime(a))).is_zero:
            failures += 1
        b = rand_form(rng, r, rng.randint(0, r), rng.randint(0, r), deg=2)
        s = (-1) ** ((a.p + a.q) * (b.p + b.q))
        if not (wedge(a, b) - wedge(b, a).scale(s)).is_zero:
            failures += 1
        k = rng.randint(1, 3)
        f = AffineMap([[rng.randint(-2, 2) for _ in range(k)] for _ in range(r)],
                      [Fraction(rng.randint(-2, 2)) for _ in range(r)])
        if a.p < min(r, k) and \
                not (pullback(f, d_prime(a)) - d_prime(pullback(f, a))).is_zero:
            failures += 1
        if a.q < min(r, k) and \
                not (pullback(f, d_second(a)) - d_second(pullback(f, a))).is_zero:
            failures += 1
        count += 2
    _verdict(capsys, failures == 0, "criterion 7 (calculus identities)",
             "%d random forms: d'2=d''2=0, d'd''=-d''d', F* commutes, "
             "graded commutativity" % count)


def test_criterion_08_lattice_oracle(capsys):
    rng = random.Random(108)
    failures = 0
    checked = 0
    while checked < 30:
        r = rng.randint(1, 4)
        k = rng.randint(1, r)
        rows = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(k)]
        if rational_rank(rows) < k:
            continue
        sub = lattice_from_rows(rows, r)
        sup = saturate(sub)
        idx = lattice_index(sub, sup)
        if idx is None or idx > 20:
            continue
        # oracle 1: residue counting inside the saturation
        coords = set()
        bound = 3
        for coeffs in product(range(-bound, bound + 1), repeat=k):
            v = [sum(c * b[i] for c, b in zip(coeffs, sup.basis))
                 for i in range(r)]
            coords.add(tuple(reduce_mod_lattice(v, sub)))
        if len(coords) != idx:
            failures += 1
        # oracle 2: saturation contains exactly the primitive rational points
        for coeffs in product(range(-2, 3), repeat=k):
            v = [sum(c * b[i] for c, b in zip(coeffs, sub.basis))
                 for i in range(r)]
            if not member(v, sub) or not member(v, sup):
                failures += 1
        # oracle 3, by brute force: every integer point of a box in the
        # span of sub is in the saturation, whose basis lies in that span
        for v in product(range(-2, 3), repeat=r):
            if in_span(sub.basis, v) and not member(v, sup):
                failures += 1
        if not all(in_span(sub.basis, b) for b in sup.basis):
            failures += 1
        checked += 1
    # full-rank indices against |det|
    for _ in range(10):
        r = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
        if rational_rank(rows) < r:
            continue
        idx = lattice_index(lattice_from_rows(rows, r), full_lattice(r))
        if idx != abs(_det_n(rows)):
            failures += 1
    _verdict(capsys, failures == 0, "criterion 8 (lattice oracle)",
             "%d sublattices: index and saturation match brute force" % checked)


def _det_n(rows):
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = Fraction(m[i][c], m[c][c])
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return int(det)


def test_criterion_09_normalization(capsys):
    ok = all(integrate_polytope(box(r), interleaved_volume_form(r)) == 1
             for r in (1, 2, 3))
    _verdict(capsys, ok, "criterion 9 (normalization)",
             "int over [0,1]^r of d'x_1^d''x_1^...^d'x_r^d''x_r = 1, r=1,2,3")


def test_criterion_10_cli_contract(capsys, tmp_path):
    from tropform.polyhedra import from_generators
    rng = random.Random(110)
    failures = 0

    def ray(d):
        return from_generators([(0, 0)], [d], [], 2)

    corpus = [
        box(2),
        WeightedComplex([(ray((1, 0)), 1), (ray((0, 1)), 1),
                         (ray((-1, -1)), 1)]),
        rand_form(rng, 2, 1, 2, deg=2),
        rand_form(rng, 2, 2, 1, deg=2),
        AffineMap([[1, 2], [0, 1]], [Fraction(1, 2), Fraction(-3)]),
        tropical_polynomial([((1, 0), Fraction(1, 3)), ((0, 1), 0),
                             ((0, 0), -2)], 2),
    ]
    for obj in corpus:
        text = tio.emit(obj)
        if tio.emit(tio.parse(text)) != text:
            failures += 1

    paths = {}
    names = ["square", "line", "etap", "etas", "map", "tp"]
    for name, obj in zip(names, corpus):
        p = tmp_path / (name + ".json")
        p.write_text(tio.emit(obj))
        paths[name] = str(p)

    if cli_main(["stokes", paths["square"], paths["etap"], paths["etas"]]) != 0:
        failures += 1
    if cli_main(["check-balancing", paths["line"]]) != 0:
        failures += 1
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    if cli_main(["check-balancing", str(bad)]) != 2:
        failures += 1
    unbalanced = WeightedComplex([(ray((1, 0)), 1), (ray((0, 1)), 1)])
    ub = tmp_path / "unbalanced.json"
    ub.write_text(tio.emit(unbalanced))
    if cli_main(["check-balancing", str(ub)]) != 1:
        failures += 1
    capsys.readouterr()
    _verdict(capsys, failures == 0, "criterion 10 (CLI contract)",
             "round trips lossless; exit codes 0/1/2 per the contract; "
             "stokes and check-balancing run from files")
