"""Seeded inputs and exactly checked operations for the three workloads.

A workload is built from a seed alone; the library only ever sees the
inputs generated here.  ``pool`` is the list of distinct operations a run
measures, as ``(label, op)`` pairs, where ``op()`` performs one checked call
sequence and returns True iff every exact check in it held.  ``trace_ops``,
the first group of the pool, covers every layer the workload reaches and is
what a traced run repeats.  Operations reach the library through module
attributes (``self.tf.cycle.pushforward``) rather than names bound at import
time, so the tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import math
import os
import random
from fractions import Fraction
from itertools import combinations, product


# ---------------------------------------------------------------------------
# input generators (stdlib only; the library builds the objects)

def _box_halfspaces(r, lo, hi):
    hs = []
    for i in range(r):
        u = [0] * r
        u[i] = 1
        hs.append((tuple(u), Fraction(hi)))
        u[i] = -1
        hs.append((tuple(u), Fraction(-lo)))
    return hs


def _simplex_halfspaces(r):
    hs = [(tuple([1] * r), Fraction(1))]
    for i in range(r):
        u = [0] * r
        u[i] = -1
        hs.append((tuple(u), Fraction(0)))
    return hs


def _square_triangles():
    """The unit square split along its diagonal: two halfspace lists."""
    square = _box_halfspaces(2, 0, 1)
    return square + [((-1, 1), Fraction(0))], square + [((1, -1), Fraction(0))]


def _rand_terms(rng, r, deg, terms=3, coeff=6):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, deg) for _ in range(r))
        out[e] = out.get(e, Fraction(0)) + Fraction(rng.randint(-coeff, coeff),
                                                    rng.randint(1, 3))
    return out


def _dense_terms(rng, r, d):
    """All exponents of total degree <= d.  The lift |m|^2 is strictly convex,
    so every cell of the corner locus has a proper face; the seeded quarter
    steps break its ties, which keeps cell counts nearly fixed per size."""
    return [(m, Fraction(sum(x * x for x in m)) + Fraction(rng.randint(0, 3), 4))
            for m in product(range(d + 1), repeat=r) if sum(m) <= d]


def _rand_invertible(rng, r):
    while True:
        m = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
        if _det(m) != 0:
            return m


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _window(wc):
    """Integer box [lo, hi]^r holding every vertex of wc with margin 1."""
    coords = [x for c in wc.maximal_cells() for v in c.vertices for x in v]
    return math.floor(min(coords)) - 1, math.ceil(max(coords)) + 1


class _Workload:
    """Common shape: the pool is the concatenation of ``_groups()``."""

    def __init__(self, tf, seed, workdir):
        self.tf = tf
        self.rng = random.Random("%s:%d" % (self.name, seed))
        self.workdir = workdir
        groups = self._groups()
        self.trace_ops = groups[0]
        self.pool = [op for group in groups for op in group]

    def warm_up(self):
        """(label, op) pairs run once per set-up, outside the measurement."""
        return []

    # form helpers shared by the workloads
    def poly(self, r, terms):
        return self.tf.superform.Polynomial(r, terms)

    def rand_form(self, r, p, q, deg):
        sf = self.tf.superform
        f = sf.zero_form(r, p, q)
        for I in combinations(range(r), p):
            for J in combinations(range(r), q):
                f = f + sf.basis_form(r, I, J, self.poly(r, _rand_terms(self.rng, r, deg)))
        return f

    def rand_symmetric(self, r, p, deg=2):
        sf = self.tf.superform
        f = sf.zero_form(r, p, p)
        idx = list(combinations(range(r), p))
        for a in range(len(idx)):
            f = f + sf.basis_form(r, idx[a], idx[a],
                                  self.poly(r, _rand_terms(self.rng, r, deg)))
            for b in range(a + 1, len(idx)):
                g = self.poly(r, _rand_terms(self.rng, r, deg))
                f = f + sf.basis_form(r, idx[a], idx[b], g) \
                    + sf.basis_form(r, idx[b], idx[a], g)
        return f

    def bump_form(self, r, lo, hi, I, J):
        """b * d'x_I (x) d''x_J with b = prod (x_i - lo)(hi - x_i), which
        vanishes on the boundary of the window [lo, hi]^r."""
        P = self.tf.superform.Polynomial
        b = P.constant(r, 1)
        for i in range(r):
            x = P.variable(r, i)
            b = b * (x - P.constant(r, lo)) * (P.constant(r, hi) - x)
        return self.tf.superform.basis_form(r, I, J, b)


# ---------------------------------------------------------------------------
# calculus: Green and Stokes residuals on fixed domains

class Calculus(_Workload):
    """Green residuals of random symmetric forms on the 3-cube and 3-simplex,
    Stokes residuals of degree-4 forms on those and on the two-triangle
    square complex.  Every residual must be exactly 0."""

    name = "calculus"
    rounds = 11

    def __init__(self, tf, seed, workdir):
        ph = tf.polyhedra
        self.cube = ph.from_halfspaces(_box_halfspaces(3, 0, 1), 3)
        self.simplex = ph.from_halfspaces(_simplex_halfspaces(3), 3)
        lower, upper = _square_triangles()
        self.square = tf.cycle.WeightedComplex([(ph.from_halfspaces(lower, 2), 1),
                                                (ph.from_halfspaces(upper, 2), 1)])
        super().__init__(tf, seed, workdir)

    def _green(self, label, sigma, alpha, beta):
        def op():
            return self.tf.integrate.green_residual(sigma, alpha, beta) == 0
        return label, op

    def _stokes(self, label, domain, deg):
        n = domain.dim
        eta_p = self.rand_form(n, n - 1, n, deg)
        eta_s = self.rand_form(n, n, n - 1, deg)

        def op():
            return self.tf.integrate.stokes_residual(domain, eta_p, eta_s) == (0, 0)
        return label, op

    def _groups(self):
        return [self._round() for _ in range(self.rounds)]

    def _round(self):
        # The costliest operation (cube, (1,1)) comes twice a round: with 11
        # rounds of 10, p90 falls in the middle of its group, and p50 inside
        # the group of cube (0,2), cube (2,0) and simplex (1,1), not on an
        # edge between two groups.
        cube, simplex, square = self.cube, self.simplex, self.square
        ops = []
        for dname, sigma, pairs in (("cube", cube, ((1, 1), (1, 1), (0, 2), (2, 0))),
                                    ("simplex", simplex, ((1, 1), (0, 2), (2, 0)))):
            for p, q in pairs:
                ops.append(self._green("green-%s-%d%d" % (dname, p, q), sigma,
                                       self.rand_symmetric(3, p),
                                       self.rand_symmetric(3, q)))
        for dname, dom in (("cube", cube), ("simplex", simplex), ("square", square)):
            ops.append(self._stokes("stokes-%s" % dname, dom, 4))
        return ops

    def warm_up(self):
        # fills the per-polyhedron face caches of the fixed domains, so that
        # every measured pass does the same work
        return [self._stokes("warm-stokes-%d" % i, dom, 1)
                for i, dom in enumerate((self.cube, self.simplex, self.square))]


# ---------------------------------------------------------------------------
# cycles: a size ladder of corner loci

LADDER = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3))
# More chains of two cheap sizes, so that the pool holds over 100 distinct
# operations in a few seconds of work; the ladder itself stays once.  With
# these 126 operations, p90 falls in the middle of the sixteen r = 2, d = 4
# push-forwards and p50 inside the group of d = 4 closedness integrals and
# d = 2 push-forwards, rather than on an edge between two sizes.
EXTRA_CHAINS = ((2, 2), (2, 4)) * 10 + ((2, 4),) * 5


class Cycles(_Workload):
    """Dense min-plus polynomials of the ladder sizes.  Per polynomial:
    corner locus balanced; (r = 2) push-forward along a seeded invertible
    integer map balanced; closedness integral of the Dirac current against
    a bump form exactly 0; a mutated-weight copy reported unbalanced."""

    name = "cycles"

    def _chain(self, r, d):
        tf = self.tf
        tp = tf.hypersurface.tropical_polynomial(_dense_terms(self.rng, r, d), r)
        linear = _rand_invertible(self.rng, r)
        shift = [Fraction(self.rng.randint(-1, 1)) for _ in range(r)]
        I = tuple(sorted(self.rng.sample(range(r), r - 2)))
        J = tuple(sorted(self.rng.sample(range(r), r - 1)))
        pick = self.rng.randrange(1 << 30)
        state = {}
        tag = "r%dd%d" % (r, d)

        def locus():
            wc = tf.hypersurface.corner_locus(tp)
            state["wc"] = wc
            return not wc.is_zero and tf.cycle.check_balancing(wc) == []

        def push():
            pf = tf.cycle.pushforward(tf.superform.AffineMap(linear, shift), state["wc"])
            return not pf.is_zero and tf.cycle.check_balancing(pf) == []

        def closed():
            wc = state["wc"]
            lo, hi = _window(wc)
            box = tf.polyhedra.from_halfspaces(_box_halfspaces(r, lo, hi), r)
            cur = tf.cycle.Current.dirac(wc).apply("d_prime")
            return tf.cycle.current_eval(cur, self.bump_form(r, lo, hi, I, J), box) == 0

        def control():
            cells = state["wc"].weighted_cells()
            k = pick % len(cells)
            mutated = tf.cycle.WeightedComplex(
                [(c, m + (1 if i == k else 0)) for i, (c, m) in enumerate(cells)])
            return tf.cycle.check_balancing(mutated) != []

        ops = [("locus-" + tag, locus)]
        # one r = 3 push-forward costs 1.4 s (d = 2) to 8.7 s (d = 3), more
        # than the run's budget per operation allows; see README.md
        if r == 2:
            ops.append(("push-" + tag, push))
        ops += [("closed-" + tag, closed), ("control-" + tag, control)]
        return ops

    def _groups(self):
        ladder = [op for r, d in LADDER for op in self._chain(r, d)]
        return [ladder] + [self._chain(r, d) for r, d in EXTRA_CHAINS]

    def warm_up(self):
        return self._chain(2, 2)


# ---------------------------------------------------------------------------
# cli: a fixed script of subcommands over trop/1 documents

class Cli(_Workload):
    """In-process ``tropform.cli.main(argv)`` over documents written in
    set-up.  Each call must return its expected exit code (0, 1 or 2); report
    values that are exact zeros by construction are checked too."""

    name = "cli"
    rounds = 10

    def _write(self, k, name, text):
        path = os.path.join(self.workdir, "%d-%s.json" % (k, name))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _call(self, label, argv, expect, check=None):
        def op():
            out, err = _stdio.StringIO(), _stdio.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.tf.cli.main(argv)
            if code != expect:
                return False
            return check is None or check(out.getvalue())
        return label, op

    def _groups(self):
        return [self._round(k) for k in range(self.rounds)]

    def _round(self, k):
        tf, rng = self.tf, self.rng
        tio, sf = tf.io, tf.superform
        tp = tf.hypersurface.tropical_polynomial(_dense_terms(rng, 2, 4), 2)
        wc = tf.hypersurface.corner_locus(tp)
        locus_text = tio.emit(wc, kind="weighted-complex")
        cells = wc.weighted_cells()
        pick = rng.randrange(len(cells))
        unbalanced = tf.cycle.WeightedComplex(
            [(c, m + (1 if i == pick else 0)) for i, (c, m) in enumerate(cells)])
        lo, hi = _window(wc)
        bump = self.bump_form(2, lo, hi, (), (rng.randrange(2),))
        lower, upper = _square_triangles()
        square = tf.cycle.WeightedComplex([(tf.polyhedra.from_halfspaces(lower, 2), 1),
                                           (tf.polyhedra.from_halfspaces(upper, 2), 1)])
        ph = tf.polyhedra
        doc = {
            "poly": tio.emit(tp),
            "locus": locus_text,
            "unbalanced": tio.emit(unbalanced),
            "malformed": locus_text[:len(locus_text) // 2],
            "map": tio.emit(sf.AffineMap(_rand_invertible(rng, 2),
                                         [Fraction(rng.randint(-1, 1)) for _ in range(2)])),
            "form11": tio.emit(self.rand_form(2, 1, 1, 1)),
            "box": tio.emit(ph.from_halfspaces(_box_halfspaces(2, lo, hi), 2)),
            "bump": tio.emit(bump),
            "dbump": tio.emit(sf.d_prime(bump)),
            "square": tio.emit(square),
            "etap": tio.emit(self.rand_form(2, 1, 2, 2)),
            "etas": tio.emit(self.rand_form(2, 2, 1, 2)),
            "unit": tio.emit(ph.from_halfspaces(_box_halfspaces(2, 0, 1), 2)),
            "alpha": tio.emit(self.rand_symmetric(2, 0)),
            "beta": tio.emit(self.rand_symmetric(2, 1)),
            "cube": tio.emit(ph.from_halfspaces(_box_halfspaces(3, 0, 1), 3)),
        }
        p = {name: self._write(k, name, text) for name, text in doc.items()}
        pf = os.path.join(self.workdir, "%d-pf.json" % k)

        def report(field, want):
            return lambda text: json.loads(text)[field] == want

        return [
            self._call("hypersurface", ["hypersurface", p["poly"]], 0,
                       lambda text: text == locus_text),
            self._call("check-balancing", ["check-balancing", p["locus"]], 0),
            self._call("check-balancing-unbalanced",
                       ["check-balancing", p["unbalanced"]], 1,
                       report("balanced", False)),
            self._call("check-balancing-malformed",
                       ["check-balancing", p["malformed"]], 2),
            self._call("pushforward",
                       ["pushforward", p["map"], p["locus"], "--out", pf], 0),
            self._call("check-balancing-pushforward", ["check-balancing", pf], 0),
            self._call("projection-check",
                       ["projection-check", p["map"], p["locus"], p["form11"],
                        "--window", p["box"]], 0, report("equal", True)),
            self._call("current-eval",
                       ["current-eval", p["locus"], p["bump"], "--window", p["box"],
                        "--ops", "d'"], 0, report("value", "0")),
            self._call("integrate",
                       ["integrate", p["locus"], p["dbump"], "--window", p["box"]], 0,
                       report("value", "0")),
            self._call("stokes", ["stokes", p["square"], p["etap"], p["etas"]], 0,
                       report("residuals", ["0", "0"])),
            self._call("green", ["green", p["unit"], p["alpha"], p["beta"]], 0,
                       report("residual", "0")),
            self._call("truncate", ["truncate", p["locus"], p["box"]], 0),
            self._call("faces", ["faces", p["cube"], "2"], 0,
                       lambda text: len(json.loads(text)["items"]) == 12),
        ]

    def warm_up(self):
        return [self.trace_ops[3], self.trace_ops[-1]]


WORKLOADS = {w.name: w for w in (Calculus, Cycles, Cli)}
