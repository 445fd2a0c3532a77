"""In-memory span tracer around tropform's public entry points.

``Tracer.install`` replaces each function listed in ``TRACED`` by a wrapper
in every ``tropform`` module namespace that holds it, wraps
``Polynomial.compose_affine`` on its class, and counts ``Fraction``
constructions.  ``uninstall`` restores the originals, so untraced runs pay
nothing.  A span is ``(name, start, end, parent)`` with ``parent`` the index
of the enclosing span or -1; the self time of a span is its duration minus
the durations of its direct children.  Only entry points are wrapped: time
spent in helpers that are not listed (``dot``, ``primitive``, polynomial
arithmetic, ...) is self time of the nearest listed caller.
"""

from __future__ import annotations

import fractions
import sys
import time

TRACED = {
    "lattice": ("hnf", "snf_transform", "snf", "saturate", "solve_exact",
                "rational_rank", "in_span", "lattice_from_rows", "member",
                "lattice_index", "coords_in_basis", "reduce_mod_lattice",
                "primitive_outward"),
    "polyhedra": ("dual_description", "from_halfspaces", "from_generators",
                  "intersect", "affine_image", "facets", "faces", "all_faces",
                  "complex_from_cells", "validate_complex", "refine", "truncate",
                  "triangulate"),
    "superform": ("wedge", "swap", "is_symmetric", "d_prime", "d_second",
                  "contract", "pullback"),
    "integrate": ("integrate_polynomial_simplex", "integrate_polytope",
                  "outward_vector", "integrate_boundary", "integrate_complex",
                  "integrate_complex_boundary", "stokes_residual", "green_residual"),
    "cycle": ("check_balancing", "current_eval", "pushforward",
              "preimage_polyhedron", "projection_check"),
    "hypersurface": ("corner_locus",),
    "io": ("parse", "emit"),
    "cli": ("main",),
}

# counts that are not call counts: span name -> (count name, f(args, result))
EXTRA_COUNTS = {
    "polyhedra.triangulate": ("polyhedra.triangulate.simplices",
                              lambda args, result: len(result)),
    "hypersurface.corner_locus": ("hypersurface.corner_locus.cells",
                                  lambda args, result: len(result.weighted_cells())),
    "io.parse": ("io.bytes_in", lambda args, result: len(args[0])),
    "io.emit": ("io.bytes_out", lambda args, result: len(result)),
}

FRACTIONS_NEW = "fractions.new.calls"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._fractions = [0]
        self._patches = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        self._fractions[0] = 0

    # -- installation ------------------------------------------------------

    def install(self):
        prefix = "tropform."
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "tropform" or name.startswith(prefix))]
        wrappers = {}
        for short, names in TRACED.items():
            mod = sys.modules[prefix + short]
            for attr in names:
                fn = vars(mod)[attr]
                wrappers[id(fn)] = (fn, self.wrap(short + "." + attr, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(mod, attr, entry[1])
        poly = sys.modules[prefix + "superform"].Polynomial
        self._patch(poly, "compose_affine",
                    self.wrap("superform.compose_affine", vars(poly)["compose_affine"]))
        self._patch(fractions.Fraction, "__new__", self._counting_new())

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr, replacement):
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, replacement)

    def _counting_new(self):
        original = fractions.Fraction.__new__
        cell = self._fractions

        def __new__(cls, *args, **kwargs):
            cell[0] += 1
            return original(cls, *args, **kwargs)
        return __new__

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRA_COUNTS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if extra is not None:
                key, f = extra
                counts[key] = counts.get(key, 0) + f(args, result)
            return result

        return traced

    # -- summaries -----------------------------------------------------------

    def table(self):
        """{span name: [calls, total_s, self_s]} over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        rows = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return rows

    def extra_counts(self):
        out = dict(self.counts)
        out[FRACTIONS_NEW] = self._fractions[0]
        return out


def layer_self(table):
    """{layer: self_s}, the layer being the span name up to its first dot."""
    out = {}
    for name, (_, _, self_s) in table.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + self_s
    return out
