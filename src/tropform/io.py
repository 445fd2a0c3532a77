"""JSON interchange for the library's domain objects.

Documents are UTF-8 JSON with a top-level {"format": "trop/1", "kind": ...}.
Every rational number is encoded as a string "p/q" (or "p") so exactness
survives the round trip.  Emission uses a fixed field order, so
emit(parse(text)) is the canonical form of text.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .cycle import WeightedComplex
from .hypersurface import TropicalPolynomial, tropical_polynomial
from .polyhedra import EMPTY, Complex, Polyhedron, complex_from_cells, from_halfspaces
from .superform import AffineMap, Polynomial, Superform
from .lattice import vec_neg

FORMAT = "trop/1"

# the largest dimension a document may give, other than that of an empty
# polyhedron: the double description of a polyhedron starts from
# ambient_dim + 1 lines of that length, so a larger one is rejected before
# anything is built from it
MAX_DIM = 64

# the largest total degree of a superform term: integration reads moments
# for every divisor of each exponent, so a higher degree is rejected before
# a polynomial is built from it
MAX_DEGREE = 64

# the most digits a rational string may give its numerator or denominator,
# counting the zeros an exponent appends: Fraction("1e10000000") alone takes
# seconds, so a longer number is rejected before it is built
MAX_DIGITS = 4000


class SchemaError(ValueError):
    """A document violates the trop/1 schema; the message names the field."""


def _fail(path, message):
    raise SchemaError("%s: %s" % (path, message))


def _digit_count(text):
    """The most digits the numerator or the denominator of the rational
    string text can have: the digits written in either part, plus the size
    of an exponent, which Fraction multiplies out ("1e3" is 1000)."""
    mantissa, _, exponent = text.lower().partition("e")
    written = max(sum(map(str.isdecimal, part)) for part in mantissa.split("/"))
    shift = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if not shift.isdecimal():
        return written  # no exponent, or one that Fraction rejects
    return written + (int(shift) if len(shift) <= 9 else 10 ** 9)


def _rational(value, path):
    if isinstance(value, str):
        # only a long string or an exponent can exceed the limit
        if (len(value) > MAX_DIGITS or "e" in value.lower()) \
                and _digit_count(value) > MAX_DIGITS:
            _fail(path, "numerator or denominator longer than MAX_DIGITS = %d digits"
                  % MAX_DIGITS)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            _fail(path, "not a rational 'p/q' string: %r" % (value,))
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    _fail(path, "expected a rational encoded as a string, got %r" % (value,))


def _integer(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected an integer, got %r" % (value,))
    return value


def _dimension(obj, field, path):
    """The integer field of obj named field, a dimension: at least 0 and
    at most MAX_DIM."""
    here = "%s.%s" % (path, field)
    return _check_dimension(_integer(_get(obj, field, path), here), here)


def _check_dimension(r, path):
    if not 0 <= r <= MAX_DIM:
        _fail(path, "must be between 0 and %d, got %d" % (MAX_DIM, r))
    return r


def _int_vector(value, path, length=None):
    if not isinstance(value, list):
        _fail(path, "expected a list of integers")
    if length is not None and len(value) != length:
        _fail(path, "expected length %d, got %d" % (length, len(value)))
    return tuple(_integer(x, "%s[%d]" % (path, i)) for i, x in enumerate(value))


def _get(obj, field, path, types=None):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    if field not in obj:
        _fail("%s.%s" % (path, field), "missing required field")
    value = obj[field]
    if types is not None and not isinstance(value, types):
        _fail("%s.%s" % (path, field), "wrong type %r" % (type(value).__name__,))
    return value


def _int_str(n):
    """The decimal digits of the int n, at any size.  str() refuses more
    than sys.get_int_max_str_digits() digits; every limit that can be set
    allows the 617 of 2048 bits, so a longer n is cut at 10^k, k under half
    its digits, and its two parts are written on their own."""
    if n.bit_length() <= 2048:
        return str(n)
    k = n.bit_length() * 3 // 20
    high, low = divmod(abs(n), 10 ** k)
    return ("-" if n < 0 else "") + _int_str(high) + _int_str(low).zfill(k)


def rational_str(x):
    """x as "p/q", or "p" when x is an integer, exactly at any size."""
    x = Fraction(x)
    p = _int_str(x.numerator)
    return p if x.denominator == 1 else "%s/%s" % (p, _int_str(x.denominator))


# ---------------------------------------------------------------------------
# per-kind emitters (object -> plain JSON body, without the format header)

def _emit_polyhedron(p):
    if p.is_empty:
        return {"ambient_dim": getattr(p, "ambient_dim", 0),
                "halfspaces": [], "equalities": [], "empty": True}
    return {
        "ambient_dim": p.ambient_dim,
        "halfspaces": [{"u": list(u), "c": rational_str(c)}
                       for u, c in p.halfspaces],
        "equalities": [{"u": list(u), "c": rational_str(c)}
                       for u, c in p.equalities],
        "empty": bool(p.is_empty),
    }


def _emit_complex(c):
    maximal = c.maximal_cells()
    r = maximal[0].ambient_dim if maximal else 0
    return {
        "ambient_dim": r,
        "cells": [_emit_polyhedron(cell) for cell in maximal],
    }


def _emit_weighted_complex(wc):
    cells = wc.weighted_cells()
    return {
        "ambient_dim": cells[0][0].ambient_dim if cells else 0,
        "cells": [{"polyhedron": _emit_polyhedron(c), "weight": m}
                  for c, m in cells],
    }


def _emit_poly(poly):
    terms = sorted(poly.terms.items())
    return [{"exponents": list(e), "coeff": rational_str(c)} for e, c in terms]


def _emit_superform(a):
    comps = sorted(a.components.items())
    return {
        "ambient_dim": a.ambient_dim,
        "p": a.p,
        "q": a.q,
        "components": [{"I": list(I), "J": list(J), "poly": _emit_poly(f)}
                       for (I, J), f in comps],
    }


def _emit_map(f):
    return {
        "domain_dim": f.domain_dim,
        "codomain_dim": f.codomain_dim,
        "linear": [list(row) for row in f.linear],
        "translate": [rational_str(t) for t in f.translate],
    }


def _emit_tropical_polynomial(tp):
    return {
        "ambient_dim": tp.ambient_dim,
        "convention": tp.convention,
        "terms": [{"exponent": list(m), "coeff": rational_str(c)}
                  for m, c in tp.terms],
    }


def _emit_polyhedron_list(items):
    return {"items": [_emit_polyhedron(p) for p in items]}


# ---------------------------------------------------------------------------
# per-kind parsers

def _parse_halfspace(obj, path, r):
    u = _int_vector(_get(obj, "u", path), "%s.u" % path, r)
    c = _rational(_get(obj, "c", path), "%s.c" % path)
    return (u, c)


def _parse_polyhedron(obj, path):
    here = "%s.ambient_dim" % path
    r = _integer(_get(obj, "ambient_dim", path), here)
    if r < 0:
        _fail(here, "must be nonnegative")
    empty = obj.get("empty", False)
    if not isinstance(empty, bool):
        _fail("%s.empty" % path, "expected a boolean, got %r" % (empty,))
    if empty:
        return EMPTY
    _check_dimension(r, here)
    hs = _get(obj, "halfspaces", path, list)
    rows = [_parse_halfspace(h, "%s.halfspaces[%d]" % (path, i), r)
            for i, h in enumerate(hs)]
    eqs = _get(obj, "equalities", path, list) if "equalities" in obj else []
    for i, e in enumerate(eqs):
        u, c = _parse_halfspace(e, "%s.equalities[%d]" % (path, i), r)
        rows.append((u, c))
        rows.append((vec_neg(u), -c))
    return from_halfspaces(rows, r)


def _parse_complex(obj, path):
    cells = _get(obj, "cells", path, list)
    parsed = [_parse_polyhedron(c, "%s.cells[%d]" % (path, i))
              for i, c in enumerate(cells)]
    parsed = [p for p in parsed if not p.is_empty]
    return complex_from_cells(parsed)


def _parse_weighted_complex(obj, path):
    cells = _get(obj, "cells", path, list)
    weighted = []
    for i, entry in enumerate(cells):
        here = "%s.cells[%d]" % (path, i)
        p = _parse_polyhedron(_get(entry, "polyhedron", here), "%s.polyhedron" % here)
        m = _integer(_get(entry, "weight", here), "%s.weight" % here)
        weighted.append((p, m))
    try:
        return WeightedComplex(weighted)
    except ValueError as e:
        _fail("%s.cells" % path, str(e))


def _parse_poly(items, path, r):
    if not isinstance(items, list):
        _fail(path, "expected a list of terms")
    terms = {}
    for i, term in enumerate(items):
        here = "%s[%d]" % (path, i)
        e = _int_vector(_get(term, "exponents", here), "%s.exponents" % here, r)
        if any(x < 0 for x in e):
            _fail("%s.exponents" % here, "exponents must be nonnegative")
        if sum(e) > MAX_DEGREE:
            _fail("%s.exponents" % here, "total degree must be at most %d, got %d"
                  % (MAX_DEGREE, sum(e)))
        c = _rational(_get(term, "coeff", here), "%s.coeff" % here)
        terms[e] = terms.get(e, Fraction(0)) + c
    return Polynomial(r, terms)


def _parse_superform(obj, path):
    r = _dimension(obj, "ambient_dim", path)
    p = _integer(_get(obj, "p", path), "%s.p" % path)
    q = _integer(_get(obj, "q", path), "%s.q" % path)
    comps = {}
    for i, entry in enumerate(_get(obj, "components", path, list)):
        here = "%s.components[%d]" % (path, i)
        I = _int_vector(_get(entry, "I", here), "%s.I" % here)
        J = _int_vector(_get(entry, "J", here), "%s.J" % here)
        for name, idx in (("I", I), ("J", J)):
            if list(idx) != sorted(set(idx)) or any(x < 0 or x >= r for x in idx):
                _fail("%s.%s" % (here, name),
                      "must be strictly increasing indices in [0, %d)" % r)
        poly = _parse_poly(_get(entry, "poly", here), "%s.poly" % here, r)
        key = (I, J)
        comps[key] = comps[key] + poly if key in comps else poly
    try:
        return Superform(r, p, q, comps)
    except ValueError as e:
        _fail(path, str(e))


def _parse_map(obj, path):
    k = _dimension(obj, "domain_dim", path)
    r = _dimension(obj, "codomain_dim", path)
    linear = _get(obj, "linear", path, list)
    if len(linear) != r:
        _fail("%s.linear" % path, "expected %d rows" % r)
    rows = [_int_vector(row, "%s.linear[%d]" % (path, i), k)
            for i, row in enumerate(linear)]
    translate = _get(obj, "translate", path, list)
    if len(translate) != r:
        _fail("%s.translate" % path, "expected %d entries" % r)
    t = [_rational(x, "%s.translate[%d]" % (path, i))
         for i, x in enumerate(translate)]
    return AffineMap(rows, t)


def _parse_tropical_polynomial(obj, path):
    r = _dimension(obj, "ambient_dim", path)
    convention = obj.get("convention", "min")
    if convention not in ("min", "max"):
        _fail("%s.convention" % path, "must be 'min' or 'max'")
    terms = []
    for i, term in enumerate(_get(obj, "terms", path, list)):
        here = "%s.terms[%d]" % (path, i)
        m = _int_vector(_get(term, "exponent", here), "%s.exponent" % here, r)
        c = _rational(_get(term, "coeff", here), "%s.coeff" % here)
        terms.append((m, c))
    try:
        return tropical_polynomial(terms, r, convention)
    except ValueError as e:
        _fail("%s.terms" % path, str(e))


def _parse_polyhedron_list(obj, path):
    items = _get(obj, "items", path, list)
    return [_parse_polyhedron(p, "%s.items[%d]" % (path, i))
            for i, p in enumerate(items)]


# kind -> (Python types, emitter, parser); kind_of tries the types in order
_KINDS = {
    "polyhedron": (Polyhedron, _emit_polyhedron, _parse_polyhedron),
    "weighted-complex": (WeightedComplex, _emit_weighted_complex, _parse_weighted_complex),
    "complex": (Complex, _emit_complex, _parse_complex),
    "superform": (Superform, _emit_superform, _parse_superform),
    "map": (AffineMap, _emit_map, _parse_map),
    "tropical-polynomial": (TropicalPolynomial, _emit_tropical_polynomial,
                            _parse_tropical_polynomial),
    "polyhedron-list": ((list, tuple), _emit_polyhedron_list, _parse_polyhedron_list),
}


def kind_of(obj):
    if obj is EMPTY:
        return "polyhedron"
    for kind, (types, _, _) in _KINDS.items():
        if isinstance(obj, types):
            return kind
    raise SchemaError("cannot serialize object of type %r" % (type(obj).__name__,))


def emit(obj, kind=None):
    """Serialize a domain object to canonical trop/1 JSON text."""
    if kind is None:
        kind = kind_of(obj)
    doc = {"format": FORMAT, "kind": kind}
    doc.update(_KINDS[kind][1](obj))
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def parse(text, expect=None):
    """Parse trop/1 JSON text into the corresponding domain object.

    expect, if given, is the tuple of kinds accepted; any other kind is
    rejected before its parser runs. Raises SchemaError (naming the
    offending field) for schema violations and ValueError with position
    information for malformed JSON, or for JSON nested too deeply for the
    parser."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError("syntax error at line %d column %d: %s"
                         % (e.lineno, e.colno, e.msg))
    except RecursionError:
        raise ValueError("document nested too deeply to parse")
    if not isinstance(obj, dict):
        raise SchemaError("$: top-level value must be an object")
    fmt = _get(obj, "format", "$")
    if fmt != FORMAT:
        _fail("$.format", "unsupported format %r (expected %r)" % (fmt, FORMAT))
    kind = _get(obj, "kind", "$", str)
    if kind not in _KINDS:
        _fail("$.kind", "unknown kind %r" % (kind,))
    if expect is not None and kind not in expect:
        _fail("$.kind", "expected %s, got %r"
              % (" or ".join(map(repr, expect)), kind))
    return _KINDS[kind][2](obj, "$")

