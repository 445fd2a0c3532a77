"""Interchange documents and the command-line interface."""

import contextlib
import copy
import io
import json
import os
import random
import sys
import tempfile
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import box, rand_form, segment

from tropform import io as tio
from tropform import polyhedra
from tropform.cli import build_parser, main
from tropform.cycle import WeightedComplex
from tropform.hypersurface import corner_locus, tropical_polynomial
from tropform.integrate import integrate_boundary, integrate_complex_boundary
from tropform.polyhedra import (
    EMPTY,
    Complex,
    complex_from_cells,
    from_generators,
    from_halfspaces,
)
from tropform.superform import MAX_TERMS, AffineMap, Polynomial, Superform, basis_form


def ray(d):
    return from_generators([(0, 0)], [d], [], 2)


def corpus():
    sq = box(2)
    line = WeightedComplex([(ray((1, 0)), 1), (ray((0, 1)), 1),
                            (ray((-1, -1)), 1)])
    form = basis_form(2, (0,), (1,), Polynomial(2, {(1, 2): Fraction(1, 3)}))
    fmap = AffineMap([[1, 2], [0, 1]], [Fraction(1, 2), Fraction(-3)])
    tp = tropical_polynomial([((1, 0), Fraction(1, 3)), ((0, 1), 0),
                              ((0, 0), -2)], 2)
    cx = complex_from_cells([box(2), box(2, 1, 2)])
    return [sq, line, form, fmap, tp, cx]


def test_round_trip_corpus():
    for obj in corpus():
        text = tio.emit(obj)
        again = tio.parse(text)
        assert tio.emit(again) == text


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _vectors(r, entries):
    return st.tuples(*[entries] * r)


def _polyhedra(r):
    """Polytopes, unbounded polyhedra and polyhedra with lineality, some of
    them lower-dimensional; zero rays and lines are allowed."""
    small = st.integers(-2, 2)
    return st.builds(lambda pts, rays, lines: from_generators(pts, rays, lines, r),
                     st.lists(_vectors(r, _RATIONALS), min_size=1, max_size=4),
                     st.lists(_vectors(r, small), max_size=2),
                     st.lists(_vectors(r, small), max_size=1))


def _superforms(r):
    def build(pq):
        keys = st.tuples(st.sampled_from(list(combinations(range(r), pq[0]))),
                         st.sampled_from(list(combinations(range(r), pq[1]))))
        polys = st.builds(lambda t: Polynomial(r, t),
                          st.dictionaries(_vectors(r, st.integers(0, 3)), _RATIONALS,
                                          max_size=3))
        return st.builds(lambda comps: Superform(r, *pq, comps),
                         st.dictionaries(keys, polys, max_size=3))
    return st.tuples(st.integers(0, r), st.integers(0, r)).flatmap(build)


def _maps(r):
    return st.integers(1, 3).flatmap(lambda k: st.builds(
        AffineMap, st.lists(_vectors(k, st.integers(-3, 3)), min_size=r, max_size=r),
        st.lists(_RATIONALS, min_size=r, max_size=r)))


def _tropical_polynomials(r):
    return st.builds(lambda terms, convention: tropical_polynomial(
                         list(terms.items()), r, convention),
                     st.dictionaries(_vectors(r, st.integers(0, 2)), _RATIONALS,
                                     min_size=2, max_size=4),
                     st.sampled_from(["min", "max"]))


def _documents():
    """Objects of every kind with a trop/1 emitter, corner loci included,
    in R^1 to R^3 (corner loci in R^1 and R^2)."""
    return st.integers(1, 3).flatmap(lambda r: st.one_of(
        _polyhedra(r), _superforms(r), _maps(r), _tropical_polynomials(r),
        _tropical_polynomials(min(r, 2)).map(corner_locus)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_documents())
def test_emit_parse_emit_is_a_fixed_point(obj):
    text = tio.emit(obj)
    assert tio.emit(tio.parse(text)) == text


def test_rational_survives_exactly():
    form = basis_form(1, (0,), (0,), Polynomial(1, {(0,): Fraction(1, 3)}))
    text = tio.emit(form)
    assert '"1/3"' in text
    back = tio.parse(text)
    assert back.coefficient((0,), (0,)).terms[(0,)] == Fraction(1, 3)


def test_schema_error_names_field():
    doc = {"format": "trop/1", "kind": "polyhedron", "ambient_dim": 2,
           "halfspaces": [{"u": [1, "x"], "c": "0"}]}
    with pytest.raises(tio.SchemaError) as e:
        tio.parse(json.dumps(doc))
    assert "u" in str(e.value)


def test_parse_rejects_bad_format_and_kind():
    with pytest.raises(tio.SchemaError):
        tio.parse('{"format": "trop/2", "kind": "polyhedron"}')
    with pytest.raises(tio.SchemaError):
        tio.parse('{"format": "trop/1", "kind": "mystery"}')
    with pytest.raises(ValueError):
        tio.parse("{not json")


def test_wrong_kind_is_rejected_before_its_parser_runs(tmp_path, capsys):
    # the cells are malformed, so only the kind check can produce this message
    doc = '{"format": "trop/1", "kind": "weighted-complex", "cells": 7}'
    with pytest.raises(tio.SchemaError, match=r"^\$\.kind: expected "
                       r"'polyhedron' or 'map', got 'weighted-complex'$"):
        tio.parse(doc, expect=("polyhedron", "map"))
    c = _write(tmp_path, "c.json", box(1))
    a = _write(tmp_path, "a.json",
               basis_form(1, (0,), (0,), Polynomial(1, {(1,): Fraction(1)})))
    w = tmp_path / "w.json"
    w.write_text(doc)
    assert main(["integrate", c, a, "--window", str(w)]) == 2
    assert ("$.kind: expected 'polyhedron', got 'weighted-complex'"
            in capsys.readouterr().err)


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(tio.emit(obj))
    return str(path)


def test_cli_check_balancing(tmp_path, capsys):
    line = WeightedComplex([(ray((1, 0)), 1), (ray((0, 1)), 1),
                            (ray((-1, -1)), 1)])
    p = _write(tmp_path, "line.json", line)
    assert main(["check-balancing", p]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["balanced"] is True
    bad = WeightedComplex([(ray((1, 0)), 1), (ray((0, 1)), 1)])
    p2 = _write(tmp_path, "bad.json", bad)
    assert main(["check-balancing", p2]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["balanced"] is False
    assert out["violations"]


def test_cli_stokes_end_to_end(tmp_path, capsys):
    rng = random.Random(61)
    sq = _write(tmp_path, "square.json", box(2))
    ep = _write(tmp_path, "etap.json", rand_form(rng, 2, 1, 2))
    es = _write(tmp_path, "etas.json", rand_form(rng, 2, 2, 1))
    assert main(["stokes", sq, ep, es]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["residuals"] == ["0", "0"]


def test_cli_integrate_and_window(tmp_path, capsys):
    wc = WeightedComplex([(segment((0,), (1,)), 1), (segment((1,), (2,)), 1)])
    c = _write(tmp_path, "c.json", wc)
    a = _write(tmp_path, "a.json",
               basis_form(1, (0,), (0,), Polynomial(1, {(1,): Fraction(1)})))
    w = _write(tmp_path, "w.json", box(1, -5, 5))
    assert main(["integrate", c, a, "--window", w]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "2"


def test_cli_integrate_boundary_on_a_cell_and_a_complex(tmp_path, capsys):
    eta = rand_form(random.Random(5), 2, 1, 2, deg=2)
    e = _write(tmp_path, "eta.json", eta)
    square = box(2)
    wc = WeightedComplex([(square, 2), (box(2, 1, 3), -1)])
    for domain, want in ((square, integrate_boundary(square, eta)),
                         (wc, integrate_complex_boundary(wc, eta))):
        assert want != 0
        d = _write(tmp_path, "d.json", domain)
        assert main(["integrate-boundary", d, e]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["command"], out["value"]) == ("integrate-boundary",
                                                  tio.rational_str(want))


def test_cli_pushforward_and_out(tmp_path, capsys):
    f = _write(tmp_path, "f.json", AffineMap([[2]], [Fraction(0)]))
    wc = _write(tmp_path, "wc.json",
                WeightedComplex([(segment((0,), (1,)), 1)]))
    dest = tmp_path / "out.json"
    assert main(["pushforward", f, wc, "--out", str(dest)]) == 0
    result = tio.parse(dest.read_text(), expect=("weighted-complex",))
    assert result.weighted_cells()[0][1] == 2


def test_cli_hypersurface_chain(tmp_path, capsys):
    tp = _write(tmp_path, "tp.json",
                tropical_polynomial([((1, 0), 0), ((0, 1), 0), ((0, 0), 0)], 2))
    dest = tmp_path / "locus.json"
    assert main(["hypersurface", tp, "--out", str(dest)]) == 0
    assert main(["check-balancing", str(dest)]) == 0


def test_cli_projection_check(tmp_path, capsys):
    f = _write(tmp_path, "f.json", AffineMap([[2]], [Fraction(0)]))
    wc = _write(tmp_path, "wc.json",
                WeightedComplex([(segment((0,), (1,)), 1)]))
    a = _write(tmp_path, "a.json", basis_form(1, (0,), (0,)))
    w = _write(tmp_path, "w.json", box(1, 0, 2))
    assert main(["projection-check", f, wc, a, "--window", w]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pushforward_integral"] == "4"
    assert out["equal"] is True


def test_cli_current_eval(tmp_path, capsys):
    wc = _write(tmp_path, "wc.json",
                WeightedComplex([(segment((0,), (2,)), 1)]))
    alpha = _write(tmp_path, "alpha.json",
                   basis_form(1, (), (0,), Polynomial(1, {(2,): Fraction(1)})))
    w = _write(tmp_path, "w.json", box(1, -5, 5))
    assert main(["current-eval", wc, alpha, "--window", w, "--ops", "d'"]) == 0
    out = json.loads(capsys.readouterr().out)
    # (d' delta)(x^2 d''x) = -delta(d'(x^2 d''x)) = -4
    assert out["value"] == "-4"


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    wc = _write(tmp_path, "wc.json",
                WeightedComplex([(segment((0,), (2,)), 1)]))
    alpha = _write(tmp_path, "alpha.json",
                   basis_form(1, (), (0,), Polynomial(1, {(2,): Fraction(1)})))
    a = _write(tmp_path, "a.json",
               basis_form(1, (0,), (0,), Polynomial(1, {(1,): Fraction(1)})))
    w = _write(tmp_path, "w.json", box(1, -5, 5))
    assert build_parser() is build_parser()
    assert main(["current-eval", wc, alpha, "--window", w, "--ops", "d'"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "-4"
    # the next call applies no operator: delta(x d'x ^ d''x) on [0, 2] is 2
    assert build_parser().parse_args(["current-eval", wc, a]).ops == []
    assert main(["current-eval", wc, a, "--window", w]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "2"


def _polyhedron_doc(empty, r=2):
    return json.dumps({"format": "trop/1", "kind": "polyhedron", "ambient_dim": r,
                       "halfspaces": [], "equalities": [], "empty": empty})


def test_empty_true_needs_no_double_description(tmp_path, capsys, monkeypatch):
    dd_calls = []
    dd = polyhedra.dual_description
    monkeypatch.setattr(polyhedra, "dual_description",
                        lambda *args: dd_calls.append(args) or dd(*args))
    # no row of length 2^70 is built
    assert tio.parse(_polyhedron_doc(True, 2 ** 70)) is EMPTY
    assert dd_calls == []
    big = tmp_path / "big.json"
    big.write_text(_polyhedron_doc(True, 2 ** 70))
    assert main(["faces", str(big), "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert tio.parse(_polyhedron_doc(False)) == from_halfspaces([], 2)


def test_empty_must_be_a_json_boolean(tmp_path, capsys):
    for value in ([1], 1, "true", None):
        with pytest.raises(tio.SchemaError, match=r"\$\.empty"):
            tio.parse(_polyhedron_doc(value))
    bad = tmp_path / "bad.json"
    bad.write_text(_polyhedron_doc([1]))
    assert main(["faces", str(bad), "0"]) == 2
    assert "$.empty" in capsys.readouterr().err


@pytest.mark.parametrize("r", [2 ** 70, 10 ** 5, tio.MAX_DIM + 1])
def test_dimension_above_the_limit_exits_2_before_anything_is_built(
        tmp_path, capsys, monkeypatch, r):
    """A nonempty polyhedron, a superform, a tropical polynomial and a map
    that give a dimension above MAX_DIM are schema errors, found before a
    double description or any list of that length is built."""
    dd_calls = []
    dd = polyhedra.dual_description
    monkeypatch.setattr(polyhedra, "dual_description",
                        lambda *args: dd_calls.append(args) or dd(*args))
    docs = [
        ("ambient_dim", _polyhedron_doc(False, r)),
        ("ambient_dim", json.dumps({"format": "trop/1", "kind": "superform",
                                    "ambient_dim": r, "p": 0, "q": 0, "components": []})),
        ("ambient_dim", json.dumps({"format": "trop/1", "kind": "tropical-polynomial",
                                    "ambient_dim": r, "terms": []})),
        ("codomain_dim", json.dumps({"format": "trop/1", "kind": "map", "domain_dim": 1,
                                     "codomain_dim": r, "linear": [], "translate": []})),
    ]
    for field, text in docs:
        with pytest.raises(tio.SchemaError, match=r"^\$\.%s: must be" % field):
            tio.parse(text)
    assert dd_calls == []
    big = tmp_path / "big.json"
    big.write_text(_polyhedron_doc(False, r))
    assert main(["faces", str(big), "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "$.ambient_dim: must be between 0 and %d" % tio.MAX_DIM in captured.err
    assert "Traceback" not in captured.err
    assert dd_calls == []


def test_dimension_at_the_limit_is_accepted():
    whole = tio.parse(_polyhedron_doc(False, tio.MAX_DIM))
    assert whole == from_halfspaces([], tio.MAX_DIM)
    assert whole.dim == tio.MAX_DIM


def test_cli_faces_refine_truncate_validate(tmp_path, capsys):
    sq = _write(tmp_path, "sq.json", box(2))
    assert main(["faces", sq, "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["items"]) == 4
    cx = _write(tmp_path, "cx.json", complex_from_cells([box(2, 0, 2)]))
    dx = _write(tmp_path, "dx.json",
                complex_from_cells([box(2, 0, 1), box(2, 1, 2)]))
    assert main(["refine", cx, dx]) == 0
    capsys.readouterr()
    assert main(["validate", cx]) == 0
    capsys.readouterr()
    w = _write(tmp_path, "w.json", box(2, 0, 1))
    assert main(["truncate", cx, w]) == 0
    capsys.readouterr()


def test_cli_validate_reports_structured_violations(tmp_path, capsys):
    # overlapping boxes: after face closure, their intersections with each
    # other and with each other's faces are not common faces
    a, b = box(2, 0, 2), box(2, 1, 3)
    bad = _write(tmp_path, "bad.json", Complex([a, b]))
    assert main(["validate", bad]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False
    assert out["violations"]
    assert {v["kind"] for v in out["violations"]} == {"not-a-common-face"}
    assert all(sorted(v) == ["cells", "intersection", "kind"] for v in out["violations"])
    emit = tio._emit_polyhedron
    assert {"kind": "not-a-common-face", "cells": [emit(a), emit(b)],
            "intersection": emit(box(2, 1, 2))} in out["violations"]


def test_cli_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["check-balancing", missing]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["integrate", str(bad), str(bad)]) == 2
    capsys.readouterr()
    # wrong kind is an input error
    sq = _write(tmp_path, "sq.json", box(2))
    assert main(["check-balancing", sq]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2


def _empty_polyhedron_doc(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"format": "trop/1", "kind": "polyhedron",
                                "ambient_dim": 2, "halfspaces": [],
                                "equalities": [], "empty": True}))
    return str(path)


def _mixed_ambient_doc(tmp_path):
    """A weighted complex with one segment in R^1 and one in R^2."""
    cells = []
    for seg in (segment((0,), (1,)), segment((0, 0), (1, 0))):
        body = json.loads(tio.emit(seg))
        del body["format"], body["kind"]
        cells.append({"polyhedron": body, "weight": 1})
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"format": "trop/1", "kind": "weighted-complex",
                                "ambient_dim": 2, "cells": cells}))
    return str(path)


@pytest.mark.parametrize("probe", ["faces-empty", "refine-2d-3d",
                                   "truncate-unbounded", "out-missing-dir",
                                   "truncate-weighted-unbounded",
                                   "pushforward-domain-r1", "pushforward-domain-r3",
                                   "projection-check-domain-r1",
                                   "check-balancing-mixed-ambient", "deep-nesting",
                                   "refine-2d-whole-r3", "kind-not-a-string",
                                   "equalities-number", "equalities-true",
                                   "equalities-null"])
def test_cli_library_value_errors_exit_2(tmp_path, capsys, probe):
    half_plane = from_halfspaces([((1, 0), Fraction(1))], 2)
    planar = WeightedComplex([(segment((0, 0), (1, 1)), 1)])
    if probe == "faces-empty":
        argv = ["faces", _empty_polyhedron_doc(tmp_path), "0"]
    elif probe == "refine-2d-3d":
        argv = ["refine",
                _write(tmp_path, "c2.json", complex_from_cells([box(2)])),
                _write(tmp_path, "c3.json", complex_from_cells([box(3)]))]
    elif probe == "refine-2d-whole-r3":
        # a cell of R^3 with no halfspaces cuts nothing, yet is not in R^2
        whole = from_halfspaces([], 3)
        argv = ["refine",
                _write(tmp_path, "c2.json", complex_from_cells([box(2)])),
                _write(tmp_path, "c3.json", complex_from_cells([whole]))]
    elif probe == "kind-not-a-string":
        path = tmp_path / "kind.json"
        path.write_text(json.dumps({"format": "trop/1", "kind": []}))
        argv = ["faces", str(path), "0"]
    elif probe.startswith("equalities-"):
        value = {"number": 3, "true": True, "null": None}[probe.split("-")[1]]
        path = tmp_path / "eq.json"
        path.write_text(json.dumps({"format": "trop/1", "kind": "polyhedron",
                                    "ambient_dim": 1, "halfspaces": [],
                                    "equalities": value}))
        argv = ["faces", str(path), "0"]
    elif probe == "truncate-unbounded":
        argv = ["truncate",
                _write(tmp_path, "cx.json", complex_from_cells([box(2)])),
                _write(tmp_path, "w.json", half_plane)]
    elif probe == "out-missing-dir":
        argv = ["faces", _write(tmp_path, "sq.json", box(2)), "1",
                "--out", str(tmp_path / "no" / "such" / "dir.json")]
    elif probe == "truncate-weighted-unbounded":
        argv = ["truncate",
                _write(tmp_path, "wc.json", WeightedComplex([(box(2), 1)])),
                _write(tmp_path, "w.json", half_plane)]
    elif probe.startswith("pushforward-domain-"):
        # a map on R^1 or on R^3 does not act on a cycle in R^2
        linear = [[1]] if probe.endswith("r1") else [[1, 1, 1]]
        argv = ["pushforward",
                _write(tmp_path, "f.json", AffineMap(linear, [Fraction(0)])),
                _write(tmp_path, "wc.json", planar)]
    elif probe == "projection-check-domain-r1":
        argv = ["projection-check",
                _write(tmp_path, "f.json", AffineMap([[1]], [Fraction(0)])),
                _write(tmp_path, "wc.json", planar),
                _write(tmp_path, "a.json", basis_form(1, (0,), (0,))),
                "--window", _write(tmp_path, "w.json", box(1, 0, 2))]
    elif probe == "deep-nesting":
        # deeper than the JSON parser's recursion limit
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        argv = ["faces", str(path), "1"]
    else:
        argv = ["check-balancing", _mixed_ambient_doc(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    if probe == "check-balancing-mixed-ambient":
        assert "$.cells" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def _form_doc(exponents):
    body = json.loads(tio.emit(basis_form(1, (0,), (0,))))
    body["components"][0]["poly"][0]["exponents"] = exponents
    return json.dumps(body)


@pytest.mark.parametrize("e", [tio.MAX_DEGREE + 1, 10 ** 6, 2 ** 70])
def test_degree_above_the_limit_exits_2(tmp_path, capsys, e):
    """A superform term of total degree above MAX_DEGREE is a schema error
    naming its exponents; integrating it would read moments for every
    divisor of the exponent."""
    field = r"^\$\.components\[0\]\.poly\[0\]\.exponents: total degree must be"
    with pytest.raises(tio.SchemaError, match=field):
        tio.parse(_form_doc([e]))
    at_limit = tio.parse(_form_doc([tio.MAX_DEGREE])).coefficient((0,), (0,))
    assert at_limit.terms == {(tio.MAX_DEGREE,): 1}
    seg = _write(tmp_path, "seg.json", segment((0,), (1,)))
    a = tmp_path / "a.json"
    a.write_text(_form_doc([e]))
    w = _write(tmp_path, "w.json", box(1, -1, 2))
    for argv in (["integrate", seg, str(a)],
                 ["current-eval", _write(tmp_path, "wc.json",
                                         WeightedComplex([(segment((0,), (1,)), 1)])),
                  str(a), "--window", w]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "exponents: total degree must be at most %d" % tio.MAX_DEGREE in captured.err
        assert "Traceback" not in captured.err


@contextlib.contextmanager
def _int_str_limit(digits):
    """CPython's limit on int <-> str conversion set to digits, then restored."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_rationals_print_at_any_size_and_longer_strings_exit_2(tmp_path, capsys):
    """The integral of x^64 d'x ^ d''x over [0, 10^2000] is 2 10^129999 / 13,
    far past CPython's 4300-digit limit on int-to-str conversion: it prints
    exactly, whatever the limit.  A rational string with a numerator or
    denominator of more than MAX_DIGITS digits, written or appended by an
    exponent, exits 2 with a message that names the limit and not the
    number."""
    seg = _write(tmp_path, "seg.json", segment((0,), (10 ** 2000,)))
    form = tmp_path / "form.json"
    form.write_text(_form_doc([64]))
    text = "2" + "0" * 129999 + "/13"
    with _int_str_limit(4300):
        assert main(["integrate", seg, str(form)]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == text
    rng = random.Random(3)
    values = [-10 ** 700] + [
        Fraction(rng.getrandbits(b) - rng.getrandbits(b), rng.getrandbits(c) | 1)
        for b, c in ((2049, 9000), (40000, 2050), (9000, 1))]
    with _int_str_limit(0):
        texts = [str(x) for x in values]
    with _int_str_limit(640):
        assert tio.rational_str(Fraction(2 * 10 ** 129999, 13)) == text
        assert [tio.rational_str(x) for x in values] == texts
    doc = json.loads(tio.emit(segment((0,), (1,))))
    limit = tio.MAX_DIGITS
    for c in ("9" * limit, "1/" + "3" * limit, "1e%d" % (limit - 1), "-2.5E-%d" % (limit - 2)):
        doc["halfspaces"][1]["c"] = c
        assert tio.parse(json.dumps(doc)) == from_halfspaces([((-1,), 0), ((1,), Fraction(c))], 1)
    big = tmp_path / "big.json"
    for c in ("9" * 4400, "9" * (limit + 1), "1/" + "3" * (limit + 1), "1e%d" % limit,
              "1e-1000000000", "1e" + "9" * 5000, " 1_0e+0_%d" % limit):
        doc["halfspaces"][1]["c"] = c
        big.write_text(json.dumps(doc))
        assert main(["integrate", str(big), str(form)]) == 2
        err = capsys.readouterr().err
        assert "$.halfspaces[1].c: numerator or denominator longer than MAX_DIGITS = %d " \
               "digits" % limit in err
        assert c.strip() not in err


@pytest.mark.parametrize("command", ["projection-check", "integrate"])
def test_term_bound_exits_2_before_anything_is_built(tmp_path, capsys, command):
    """Past superform.MAX_TERMS: pulling x^14 back along the all-ones map
    from R^14 may build C(28, 14) terms, and integrating x_1...x_19 over a
    segment in R^19 reads a moment for each of its 2^19 divisors."""
    if command == "projection-check":
        r = 14
        argv = [command, _write(tmp_path, "f.json", AffineMap([[1] * r], [0])),
                _write(tmp_path, "wc.json", WeightedComplex([(from_generators([(0,) * r]), 1)])),
                _write(tmp_path, "a.json", basis_form(1, (), (), Polynomial(1, {(r,): 1}))),
                "--window", _write(tmp_path, "w.json", box(1, -1, 1))]
    else:
        r = 19
        argv = [command, _write(tmp_path, "seg.json", segment((0,) * r, (1,) * r)),
                _write(tmp_path, "a.json",
                       basis_form(r, (0,), (0,), Polynomial(r, {(1,) * r: 1})))]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "more than %d" % MAX_TERMS in err


# The document arguments of every subcommand and the kinds each accepts, in
# the order the subcommand loads them.  Written out here, not read from the
# command table, so a loader that checks the wrong kinds is caught.
_P, _WC, _SF = ("polyhedron",), ("weighted-complex",), ("superform",)
_DOMAIN, _CX = ("polyhedron", "weighted-complex"), ("complex",)
DOCUMENT_ARGUMENTS = {
    "check-balancing": [("cycle", _WC)],
    "integrate": [("domain", _DOMAIN), ("--window", _P), ("form", _SF)],
    "integrate-boundary": [("domain", _DOMAIN), ("--window", _P), ("form", _SF)],
    "stokes": [("domain", _DOMAIN), ("--window", _P), ("eta_prime", _SF),
               ("eta_second", _SF)],
    "green": [("domain", _P), ("alpha", _SF), ("beta", _SF)],
    "pushforward": [("map", ("map",)), ("cycle", _WC)],
    "projection-check": [("map", ("map",)), ("cycle", _WC), ("form", _SF),
                         ("--window", _P)],
    "current-eval": [("cycle", _WC), ("form", _SF), ("--window", _P)],
    "hypersurface": [("polynomial", ("tropical-polynomial",))],
    "refine": [("complex", _CX), ("other", _CX)],
    "truncate": [("complex", ("complex", "weighted-complex")), ("box", _P)],
    "faces": [("polyhedron", _P)],
    "validate": [("complex", _CX)],
}


def _kind_samples():
    """One valid document object of each kind, in the order wrong kinds are
    picked."""
    sq, line, form, fmap, tp, cx = corpus()
    return {"polyhedron": sq, "weighted-complex": line, "complex": cx,
            "superform": form, "map": fmap, "tropical-polynomial": tp}


def _argv(command, paths):
    """The call of command with the documents at paths, positionals first,
    then the codimension of faces, then the options."""
    arguments = DOCUMENT_ARGUMENTS[command]
    argv = [command] + [paths[n] for n, _ in arguments if not n.startswith("-")]
    if command == "faces":
        argv.append("1")
    for n, _ in arguments:
        if n.startswith("-"):
            argv += [n, paths[n]]
    return argv


@pytest.mark.parametrize("command,argument", [
    (c, n) for c, arguments in DOCUMENT_ARGUMENTS.items() for n, _ in arguments])
def test_every_document_argument_rejects_a_wrong_kind(tmp_path, capsys,
                                                      command, argument):
    assert sum(map(len, DOCUMENT_ARGUMENTS.values())) == 30
    samples = _kind_samples()
    paths, expected = {}, None
    for n, kinds in DOCUMENT_ARGUMENTS[command]:
        if n == argument:
            wrong = next(k for k in samples if k not in kinds)
            expected = "$.kind: expected %s, got %r" % (
                " or ".join(map(repr, kinds)), wrong)
            kind = wrong
        else:
            kind = kinds[0]
        paths[n] = _write(tmp_path, n.lstrip("-") + ".json", samples[kind])
    assert main(_argv(command, paths)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s: %s\n" % (paths[argument], expected)


def _fuzz_documents():
    line = WeightedComplex([(ray((1, 0)), 1), (ray((0, 1)), 1),
                            (ray((-1, -1)), 1)])
    poly = Polynomial(2, {(1, 2): Fraction(1, 3), (0, 0): Fraction(2)})
    objs = {
        "square": box(2), "window": box(2, -2, 2), "line": line,
        "form22": basis_form(2, (0, 1), (0, 1), poly),
        "form12": basis_form(2, (0,), (0, 1), poly),
        "form21": basis_form(2, (0, 1), (1,), poly),
        "form11": basis_form(2, (0,), (1,), poly),
        "form01": basis_form(2, (), (0,), poly),
        "alpha": basis_form(2, (), (), poly),
        "beta": basis_form(2, (0,), (0,), poly) + basis_form(2, (1,), (1,), poly),
        "map": AffineMap([[1, 2], [0, 1]], [Fraction(1, 2), Fraction(-3)]),
        "tp": tropical_polynomial([((1, 0), Fraction(1, 3)), ((0, 1), 0),
                                   ((0, 0), -2)], 2),
        "cx": complex_from_cells([box(2), box(2, 1, 2)]),
        "cx2": complex_from_cells([box(2, 0, 2)]),
    }
    return {name: json.loads(tio.emit(obj)) for name, obj in objs.items()}


FUZZ_DOCUMENTS = _fuzz_documents()
# each subcommand with valid documents named by their keys in FUZZ_DOCUMENTS
FUZZ_CALLS = {
    "check-balancing": ["line"],
    "integrate": ["square", "form22", "--window", "window"],
    "integrate-boundary": ["square", "form12"],
    "stokes": ["square", "form12", "form21", "--window", "window"],
    "green": ["square", "alpha", "beta"],
    "pushforward": ["map", "line"],
    "projection-check": ["map", "line", "form11", "--window", "window"],
    "current-eval": ["line", "form01", "--window", "window", "--ops", "d'"],
    "hypersurface": ["tp"],
    "refine": ["cx", "cx2"],
    "truncate": ["cx", "window"],
    "faces": ["square", "1"],
    "validate": ["cx"],
}
DELETE = object()


def _json_paths(value, prefix=()):
    """The path of every value nested in value, itself excluded."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out += _json_paths(child, prefix + (key,))
    return out


def _fuzz_targets(command):
    """(document name, path) of every value the fuzz may replace."""
    return [(name, path) for name in FUZZ_CALLS[command] if name in FUZZ_DOCUMENTS
            for path in _json_paths(FUZZ_DOCUMENTS[name])]


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


# the exponent of a (2, 2)-form's term set to 2^70: before the degree limit,
# integrating it raised OverflowError out of main
_BIG_EXPONENT = _fuzz_targets("integrate").index(
    ("form22", ("components", 0, "poly", 0, "exponents", 0)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(FUZZ_CALLS)), target=st.integers(0, 10 ** 6),
       value=st.sampled_from([DELETE, 0, -1, 3, 2 ** 70, "1/0", "x", [], {},
                              None, True, [0, 0]]))
@example(command="integrate", target=_BIG_EXPONENT, value=2 ** 70)
def test_cli_fuzz_exits_0_1_or_2(command, target, value):
    """One value of one valid document replaced, deleted or retyped: every
    subcommand still returns 0, 1 or 2 and lets no exception escape."""
    targets = _fuzz_targets(command)
    name, path = targets[target % len(targets)]
    with tempfile.TemporaryDirectory() as d:
        argv = [command]
        for arg in FUZZ_CALLS[command]:
            if arg in FUZZ_DOCUMENTS:
                doc = FUZZ_DOCUMENTS[arg]
                if arg == name:
                    doc = _mutated(doc, path, value)
                arg = os.path.join(d, arg + ".json")
                with open(arg, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            argv.append(arg)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
