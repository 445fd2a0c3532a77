"""Interchange documents and the command-line interface."""

import json
import random
from fractions import Fraction

import pytest

from conftest import box, rand_form, segment

from tropform import io as tio
from tropform.cli import main
from tropform.cycle import WeightedComplex
from tropform.hypersurface import tropical_polynomial
from tropform.integrate import integrate_boundary, integrate_complex_boundary
from tropform.polyhedra import Complex, complex_from_cells, from_generators, from_halfspaces
from tropform.superform import AffineMap, Polynomial, basis_form


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
