"""Command-line front end.

Every subcommand reads trop/1 JSON documents from file paths (or "-" for
standard input) and writes its result to standard output or --out.  Exit
status: 0 on success, 1 when a mathematical check fails (nonzero residual,
balancing violations, unequal projection integrals, invalid complex), 2 on
malformed input or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as tio
from .cycle import (
    Current,
    check_balancing,
    current_eval,
    projection_check,
    pushforward,
)
from .hypersurface import corner_locus
from .integrate import (
    green_residual,
    integrate_boundary,
    integrate_complex,
    integrate_complex_boundary,
    integrate_polytope,
    stokes_residual,
)
from .polyhedra import faces, intersect, refine, truncate, validate_complex


class InputError(Exception):
    pass


class CheckFailure(Exception):
    """Mathematical check failed; carries the report to print."""

    def __init__(self, report):
        super().__init__("check failed")
        self.report = report


def _read(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e.strerror))


def _load(path, *kinds):
    """Parse the document at path; its kind must be one of kinds."""
    try:
        return tio.parse(_read(path), expect=kinds)
    except (tio.SchemaError, ValueError) as e:
        raise InputError("%s: %s" % (path, e))


def _report(command, body):
    doc = {"format": tio.FORMAT, "kind": "report", "command": command}
    doc.update(body)
    return json.dumps(doc, indent=2) + "\n"


def _maybe_truncate(domain, args):
    window = getattr(args, "window", None)
    if window is None:
        return domain
    box = _load(window, "polyhedron")
    if hasattr(domain, "truncated"):
        return domain.truncated(box)
    return intersect(domain, box)


# ---------------------------------------------------------------------------
# subcommands; each returns the output text and may raise CheckFailure

def _cmd_check_balancing(args):
    wc = _load(args.cycle, "weighted-complex")
    violations = check_balancing(wc)
    body = {
        "balanced": not violations,
        "violations": [
            {"face": tio._emit_polyhedron(rho),
             "excess": [tio.rational_str(x) for x in t]}
            for rho, t in violations
        ],
    }
    text = _report("check-balancing", body)
    if violations:
        raise CheckFailure(text)
    return text


def _cmd_integrate(args):
    """``integrate`` and ``integrate-boundary``, told apart by args.command."""
    domain = _maybe_truncate(_load(args.domain, "polyhedron", "weighted-complex"), args)
    form = _load(args.form, "superform")
    if args.command == "integrate":
        cell, cells = integrate_polytope, integrate_complex
    else:
        cell, cells = integrate_boundary, integrate_complex_boundary
    value = (cells if hasattr(domain, "weighted_cells") else cell)(domain, form)
    return _report(args.command, {"value": tio.rational_str(value)})


def _cmd_stokes(args):
    domain = _maybe_truncate(_load(args.domain, "polyhedron", "weighted-complex"), args)
    eta_prime = _load(args.eta_prime, "superform")
    eta_second = _load(args.eta_second, "superform")
    r1, r2 = stokes_residual(domain, eta_prime, eta_second)
    text = _report("stokes", {
        "residuals": [tio.rational_str(r1), tio.rational_str(r2)],
        "ok": r1 == 0 and r2 == 0,
    })
    if r1 != 0 or r2 != 0:
        raise CheckFailure(text)
    return text


def _cmd_green(args):
    sigma = _load(args.domain, "polyhedron")
    alpha = _load(args.alpha, "superform")
    beta = _load(args.beta, "superform")
    res = green_residual(sigma, alpha, beta)
    text = _report("green", {"residual": tio.rational_str(res), "ok": res == 0})
    if res != 0:
        raise CheckFailure(text)
    return text


def _cmd_pushforward(args):
    f = _load(args.map, "map")
    wc = _load(args.cycle, "weighted-complex")
    return tio.emit(pushforward(f, wc))


def _cmd_projection_check(args):
    f = _load(args.map, "map")
    wc = _load(args.cycle, "weighted-complex")
    form = _load(args.form, "superform")
    if args.window is None:
        raise InputError("projection-check requires --window")
    window = _load(args.window, "polyhedron")
    left, right = projection_check(f, wc, form, window)
    text = _report("projection-check", {
        "pushforward_integral": tio.rational_str(left),
        "pullback_integral": tio.rational_str(right),
        "equal": left == right,
    })
    if left != right:
        raise CheckFailure(text)
    return text


def _cmd_current_eval(args):
    wc = _load(args.cycle, "weighted-complex")
    form = _load(args.form, "superform")
    if args.window is None:
        raise InputError("current-eval requires --window")
    window = _load(args.window, "polyhedron")
    cur = Current.dirac(wc)
    for op in args.ops:
        cur = cur.apply({"d'": "d_prime", "d''": "d_second"}[op])
    value = current_eval(cur, form, window)
    return _report("current-eval", {"value": tio.rational_str(value)})


def _cmd_hypersurface(args):
    tp = _load(args.polynomial, "tropical-polynomial")
    return tio.emit(corner_locus(tp), kind="weighted-complex")


def _cmd_refine(args):
    c = _load(args.complex, "complex")
    d = _load(args.other, "complex")
    return tio.emit(refine(c, d), kind="complex")


def _cmd_truncate(args):
    obj = _load(args.complex, "complex", "weighted-complex")
    box = _load(args.box, "polyhedron")
    if hasattr(obj, "truncated"):
        return tio.emit(obj.truncated(box))
    return tio.emit(truncate(obj, box))


def _cmd_faces(args):
    p = _load(args.polyhedron, "polyhedron")
    return tio.emit(faces(p, args.codim), kind="polyhedron-list")


def _emit_violation(record):
    """A ``validate_complex`` record with its polyhedra written as trop/1."""
    emit = tio._emit_polyhedron
    return {k: v if k == "kind" else [emit(p) for p in v] if k == "cells" else emit(v)
            for k, v in record.items()}


def _cmd_validate(args):
    c = _load(args.complex, "complex")
    violations = validate_complex(c)
    text = _report("validate", {
        "valid": not violations,
        "violations": [_emit_violation(v) for v in violations],
    })
    if violations:
        raise CheckFailure(text)
    return text


def _add_window(sp):
    sp.add_argument("--window", metavar="FILE",
                    help="polyhedron document used as a bounded truncation box")


def build_parser():
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", metavar="FILE",
                        help="write output here instead of stdout")
    ap = argparse.ArgumentParser(
        prog="tropform",
        description="Exact calculus of superforms on tropical cycles.",
        parents=[output])
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=lambda **kw: argparse.ArgumentParser(
                                parents=[output], **kw))

    sp = sub.add_parser("check-balancing", help="test the balancing condition")
    sp.add_argument("cycle")
    sp.set_defaults(func=_cmd_check_balancing)

    sp = sub.add_parser("integrate", help="integrate a superform")
    sp.add_argument("domain")
    sp.add_argument("form")
    _add_window(sp)
    sp.set_defaults(func=_cmd_integrate)

    sp = sub.add_parser("integrate-boundary", help="boundary integral")
    sp.add_argument("domain")
    sp.add_argument("form")
    _add_window(sp)
    sp.set_defaults(func=_cmd_integrate)

    sp = sub.add_parser("stokes", help="Stokes residuals (must be zero)")
    sp.add_argument("domain")
    sp.add_argument("eta_prime")
    sp.add_argument("eta_second")
    _add_window(sp)
    sp.set_defaults(func=_cmd_stokes)

    sp = sub.add_parser("green", help="Green residual (must be zero)")
    sp.add_argument("domain")
    sp.add_argument("alpha")
    sp.add_argument("beta")
    sp.set_defaults(func=_cmd_green)

    sp = sub.add_parser("pushforward", help="push a cycle forward along a map")
    sp.add_argument("map")
    sp.add_argument("cycle")
    sp.set_defaults(func=_cmd_pushforward)

    sp = sub.add_parser("projection-check", help="both sides of the projection formula")
    sp.add_argument("map")
    sp.add_argument("cycle")
    sp.add_argument("form")
    _add_window(sp)
    sp.set_defaults(func=_cmd_projection_check)

    sp = sub.add_parser("current-eval", help="evaluate a Dirac supercurrent")
    sp.add_argument("cycle")
    sp.add_argument("form")
    sp.add_argument("--ops", nargs="*", choices=["d'", "d''"], default=[],
                    help="operators applied to the current, innermost first")
    _add_window(sp)
    sp.set_defaults(func=_cmd_current_eval)

    sp = sub.add_parser("hypersurface", help="corner locus of a tropical polynomial")
    sp.add_argument("polynomial")
    sp.set_defaults(func=_cmd_hypersurface)

    sp = sub.add_parser("refine", help="common refinement of two complexes")
    sp.add_argument("complex")
    sp.add_argument("other")
    sp.set_defaults(func=_cmd_refine)

    sp = sub.add_parser("truncate", help="intersect a complex with a box")
    sp.add_argument("complex")
    sp.add_argument("box")
    sp.set_defaults(func=_cmd_truncate)

    sp = sub.add_parser("faces", help="faces of a polyhedron of given codimension")
    sp.add_argument("polyhedron")
    sp.add_argument("codim", type=int)
    sp.set_defaults(func=_cmd_faces)

    sp = sub.add_parser("validate", help="check the polyhedral-complex axioms")
    sp.add_argument("complex")
    sp.set_defaults(func=_cmd_validate)

    return ap


def _write(args, text):
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError("cannot write %s: %s" % (args.out, e.strerror))


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        try:
            text, status = args.func(args), 0
        except CheckFailure as e:
            text, status = e.report, 1
        _write(args, text)
    except (InputError, ValueError) as e:
        # library functions raise ValueError for inputs they cannot accept
        print("error: %s" % e, file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
