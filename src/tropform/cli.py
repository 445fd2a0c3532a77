"""Command-line front end.

Every subcommand reads trop/1 JSON documents from file paths (or "-" for
standard input) and writes its result to standard output or --out.  Exit
status: 0 on success, 1 when a mathematical check fails (nonzero residual,
balancing violations, unequal projection integrals, invalid complex), 2 on
malformed input or usage errors.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import io as tio
from .cycle import (
    Current,
    WeightedComplex,
    check_balancing,
    current_eval,
    projection_check,
    pushforward,
)
from .hypersurface import corner_locus
from .integrate import (
    green_residual,
    integrate_complex,
    integrate_complex_boundary,
    stokes_residual,
)
from .polyhedra import Complex, faces, refine, truncate, validate_complex


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
    except ValueError as e:
        raise InputError("%s: %s" % (path, e))


def _report(command, body):
    doc = {"format": tio.FORMAT, "kind": "report", "command": command}
    doc.update(body)
    return tio._dumps(doc)


def _checked(command, ok, body):
    """The report of a check; raises CheckFailure with it unless ok."""
    text = _report(command, body)
    if not ok:
        raise CheckFailure(text)
    return text


def _truncated(domain, window):
    """The domain cut to the window, if one is given: a complex by ``truncate``
    (face-closed), a weighted complex by its ``truncated`` and a polyhedron as
    the cycle of weight 1 on it (full-dimensional pieces only)."""
    if window is None:
        return domain
    if isinstance(domain, Complex):
        return truncate(domain, window)
    cycle = domain if isinstance(domain, WeightedComplex) else WeightedComplex([(domain, 1)])
    return cycle.truncated(window)


# ---------------------------------------------------------------------------
# subcommands; each takes the parsed arguments, with every document argument
# replaced by the object it holds, returns the output text and may raise
# CheckFailure

def _cmd_check_balancing(args):
    violations = check_balancing(args.cycle)
    return _checked(args.command, not violations, {
        "balanced": not violations,
        "violations": [
            {"face": tio._emit_polyhedron(rho),
             "excess": [tio.rational_str(x) for x in t]}
            for rho, t in violations
        ],
    })


def _cmd_integrate(args):
    """``integrate`` and ``integrate-boundary``, told apart by args.command."""
    integral = integrate_complex if args.command == "integrate" else integrate_complex_boundary
    value = integral(_truncated(args.domain, args.window), args.form)
    return _report(args.command, {"value": tio.rational_str(value)})


def _cmd_stokes(args):
    r1, r2 = stokes_residual(_truncated(args.domain, args.window),
                             args.eta_prime, args.eta_second)
    ok = r1 == 0 and r2 == 0
    return _checked(args.command, ok, {
        "residuals": [tio.rational_str(r1), tio.rational_str(r2)],
        "ok": ok,
    })


def _cmd_green(args):
    res = green_residual(args.domain, args.alpha, args.beta)
    return _checked(args.command, res == 0,
                    {"residual": tio.rational_str(res), "ok": res == 0})


def _needs_window(args):
    if args.window is None:
        raise InputError("%s requires --window" % args.command)
    return args.window


def _cmd_projection_check(args):
    left, right = projection_check(args.map, args.cycle, args.form, _needs_window(args))
    return _checked(args.command, left == right, {
        "pushforward_integral": tio.rational_str(left),
        "pullback_integral": tio.rational_str(right),
        "equal": left == right,
    })


def _cmd_current_eval(args):
    window = _needs_window(args)
    cur = Current.dirac(args.cycle)
    for op in args.ops:
        cur = cur.apply({"d'": "d_prime", "d''": "d_second"}[op])
    value = current_eval(cur, args.form, window)
    return _report(args.command, {"value": tio.rational_str(value)})


def _emit_violation(record):
    """A ``validate_complex`` record with its polyhedra written as trop/1."""
    emit = tio._emit_polyhedron
    return {k: v if k == "kind" else [emit(p) for p in v] if k == "cells" else emit(v)
            for k, v in record.items()}


def _cmd_validate(args):
    violations = validate_complex(args.complex)
    return _checked(args.command, not violations, {
        "valid": not violations,
        "violations": [_emit_violation(v) for v in violations],
    })


# ---------------------------------------------------------------------------
# name -> (help, handler, arguments), each argument (name, kinds, keywords
# of add_argument).  An argument with kinds names a document of one of them;
# main loads the documents in the order listed, before the handler runs.
# argparse orders positionals and options apart, so they may mix here.

_POLYHEDRON = ("polyhedron",)
_DOMAIN = ("polyhedron", "weighted-complex")
_CYCLE = ("weighted-complex",)
_FORM = ("superform",)
_MAP = ("map",)
_COMPLEX = ("complex",)
_WINDOW = ("--window", _POLYHEDRON, {
    "metavar": "FILE", "help": "polyhedron document used as a bounded truncation box"})

_COMMANDS = {
    "check-balancing": ("test the balancing condition", _cmd_check_balancing,
                        [("cycle", _CYCLE, {})]),
    "integrate": ("integrate a superform", _cmd_integrate,
                  [("domain", _DOMAIN, {}), _WINDOW, ("form", _FORM, {})]),
    "integrate-boundary": ("boundary integral", _cmd_integrate,
                           [("domain", _DOMAIN, {}), _WINDOW, ("form", _FORM, {})]),
    "stokes": ("Stokes residuals (must be zero)", _cmd_stokes,
               [("domain", _DOMAIN, {}), _WINDOW, ("eta_prime", _FORM, {}),
                ("eta_second", _FORM, {})]),
    "green": ("Green residual (must be zero)", _cmd_green,
              [("domain", _POLYHEDRON, {}), ("alpha", _FORM, {}), ("beta", _FORM, {})]),
    "pushforward": ("push a cycle forward along a map",
                    lambda args: tio.emit(pushforward(args.map, args.cycle)),
                    [("map", _MAP, {}), ("cycle", _CYCLE, {})]),
    "projection-check": ("both sides of the projection formula", _cmd_projection_check,
                         [("map", _MAP, {}), ("cycle", _CYCLE, {}), ("form", _FORM, {}),
                          _WINDOW]),
    "current-eval": ("evaluate a Dirac supercurrent", _cmd_current_eval,
                     [("cycle", _CYCLE, {}), ("form", _FORM, {}),
                      ("--ops", (), {"nargs": "*", "choices": ["d'", "d''"], "default": [],
                                     "help": "operators applied to the current, "
                                             "innermost first"}),
                      _WINDOW]),
    "hypersurface": ("corner locus of a tropical polynomial",
                     lambda args: tio.emit(corner_locus(args.polynomial),
                                           kind="weighted-complex"),
                     [("polynomial", ("tropical-polynomial",), {})]),
    "refine": ("common refinement of two complexes",
               lambda args: tio.emit(refine(args.complex, args.other), kind="complex"),
               [("complex", _COMPLEX, {}), ("other", _COMPLEX, {})]),
    "truncate": ("intersect a complex with a box",
                 lambda args: tio.emit(_truncated(args.complex, args.box)),
                 [("complex", ("complex", "weighted-complex"), {}),
                  ("box", _POLYHEDRON, {})]),
    "faces": ("faces of a polyhedron of given codimension",
              lambda args: tio.emit(faces(args.polyhedron, args.codim),
                                    kind="polyhedron-list"),
              [("polyhedron", _POLYHEDRON, {}), ("codim", (), {"type": int})]),
    "validate": ("check the polyhedral-complex axioms", _cmd_validate,
                 [("complex", _COMPLEX, {})]),
}


@cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it as it
    was, so in-process callers of :func:`main` share it."""
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
    for command, (text, _, arguments) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        for name, _, keywords in arguments:
            sp.add_argument(name, **keywords)
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
    args = build_parser().parse_args(argv)
    _, handler, arguments = _COMMANDS[args.command]
    try:
        for name, kinds, _ in arguments:
            dest = name.lstrip("-")
            if kinds and getattr(args, dest) is not None:
                setattr(args, dest, _load(getattr(args, dest), *kinds))
        try:
            text, status = handler(args), 0
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
