"""Command-line front end.

Subcommands mirror the library modules: `seed mutate`, `laurent transport`,
`trop map`, `poly hull|slice|points`, `scatter complete|theta|alpha`,
`gr val|gvec|verify|nobody`, `accept run`.  Rationals are printed as
exact strings and integer data as JSON numbers.  Exit codes: 0 success,
1 domain error (machine-readable JSON on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import acceptance
from .acceptance import fixture_diagram
from .errors import BadParams, DomainError, json_list
from .grassmannian import (bodies_unimodular, gt_valuation,
                           hook_g_vector, homogenized_g, no_body,
                           verify_val_gv)
from .laurent import LaurentPolynomial, transport
from .linalg import vec
from .polytopes import Cone, convex_hull, lattice_points, slice_cone
from .scattering import structure_constant, theta_function, theta_on_x
from .seeds import seed_from_json, seed_to_json
from .trop import PLMap, TropicalPoint, apply_pl_to_polytope, trop_mutate


def _load_json(path):
    """Parsed JSON from a file, or from stdin for "-"; an unreadable file
    or malformed JSON is a BadParams error."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadParams("cannot read %s: %s" % (path, exc.strerror or exc))
    except ValueError as exc:
        raise BadParams("%s is not valid JSON: %s" % (path, exc))


def _points(data):
    """Rational points of one common length; a ragged or malformed list
    is a BadParams error."""
    try:
        pts = [[Fraction(x) for x in json_list(v, "a point")]
               for v in json_list(data, "the point list")]
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise BadParams("malformed point list: %s" % (exc,))
    if len({len(v) for v in pts}) > 1:
        raise BadParams("points must all have the same length")
    return pts


def _hyperplanes(data, rhs, default=None):
    """(normal, right-hand side) pairs from a JSON list of rows with a
    "normal" and an `rhs` entry (`default` for a row without one, if
    given); a missing field or a malformed number is a BadParams error."""
    try:
        return [([Fraction(x) for x in json_list(row["normal"], "a normal")],
                 Fraction(row[rhs] if default is None
                          else row.get(rhs, default)))
                for row in json_list(data, "the row list")]
    except KeyError as exc:
        raise BadParams("each row needs %s" % (exc,))
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise BadParams("malformed row: %s" % (exc,))


def _load_polytope(path):
    data = _load_json(path)
    if not isinstance(data, dict) or "vertices" not in data:
        raise BadParams("polytope JSON needs a \"vertices\" list")
    return convex_hull(_points(data["vertices"]))


def _emit(payload):
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _int(text, whole):
    """int(text); BadParams naming the option value `whole` otherwise."""
    try:
        return int(text)
    except ValueError:
        raise BadParams("malformed integer %r in %r" % (text, whole))


def _ints(text, whole=None):
    """Integers separated by commas, spaces or parentheses."""
    return tuple(_int(x, whole or text) for x in text.replace("(", " ")
                 .replace(")", " ").replace(",", " ").split())


def _label(text):
    """Parse a theta label: either 'a,b,...' or 'c(a,b,...)', c = 1 when
    left out; any other parenthesis is a BadParams error."""
    if "(" in text:
        scale, rest = text.split("(", 1)
        scale = _int(scale, text) if scale.strip() else 1
        label = tuple(scale * x for x in _ints(rest.rstrip(")"), text))
        if not rest.endswith(")"):
            raise BadParams("label %r lacks its closing parenthesis" % text)
        rest = rest[:-1]
    else:
        label, rest = _ints(text), text
    if "(" in rest or ")" in rest:
        raise BadParams("label %r has a stray parenthesis" % text)
    return label


def cmd_seed_mutate(args):
    s = seed_from_json(_load_json(args.file))
    s2 = s.mutate(args.k)
    out = seed_to_json(s2)
    out["eps"] = [[str(x) for x in row] for row in s2.eps.rows]
    out["basis"] = [[str(x) for x in row] for row in s2.basis.rows]
    _emit(out)


def cmd_laurent_transport(args):
    s = seed_from_json(_load_json(args.seed_file))
    fd = s.fixed
    frm = fd.seed(_ints(args.from_word))
    to = fd.seed(_ints(args.to_word))
    poly = LaurentPolynomial.from_json(_load_json(args.poly), fd.n)
    res = transport(poly, frm, to, args.flavor)
    _emit({"poly": res.to_json()})


def cmd_trop_map(args):
    s = seed_from_json(_load_json(args.seed_file))
    fd = s.fixed
    word = _ints(args.word)
    if args.point is not None:
        pt = TropicalPoint((), vec(_ints(args.point)), args.convention)
        if len(pt.coords) != fd.n:
            raise BadParams("--point needs %d coordinates" % fd.n)
        cur = fd.initial_seed()
        for k in word:
            pt = trop_mutate(pt, k, cur, args.flavor)
            cur = cur.mutate(k)
        _emit({"word": list(pt.word), "coords": [str(x) for x in pt.coords],
               "convention": pt.conv})
        return
    poly = _load_polytope(args.polytope)
    if poly.dim != fd.n:
        raise BadParams("--polytope needs dimension %d" % fd.n)
    plmap = PLMap.from_mutations(fd.seed(()), word, args.flavor,
                                 args.convention)
    img, report = apply_pl_to_polytope(plmap, poly)
    _emit({"polytope": img.to_json(),
           "convex": report.convex,
           "step_convex": report.step_convex})


def cmd_poly_hull(args):
    pts = _points(_load_json(args.points))
    _emit({"polytope": convex_hull(pts).to_json()})


def cmd_poly_slice(args):
    halfspaces = _hyperplanes(_load_json(args.cone), "offset", 0)
    if not halfspaces:
        raise BadParams("cone JSON needs at least one row")
    cone = Cone(halfspaces, len(halfspaces[0][0]))
    from .polytopes import AffineSubspace
    fiber = AffineSubspace(_hyperplanes(_load_json(args.fiber), "value"),
                           cone.dim)
    _emit({"polytope": slice_cone(cone, fiber).to_json()})


def cmd_poly_points(args):
    pts = lattice_points(_load_polytope(args.polytope))
    _emit({"count": len(pts), "points": [list(p) for p in pts]})


def cmd_scatter_complete(args):
    dia, _ = fixture_diagram(args.fixture, args.order, args.principal)
    _emit(dia.to_json())


def cmd_scatter_theta(args):
    label = _label(args.label)
    if args.on_x:
        dia, p = fixture_diagram(args.fixture, args.order, principal=True)
        poly, exact = theta_on_x(dia, label, p, degree_bound=args.order)
    else:
        dia, p = fixture_diagram(args.fixture, args.order, args.principal)
        poly, exact = theta_function(dia, label, degree_bound=args.order)
    _emit({"label": list(label), "theta": poly.to_json(), "exact": exact})


def cmd_scatter_alpha(args):
    dia, _ = fixture_diagram(args.fixture, args.order, args.principal)
    alpha = structure_constant(dia, _label(args.p), _label(args.q),
                               _label(args.r), args.order)
    _emit({"alpha": str(alpha)})


def cmd_gr_val(args):
    tab = gt_valuation(_ints(args.J), args.k, args.n)
    _emit({"tableau": [list(r) for r in tab]})


def cmd_gr_gvec(args):
    J = _ints(args.J)
    _emit({"g": list(hook_g_vector(J, args.k, args.n)),
           "homogenized": list(homogenized_g(J, args.k, args.n))})


def cmd_gr_verify(args):
    rep = verify_val_gv(args.k, args.n)
    passed = sum(1 for v in rep.values() if v)
    if args.csv:
        sys.stdout.write("J,ok\n")
        for J, v in sorted(rep.items()):
            sys.stdout.write("%s,%s\n" % (" ".join(map(str, J)),
                                           "pass" if v else "fail"))
        return 0 if passed == len(rep) else 1
    out = {"passed": passed, "total": len(rep),
           "ok": passed == len(rep)}
    if args.verbose:
        out["per_index"] = {"".join(map(str, J)): v for J, v in rep.items()}
    _emit(out)


def cmd_gr_nobody(args):
    if args.check_unimodular and args.side != "gvec":
        raise BadParams("--check-unimodular needs --side gvec")
    body = no_body(args.k, args.n, args.side)
    if args.csv:
        for v in body.vertices:
            sys.stdout.write(",".join(str(x) for x in v) + "\n")
        return 0
    out = {"polytope": body.to_json(), "side": args.side}
    if args.check_unimodular:
        ok, _u = bodies_unimodular(args.k, args.n)
        out["unimodular_to_flow"] = ok
    _emit(out)


def cmd_accept_run(args):
    ids = [args.id] if args.id else None
    failures = acceptance.run(ids)
    return 1 if failures else 0


def build_parser():
    top = argparse.ArgumentParser(prog="ctrop", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    seed = sub.add_parser("seed").add_subparsers(dest="sub", required=True)
    m = seed.add_parser("mutate")
    m.add_argument("--file", required=True)
    m.add_argument("--k", type=int, required=True)
    m.set_defaults(func=cmd_seed_mutate)

    lau = sub.add_parser("laurent").add_subparsers(dest="sub", required=True)
    t = lau.add_parser("transport")
    t.add_argument("--seed-file", required=True)
    t.add_argument("--from-word", default="")
    t.add_argument("--to-word", default="")
    t.add_argument("--poly", required=True)
    t.add_argument("--flavor", choices=["A", "X"], default="A")
    t.set_defaults(func=cmd_laurent_transport)

    tr = sub.add_parser("trop").add_subparsers(dest="sub", required=True)
    tm = tr.add_parser("map")
    tm.add_argument("--seed-file", required=True)
    tm.add_argument("--word", default="")
    tm.add_argument("--flavor", choices=["A", "X"], default="A")
    tm.add_argument("--convention", choices=["T", "t"], default="T")
    what = tm.add_mutually_exclusive_group(required=True)
    what.add_argument("--point")
    what.add_argument("--polytope")
    tm.set_defaults(func=cmd_trop_map)

    poly = sub.add_parser("poly").add_subparsers(dest="sub", required=True)
    h = poly.add_parser("hull")
    h.add_argument("--points", required=True)
    h.set_defaults(func=cmd_poly_hull)
    sl = poly.add_parser("slice")
    sl.add_argument("--cone", required=True)
    sl.add_argument("--fiber", required=True)
    sl.set_defaults(func=cmd_poly_slice)
    pp = poly.add_parser("points")
    pp.add_argument("--polytope", required=True)
    pp.set_defaults(func=cmd_poly_points)

    sc = sub.add_parser("scatter").add_subparsers(dest="sub", required=True)
    c = sc.add_parser("complete")
    c.add_argument("--fixture", required=True)
    c.add_argument("--order", type=int, default=10)
    c.add_argument("--principal", action="store_true")
    c.set_defaults(func=cmd_scatter_complete)
    th = sc.add_parser("theta")
    th.add_argument("--fixture", required=True)
    th.add_argument("--label", required=True)
    th.add_argument("--order", type=int, default=12)
    th.add_argument("--principal", action="store_true")
    th.add_argument("--on-x", action="store_true",
                    help="interpret the label on the X side via the "
                         "principal diagram")
    th.set_defaults(func=cmd_scatter_theta)
    al = sc.add_parser("alpha")
    al.add_argument("--fixture", required=True)
    al.add_argument("--p", required=True)
    al.add_argument("--q", required=True)
    al.add_argument("--r", required=True)
    al.add_argument("--order", type=int, default=10)
    al.add_argument("--principal", action="store_true")
    al.set_defaults(func=cmd_scatter_alpha)

    gr = sub.add_parser("gr").add_subparsers(dest="sub", required=True)
    gv = gr.add_parser("val")
    gv.add_argument("--k", type=int, required=True)
    gv.add_argument("--n", type=int, required=True)
    gv.add_argument("--J", required=True)
    gv.set_defaults(func=cmd_gr_val)
    gg = gr.add_parser("gvec")
    gg.add_argument("--k", type=int, required=True)
    gg.add_argument("--n", type=int, required=True)
    gg.add_argument("--J", required=True)
    gg.set_defaults(func=cmd_gr_gvec)
    ve = gr.add_parser("verify")
    ve.add_argument("--k", type=int, required=True)
    ve.add_argument("--n", type=int, required=True)
    report = ve.add_mutually_exclusive_group()
    report.add_argument("--verbose", action="store_true")
    report.add_argument("--csv", action="store_true",
                        help="emit a per-index CSV report instead of JSON")
    ve.set_defaults(func=cmd_gr_verify)
    nb = gr.add_parser("nobody")
    nb.add_argument("--k", type=int, required=True)
    nb.add_argument("--n", type=int, required=True)
    nb.add_argument("--side", choices=["flow", "gvec"], required=True)
    report = nb.add_mutually_exclusive_group()
    report.add_argument("--check-unimodular", action="store_true")
    report.add_argument("--csv", action="store_true",
                        help="emit vertices as CSV rows instead of JSON")
    nb.set_defaults(func=cmd_gr_nobody)

    ac = sub.add_parser("accept").add_subparsers(dest="sub", required=True)
    ar = ac.add_parser("run")
    ar.add_argument("--id", type=int, choices=sorted(acceptance.CRITERIA))
    ar.set_defaults(func=cmd_accept_run)

    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc or 0
    except DomainError as exc:
        json.dump({"error": {"code": exc.code, "message": str(exc)}},
                  sys.stderr)
        sys.stderr.write("\n")
        return 1
    except BrokenPipeError:
        # the reader went away (`ctrop ... | head`): send what is still
        # buffered to the null device, so the flush at exit prints nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
