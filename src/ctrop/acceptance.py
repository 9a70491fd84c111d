"""Acceptance suite: one callable per criterion, each returning
(ok, detail) and designed to run inside its stated time budget.  The CLI
`accept run` and tests/test_acceptance.py both drive this module.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from importlib import resources

from .errors import BadParams, Truncated
from .grassmannian import (GrData, cluster_bfs_g_vectors, gt_vector,
                           hook_g_table, hook_g_vector, homogenized_g,
                           no_body, rectangles_seed, verify_val_gv)
from .laurent import LaurentPolynomial, g_valuation, theta_expand
from .linalg import Mat, vdot, vec
from .polytopes import (convex_hull, lattice_points, slice_cone,
                        superpotential_cone)
from .scattering import (ScatteringDiagram, Wall, complete_rank2,
                         enumerate_broken_lines, initial_diagram,
                         is_consistent, structure_constant, theta_function,
                         theta_on_x)
from .seeds import (build_principal, ensemble_map,
                    principal_ensemble_map, seed_from_json)
from .trop import PLMap, apply_pl_to_polytope, tropicalize, weight_fiber


def _fixture(name):
    path = resources.files("ctrop.fixtures").joinpath(name)
    return json.loads(path.read_text())


def load_fixture_seed(name):
    return seed_from_json(_fixture(name)["seed"])


def fixture_diagram(name, order, principal=False):
    """Completed diagram of a rank-2 fixture seed, by its short name, and
    the ensemble map p; with principal=True the diagram is built on the
    principal-coefficient data."""
    files = {"running-example": "running_example.json", "a2": "a2.json",
             "kronecker": "kronecker.json"}
    if name not in files:
        raise BadParams("unknown fixture %r" % (name,))
    fd = load_fixture_seed(files[name]).fixed
    p = ensemble_map(fd)
    if principal:
        return complete_rank2(initial_diagram(
            build_principal(fd), principal_ensemble_map(fd, p), order)), p
    return complete_rank2(initial_diagram(fd, p, order)), p


def gr36_fixture_diagram(only_wall=None):
    fx = _fixture("gr36_plabic.json")
    faces = fx["coordinate_faces"]
    walls = []
    for w in fx["walls"]:
        if only_wall is not None and w["face"] != only_wall:
            continue
        g = [0] * len(faces)
        g[faces.index(w["exponent_face"])] = 1
        walls.append(Wall(w["normal"], g, {1: 1}, (1,), 1, ()))
    return ScatteringDiagram(walls, len(faces), 8), fx


def criterion_1():
    """Running example: theta on X with label 2(-1,-2) and its lift."""
    fx = _fixture("running_example.json")
    dia, p = fixture_diagram("running-example", 12, principal=True)
    got, exact = theta_on_x(dia, tuple(fx["theta_x_label"]), p)
    want = LaurentPolynomial.from_json(fx["expected_theta_x"], 2)
    lift_label = (2, -2, -1, -2)
    lift, exact2 = theta_function(dia, lift_label)
    want_lift = LaurentPolynomial.from_json(fx["expected_aprin_lift"], 4)
    ok = (got == want) and (lift == want_lift) and exact and exact2
    return ok, "theta_x=%s lift=%s" % (got == want, lift == want_lift)


def criterion_2():
    """Gr(3,6) plabic fixture: valuation identities, the wall-orthogonal
    rational point, and the maximally bending broken line with equal leg
    times."""
    dia, fx = gr36_fixture_diagram(only_wall="332")
    val = {k: tuple(v) for k, v in fx["valuations"].items()}
    half = tuple(Fraction(x) for x in fx["half_val_f"])
    add = tuple(a + b for a, b in zip(val["124"], val["356"]))
    prod = tuple(a + b for a, b in zip(val["123"], val["456"]))
    ok_add = add == prod
    wall = dia.walls[0]
    ok_perp = vdot(wall.phi, half) == 0
    v1 = tuple(fx["bend"]["v1"])
    v2 = tuple(fx["bend"]["v2"])
    # the rational point sits half a velocity unit from both valuations
    ok_table = (all(h - Fraction(b, 2) == c for h, b, c in
                    zip(half, v2, val["124"]))
                and all(h + Fraction(b, 2) == c for h, b, c in
                        zip(half, v1, val["356"])))

    lines, exact = enumerate_broken_lines(dia, v1, val["124"], 4)
    hit = None
    for ln in lines:
        exps = [seg[0] for seg in ln.segments]
        if exps == [v1, v2]:
            hit = ln
    ok_line = hit is not None
    ok_times = False
    ok_bendpoint = False
    if hit:
        bend_pt = hit.segments[1][3]
        ok_bendpoint = tuple(bend_pt) == half
        t_final = hit.leg_times()[0]
        # the initial segment, walked backward half a unit, passes 356
        ok_times = t_final == Fraction(1, 2) and all(
            b + Fraction(v, 2) == s for b, v, s in zip(bend_pt, v1, val["356"]))
    ok = all([ok_add, ok_perp, ok_table, ok_line, ok_bendpoint, ok_times])
    return ok, ("additivity=%s perp=%s table=%s line=%s bend@half=%s "
                "times=%s" % (ok_add, ok_perp, ok_table, ok_line,
                              ok_bendpoint, ok_times))


def criterion_3():
    """-psi(val) = homogenized g for every J on the test matrix, plus the
    large-grid single instance."""
    counts = {}
    for rows, n in ((2, 4), (2, 5), (3, 6), (4, 9)):
        k = n - rows
        rep = verify_val_gv(k, n)
        counts[(rows, n)] = (all(rep.values()), len(rep))
    fx = _fixture("fig_tableau.json")
    k, n, J = fx["k"], fx["n"], tuple(fx["J"])
    from .grassmannian import gt_valuation, psi_matrix
    tab = gt_valuation(J, k, n)
    col_ok = [row[-1] for row in tab] == fx["rightmost_column"]
    gr = GrData(k, n)
    expect = [0] * gr.dim
    for item in fx["gbar_nonzeros"]:
        expect[gr.index(*item["box"])] = item["coef"]
    gbar_ok = list(homogenized_g(J, k, n)) == expect
    psi = psi_matrix(k, n)
    lhs = tuple(-x for x in psi * vec((0,) + gt_vector(J, k, n)))
    fig_ok = col_ok and gbar_ok and tuple(int(x) for x in lhs) == tuple(expect)
    ok = all(v[0] for v in counts.values()) and fig_ok
    detail = " ".join("%s:%d/%d" % (kn, c[1] if c[0] else -1, c[1])
                      for kn, c in counts.items())
    return ok, detail + " fig:%s" % fig_ok


def criterion_4():
    """Rank-2 scattering: A2 one-ray completion, loop identity to order 10;
    running example consistent at order 12; Kronecker at truncations <= 8."""
    dia_a2, _ = fixture_diagram("a2", 10)
    rays = [w for w in dia_a2.walls if w.faces]
    g_sum = tuple(a + b for a, b in zip(
        dia_a2.fd.epsilon().rows[0], dia_a2.fd.epsilon().rows[1]))
    a2_ok = (len(rays) == 1 and rays[0].n0 == (1, 1)
             and rays[0].series == {1: 1}
             and rays[0].g == tuple(int(x) for x in g_sum)
             and is_consistent(dia_a2))
    dia_run, _ = fixture_diagram("running-example", 12, principal=True)
    run_ok = is_consistent(dia_run)
    kron_ok = True
    for order in range(2, 9):
        dk, _ = fixture_diagram("kronecker", order)
        kron_ok = kron_ok and is_consistent(dk)
    return (a2_ok and run_ok and kron_ok,
            "a2=%s running=%s kronecker=%s" % (a2_ok, run_ok, kron_ok))


def criterion_5():
    """Valuation laws on 200 random pairs of theta-table elements in the A2
    and running-example fixtures; structure constants in the skew fixture
    are nonnegative integers."""
    from .scattering import LazyThetaTable
    rng = random.Random(20260808)
    fixtures = {}
    for name in ("a2", "running-example"):
        dia, _ = fixture_diagram(name, 12)
        fixtures[name] = (dia.fd.initial_seed(), dia,
                          LazyThetaTable(dia, 12))

    checked = 0
    alphas_ok = True
    box = [(i, j) for i in (-2, -1, 0, 1, 2) for j in (-2, -1, 0, 1, 2)]
    for trial in range(200):
        name = "a2" if trial % 2 == 0 else "running-example"
        s, dia, table = fixtures[name]
        pl = rng.choice(box)
        ql = rng.choice(box)
        prod = table[pl] * table[ql]
        expansion = theta_expand(prod, s, table, max_rounds=500)
        order = s.refining_order()
        lead = g_valuation(expansion, s, order=order)
        want = tuple(a + b for a, b in zip(pl, ql))
        if lead != want:
            return False, "g-valuation additivity failed at %r,%r" % (pl, ql)
        coef = dict((m, c) for c, m in expansion.terms).get(want)
        if coef != 1:
            return False, "leading coefficient != 1 at %r,%r" % (pl, ql)
        checked += 1
        if name == "a2" and trial < 20:
            for c, r in expansion.terms:
                alpha = structure_constant(dia, pl, ql, r, 12)
                if alpha != c or alpha < 0 or type(alpha) is not int:
                    alphas_ok = False
    return checked == 200 and alphas_ok, \
        "pairs=%d alpha-nonneg-int=%s" % (checked, alphas_ok)


def criterion_6():
    """Tropicalized single mutations map each g-side body to a convex set
    and map back to the original body."""
    results = []
    for rows, n in ((2, 4), (2, 5), (3, 6)):
        k = n - rows
        fd, s0, em = rectangles_seed(k, n, opposite=True)
        body = no_body(k, n, "gvec")
        for kdir in sorted(fd.unfrozen):
            pl = PLMap.from_mutations(s0, (kdir,), "X", "T")
            img, rep = apply_pl_to_polytope(pl, body)
            back = PLMap.from_mutations(s0.mutate(kdir), (kdir,), "X", "T")
            img2, _ = apply_pl_to_polytope(back, img)
            results.append(rep.convex and img2 == body)
    return all(results), "%d/%d mutations convex+involutive" % (
        sum(results), len(results))


def _grassmannian_slice(k, n, level):
    gr = GrData(k, n)
    fd, s0, em = rectangles_seed(k, n, opposite=False)
    fdp = build_principal(fd)
    pp = principal_ensemble_map(fd, em)
    dia = complete_rank2(initial_diagram(fdp, pp, 10))
    summands = []
    for v in range(gr.dim):
        if not gr.frozen(v):
            continue
        lab = tuple(1 if t == v else 0 for t in range(gr.dim))
        th, exact = theta_on_x(dia, lab, em)
        if not exact:
            raise Truncated("frozen theta truncated")
        summands.append(tropicalize(th, "t"))
    xi = superpotential_cone(summands)
    qrep = [0] * gr.dim
    qrep[gr.index(gr.rows, gr.cols)] = level
    fib = weight_fiber(tuple(qrep), Mat([[1] * gr.dim]))
    return slice_cone(xi, fib), gr


def criterion_7():
    """Cone-slice identity and lattice point counts at degrees 1 and 2."""
    expect = {(2, 4): (6, 20), (2, 5): (10, 50)}
    oks = []
    details = []
    for rows, n in ((2, 4), (2, 5)):
        k = n - rows
        gr = GrData(k, n)
        sl1, _ = _grassmannian_slice(k, n, 1)
        hull_g = convex_hull([hook_g_vector(J, k, n)
                              for J in gr.plucker_indices()])
        hull_gbar = convex_hull([homogenized_g(J, k, n)
                                 for J in gr.plucker_indices()])
        shift = [0] * gr.dim
        shift[gr.index(gr.rows, gr.cols)] = -1
        eq1 = sl1 == hull_g
        eq2 = sl1.translate(shift) == hull_gbar
        n1 = len(lattice_points(sl1))
        sl2, _ = _grassmannian_slice(k, n, 2)
        n2 = len(lattice_points(sl2))
        scaling = sl2 == sl1.scale(2)
        e1, e2 = expect[(rows, n)]
        oks.append(eq1 and eq2 and scaling and n1 == e1 and n2 == e2)
        details.append("Gr(%d,%d): slice=hull:%s pts %d/%d %d/%d" %
                       (rows, n, eq1 and eq2, n1, e1, n2, e2))
    return all(oks), "; ".join(details)


def criterion_8():
    """BFS g-vector oracle against the hook table; lattice points against
    brute-force box enumeration."""
    bfs_ok = True
    for rows, n, depth in ((2, 4, 2), (2, 5, 5)):
        k = n - rows
        table = set(hook_g_table(k, n).values())
        bfs = cluster_bfs_g_vectors(k, n, depth)
        found = set(g for gl in bfs.values() for _, g in gl)
        bfs_ok = bfs_ok and found <= table and table <= found
    # brute force box enumeration cross-check
    brute_ok = True
    for rows, n in ((2, 4), (2, 5)):
        k = n - rows
        for level in (1, 2):
            sl, gr = _grassmannian_slice(k, n, level)
            pts = set(lattice_points(sl))
            lo = [min(v[i] for v in sl.vertices) for i in range(gr.dim)]
            hi = [max(v[i] for v in sl.vertices) for i in range(gr.dim)]
            brute = set()
            import itertools
            import math
            ranges = [range(math.ceil(a), math.floor(b) + 1)
                      for a, b in zip(lo, hi)]
            for q in itertools.product(*ranges):
                if sl.contains(q):
                    brute.add(q)
            brute_ok = brute_ok and brute == pts
    return bfs_ok and brute_ok, "bfs=%s brute=%s" % (bfs_ok, brute_ok)


CRITERIA = {
    1: ("running example theta on X and its principal lift", criterion_1),
    2: ("Gr(3,6) plabic fixture and maximal bend", criterion_2),
    3: ("-psi(val) = homogenized g on the test matrix", criterion_3),
    4: ("rank-2 scattering completions are consistent", criterion_4),
    5: ("valuation laws on random theta pairs", criterion_5),
    6: ("NO-body images under tropical mutations are convex", criterion_6),
    7: ("cone slices equal g-vector hulls with correct counts", criterion_7),
    8: ("BFS and lattice-point oracles agree", criterion_8),
}


def run(ids=None, out=None):
    import sys
    out = out or sys.stdout
    ids = sorted(ids) if ids else sorted(CRITERIA)
    failures = 0
    for i in ids:
        name, fn = CRITERIA[i]
        t0 = time.time()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, "error: %s" % (exc,)
        dt = time.time() - t0
        status = "PASS" if ok else "FAIL"
        out.write("%s criterion %d [%s] (%.2fs): %s\n"
                  % (status, i, name, dt, detail))
        if not ok:
            failures += 1
    return failures
