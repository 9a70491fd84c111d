import itertools
import math
import random
from fractions import Fraction

import pytest

from ctrop import linalg, polytopes
from ctrop.errors import BadParams, EmptyInput, Unbounded
from ctrop.grassmannian import GrData, homogenized_g, hook_g_vector, no_body
from ctrop.linalg import Mat, independent_rows, vdot, vec
from ctrop.polytopes import (AffineSubspace, Cone, Polytope, convex_hull,
                             lattice_points, slice_cone, superpotential_cone,
                             verify_unimodular, vertices_from_hrep)
from ctrop.trop import PLFunction


def test_hull_square_drops_interior():
    p = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1),
                     (Fraction(1, 2), Fraction(1, 2))])
    assert p.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert len(p.facets) == 4
    assert p.contains((Fraction(1, 3), Fraction(1, 2)))
    assert not p.contains((2, 0))


def test_hull_single_point():
    p = convex_hull([(3, -1, 2)])
    assert p.vertices == ((3, -1, 2),)
    assert p.facets == []
    assert len(p.equations) == 3


def test_hull_lower_dimensional():
    p = convex_hull([(0, 0, 1), (1, 0, 1), (0, 1, 1)])
    assert _affine_dim(p.vertices) == 2
    assert any(vdot(n, (0, 0, 1)) == b for n, b in p.equations)
    assert p.contains((Fraction(1, 3), Fraction(1, 3), 1))
    assert not p.contains((0, 0, 0))


def test_hull_gr24_g_vectors():
    gr = GrData(2, 4)
    pts = [hook_g_vector(J, 2, 4) for J in gr.plucker_indices()]
    p = convex_hull(pts)
    assert len(p.vertices) == 6
    assert _affine_dim(p.vertices) == 4


def test_hv_round_trip_fuzz():
    rng = random.Random(15)
    for dim in (2, 3, 4):
        for _ in range(6):
            pts = [tuple(rng.randint(-3, 3) for _ in range(dim))
                   for _ in range(dim + 3)]
            p = convex_hull(pts)
            # facets cut exactly the hull: all points inside, vertices tight
            for q in pts:
                assert p.contains(q)
            p2 = convex_hull(p.vertices)
            assert p2 == p
            # H -> V: re-enumerate vertices from the facets
            verts = vertices_from_hrep(p.facets, p.equations, dim)
            assert tuple(sorted(verts)) == p.vertices


def _cone_contains(cone, x):
    return all(vdot(n, x) >= b for n, b in cone.ineqs)


def test_superpotential_cone_monomial():
    g = PLFunction("t", [(1, 2)])
    cone = superpotential_cone([g])
    assert _cone_contains(cone, (1, 0)) and _cone_contains(cone, (0, 0))
    assert not _cone_contains(cone, (-1, 0))
    gT = PLFunction("T", [(1, 0)])
    coneT = superpotential_cone([gT])
    assert _cone_contains(coneT, (-2, 5))
    assert not _cone_contains(coneT, (1, 0))


def test_superpotential_offsets():
    g = PLFunction("t", [(1, 0), (0, 1)])
    c = superpotential_cone([g])
    # min(x, y) >= 0 expands into two exact linear inequalities
    assert sorted(c.ineqs) == [((0, 1), 0), ((1, 0), 0)]
    assert _cone_contains(c, (0, 5)) and not _cone_contains(c, (-1, 0))


def test_slice_simplicial_cone():
    cone = Cone([((1, 0), 0), ((0, 1), 0)], 2)
    fib = AffineSubspace([((1, 1), 1)], 2)
    seg = slice_cone(cone, fib)
    assert seg.vertices == ((0, 1), (1, 0))
    empty = slice_cone(cone, AffineSubspace([((1, 1), -1)], 2))
    assert empty.is_empty()


def test_slice_unbounded():
    cone = Cone([((1, 1), 0)], 2)
    with pytest.raises(Unbounded):
        slice_cone(cone, AffineSubspace([((1, 1), 1)], 2))


def test_lattice_points_examples():
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert len(lattice_points(square)) == 4
    big = square.scale(2)
    assert len(lattice_points(big)) == 9
    assert lattice_points(Polytope([], [], [], 2)) == []


def _box_lattice_points(p):
    """Reference: every point of the bounding box, kept if p contains it."""
    box = [range(math.ceil(min(v[i] for v in p.vertices)),
                 math.floor(max(v[i] for v in p.vertices)) + 1)
           for i in range(p.dim)]
    return [q for q in itertools.product(*box) if p.contains(q)]


def test_lattice_points_rows_without_coordinates():
    # rows with a zero normal hold for every point or for none; a
    # zero-dimensional polytope has the empty tuple as its one point
    half = Fraction(1, 2)
    for p in (Polytope([(0, 0), (2, 1)], [((0, 0), -1)], [((0, 0), 0)], 2),
              Polytope([(0, 0), (2, 1)], [((0, 0), half)], [], 2),
              Polytope([(0, 0), (2, 1)], [], [((0, 0), half)], 2),
              Polytope([()], [], [], 0), Polytope([()], [((), 1)], [], 0)):
        assert lattice_points(p) == _box_lattice_points(p)


def test_lattice_points_brute_force():
    rng = random.Random(21)
    reach = {1: 6, 2: 5, 3: 3, 4: 2, 5: 1}
    flat = 0
    for _ in range(200):
        dim = rng.randint(1, 5)

        def rat():
            return Fraction(rng.randint(-reach[dim], reach[dim]),
                            rng.choice((1, 1, 2, 3)))
        if dim > 1 and rng.random() < 0.3:
            # rational points on an affine subspace of lower dimension
            base = [rat() for _ in range(dim)]
            dirs = [[rng.randint(-1, 1) for _ in range(dim)]
                    for _ in range(rng.randint(1, min(2, dim - 1)))]
            pts = [tuple(b + sum(rng.randint(-1, 1) * d[i] for d in dirs)
                         for i, b in enumerate(base))
                   for _ in range(dim + 2)]
        else:
            pts = [tuple(rat() for _ in range(dim))
                   for _ in range(rng.randint(1, dim + 3))]
        p = convex_hull(pts)
        flat += bool(p.equations)
        for q in (p, p.scale(Fraction(3, 2)),
                  p.translate([Fraction(1, 3)] * dim)):
            assert lattice_points(q) == _box_lattice_points(q)
    assert flat >= 50
    # rational polytopes with no lattice point: a triangle inside a unit
    # square, and a triangle on the plane x + y + z = 1/2
    third = Fraction(1, 3)
    for p in (convex_hull([(third, third), (2 * third, third),
                           (third, 2 * third)]),
              convex_hull([(Fraction(1, 2), 0, 0), (0, Fraction(1, 2), 0),
                           (-2, 2, Fraction(1, 2))])):
        assert _box_lattice_points(p) == [] == lattice_points(p)


def test_lattice_points_closed_form_counts(monkeypatch):
    # semistandard tableaux of the k x L rectangle with entries <= n
    # (Stanley's hook-content formula): 980 for Gr(3,6) at L=3, C(7,4) = 35
    # for Gr(4,7) at L=1
    assert len(lattice_points(no_body(3, 6, "flow").scale(3))) == 980
    assert len(lattice_points(no_body(4, 7, "flow"))) == 35
    monkeypatch.setattr(polytopes, "_BOX_LIMIT", 100)
    with pytest.raises(BadParams,
                       match="^bounding box too large for enumeration$"):
        lattice_points(no_body(3, 6, "flow").scale(2))


def test_verify_unimodular():
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert verify_unimodular(square, square, Mat.identity(2), (0, 0))
    sheared = convex_hull([(0, 0), (1, 1), (0, 1), (1, 2)])
    u = Mat([[1, 0], [1, 1]])
    assert verify_unimodular(square, sheared, u, (0, 0))
    double = Mat([[2, 0], [0, 1]])
    stretched = convex_hull([(0, 0), (2, 0), (0, 1), (2, 1)])
    assert not verify_unimodular(square, stretched, double, (0, 0))


def test_minkowski_scaling_of_slices():
    cone = Cone([((1, 0), 0), ((0, 1), 0), ((1, -1), 0)], 2)
    s1 = slice_cone(cone, AffineSubspace([((1, 1), 1)], 2))
    s3 = slice_cone(cone, AffineSubspace([((1, 1), 3)], 2))
    assert s3 == s1.scale(3)


def test_empty_hull_raises():
    with pytest.raises(EmptyInput):
        convex_hull([])


def _greedy_independent(rows):
    """Reference: keep a row when it raises the rank of the rows kept."""
    kept = []
    for i, r in enumerate(rows):
        if Mat([rows[j] for j in kept] + [r]).rank() == len(kept) + 1:
            kept.append(i)
    return kept


def _random_points(rng, dim):
    """Random points: full- or lower-dimensional, with rational, duplicate
    and interior points."""
    k = rng.randint(0, dim)
    x0 = [rng.randint(-2, 2) for _ in range(dim)]
    span = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(k)]
    pts = []
    for _ in range(rng.randint(1, dim + 5)):
        cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in span]
        pts.append(tuple(x + sum(c * b[i] for c, b in zip(cs, span))
                         for i, x in enumerate(x0)))
    if len(pts) >= 2:
        pts.append(tuple((a + b) / 2 for a, b in zip(pts[0], pts[1])))
        pts.append(pts[0])
    rng.shuffle(pts)
    return pts


def _rank_rule_vertices(points):
    """Reference: the points whose tight facets, read in the direction
    space of the hull, have rank equal to its dimension."""
    pts = sorted(set(vec(p) for p in points))
    dirs = [tuple(a - b for a, b in zip(p, pts[0])) for p in pts]
    W = Mat([dirs[i] for i in _greedy_independent(dirs)])
    if W.nrows == 0:
        return (pts[0],)
    hull = convex_hull(points)
    verts = []
    for p in pts:
        tight = [W * f for f, off in hull.facets if vdot(f, p) == off]
        if tight and Mat(tight).rank() == W.nrows:
            verts.append(p)
    return tuple(sorted(verts))


def test_hull_vertices_match_tight_facet_rank_rule():
    rng = random.Random(41)
    for t in range(200):
        pts = _random_points(rng, 1 + t % 4)
        assert convex_hull(pts).vertices == _rank_rule_vertices(pts)


def _brute_facets(pts, dim):
    """Reference facets: the hyperplanes through dim affinely independent
    points that leave every point on one side, as primitive integer rows
    (normal..., offset)."""
    facets = set()
    for sub in itertools.combinations(pts, dim):
        m = Mat([p + (-1,) for p in sub])
        if m.rank() < dim:
            continue
        (h,) = m.kernel()
        vals = [vdot(h[:-1], p) - h[-1] for p in pts]
        if all(v >= 0 for v in vals):
            facets.add(h)
        elif all(v <= 0 for v in vals):
            facets.add(tuple(-x for x in h))
    return facets


def _brute_vertices(pts, k):
    """Reference vertices: the points in the hull of no k + 1 of the other
    points, k the affine dimension.  By Caratheodory a point inside lies
    in the hull of k + 1 affinely independent others, where the
    barycentric solve is unique."""
    def inside(p, sub):
        lam = Mat([[q[i] for q in sub] for i in range(len(p))]
                  + [[1] * len(sub)]).solve(p + (1,))
        return lam is not None and all(x >= 0 for x in lam)

    return tuple(p for p in pts if not any(
        inside(p, sub)
        for sub in itertools.combinations([q for q in pts if q != p], k + 1)))


def _affine_dim(pts):
    return Mat([tuple(a - b for a, b in zip(p, pts[0])) for p in pts]).rank()


def test_hull_matches_brute_force_facets_and_vertices():
    # a second hull algorithm: facets from all affinely independent point
    # subsets of full-dimensional sets, vertices by Caratheodory
    rng = random.Random(47)
    for t in range(32):
        dim = 1 + t % 4
        pts = []
        while len(pts) <= dim or _affine_dim(pts) < dim:
            pts = sorted(set(
                tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 2))
                      for _ in range(dim)) for _ in range(dim + 3)))
        hull = convex_hull(pts + [tuple((a + b) / 2
                                        for a, b in zip(pts[0], pts[1]))])
        assert {n + (b,) for n, b in hull.facets} == _brute_facets(pts, dim)
        assert hull.vertices == _brute_vertices(pts, dim)
    for t in range(32):
        pts = sorted(set(vec(p) for p in _random_points(rng, 2 + t % 3)))
        k = _affine_dim(pts)
        if k < len(pts[0]):
            assert convex_hull(pts).vertices == _brute_vertices(pts, k)


def test_independent_rows_matches_greedy_rank_selection():
    rng = random.Random(43)
    assert independent_rows([]) == []
    assert independent_rows([(), ()]) == []
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        r = rng.randint(0, min(m, n))
        left = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(m)]
        right = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
        rows = [tuple(sum(a * b[j] for a, b in zip(row, right))
                      for j in range(n)) for row in left]
        assert independent_rows(rows) == _greedy_independent(rows)


def test_gr36_hull_eliminates_at_most_five_times(monkeypatch):
    # one pick of independent directions, one kernel for the affine hull,
    # two in the double description (four in all: the coordinates need no
    # inverse); vertex status is read from its incidences
    gr = GrData(3, 6)
    pts = [homogenized_g(J, 3, 6) for J in gr.plucker_indices()]
    calls = []
    inner = linalg.Mat.rref
    monkeypatch.setattr(linalg.Mat, "rref",
                        lambda self: calls.append(1) or inner(self))
    convex_hull(pts)
    assert len(calls) <= 5


def test_gr36_hull_takes_one_inverse_and_no_matrix_product(monkeypatch):
    # the hull coordinates are integer Gram coordinates: no left inverse
    # (W W^T)^-1 W and no Mat products; the one inverse is the double
    # description's initial simplicial cone
    gr = GrData(3, 6)
    pts = [homogenized_g(J, 3, 6) for J in gr.plucker_indices()]
    calls = {"inverse": 0, "__mul__": 0}
    for name in calls:
        inner = getattr(linalg.Mat, name)

        def counted(self, *args, name=name, inner=inner):
            calls[name] += 1
            return inner(self, *args)
        monkeypatch.setattr(linalg.Mat, name, counted)
    convex_hull(pts)
    assert calls == {"inverse": 1, "__mul__": 0}


def test_hull_rejects_points_of_different_lengths():
    with pytest.raises(BadParams, match="same length"):
        convex_hull([(0, 0), (1, 0, 5), (0, 1)])
    with pytest.raises(BadParams, match="same length"):
        convex_hull([(0, 0, 0), (1, 0)])
