import random
from fractions import Fraction

import pytest

from ctrop import polytopes
from ctrop.acceptance import load_fixture_seed
from ctrop.errors import FrozenIndex, NotPositive, RankError
from ctrop.laurent import LaurentPolynomial
from ctrop.linalg import Mat
from ctrop.polytopes import convex_hull, lattice_points
from ctrop.seeds import FixedData, ensemble_map
from ctrop.trop import (PLMap, TropicalPoint, apply_pl_to_polytope,
                        i_involution, trop_mutate, tropicalize,
                        weight_fiber)

A2 = FixedData(2, {0, 1}, Mat([[0, 1], [-1, 0]]), (1, 1))
RUNNING = FixedData(2, {0, 1}, Mat([[0, 1], [-1, 0]]), (1, 2))


def test_trop_mutate_A_examples():
    s = A2.initial_seed()
    z = TropicalPoint((), (0, 0), "T")
    assert trop_mutate(z, 0, s, "A").coords == (0, 0)
    pt = TropicalPoint((), (0, 1), "T")
    assert trop_mutate(pt, 0, s, "A").coords == (-1, 1)
    pt2 = TropicalPoint((), (1, 0), "T")
    assert trop_mutate(pt2, 0, s, "A").coords == (1, 0)


def test_trop_mutate_X_examples():
    s = RUNNING.initial_seed()
    z = TropicalPoint((), (0, 0), "T")
    assert trop_mutate(z, 0, s, "X").coords == (0, 0)
    pt = TropicalPoint((), (1, 0), "T")
    out = trop_mutate(pt, 0, s, "X")
    assert out.coords == (1, 2)  # pt + v_1 with v_1 = (0, 2)
    back = trop_mutate(out, 0, s.mutate(0), "X")
    assert back.coords == pt.coords and back.word == ()


def test_trop_mutate_frozen():
    fd = FixedData(2, {0}, Mat([[0, 1], [-1, 0]]), (1, 1))
    with pytest.raises(FrozenIndex):
        trop_mutate(TropicalPoint((), (0, 0), "T"), 1, fd.initial_seed(),
                    "A")


def test_trop_bijection_fuzz():
    rng = random.Random(6)
    s = RUNNING.initial_seed()
    s1 = s.mutate(0)
    for _ in range(10000):
        c = (rng.randint(-50, 50), rng.randint(-50, 50))
        for conv in ("T", "t"):
            pt = TropicalPoint((), c, conv)
            for flavor in ("X", "A"):
                there = trop_mutate(pt, 0, s, flavor)
                assert trop_mutate(there, 0, s1, flavor).coords == c


def test_i_involution():
    pt = TropicalPoint((), (1, -2), "T")
    q = i_involution(pt)
    assert q.coords == (-1, 2) and q.conv == "t"
    assert i_involution(q).coords == pt.coords
    assert i_involution(TropicalPoint((), (0, 0), "t")).coords == (0, 0)


def test_tropicalize():
    f = LaurentPolynomial({(2, -1): 3}, 2)
    g = tropicalize(f, "T")
    assert g((1, 1)) == -1
    h = tropicalize(LaurentPolynomial({(0, 0): 1, (0, 1): 1}, 2), "t")
    assert h((5, -3)) == -3 and h((5, 3)) == 0
    with pytest.raises(NotPositive):
        tropicalize(LaurentPolynomial({(0, 0): -1}, 2), "T")


def test_tropicalize_convention_relation_and_homogeneity():
    rng = random.Random(8)
    for _ in range(50):
        coeffs = {(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(1, 5)
                  for _ in range(4)}
        f = LaurentPolynomial(coeffs, 2)
        gT = tropicalize(f, "T")
        gt = tropicalize(f, "t")
        a = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert gT(a) == gt((-a[0], -a[1]))
        lam = Fraction(rng.randint(0, 7), rng.randint(1, 5))
        assert gT((lam * a[0], lam * a[1])) == lam * gT(a)


def test_weight_fiber():
    h = Mat([[1, 1, 1]])
    fib = weight_fiber((2, 0, 0), h)
    assert fib.contains((0, 1, 1)) and not fib.contains((1, 1, 1))
    whole = weight_fiber((), Mat([]))
    assert whole.equalities == []
    with pytest.raises(RankError):
        weight_fiber((0, 0), Mat([[1, 1], [2, 2]]))


def test_apply_pl_single_chamber():
    s = A2.initial_seed()
    # square strictly inside the positive side of the bending hyperplane
    p = convex_hull([(1, 0), (2, 0), (1, 1), (2, 1)])
    plmap = PLMap.from_mutations(s, (0,), "X", "T")
    img, rep = apply_pl_to_polytope(plmap, p)
    assert rep.convex
    # linear image: m + m_0 * v_0 with v_0 = (0, 1)
    assert img == convex_hull([(1, 1), (2, 2), (1, 2), (2, 3)])


def test_apply_pl_straddling_square():
    s = A2.initial_seed()
    square = convex_hull([(-1, -1), (1, -1), (-1, 1), (1, 1)])
    plmap = PLMap.from_mutations(s, (0,), "X", "T")
    img, rep = apply_pl_to_polytope(plmap, square)
    # brute-force oracle: map the subdivision vertices directly
    pieces = []
    for v in [(-1, -1), (0, -1), (1, -1), (-1, 1), (0, 1), (1, 1),
              (-1, 0), (0, 0), (1, 0)]:
        if not (-1 <= v[0] <= 1 and -1 <= v[1] <= 1):
            continue
        x = v
        if x[0] >= 0:
            x = (x[0], x[1] + x[0])
        pieces.append(x)
    assert img == convex_hull(pieces)
    # the bend genuinely folds the square: the union is NOT convex (the
    # square is not a positive set), and the report says so
    assert rep.convex is False
    # mapping the hull back therefore overshoots but still covers the square
    back = PLMap.from_mutations(s.mutate(0), (0,), "X", "T")
    img2, _ = apply_pl_to_polytope(back, img)
    assert all(img2.contains(v) for v in square.vertices)


def test_apply_pl_single_step_properties():
    # random lattice polytopes through one tropical mutation: the image
    # holds the image of every lattice point, the inverse step carries the
    # image vertices back into p, and when the report says convex it
    # carries every lattice point of the image back into p
    rng = random.Random(11)
    seeds = [A2.initial_seed(), RUNNING.initial_seed(),
             load_fixture_seed("kronecker.json")]
    for s in seeds:
        for _ in range(12):
            p = convex_hull([(rng.randint(-3, 3), rng.randint(-3, 3))
                             for _ in range(rng.randint(1, 5))])
            for k in sorted(s.fixed.unfrozen):
                for flavor in ("A", "X"):
                    for conv in ("T", "t"):
                        pl = PLMap.from_mutations(s, (k,), flavor, conv)
                        back = PLMap.from_mutations(s.mutate(k), (k,),
                                                    flavor, conv)
                        img, rep = apply_pl_to_polytope(pl, p)
                        assert all(img.contains(pl.apply(x))
                                   for x in lattice_points(p))
                        assert all(p.contains(back.apply(v))
                                   for v in img.vertices)
                        if rep.convex:
                            assert all(p.contains(back.apply(y))
                                       for y in lattice_points(img))


def test_apply_pl_polytope_touching_bend_in_a_face():
    # [0,1]^2 meets the bending hyperplane x_0 = 0 only in its left edge
    s = A2.initial_seed()
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    img, rep = apply_pl_to_polytope(
        PLMap.from_mutations(s, (0,), "X", "T"), square)
    assert img == convex_hull([(0, 0), (1, 1), (0, 1), (1, 2)])
    assert rep.step_convex == [True]
    # with the t convention only the edge lies on the active side, where
    # the bracket vanishes
    img, rep = apply_pl_to_polytope(
        PLMap.from_mutations(s, (0,), "X", "t"), square)
    assert img == square and rep.step_convex == [True]


def test_apply_pl_double_description_runs_per_step(monkeypatch):
    # pieces are mapped by their vertices: one hull and at most four
    # halfspace cuts per step
    runs = []
    inner = polytopes._extreme_rays
    monkeypatch.setattr(polytopes, "_extreme_rays",
                        lambda rows, dim: runs.append(dim) or
                        inner(rows, dim))
    plmap = PLMap.from_mutations(A2.initial_seed(), (0,), "X", "T")
    straddling = convex_hull([(-1, -1), (1, -1), (-1, 1), (1, 1)])
    one_sided = convex_hull([(1, 0), (2, 0), (1, 1), (2, 1)])
    del runs[:]
    apply_pl_to_polytope(plmap, straddling)
    assert len(runs) <= 5
    del runs[:]
    apply_pl_to_polytope(plmap, one_sided)
    assert len(runs) <= 3


def test_fiber_positivity_of_bending_directions():
    # every bending direction of the principal diagram pairs to zero with
    # the weight sublattice, so broken lines stay in weight fibers
    from ctrop.scattering import complete_rank2, initial_diagram
    from ctrop.seeds import build_principal, principal_ensemble_map
    for fd in (A2, RUNNING):
        p = ensemble_map(fd)
        fdp = build_principal(fd)
        pp = principal_ensemble_map(fd, p)
        dia = complete_rank2(initial_diagram(fdp, pp, 8))
        # H = {(n, -p*^T n)}: rows pair to zero with every (p*(n'), n')
        n = fd.n
        for w in dia.walls:
            g = w.g
            gm, gn = g[:n], g[n:]
            assert tuple(int(x) for x in p.apply(gn)) == tuple(gm)
