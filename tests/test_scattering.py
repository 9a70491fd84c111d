import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm

import pytest

from ctrop import scattering
from ctrop.acceptance import fixture_diagram, gr36_fixture_diagram
from ctrop.errors import (BadParams, NonGenericEndpoint, RankUnsupported,
                          SingularPath, Truncated)
from ctrop.laurent import LaurentPolynomial, is_pointed, transport
from ctrop.linalg import Mat
from ctrop.scattering import (ScatteringDiagram, Wall, complete_rank2,
                              enumerate_broken_lines, initial_diagram,
                              is_consistent, loop_defect,
                              path_ordered_product, structure_constant,
                              theta_function, theta_on_x, wall_cross)
from ctrop.seeds import (FixedData, build_principal, ensemble_map,
                         principal_ensemble_map)
from ctrop.trop import TropicalPoint, trop_mutate

A2 = FixedData(2, {0, 1}, Mat([[0, 1], [-1, 0]]), (1, 1))
RUNNING = FixedData(2, {0, 1}, Mat([[0, 1], [-1, 0]]), (1, 2))
KRON = FixedData(2, {0, 1}, Mat([[0, 2], [-2, 0]]), (1, 1))
B2 = FixedData(2, {0, 1}, Mat([[0, 1], [-1, 0]]), (2, 1))
G2 = FixedData(2, {0, 1}, Mat([[0, 1], [-1, 0]]), (1, 3))
WILD33 = FixedData(2, {0, 1}, Mat([[0, 3], [-3, 0]]), (1, 1))


def a2_diagram(order=10):
    return complete_rank2(initial_diagram(A2, ensemble_map(A2), order))


def running_prin_diagram(order=12):
    p = ensemble_map(RUNNING)
    fdp = build_principal(RUNNING)
    pp = principal_ensemble_map(RUNNING, p)
    return complete_rank2(initial_diagram(fdp, pp, order)), p


def test_wall_cross_examples():
    w = Wall((1, 0), (0, 1), {1: 1}, (1, 0), 1, ())
    # zero pairing: unchanged
    out = wall_cross((1, (0, 3)), w, 1, max_k=3)
    assert out == LaurentPolynomial.monomial((0, 3))
    # the classical positive crossing
    out = wall_cross((1, (-1, 0)), w, -1, max_k=3)
    assert out == LaurentPolynomial({(-1, 0): 1, (-1, 1): 1}, 2)
    # negative power expands as a truncated geometric series
    out = wall_cross((1, (-1, 0)), w, 1, max_k=3)
    assert out == LaurentPolynomial({(-1, 0): 1, (-1, 1): -1, (-1, 2): 1,
                                     (-1, 3): -1}, 2)


def test_initial_rank_guard():
    fd = FixedData(3, {0, 1, 2}, Mat([[0, 1, 0], [-1, 0, 1], [0, -1, 0]]),
                   (1, 1, 1))
    with pytest.raises(RankUnsupported):
        initial_diagram(fd, ensemble_map(fd), 4)


def test_pentagon_defect_and_identity():
    dia0 = initial_diagram(A2, ensemble_map(A2), 10)
    assert not is_consistent(dia0)
    assert loop_defect(dia0, 2) != {}
    dia = complete_rank2(dia0)
    assert is_consistent(dia)
    rays = [w for w in dia.walls if w.faces]
    assert len(rays) == 1 and rays[0].n0 == (1, 1)
    assert rays[0].series == {1: Fraction(1)}


def test_path_ordered_product_identity_path():
    dia = a2_diagram()
    table = path_ordered_product([(1, 1), (1, 1)], dia)
    for j, poly in table.items():
        assert poly == LaurentPolynomial.monomial(
            tuple(1 if i == j else 0 for i in range(2)))


def test_running_example_completion():
    dia, _ = running_prin_diagram()
    assert is_consistent(dia)
    rays = sorted(w.n0 for w in dia.walls if w.faces)
    assert rays == [(1, 1), (1, 2)]


def test_kronecker_walls():
    p = ensemble_map(KRON)
    dia = complete_rank2(initial_diagram(KRON, p, 8))
    assert is_consistent(dia)
    rays = {w.n0: dict(w.series) for w in dia.walls if w.faces}
    # central wall carries the (1-x)^-2 series, side rays are binomials
    assert rays[(1, 1)] == {1: Fraction(2), 2: Fraction(3), 3: Fraction(4),
                            4: Fraction(5)}
    assert rays[(1, 2)] == {1: Fraction(1)}
    assert rays[(2, 1)] == {1: Fraction(1)}


def test_broken_lines_straight():
    dia = a2_diagram()
    lines, exact = enumerate_broken_lines(dia, (1, 1), (5, 7), 10)
    assert exact and len(lines) == 1
    assert lines[0].final() == (1, (1, 1))
    assert lines[0].segments[0][2] is None


def test_theta_examples():
    dia = a2_diagram()
    one, exact = theta_function(dia, (0, 0))
    assert one == LaurentPolynomial.one(2) and exact
    th, exact = theta_function(dia, (-1, 0))
    assert exact
    # oracle: pull the mutated cluster variable back to the initial chart
    s0 = A2.initial_seed()
    s1 = s0.mutate(0)
    oracle = transport(LaurentPolynomial.monomial((1, 0)), s1, s0, "A")
    assert th == oracle


def _theta_at(dia, m, basepoint):
    """(theta_m, exact) summed over the broken lines ending at the given
    basepoint, at the diagram's own order."""
    lines, exact = enumerate_broken_lines(dia, m, basepoint)
    poly = LaurentPolynomial.zero(dia.dim)
    for ln in lines:
        c, e = ln.final()
        poly = poly + LaurentPolynomial({e: c}, dia.dim)
    return poly, exact


def test_theta_pointed_and_endpoint_independent():
    dia = a2_diagram()
    s0 = A2.initial_seed()
    p = ensemble_map(A2)
    basepoints = [(Fraction(3, 2), Fraction(5, 7)),
                  (Fraction(13, 11), Fraction(2, 3)),
                  (Fraction(1, 5), Fraction(9, 4)),
                  (Fraction(7, 3), Fraction(1, 13)),
                  (Fraction(10, 7), Fraction(10, 9))]
    for m in [(-1, 0), (0, -1), (-2, 1), (1, -1), (-1, -1)]:
        vals = set()
        for bp in basepoints:
            th, exact = _theta_at(dia, m, bp)
            assert exact
            vals.add(th)
        assert vals == {theta_function(dia, m)[0]}
        th = vals.pop()
        assert is_pointed(th, s0, p) == m


def greedy(a1, a2, b, c, box=12):
    """The greedy element x[a1, a2] of the rank-2 cluster algebra A(b, c)
    (Lee-Li-Zelevinsky 2014), as {exponent: coefficient}: the sum of
    c(p, q) x1^(bp - a1) x2^(cq - a2) over 0 <= p, q <= box, with c(0, 0)
    = 1 and every other c(p, q) the larger of the two sums below."""
    cs = {}
    for p, q in product(range(box + 1), repeat=2):
        s1 = sum((-1) ** (k - 1) * cs[p - k, q]
                 * comb(max(a2 - c * q, 0) + k - 1, k)
                 for k in range(1, p + 1))
        s2 = sum((-1) ** (k - 1) * cs[p, q - k]
                 * comb(max(a1 - b * p, 0) + k - 1, k)
                 for k in range(1, q + 1))
        cs[p, q] = max(s1, s2) if p or q else 1
    return {(b * p - a1, c * q - a2): v for (p, q), v in cs.items() if v}


# (fixed data, (b, c) of the greedy recursion, order, label box, labels
# whose theta function hits the order); (b, c) follows d, since the
# transposed orientation fails on G2
GREEDY_CASES = [
    (A2, (1, 1), 10, 2, []),
    (RUNNING, (1, 2), 10, 2, []),
    (B2, (2, 1), 10, 2, []),
    (G2, (1, 3), 12, 2, []),
    (KRON, (2, 2), 12, 3, [(-3, -3)]),
    (WILD33, (3, 3), 10, 2, [(-2, -2)]),
]


@pytest.mark.parametrize("fd, bc, order, box, truncated", GREEDY_CASES,
                         ids=["A2", "running", "B2", "G2", "kronecker",
                              "wild33"])
def test_theta_equals_greedy_element(fd, bc, order, box, truncated):
    """Outside oracle: in rank 2 the theta basis is the greedy basis
    (Cheung-Gross-Muller-Musiker-Rupel-Stella-Williams 2017), and the
    greedy element x[a] has the least exponent -a in each coordinate."""
    dia = complete_rank2(initial_diagram(fd, ensemble_map(fd), order))
    cut = []
    for m in product(range(-box, box + 1), repeat=2):
        if not any(m):
            continue
        theta, exact = theta_function(dia, m)
        if not exact:
            cut.append(m)
            continue
        a = [-min(e[i] for e in theta.coeffs) for i in range(2)]
        assert theta.coeffs == greedy(*a, *bc), m
        if sum(m) == -box:
            # a larger recursion box adds no term
            assert greedy(*a, *bc, box=16) == greedy(*a, *bc), m
    assert cut == truncated


def _mutated_data(fd, k):
    """(s, s', fd'): the initial seed s, its mutation s' at k, and fixed
    data whose initial seed is s': the skew form B' skew B'^T read in the
    basis B' of s', with the same multipliers."""
    s = fd.initial_seed()
    s1 = s.mutate(k)
    b = s1.basis
    fd1 = FixedData(fd.n, fd.unfrozen, b * fd.skew * b.transpose(), fd.d)
    assert fd1.epsilon() == s1.eps
    return s, s1, fd1


def _label_map(s, s1, k, flavor="X", conv="T"):
    """The theta label map T from s to s' = s.mutate(k): the tropical
    mutation of the label, then rewritten from initial coordinates into
    the own coordinates of s' through its A frame."""
    den, rows = s1.frames("A")[1]

    def T(m):
        x = trop_mutate(TropicalPoint((), m, conv), k, s, flavor).coords
        own = [Fraction(sum(a * b for a, b in zip(r, x)), den) for r in rows]
        assert all(c.denominator == 1 for c in own), (m, own)
        return tuple(c.numerator for c in own)

    return T


def _alpha(dia, t):
    try:
        return structure_constant(dia, *t)
    except Truncated:
        return None


# (fixed data, order, label box, then per mutable k the theta labels and
# the indices of the triples that hit the order on either seed); (-1, -1)
# lies outside the cluster complex of the Kronecker and (3, 3) data
SEED_CASES = [
    (A2, 6, 2, [[(-2, -2)], []], [[(-2, -2), (-2, 2)], []]),
    (B2, 6, 2, [[(-2, -2), (-1, -2), (0, -2)], []],
     [[(-2, -2), (-2, -1), (-2, 2), (-1, -2), (0, -2)], []]),
    (G2, 6, 2, [[(-2, -2)], []],
     [[(-2, -2), (-2, -1), (-2, 0), (-2, 1), (-2, 2), (-1, -2), (-1, -1),
       (-1, 2), (0, -2)], [4]]),
    (KRON, 8, 1, [[], []], [[(-1, -1)], [4]]),
    (WILD33, 8, 1, [[], []], [[(-1, -1), (0, -1)], [4]]),
]

# (p, q) pairs for the structure constants; r runs over p + q plus 0, g1,
# g2 and g1 + g2, the p*_1 images of the mutable basis vectors
SEED_PAIRS = [((-1, 0), (1, 0)), ((-1, -1), (1, 1)), ((-1, -1), (-1, 0))]


@pytest.mark.parametrize("fd, order, box, cut0, cut1", SEED_CASES,
                         ids=["A2", "B2", "G2", "kronecker", "wild33"])
def test_theta_and_alpha_independent_of_seed(fd, order, box, cut0, cut1):
    """Theta functions and structure constants do not depend on the seed
    (GHKK 2018): the diagram built at s' = s.mutate(k) has the theta
    function theta'_T(m) = transport(theta_m, s, s'), and alpha'(Tp, Tq,
    Tr) = alpha(p, q, r), where T is the X-flavor tropical mutation in
    the T convention, read in the own coordinates of s'.  Labels that hit
    the order on either seed are listed and not compared."""
    dia = complete_rank2(initial_diagram(fd, ensemble_map(fd), order))
    thetas = {m: theta_function(dia, m)
              for m in product(range(-box, box + 1), repeat=2) if any(m)}
    g1, g2 = fd.epsilon().rows
    triples = [(p, q, tuple(a + b + i * c + j * d
                            for a, b, c, d in zip(p, q, g1, g2)))
               for p, q in SEED_PAIRS for i, j in product((0, 1), repeat=2)]
    alphas = [_alpha(dia, t) for t in triples]
    assert 4 <= sum(map(bool, alphas)) < len(alphas)
    for k, (cut_theta, cut_alpha) in enumerate((cut0, cut1)):
        s, s1, fd1 = _mutated_data(fd, k)
        dia1 = complete_rank2(initial_diagram(fd1, ensemble_map(fd1), order))
        T = _label_map(s, s1, k)
        cut = []
        for m, (theta, exact) in thetas.items():
            theta1, exact1 = theta_function(dia1, T(m))
            if not (exact and exact1):
                cut.append(m)
                continue
            assert transport(theta, s, s1, "A") == theta1, (k, m)
        assert cut == cut_theta
        cut = []
        for i, (t, alpha) in enumerate(zip(triples, alphas)):
            alpha1 = _alpha(dia1, tuple(map(T, t)))
            if alpha is None or alpha1 is None:
                cut.append(i)
                continue
            assert alpha1 == alpha, (k, t)
        assert cut == cut_alpha
        if fd is A2 and k == 0:
            # the convention is pinned: each other flavor and convention
            # pair maps some label to another theta function
            for flavor, conv in (("A", "T"), ("A", "t"), ("X", "t")):
                T = _label_map(s, s1, k, flavor, conv)
                assert any(transport(theta, s, s1, "A")
                           != theta_function(dia1, T(m))[0]
                           for m, (theta, _) in thetas.items()), (flavor, conv)


def test_theta_on_x_running_example():
    dia, p = running_prin_diagram()
    th, exact = theta_on_x(dia, (-2, -4), p)
    assert exact
    assert th == LaurentPolynomial({(-1, -2): 1, (-1, -1): 2, (-1, 0): 1}, 2)
    mono, exact = theta_on_x(dia, (2, -2), p)
    assert mono == LaurentPolynomial.monomial((1, -1))
    const, _ = theta_on_x(dia, (0, 0), p)
    assert const == LaurentPolynomial.one(2)


def test_alpha_examples():
    dia = a2_diagram()
    assert structure_constant(dia, (-1, 0), (1, 0), (0, 0)) == 1
    assert structure_constant(dia, (-1, 0), (1, 0), (0, 1)) == 1
    assert structure_constant(dia, (-1, 0), (1, 0), (5, 5)) == 0
    assert structure_constant(dia, (2, -1), (0, -1), (2, -2)) == 1


def test_nongeneric_endpoint():
    dia = a2_diagram()
    with pytest.raises(NonGenericEndpoint):
        enumerate_broken_lines(dia, (-1, 0), (0, 1), 10)


def test_label_of_wrong_length_is_rejected():
    dia = a2_diagram()
    for label in ((1,), (0, 0, 0), (-1, 0, 1)):
        with pytest.raises(BadParams):
            theta_function(dia, label)
        with pytest.raises(BadParams):
            enumerate_broken_lines(dia, label, (Fraction(1, 3), 1))
        with pytest.raises(BadParams):
            structure_constant(dia, label, (1, 0), (0, 1))
        with pytest.raises(BadParams):
            structure_constant(dia, (1, 0), (0, 1), label)


def test_gr36_bend_fixture():
    # single initial wall; the maximally bending line from the fixture
    phi = (1, 0, -1, 0, -1, 1, 0, 0, 0)
    g = tuple(1 if i == 1 else 0 for i in range(9))
    dia = ScatteringDiagram([Wall(phi, g, {1: 1}, (1,), 1, ())], 9, 8)
    v1 = (1, 1, 2, 1, 2, 1, 1, 1, 1)
    endpoint = (1, 0, 0, 0, 0, 0, 0, 0, 0)
    lines, exact = enumerate_broken_lines(dia, v1, endpoint, 4)
    assert exact
    finals = sorted(ln.final()[1] for ln in lines)
    v2 = (1, 3, 2, 1, 2, 1, 1, 1, 1)
    assert tuple(v2) in [tuple(f) for f in finals]
    maxbend = [ln for ln in lines if ln.final()[1] == v2][0]
    assert maxbend.final()[0] == 1
    assert maxbend.leg_times() == [Fraction(1, 2)]


def test_gr36_two_nonzero_structure_constants():
    dia, fx = gr36_fixture_diagram()
    p = tuple(fx["valuations"]["124"])
    q = tuple(fx["valuations"]["356"])
    pq = tuple(a + b for a, b in zip(p, q))
    nonzero = {}
    for c in product(range(3), repeat=4):
        off = [0] * 9
        for j, w in enumerate(dia.walls):
            for i in range(9):
                off[i] += c[j] * w.g[i]
        r = tuple(a + b for a, b in zip(pq, off))
        alpha = structure_constant(dia, p, q, r, 8)
        if alpha != 0:
            nonzero[r] = alpha
    bend = tuple(a + b for a, b in zip(pq, dia.walls[2].g))
    assert nonzero == {pq: 1, bend: 1}


def _binomial_power_terms(series, power, kmax):
    """Reference f^power: sum over i of C(power, i) (f - 1)^i, truncated."""
    u = {k: c for k, c in series.items() if k <= kmax}
    out = {0: Fraction(1)}
    ui = {0: Fraction(1)}
    binom = Fraction(1)
    i = 1
    while True:
        nxt = {}
        for ka, ca in ui.items():
            for kb, cb in u.items():
                if ka + kb <= kmax:
                    nxt[ka + kb] = nxt.get(ka + kb, Fraction(0)) + ca * cb
        ui = nxt
        if not ui:
            break
        binom *= Fraction(power - i + 1, i)
        for k, cu in ui.items():
            out[k] = out.get(k, Fraction(0)) + binom * cu
        if 0 <= power <= i:
            break
        i += 1
    return {k: c for k, c in out.items() if c != 0}


def test_power_terms_match_binomial_expansion():
    rng = random.Random(9)
    for _ in range(300):
        lo = rng.randint(1, 3)
        series = {k: Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                  for k in range(lo, lo + rng.randint(1, 4))}
        series[lo] = series[lo] or Fraction(1)
        w = Wall((1, 0), (0, 1), series, (1, 0), 1, ())
        power, kmax = rng.randint(-7, 7), rng.randint(0, 12)
        got = w.power_terms(power, kmax)
        assert got == _binomial_power_terms(w.series, power, kmax)
        # int exactly when integral
        assert all(type(c) is (int if c.denominator == 1 else Fraction)
                   for c in got.values())


def test_theta_independent_of_endpoint():
    rng = random.Random(5)
    cases = [("a2", False, 6, 2), ("running-example", False, 8, 2),
             ("kronecker", False, 6, 2), ("running-example", True, 6, 1)]
    for name, principal, order, box in cases:
        dia, _ = fixture_diagram(name, order, principal)
        for m in product(range(-box, box + 1), repeat=dia.dim):
            if not any(m):
                continue
            theta = theta_function(dia, m)
            if not theta[1]:
                continue
            for _ in range(3):
                # mutable coordinates > 0: a point of C+
                bp = tuple(Fraction(rng.randint(1, 999), rng.randint(1, 999))
                           if k in dia.unfrozen else
                           Fraction(rng.randint(-999, 999), rng.randint(1, 99))
                           for k in range(dia.dim))
                assert _theta_at(dia, m, bp) == theta, \
                    (name, principal, m, bp)


def test_bend_point_on_several_walls():
    # the path x0 + s (2, -1, 0) runs inside the hyperplane of the ray
    # wall {x2 = 0, x0 >= 0} and bends on the line x1 = 0 at (1, 0, 0),
    # a point of the ray wall
    line = Wall((0, 1, 0), (0, 0, 1), {1: 1}, (1, 0), 1, ())
    ray = Wall((0, 0, 1), (-1, 0, 0), {1: 1}, (1, 1), 1, [(1, 0, 0)])
    dia = ScatteringDiagram([line, ray], 3, 4, unfrozen=(0, 1))
    with pytest.raises(NonGenericEndpoint, match="bend point on several"):
        enumerate_broken_lines(dia, (3, -1, 0), (-1, 1, 0), 1)


def test_cone_wall_faces_in_either_order():
    # the quadrant {x2 = 0, x0 >= 0, x1 >= 0}: a crossing off the cone is
    # skipped even where another face vanishes there, and one on the
    # cone's boundary is a joint, whatever the order of the faces
    for faces in ([(1, 0, 0), (0, 1, 0)], [(0, 1, 0), (1, 0, 0)]):
        wall = Wall((0, 0, 1), (1, 0, 0), {1: 1}, (1,), 1, faces)
        dia = ScatteringDiagram([wall], 3, 4)

        def crossed(x):
            return [i for _, i, _ in scattering._segment_crossings(
                dia, (x, 1, (x[2],), None), (0, 0, 1))]

        assert crossed((1, 1, -1)) == [0]
        assert crossed((0, -1, -1)) == crossed((-1, 0, -1)) == []
        with pytest.raises(NonGenericEndpoint, match="joint"):
            crossed((0, 1, -1))
        assert dia.on_wall((0, 1, 0), (0,)) == [0]
        assert dia.on_wall((0, -1, 0), (0,)) == []


def test_path_through_wall_intersection():
    walls = [Wall((1, 0), (0, 1), {1: 1}, (1,), 1, ()),
             Wall((0, 1), (-1, 0), {1: 1}, (1,), 1, ())]
    dia = ScatteringDiagram(walls, 2, 4)
    with pytest.raises(NonGenericEndpoint, match="wall intersection"):
        enumerate_broken_lines(dia, (-1, -1), (1, 1), 2)


def test_broken_lines_carry_wall_values(monkeypatch):
    # the walls are evaluated once at the endpoint; bends reuse the values
    dia = a2_diagram()
    rational = []
    real_vdot = scattering.vdot

    def vdot(a, b):
        if any(Fraction(c).denominator != 1 for c in b):
            rational.append(b)
        return real_vdot(a, b)

    monkeypatch.setattr(scattering, "vdot", vdot)
    lines, exact = enumerate_broken_lines(
        dia, (-2, 1), (Fraction(3, 2), Fraction(5, 7)), 10)
    assert exact and any(len(ln.segments) > 1 for ln in lines)
    assert len(rational) == len(dia.walls)


def test_endpoint_of_wrong_length_is_rejected():
    dia = a2_diagram()
    for point in ((), (Fraction(3, 2),), (Fraction(3, 2), 1, 1)):
        with pytest.raises(BadParams):
            enumerate_broken_lines(dia, (-1, 0), point, 10)


def test_diagram_without_mutable_directions():
    dia, fx = gr36_fixture_diagram()
    p = tuple(fx["valuations"]["124"])
    q = tuple(fx["valuations"]["356"])
    for call in (lambda: theta_function(dia, p),
                 lambda: loop_defect(dia, dia.order),
                 lambda: is_consistent(dia),
                 lambda: path_ordered_product([(1, 1), (-1, 1)], dia),
                 lambda: complete_rank2(dia)):
        with pytest.raises(BadParams):
            call()
    pq = tuple(a + b for a, b in zip(p, q))
    assert structure_constant(dia, p, q, pq, 8) == 1



def test_one_mutable_direction_has_no_loop_defect():
    # one wall, crossed there and back: consistent, and the defect is empty
    fd = FixedData(2, {0}, Mat([[0, 1], [-1, 0]]), (1, 1))
    dia = initial_diagram(fd, ensemble_map(fd), 4)
    assert is_consistent(dia)
    assert loop_defect(dia, dia.order) == {}
    assert loop_defect(dia, 2) == {}


def test_path_ordered_product_needs_two_mutable_directions():
    fd = FixedData(2, {0}, Mat([[0, 1], [-1, 0]]), (1, 1))
    dia = initial_diagram(fd, ensemble_map(fd), 4)
    with pytest.raises(RankUnsupported):
        path_ordered_product([(1, 1), (-1, 1)], dia)


def test_degree_bound_zero_reports_truncation():
    # theta_{(-1,0)} = z^(-1,0) + z^(-1,1): at bound 0 only the straight
    # line is found, and it has reached the bound
    dia = a2_diagram(6)
    th, exact = theta_function(dia, (-1, 0), degree_bound=0)
    assert th == LaurentPolynomial.monomial((-1, 0)) and not exact
    th, exact = theta_function(dia, (-1, 0))
    assert exact and len(th.coeffs) == 2


def test_negative_orders_are_rejected():
    with pytest.raises(BadParams):
        initial_diagram(A2, ensemble_map(A2), -1)
    with pytest.raises(BadParams):
        enumerate_broken_lines(a2_diagram(), (-1, 0), (5, 7), -1)


def _on_ray(y, u):
    """Is the 2d point y on the closed ray through u (u != 0)?  The shadow
    test, the reference for the face form of a ray wall."""
    cross = y[0] * u[1] - y[1] * u[0]
    return cross == 0 and y[0] * u[0] + y[1] * u[1] >= 0


def _ray_dir(dia, w):
    """The outgoing direction -proj(g) of a ray wall in the 2d shadow."""
    return tuple(-x for x in dia.proj(w.g))


def _shadow_on_wall(dia, y, hy):
    """Reference on_wall: the walls with value 0 at y, a ray wall only
    where the shadow of y lies on its outgoing ray."""
    return [i for i, w in enumerate(dia.walls) if hy[i] == 0 and
            (not w.faces or _on_ray(dia.proj(y), _ray_dir(dia, w)))]


def _fraction_crossings(dia, x, h, v):
    """Reference crossings of the ray {x + s v : s > 0} on Fractions, where
    h holds every wall's value at x: s = -h_i / phi_i·v for every wall
    with phi_i·v != 0; (s, wall index, point, values at the point) for
    the crossings at s > 0, sorted."""
    dens = [sum(a * b for a, b in zip(w.phi, v)) for w in dia.walls]
    found = []
    for i, w in enumerate(dia.walls):
        if dens[i] == 0:
            continue
        s = Fraction(h[i], -dens[i])
        if s <= 0:
            continue
        if w.faces:
            yp = tuple(a + s * b for a, b in zip(dia.proj(x), dia.proj(v)))
            if not any(yp):
                raise NonGenericEndpoint("path through a joint")
            if not _on_ray(yp, _ray_dir(dia, w)):
                continue
        found.append((s, i))
    found.sort()
    for (s1, _), (s2, _) in zip(found, found[1:]):
        if s1 == s2:
            raise NonGenericEndpoint("path through a wall intersection")
    return [(s, i, tuple(a + s * b for a, b in zip(x, v)),
             tuple(a + s * b for a, b in zip(h, dens)))
            for s, i in found]


def _outcome(fn):
    try:
        return fn()
    except NonGenericEndpoint as exc:
        return "NonGenericEndpoint: %s" % exc


def test_integer_crossings_match_fraction_reference():
    # the integer kernel against the Fraction one on random rational
    # points and directions, and on rays sent through a joint or through
    # the meeting of two walls; the principal diagrams put the ray faces
    # beside frozen coordinates, and B2 and G2 scale phi by d
    rng = random.Random(11)
    errors = set()
    diagrams = [fixture_diagram(name, 8, principal)[0]
                for name in ("a2", "running-example", "kronecker")
                for principal in (False, True)]
    diagrams += [complete_rank2(initial_diagram(fd, ensemble_map(fd), 8))
                 for fd in (B2, G2)]
    for dia in diagrams + [gr36_fixture_diagram()[0]]:
        phis = [w.phi for w in dia.walls]
        meets = [Mat([phis[a], phis[b]]).kernel()
                 for a in range(len(phis)) for b in range(a + 1, len(phis))]
        for trial in range(300):
            v = tuple(rng.randint(-3, 3) for _ in range(dia.dim))
            x = [Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                 for _ in range(dia.dim)]
            if trial % 3:
                # send the ray through a point of two walls at s0 > 0: a
                # joint in the rank-2 diagrams, where the walls' normals
                # span the mutable coordinates
                z = [Fraction(0)] * dia.dim
                for kv in rng.choice(meets):
                    c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    z = [a + c * b for a, b in zip(z, kv)]
                hz = tuple(sum(a * b for a, b in zip(p, z)) for p in phis)
                # the closed cones: a joint is on every wall through it
                assert dia.on_wall(z, hz) == _shadow_on_wall(dia, z, hz)
                s0 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
                x = [a - s0 * b for a, b in zip(z, v)]
            x = tuple(x)
            h = tuple(sum(a * b for a, b in zip(p, x)) for p in phis)
            den = lcm(*(a.denominator for a in x))
            X = tuple(int(a * den) for a in x)
            H = tuple(sum(a * b for a, b in zip(p, X)) for p in phis)
            want = _outcome(lambda: _fraction_crossings(dia, x, h, v))
            got = _outcome(lambda: scattering._segment_crossings(
                dia, (X, den, H, None), v))
            if isinstance(want, str):
                assert got == want, (x, v)
                errors.add(want)
                continue
            assert [(s, i) for s, i, _ in got] == \
                [(s, i) for s, i, _, _ in want]
            for (_, _, (Y, D, HY, _)), (_, _, y, hy) in zip(got, want):
                # the point in lowest terms, and its wall values
                assert D > 0 and gcd(*Y, D) == 1
                assert tuple(Fraction(a, D) for a in Y) == y
                assert tuple(Fraction(a, D) for a in HY) == hy
                # the face form of the support against the 2d shadow
                assert dia.on_wall(Y, HY) == _shadow_on_wall(dia, y, hy)
    assert errors == {"NonGenericEndpoint: path through a joint",
                      "NonGenericEndpoint: path through a wall intersection"}


def _wall_sum_offsets(dia, bound):
    """The broken-line start offsets as sums of wall directions, the
    reference for the offset table: sum j_w g_w over the walls with a
    nonzero series, total degree sum j_w deg_w <= bound, each offset with
    its least degree."""
    offs = {(0,) * dia.dim: 0}
    for w in dia.walls:
        if w.max_k() == 0:
            continue
        cur = dict(offs)
        for off, d0 in offs.items():
            for j in range(1, bound // w.deg + 1):
                d = d0 + j * w.deg
                if d > bound:
                    break
                e = tuple(a + j * b for a, b in zip(off, w.g))
                if e not in cur or cur[e] > d:
                    cur[e] = d
        offs = cur
    return offs


def test_offsets_on_the_generator_lattice_match_wall_sums():
    # every wall direction has its degree as its generator depth, so the
    # generator lattice within the bound holds exactly the wall sums
    cases = [(fixture_diagram(name, order, principal)[0], order)
             for name in ("a2", "running-example", "kronecker")
             for principal in (False, True) for order in (6, 12)]
    gr36 = gr36_fixture_diagram()[0]
    cases += [(gr36, bound) for bound in range(9)]
    for dia, bound in cases:
        got = {off: d for off, (_, d) in dia.offsets().items() if d <= bound}
        assert got == _wall_sum_offsets(dia, bound), (dia.fd, bound)
    assert len(gr36.offsets()) == 495


def _generators(dia):
    """The columns a diagram measures depth against, with their degrees:
    the p*_1 images of the mutable basis vectors for a cluster diagram,
    else the distinct wall exponent directions in wall order."""
    if dia.fd is not None:
        return [(tuple(dia.fd.epsilon().rows[k]), 1) for k in dia.unfrozen]
    gens = {}
    for w in dia.walls:
        gens.setdefault(w.g, w.deg)
    return list(gens.items())


def test_offset_coefficients_and_depth_against_brute_force():
    # the table is {G c: (c, sum c_i deg_i)} over c >= 0 within the order;
    # no offset with a negative coefficient or a half one enters it
    diagrams = [fixture_diagram(name, 6, principal)[0]
                for name in ("a2", "running-example", "kronecker")
                for principal in (False, True)]
    for dia in diagrams + [gr36_fixture_diagram()[0]]:
        gens = _generators(dia)
        G = Mat.from_cols([g for g, _ in gens])
        want = {}
        for c in product(range(dia.order + 1), repeat=len(gens)):
            depth = sum(a * d for a, (_, d) in zip(c, gens))
            if depth <= dia.order:
                want[G * c] = (c, depth)
        table = dia.offsets()
        assert table == want
        assert list(table) == sorted(want)
        for c in product(range(-2, 3), repeat=len(gens)):
            off = G * c
            if min(c) < 0:
                assert off not in table
            half = tuple(a + Fraction(b, 2) for a, b in zip(off, gens[0][0]))
            assert half not in table


def test_dependent_wall_directions_are_rejected():
    phi, g = (1, 0, 0), (0, 1, 0)
    dia = ScatteringDiagram([Wall(phi, g, {1: 1}, (1,), 1, ()),
                             Wall(phi, (0, 2, 0), {1: 1}, (1,), 2, ())],
                            3, 4)
    with pytest.raises(BadParams, match="dependent"):
        dia.offsets()
    with pytest.raises(BadParams, match="dependent"):
        enumerate_broken_lines(dia, (1, 0, 0), (1, 1, 1))


def test_wall_direction_outside_the_offset_table_is_rejected():
    # a hand-built wall whose direction is no nonnegative combination of
    # the mutable generators: its crossing terms have no depth
    dia = initial_diagram(A2, ensemble_map(A2), 4)
    dia.walls.append(Wall((1, 1), (1, -1), {1: 1}, (1, 1), 1, ()))
    with pytest.raises(BadParams, match="positive exponent cone"):
        is_consistent(dia)


def test_wall_depth_is_the_wall_degree():
    # a wall crossing keeps every term it makes without measuring its depth
    # again: the j-th wall term adds j * deg to the depth, so the depth of
    # each wall's exponent direction must be its degree
    diagrams = [fixture_diagram(name, order, principal)[0]
                for order in (4, 8, 12) for principal in (False, True)
                for name in ("a2", "running-example", "kronecker")]
    for dia in diagrams + [gr36_fixture_diagram()[0]]:
        for w in dia.walls:
            assert dia.offsets()[w.g][1] == w.deg, (w, dia.order)


def test_depth_queries_eliminate_once(monkeypatch):
    # the rank check is the table's one elimination, and every lookup
    # after it reads the kept table; at_order gives a diagram with no
    # table yet
    dia = fixture_diagram("kronecker", 6, False)[0]
    dia = dia.at_order(dia.order + 1)
    calls = []
    inner = Mat.rref
    monkeypatch.setattr(Mat, "rref",
                        lambda self: calls.append(1) or inner(self))
    for w in dia.walls:
        assert dia.offsets()[w.g][1] == w.deg
    assert dia.offsets() is dia.offsets()
    assert len(calls) == 1


def test_degree_bound_above_the_order_is_rejected():
    # an order-2 diagram has no wall terms past degree 2, so a bound of 8
    # on it would read a theta function short of a term as exact; the
    # order-8 diagram gives all 8 terms
    dia2 = fixture_diagram("kronecker", 2)[0]
    dia8 = fixture_diagram("kronecker", 8)[0]
    theta, exact = theta_function(dia8, (3, -3), degree_bound=8)
    assert exact and len(theta.coeffs) == 8
    run = fixture_diagram("running-example", 2)[0]
    p, q, r = (1, -3), (2, -3), (3, -6)
    for call in (lambda: theta_function(dia2, (3, -3), degree_bound=8),
                 lambda: theta_function(run, p, degree_bound=3),
                 lambda: structure_constant(run, p, q, r, 3),
                 lambda: scattering.LazyThetaTable(run, 3)[q]):
        with pytest.raises(BadParams, match="degree bound"):
            call()
    assert theta_function(run, p, degree_bound=2)[0] == \
        theta_function(run, p)[0]


def _angle_key(a, u):
    """Exact sort key for the CCW angle from direction a to direction u in
    (0, 2pi); None when u is positively parallel to a."""
    cross = a[0] * u[1] - a[1] * u[0]
    dot = a[0] * u[0] + a[1] * u[1]
    if cross == 0:
        return None if dot > 0 else (1, Fraction(0))
    return (0 if cross > 0 else 2, -Fraction(dot, cross))


def _angular_crossings(dia, chambers):
    """Reference wall sweep on Fraction angles: on each side, the wall rays
    (both halves of a line) strictly inside the CCW arc from its start to
    its end, by angle, each signed -1 when the wall's functional grows
    along the CCW flow there."""
    rays = []
    for i, w in enumerate(dia.walls):
        if not w.faces:
            phi = dia.proj(w.phi)
            rays += [((-phi[1], phi[0]), i), ((phi[1], -phi[0]), i)]
        else:
            rays.append((_ray_dir(dia, w), i))
    dirs = [tuple(Fraction(x) for x in c) for c in chambers]
    if any(_angle_key(d, u) is None for d in dirs for u, _ in rays):
        raise SingularPath("chamber direction on a wall")
    out = []
    for a, b in zip(dirs, dirs[1:]):
        end = _angle_key(a, b)
        if end is None:
            continue
        seg = [(_angle_key(a, u), u, i) for u, i in rays]
        seg = sorted((t for t in seg if t[0] is not None and t[0] < end),
                     key=lambda t: (t[0], dia.walls[t[2]].n0))
        for _, u, i in seg:
            flow = scattering.vdot(dia.proj(dia.walls[i].phi), (-u[1], u[0]))
            out.append((i, -1 if flow > 0 else 1))
    return out


def _path_outcome(fn):
    try:
        return fn()
    except SingularPath as exc:
        return "SingularPath: %s" % exc


def _ccw_chambers(rng, on_wall):
    """Random chamber directions, each side turning CCW by less than a
    half-turn, now and then on a wall or repeated."""
    nz = [c for c in range(-9, 10) if c]
    dirs = [(rng.choice(nz), rng.choice(nz))]
    for _ in range(rng.randint(1, 7)):
        a = dirs[-1]
        r = rng.random()
        if r < 0.05:
            dirs.append(a)
            continue
        while True:
            b = rng.choice(on_wall) if r < 0.15 else \
                (rng.choice(nz), rng.choice(nz))
            if a[0] * b[1] - a[1] * b[0] > 0:
                break
            r = 1
        q = rng.randint(1, 3)
        dirs.append(tuple(Fraction(x, q) for x in b))
    return dirs


def test_loop_crossings_match_angular_sweep():
    # the integer segment sweep against the Fraction angle sweep it
    # replaced: the same (wall, sign) lists and the same SingularPath
    rng = random.Random(19)
    seen = Counter()
    for fd in (A2, RUNNING, KRON, B2, G2):
        for principal in (False, True):
            if principal:
                dia0 = initial_diagram(
                    build_principal(fd),
                    principal_ensemble_map(fd, ensemble_map(fd)), 6)
            else:
                dia0 = initial_diagram(fd, ensemble_map(fd), 6)
            for dia in (dia0, complete_rank2(dia0)):
                on_wall = [u for w in dia.walls
                           for u in (dia.proj(w.g),
                                     tuple(-x for x in dia.proj(w.g)))]
                for _ in range(40):
                    ch = _ccw_chambers(rng, on_wall)
                    want = _path_outcome(lambda: _angular_crossings(dia, ch))
                    got = _path_outcome(
                        lambda: scattering._crossings(dia, ch))
                    assert got == want, (ch, dia.walls)
                    seen["singular" if isinstance(want, str) else
                         "crossing" if want else "empty"] += 1
                loop = scattering._generic_loop_dirs(dia)
                assert scattering._crossings(dia, loop) == \
                    _angular_crossings(dia, loop)
    # singular paths, paths with crossings and empty ones all occur
    assert seen["singular"] > 100 and seen["crossing"] > 400 and \
        seen["empty"] > 10


def test_completion_corrects_each_degree_once(monkeypatch):
    # the degree-d defect is linear in the new degree-d ray coefficients:
    # one loop product per degree fixes it
    orders = []
    real = scattering.loop_defect
    monkeypatch.setattr(scattering, "loop_defect",
                        lambda dia, order=None: orders.append(order)
                        or real(dia, order))
    dia = a2_diagram(10)
    assert orders == list(range(2, 11))
    assert is_consistent(dia)


def test_generic_loop_dirs_search_as_far_as_the_walls_need():
    # line wall t holds the first-quadrant candidate (t + 1, t) and the
    # third-quadrant one -(t + 1, t), so both quadrants skip t = 1..399
    walls = [Wall((t, -(t + 1)), (t + 1, t), {1: 1}, (1,), 1, ())
             for t in range(1, 400)]
    dia = ScatteringDiagram(walls, 2, 4, unfrozen=(0, 1))
    assert scattering._generic_loop_dirs(dia) == [
        (401, 400), (-2, 1), (-401, -400), (2, -1), (401, 400)]
    # a wall with a zero shadow normal holds every direction
    flat = ScatteringDiagram([Wall((0, 0, 1), (1, 0, 0), {1: 1}, (1,), 1,
                                   ())], 3, 4, unfrozen=(0, 1))
    with pytest.raises(SingularPath, match="no generic loop direction"):
        scattering._generic_loop_dirs(flat)


def test_path_side_of_a_half_turn_or_more_is_rejected():
    # each side runs straight between its chamber directions, so it must
    # turn CCW by less than a half-turn
    dia = a2_diagram()
    for chambers in ([(2, 1), (-2, -1)], [(2, 1), (1, -2)],
                     [(2, 1), (-1, 3), (-3, -2), (-1, 3)],
                     [(2, 1), (-1, 3), (1, -2)]):
        with pytest.raises(BadParams, match="half-turn"):
            path_ordered_product(chambers, dia)
    table = path_ordered_product([(2, 1), (-1, 3), (-2, -1), (3, -5),
                                  (2, 1)], dia)
    assert all(poly == LaurentPolynomial.monomial(
        tuple(1 if i == j else 0 for i in range(2)))
        for j, poly in table.items())


def test_theta_at_a_nongeneric_point_by_its_perturbation():
    # at (1, 1) a line with one of these labels runs through a joint or
    # meets two walls at once; the ε rows of the perturbed point settle
    # every such tie, and the theta function is the one of any generic
    # point of C+ and the greedy element
    dia = a2_diagram()
    rng = random.Random(3)
    ties = []
    for m in product(range(-3, 4), repeat=2):
        if not any(m):
            continue
        try:
            enumerate_broken_lines(dia, m, (1, 1))
            continue
        except NonGenericEndpoint:
            ties.append(m)
        theta = theta_function(dia, m)
        assert theta[1]
        for _ in range(3):
            bp = tuple(Fraction(rng.randint(1, 999), rng.randint(1, 999))
                       for _ in range(2))
            assert _theta_at(dia, m, bp) == theta, (m, bp)
        a = [-min(e[i] for e in theta[0].coeffs) for i in range(2)]
        assert theta[0].coeffs == greedy(*a, 1, 1), m
    assert len(ties) == 18 and (-1, -1) in ties


def _sign_of(x):
    return (x > 0) - (x < 0)


def test_perturbed_crossings_match_fraction_reference():
    # rays from the perturbed point x0 + ε·1 + ε^2 e_c1 + ... against the
    # Fraction sweep at x0 + t·1 + t^2 e_c1 + ... for a small t: the same
    # walls in the same order, times and points that tend to the ε = 0
    # ones, and wall values at each crossing point with the signs of the
    # ε rows formed from the parent's; x0 runs over points on walls and
    # joints, so wall values, face values and times tie at ε = 0
    t = Fraction(1, 10 ** 9)
    seen = Counter()
    for name in ("a2", "kronecker"):
        dia = fixture_diagram(name, 6)[0]
        for x0 in product(range(-2, 3), repeat=2):
            for v in product(range(-3, 4), repeat=2):
                if not any(v):
                    continue
                x0, *deltas = scattering._perturbed(dia, x0)
                xt = tuple(a + sum(t ** (k + 1) * d[j]
                                   for k, d in enumerate(deltas))
                           for j, a in enumerate(x0))
                ht = tuple(sum(a * b for a, b in zip(w.phi, xt))
                           for w in dia.walls)
                want = _fraction_crossings(dia, xt, ht, v)
                eps = scattering._Eps(
                    [(d, tuple(sum(a * b for a, b in zip(w.phi, d))
                               for w in dia.walls)) for d in deltas],
                    None, None)
                H = tuple(sum(a * b for a, b in zip(w.phi, x0))
                          for w in dia.walls)
                got = scattering._segment_crossings(dia, (x0, 1, H, eps), v)
                assert [i for _, i, _ in got] == [i for _, i, _, _ in want]
                seen["zero wall value"] += any(s == 0 for s, _, _ in got)
                seen["equal times"] += len({s for s, _, _ in got}) < len(got)
                for (s, i, (Y, D, HY, E)), (st, _, y, hy) in zip(got, want):
                    assert abs(st - s) < 1e-6
                    assert all(abs(Fraction(a, D) - b) < 1e-6
                               for a, b in zip(Y, y))
                    seen["zero face value"] += any(
                        sum(a * b for a, b in zip(f, Y)) == 0
                        for f in dia.walls[i].faces)
                    for j, hj in enumerate(hy):
                        ej = HY[j] or scattering._sign(E, lambda _, h: h[j])
                        assert _sign_of(ej) == _sign_of(hj), (x0, v, i, j)
    assert min(seen[k] for k in ("zero wall value", "equal times",
                                 "zero face value")) > 0, seen
