from fractions import Fraction

import pytest

from ctrop.errors import BadParams, NonGenericEndpoint, RankUnsupported
from ctrop.laurent import LaurentPolynomial, is_pointed, transport
from ctrop.linalg import Mat
from ctrop.scattering import (ScatteringDiagram, Wall, complete_rank2,
                              enumerate_broken_lines, initial_diagram,
                              is_consistent, loop_defect,
                              path_ordered_product, structure_constant,
                              theta_function, theta_on_x, wall_cross)
from ctrop.seeds import (FixedData, build_principal, ensemble_map,
                         principal_ensemble_map)

A2 = FixedData(2, {0, 1}, Mat([[0, 1], [-1, 0]]), (1, 1))
RUNNING = FixedData(2, {0, 1}, Mat([[0, 1], [-1, 0]]), (1, 2))
KRON = FixedData(2, {0, 1}, Mat([[0, 2], [-2, 0]]), (1, 1))


def a2_diagram(order=10):
    return complete_rank2(initial_diagram(A2, ensemble_map(A2), order))


def running_prin_diagram(order=12):
    p = ensemble_map(RUNNING)
    fdp = build_principal(RUNNING)
    pp = principal_ensemble_map(RUNNING, p)
    return complete_rank2(initial_diagram(fdp, pp, order)), p


def test_wall_cross_examples():
    w = Wall((1, 0), (0, 1), {1: 1}, (1, 0), 1, "line")
    # zero pairing: unchanged
    out = wall_cross((1, (0, 3)), w, 1)
    assert out == LaurentPolynomial.monomial((0, 3))
    # the classical positive crossing
    out = wall_cross((1, (-1, 0)), w, -1)
    assert out == LaurentPolynomial({(-1, 0): 1, (-1, 1): 1}, 2)
    # negative power expands as a truncated geometric series
    out = wall_cross((1, (-1, 0)), w, 1, order=3)
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
    assert is_consistent(dia, 10)
    rays = [w for w in dia.walls if w.kind == "ray"]
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
    assert is_consistent(dia, 12)
    rays = sorted(w.n0 for w in dia.walls if w.kind == "ray")
    assert rays == [(1, 1), (1, 2)]


def test_kronecker_walls():
    p = ensemble_map(KRON)
    dia = complete_rank2(initial_diagram(KRON, p, 8))
    assert is_consistent(dia, 8)
    rays = {w.n0: dict(w.series) for w in dia.walls if w.kind == "ray"}
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
            th, exact = theta_function(dia, m, basepoint=bp)
            assert exact
            vals.add(th)
        assert len(vals) == 1
        th = vals.pop()
        assert is_pointed(th, s0, p) == m


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
    dia = ScatteringDiagram([Wall(phi, g, {1: 1}, (1,), 1, "line")], 9, 8)
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
    from itertools import product as iproduct

    from ctrop.acceptance import gr36_fixture_diagram
    dia, fx = gr36_fixture_diagram()
    p = tuple(fx["valuations"]["124"])
    q = tuple(fx["valuations"]["356"])
    pq = tuple(a + b for a, b in zip(p, q))
    nonzero = {}
    for c in iproduct(range(3), repeat=4):
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


def test_generic_point_retry_gives_up_loudly():
    # the shared basepoint/endpoint retry skips None candidates, retries
    # on NonGenericEndpoint and raises it after 32 attempts
    from ctrop.scattering import _at_generic_point
    tried = []

    def compute(x):
        tried.append(x)
        raise NonGenericEndpoint("path through a joint")

    with pytest.raises(NonGenericEndpoint, match="no generic endpoint"):
        _at_generic_point(lambda a: a if a % 2 else None, compute)
    assert tried == list(range(1, 32, 2))
