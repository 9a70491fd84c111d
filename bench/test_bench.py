"""Tests of the benchmark itself: op streams, oracles, tracer."""

import os
import sys
from fractions import Fraction
from itertools import islice

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from oracles import (check_alpha, check_bfs, check_expand,  # noqa: E402
                     check_gr36_alpha, check_hull, check_kron_theta,
                     check_lattice, check_pl_image, check_transport,
                     hook_content_count)
from tracer import FUNCS, TARGETS, Tracer, metric_names  # noqa: E402
from workloads import (DECKS, PL_GRIDS, TRANSPORT_GRIDS,  # noqa: E402
                       decks, mutable_vertices)


def first_decks(workload, seed, count=4):
    return list(islice(decks(workload, seed), count))


def test_same_seed_same_ops_other_seed_other_ops():
    for workload in DECKS:
        assert first_decks(workload, 7) == first_decks(workload, 7)
        assert first_decks(workload, 7) != first_decks(workload, 8)


def test_decks_keep_their_cost_mix():
    for workload in DECKS:
        kinds = [sorted(op.kind for op in deck)
                 for deck in first_decks(workload, 3)]
        assert all(k == kinds[0] for k in kinds)


def test_words_and_directions_are_mutable():
    from ctrop.grassmannian import GrData
    for r, n in TRANSPORT_GRIDS + PL_GRIDS:
        assert mutable_vertices(r, n) == GrData(n - r, n).mutable_indices()
    for deck in first_decks("mutation", 5):
        for op in deck:
            if op.kind == "transport":
                r, n, word = op.args
                assert 2 <= len(word) <= 5
                assert set(word) <= set(mutable_vertices(r, n))
                assert all(a != b for a, b in zip(word, word[1:]))
    for deck in first_decks("nobody", 5):
        for op in deck:
            if op.kind == "pl_image":
                r, n, k = op.args
                assert k in mutable_vertices(r, n)


def test_hook_content_counts():
    # criterion 7: Gr(2,4) and Gr(2,5) at degrees 1 and 2
    counts = {(r, n, level): hook_content_count(r, n, level)
              for r, n, level in ((2, 4, 1), (2, 4, 2), (2, 5, 1), (2, 5, 2),
                                  (3, 6, 2), (3, 6, 3))}
    assert list(counts.values()) == [6, 20, 10, 50, 175, 980]


def test_oracles_reject_perturbed_answers():
    assert check_lattice(175, 3, 6, 2)
    assert not check_lattice(174, 3, 6, 2)
    assert not check_lattice(176, 3, 6, 2)

    assert check_gr36_alpha(1, (0, 0, 0, 0))
    assert check_gr36_alpha(1, (0, 0, 1, 0))
    assert check_gr36_alpha(0, (1, 2, 0, 1))
    assert not check_gr36_alpha(2, (0, 0, 0, 0))
    assert not check_gr36_alpha(2, (1, 2, 0, 1))

    body, other = ("body",), ("other",)
    assert check_pl_image(True, body, body)
    assert not check_pl_image(True, other, body)
    assert not check_pl_image(False, body, body)

    table = {(1, 0, 0), (0, 1, -1)}
    assert check_transport([(1, 0, 0), (0, 1, -1)], table, 2)
    assert not check_transport([(1, 0, 0), (0, 2, -1)], table, 2)
    assert not check_transport([(1, 0, 0), None], table, 3)
    assert check_bfs({(1, 0, 0)}, table, 2, 5, 3)
    assert not check_bfs({(1, 0, 0), (0, 2, -1)}, table, 2, 5, 3)

    assert check_hull(20, True, 3, 6)
    assert not check_hull(19, True, 3, 6) and not check_hull(20, False, 3, 6)
    assert check_expand((1, 1), 1, (1, 0), (0, 1))
    assert not check_expand((1, 2), 1, (1, 0), (0, 1))
    assert not check_expand((1, 1), 2, (1, 0), (0, 1))
    assert check_alpha(Fraction(2), 2)
    assert not check_alpha(Fraction(3), 2)
    assert not check_alpha(Fraction(1, 2), Fraction(1, 2))
    assert not check_alpha(Fraction(-1), -1)
    assert check_kron_theta((1, 2), True, (1, 2))
    assert not check_kron_theta((1, 2), False, (1, 2))
    assert not check_kron_theta(None, True, (1, 2))


def test_tracer_wraps_every_binding_and_restores_it():
    from ctrop import grassmannian, linalg, polytopes
    hull = polytopes.convex_hull
    rref = linalg.Mat.__dict__["rref"]
    refining = linalg.TotalOrder.__dict__["refining"]
    tracer = Tracer()
    with tracer:
        assert grassmannian.convex_hull is not hull
        assert polytopes.convex_hull is grassmannian.convex_hull
        tracer.op = 0
        grassmannian.no_body(3, 5, "flow")
        tracer.op = Tracer.ORACLE
        grassmannian.no_body(3, 5, "flow")
    assert grassmannian.convex_hull is hull and polytopes.convex_hull is hull
    assert linalg.Mat.__dict__["rref"] is rref
    assert linalg.TotalOrder.__dict__["refining"] is refining

    values = tracer.metrics(1, 1.0, 1.5)
    assert [n for n, _ in metric_names()] == list(values)
    assert len(values) == 81
    # the second call ran as an oracle: counted apart, not as op work
    assert values["grassmannian.no_body.calls"] == 1
    assert values["oracle.calls"] == sum(values[layer + ".calls"]
                                         for layer in TARGETS)
    assert values["polytopes.convex_hull.calls"] == 1
    assert values["linalg.Mat.rref.calls"] > 0
    assert values["linalg.rref_per_op"] == values["linalg.Mat.rref.calls"]
    assert values["trace_overhead_frac"] == 0.5
    # the one root span's duration splits exactly into self times
    root = tracer.end[0] - tracer.start[0]
    total_self = sum(values[f + ".self_s"] for f in FUNCS)
    assert abs(total_self - root) < 1e-9
