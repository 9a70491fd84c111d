import json
import random
from fractions import Fraction

import pytest

from ctrop.acceptance import load_fixture_seed
from ctrop.errors import FrozenIndex
from ctrop.grassmannian import rectangles_seed
from ctrop.linalg import Mat
from ctrop.seeds import (FixedData, build_principal, ensemble_map,
                         langlands_dual, optimized_check,
                         principal_ensemble_map, seed_from_json, seed_to_json)

A2 = FixedData(2, {0, 1}, Mat([[0, 1], [-1, 0]]), (1, 1))
RUNNING = FixedData(2, {0, 1}, Mat([[0, 1], [-1, 0]]), (1, 2))


def test_epsilon():
    assert [[int(x) for x in r] for r in A2.epsilon().rows] == [[0, 1], [-1, 0]]
    assert [[int(x) for x in r] for r in RUNNING.epsilon().rows] == [[0, 2], [-1, 0]]


def test_mutate_a2():
    s = A2.initial_seed()
    s1 = s.mutate(0)
    assert [[int(x) for x in r] for r in s1.eps.rows] == [[0, -1], [1, 0]]


def test_mutate_involution():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(2, 6)
        lam = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                lam[i][j] = rng.randint(-2, 2)
                lam[j][i] = -lam[i][j]
        fd = FixedData(n, set(range(n)), Mat(lam), (1,) * n)
        s = fd.initial_seed()
        word = [rng.randrange(n) for _ in range(4)]
        for k in word:
            s = s.mutate(k)
        k = rng.randrange(n)
        s2 = s.mutate(k).mutate(k)
        assert s2.basis == s.basis and s2.eps == s.eps


def test_mutate_running():
    s = RUNNING.initial_seed()
    s1 = s.mutate(0)
    assert [[int(x) for x in r] for r in s1.eps.rows] == [[0, -2], [1, 0]]


def test_mutate_frozen_raises():
    fd = FixedData(2, {0}, Mat([[0, 1], [-1, 0]]), (1, 1))
    with pytest.raises(FrozenIndex):
        fd.initial_seed().mutate(1)


def _stepwise_cases():
    yield A2
    yield RUNNING


def test_eps_recompute_matches_stepwise():
    # eps agrees with the standard matrix mutation rule, written with
    # [b_ik]+[b_kj]+ - [-b_ik]+[-b_kj]+ and applied step by step,
    # including the skew-symmetrizable case
    rng = random.Random(9)
    for fd in list(_stepwise_cases()) * 5:
        s = fd.initial_seed()
        eps = [[int(x) for x in r] for r in s.eps.rows]
        for _ in range(rng.randint(1, 8)):
            k = rng.randrange(2)
            s = s.mutate(k)
            nxt = [[0] * 2 for _ in range(2)]
            for i in range(2):
                for j in range(2):
                    if i == k or j == k:
                        nxt[i][j] = -eps[i][j]
                    else:
                        nxt[i][j] = eps[i][j] + max(0, eps[i][k]) * max(0, eps[k][j]) \
                            - max(0, -eps[i][k]) * max(0, -eps[k][j])
            eps = nxt
            assert [[int(x) for x in r] for r in s.eps.rows] == eps


def _eps_from_basis(s):
    """Oracle: the exchange matrix read off the seed basis, B Lambda B^T D."""
    bl = s.basis * s.fixed.skew * s.basis.transpose()
    d = s.fixed.d
    return Mat([[bl.rows[i][j] * d[j] for j in range(s.n)]
                for i in range(s.n)])


def _oracle_cases():
    for name in ("a2.json", "running_example.json", "kronecker.json"):
        fd = load_fixture_seed(name).fixed
        for base in (fd, langlands_dual(fd)):
            yield base
            yield build_principal(base)
    for k, n in ((3, 6), (3, 7)):
        yield rectangles_seed(k, n)[0]


def test_matrix_mutation_matches_eps_read_from_basis():
    # forward mutations only (a repeated direction returns the parent);
    # v_initial is checked against the full product basis * skew too
    rng = random.Random(31)
    for fd in _oracle_cases():
        ks = sorted(fd.unfrozen)
        for _ in range(6):
            s = fd.initial_seed()
            assert s.eps == _eps_from_basis(s)
            for _ in range(rng.randint(1, 10)):
                s = s.mutate(rng.choice(
                    [k for k in ks if not s.word or k != s.word[-1]]))
                assert s.eps == _eps_from_basis(s)
                bl = s.basis * fd.skew
                for k in range(fd.n):
                    assert s.v_initial(k) == tuple(
                        bl.rows[k][j] * fd.d[j] for j in range(fd.n))


def test_build_principal_trivial():
    fd = FixedData(1, set(), Mat([[0]]), (1,))
    fdp = build_principal(fd)
    assert fdp.n == 2
    assert [[Fraction(x) for x in r] for r in fdp.skew.rows] == \
        [[0, 1], [-1, 0]]


def test_build_principal_running():
    fdp = build_principal(RUNNING)
    eps = [[Fraction(x) for x in r] for r in fdp.epsilon().rows]
    assert eps == [[0, 2, 1, 0], [-1, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    assert fdp.unfrozen == RUNNING.unfrozen
    assert len(fdp.unfrozen) == len(RUNNING.unfrozen)


def test_langlands_dual():
    assert langlands_dual(A2).epsilon() == A2.epsilon()
    dual = langlands_dual(RUNNING)
    assert [[int(x) for x in r] for r in dual.epsilon().rows] == [[0, 1], [-2, 0]]
    double = langlands_dual(dual)
    assert double.epsilon() == RUNNING.epsilon()


def test_ensemble_map_a2():
    p = ensemble_map(A2)
    assert p.matrix == A2.epsilon().transpose()
    assert p.kernel == []


def test_ensemble_block_identity_fuzz():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(2, 5)
        lam = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                lam[i][j] = rng.randint(-2, 2)
                lam[j][i] = -lam[i][j]
        unfrozen = {i for i in range(n) if rng.random() < 0.6} or {0}
        fd = FixedData(n, unfrozen, Mat(lam), (1,) * n)
        frozen = sorted(set(range(n)) - unfrozen)
        blk = Mat([[rng.randint(-2, 2) for _ in frozen] for _ in frozen])
        p = ensemble_map(fd, blk)
        diff = p.matrix - fd.epsilon().transpose()
        for i in range(n):
            for j in range(n):
                if i in unfrozen or j in unfrozen:
                    assert diff.rows[i][j] == 0
        # kernel orthogonal to unfrozen pairing rows
        for kvec in p.kernel:
            for j in sorted(unfrozen):
                lamj = [fd.skew.rows[i][j] * fd.d[j] for i in range(n)]
                assert sum(a * b for a, b in zip(kvec, lamj)) == 0


def test_principal_ensemble_map():
    p = ensemble_map(RUNNING)
    pp = principal_ensemble_map(RUNNING, p)
    # (n, m) -> (p*(n) - m, n)
    assert pp.apply((1, 0, 0, 0)) == tuple(p.apply((1, 0))) + (1, 0)
    assert pp.apply((0, 0, 1, 0)) == (-1, 0, 0, 0)


def test_optimized_check():
    s = A2.initial_seed()
    assert optimized_check(s, (0, 0))
    assert optimized_check(s, (0, 1))       # e_2: {e_1,e_2} = 1 >= 0
    assert not optimized_check(s, (1, 0))   # e_1: {e_2,e_1} = -1


def test_seed_json_roundtrip(tmp_path):
    s = RUNNING.seed((0, 1))
    data = seed_to_json(s)
    text = json.dumps(data)
    s2 = seed_from_json(json.loads(text))
    assert s2.word == s.word and s2.eps == s.eps and s2.basis == s.basis


def test_basis_stays_unimodular():
    rng = random.Random(17)
    for _ in range(10):
        s = RUNNING.initial_seed()
        for _ in range(6):
            s = s.mutate(rng.randrange(2))
        assert abs(s.basis.det()) == 1
