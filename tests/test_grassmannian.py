import pytest

from ctrop.errors import BadParams
from ctrop.grassmannian import (GrData, _exchange_step, bodies_unimodular,
                                cluster_bfs_g_vectors, gt_valuation,
                                gt_vector, hook_g_table, hook_g_vector,
                                homogenized_g, no_body,
                                psi_matrix, rectangles_seed, verify_val_gv,
                                young_from_index)
from ctrop.laurent import LaurentPolynomial, is_pointed
from ctrop.linalg import Mat, vec


def index_from_young(lam, k, n):
    """Inverse of young_from_index."""
    gr = GrData(k, n)
    lam = tuple(lam) + (0,) * (gr.rows - len(lam))
    if len(lam) != gr.rows or any(lam[i] < lam[i + 1]
                                  for i in range(len(lam) - 1)) \
            or (lam and lam[0] > k):
        raise BadParams("not a diagram in the grid")
    J = []
    pos = 0
    west_used = 0
    for r in range(gr.rows):
        # west steps before the r-th south step: k - lam[r]
        while west_used < k - lam[r]:
            pos += 1
            west_used += 1
        pos += 1
        J.append(pos)
    return tuple(J)


def rectangle_index_set(gr, i, j):
    """Plücker index J whose Young diagram is the i x j rectangle (or the
    empty one for i = j = 0)."""
    k, n = gr.cols, gr.n
    if i == 0 and j == 0:
        return tuple(range(k + 1, n + 1))
    return tuple(range(k - j + 1, k - j + i + 1)) \
        + tuple(range(k + i + 1, n + 1))


def test_grdata_counts():
    gr24 = GrData(2, 4)
    assert gr24.dim == 5 and gr24.mutable_indices() == [gr24.index(1, 1)]
    gr25 = GrData(3, 5)  # two rows, three columns
    assert gr25.dim == 7 and len(gr25.mutable_indices()) == 2
    with pytest.raises(BadParams):
        GrData(4, 4)


def test_young_examples():
    assert young_from_index((3, 4), 2, 4) == (0, 0)
    assert young_from_index((1, 2), 2, 4) == (2, 2)
    assert young_from_index((2, 4), 2, 4) == (1, 0)
    assert index_from_young((1,), 2, 4) == (2, 4)
    assert index_from_young((), 2, 4) == (3, 4)
    for J in GrData(3, 6).plucker_indices():
        assert index_from_young(young_from_index(J, 3, 6), 3, 6) == J


def test_gt_examples():
    assert gt_valuation((3, 4), 2, 4) == ((1, 1), (1, 2))
    assert gt_valuation((1, 2), 2, 4) == ((0, 0), (0, 0))
    assert gt_valuation((2, 4), 2, 4) == ((0, 1), (1, 1))
    tab = gt_valuation((3, 4, 7, 9, 11, 12), 7, 13)
    assert [row[-1] for row in tab] == [1, 2, 2, 2, 3, 4]


def test_hook_examples():
    gr = GrData(5, 9)
    g = hook_g_vector((2, 4, 6, 7), 5, 9)
    expect = [0] * gr.dim
    for (i, j, s) in [(1, 4, 1), (1, 3, -1), (2, 3, 1), (2, 2, -1), (4, 2, 1)]:
        expect[gr.index(i, j)] = s
    assert list(g) == expect
    gr24 = GrData(2, 4)
    g11 = hook_g_vector((2, 4), 2, 4)
    assert g11[gr24.index(1, 1)] == 1 and sum(g11) == 1
    g22 = hook_g_vector((1, 2), 2, 4)
    assert g22[gr24.index(2, 2)] == 1
    gempty = hook_g_vector((3, 4), 2, 4)
    assert gempty[0] == 1


def test_hook_degree_fiber():
    for k, n in ((2, 4), (3, 5), (3, 6)):
        for J in GrData(k, n).plucker_indices():
            assert sum(hook_g_vector(J, k, n)) == 1
            assert sum(homogenized_g(J, k, n)) == 0


def test_homogenized_examples():
    assert all(x == 0 for x in homogenized_g((1, 2), 2, 4))
    fx_expected = {(6, 1): 1, (4, 1): -1, (4, 2): 1, (3, 2): -1, (3, 3): 1,
                   (2, 3): -1, (2, 5): 1, (6, 7): -1}
    gr = GrData(7, 13)
    g = homogenized_g((3, 4, 7, 9, 11, 12), 7, 13)
    for v in range(gr.dim):
        want = fx_expected.get(gr.box(v), 0) if v else 0
        assert g[v] == want


def test_psi_kernel_and_image():
    for k, n in ((2, 4), (3, 5), (3, 6)):
        psi = psi_matrix(k, n)
        ker = Mat(psi.rows).kernel()
        assert ker == [(1,) * GrData(k, n).dim]
        for col in psi.cols():
            assert sum(col) == 0
        assert psi.rank() == GrData(k, n).dim - 1


def test_psi_six_term_column():
    gr = GrData(3, 6)
    psi = psi_matrix(3, 6)
    v = gr.index(2, 2)
    col = psi.col(v)
    expect = {gr.index(1, 1): 1, gr.index(1, 2): -1, gr.index(2, 3): 1,
              gr.index(3, 3): -1, gr.index(3, 2): 1, gr.index(2, 1): -1}
    for w in range(gr.dim):
        assert col[w] == expect.get(w, 0)


def test_rectangles_seed_ensemble_identity():
    for k, n in ((2, 4), (3, 5), (3, 6)):
        fd, s0, em = rectangles_seed(k, n)
        gr = GrData(k, n)
        diff = em.matrix - fd.epsilon().transpose()
        for a in range(gr.dim):
            for b in range(gr.dim):
                if not (gr.frozen(a) and gr.frozen(b)):
                    assert diff.rows[a][b] == 0
        assert [tuple(x) for x in em.matrix.kernel()] == [(1,) * gr.dim]


def test_verify_val_gv():
    for k, n, count in ((2, 4, 6), (3, 5, 10), (3, 6, 20)):
        rep = verify_val_gv(k, n)
        assert len(rep) == count and all(rep.values())


def test_frozen_gt_through_psi():
    # frozen Plückers: the GT tableau maps to the frozen g-vector
    gr = GrData(2, 4)
    psi = psi_matrix(2, 4)
    J = rectangle_index_set(gr, 0, 0)
    val = (0,) + gt_vector(J, 2, 4)
    lhs = tuple(-int(x) for x in psi * vec(val))
    assert lhs == tuple(homogenized_g(J, 2, 4))


def test_no_bodies_and_unimodularity():
    flow = no_body(2, 4, "flow")
    gv = no_body(2, 4, "gvec")
    assert len(flow.vertices) == len(gv.vertices) == 6
    ok, u = bodies_unimodular(2, 4)
    assert ok and abs(u.det()) == 1
    ok36, _ = bodies_unimodular(3, 6)
    assert ok36
    f36 = no_body(3, 6, "flow")
    g36 = no_body(3, 6, "gvec")
    assert len(f36.vertices) == len(g36.vertices)


def test_bfs_matches_hook_table():
    bfs = cluster_bfs_g_vectors(2, 4, 2)
    assert () in bfs
    table = set(hook_g_table(2, 4).values())
    found = set(g for gl in bfs.values() for _, g in gl)
    assert found == table
    # depth-0 vertices carry unit vectors
    units = {g for _, g in bfs[()]}
    assert units == {tuple(1 if t == v else 0 for t in range(5))
                     for v in range(5)}


def test_bfs_gr25_closure():
    bfs = cluster_bfs_g_vectors(3, 5, 5)
    table = set(hook_g_table(3, 5).values())
    found = set(g for gl in bfs.values() for _, g in gl)
    assert found == table
    assert len(table) == 10


def _bfs_pointing_every_variable(k, n, depth, opposite):
    """The BFS of cluster_bfs_g_vectors with the pointedness test rerun on
    every cluster variable of every seed, not only on the exchanged one."""
    fd, seed0, em = rectangles_seed(k, n, opposite=opposite)
    init = [LaurentPolynomial.monomial(tuple(int(t == v) for t in range(fd.n)))
            for v in range(fd.n)]
    out = {(): [(v, is_pointed(f, seed0, em)) for v, f in enumerate(init)]}
    seen = {seed0.key()}
    frontier = [(seed0, init)]
    for _ in range(depth):
        nxt = []
        for seed, variables in frontier:
            for kdir in sorted(fd.unfrozen):
                s2 = seed.mutate(kdir)
                if s2.key() in seen:
                    continue
                seen.add(s2.key())
                new_vars = list(variables)
                new_vars[kdir] = _exchange_step(seed, variables, kdir)
                out[s2.word] = [(v, is_pointed(f, seed0, em))
                                for v, f in enumerate(new_vars)]
                assert all(g is not None for _, g in out[s2.word])
                nxt.append((s2, new_vars))
        frontier = nxt
    return out


# cluster_bfs_g_vectors walks the opposite rectangles seed
@pytest.mark.parametrize("k, n, depth, opposite", [
    (3, 5, 5, True), (4, 6, 4, True), (3, 6, 4, True)])
def test_bfs_matches_pointing_every_variable(k, n, depth, opposite):
    got = cluster_bfs_g_vectors(k, n, depth)
    want = _bfs_pointing_every_variable(k, n, depth, opposite)
    assert list(got.items()) == list(want.items())
