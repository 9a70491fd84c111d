import random
from fractions import Fraction

import pytest

from ctrop.errors import EmptyInput, RankError
from ctrop.linalg import (EQUAL, GREATER, INCOMPARABLE, LESS, Mat, TotalOrder,
                          dominance_compare, divisibility_compare,
                          min_under_order, vdot)

A2_COLS = Mat.from_cols([(0, 1), (-1, 0)])  # p*_1 columns for type A2


def test_dominance_identity():
    assert dominance_compare((0, 0), (0, 0), A2_COLS) == EQUAL


def test_dominance_a2_less():
    # m2 = m1 + p*_1(e_1), and p*_1(e_1) is the second unit covector
    assert dominance_compare((-1, 0), (-1, 1), A2_COLS) == LESS
    assert dominance_compare((-1, 1), (-1, 0), A2_COLS) == GREATER


def test_dominance_mixed_cases():
    # (0,1) - (1,0) = p*_1(e_1 + e_2), so these ARE comparable
    assert dominance_compare((1, 0), (0, 1), A2_COLS) == LESS
    assert dominance_compare((0, 0), (1, 1), A2_COLS) == INCOMPARABLE
    assert dominance_compare((0, 0), (1, 0), A2_COLS) == GREATER


def test_dominance_rank_error():
    bad = Mat.from_cols([(1, 0), (2, 0)])
    with pytest.raises(RankError):
        dominance_compare((0, 0), (1, 1), bad)


def test_dominance_antisymmetry_and_linearity():
    rng = random.Random(11)
    for _ in range(200):
        a = (rng.randint(-4, 4), rng.randint(-4, 4))
        b = (rng.randint(-4, 4), rng.randint(-4, 4))
        c = (rng.randint(-4, 4), rng.randint(-4, 4))
        r1 = dominance_compare(a, b, A2_COLS)
        r2 = dominance_compare(b, a, A2_COLS)
        flip = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL,
                INCOMPARABLE: INCOMPARABLE}
        assert r2 == flip[r1]
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        assert dominance_compare(ac, bc, A2_COLS) == r1


def test_divisibility_examples():
    assert divisibility_compare((1, 2), (1, 2), {0}) == EQUAL
    assert divisibility_compare((0, 0), (1, 0), {0}) == LESS
    assert divisibility_compare((0, 0), (0, 1), {0}) == INCOMPARABLE


def test_total_order_refines_dominance():
    order = TotalOrder.refining(A2_COLS)
    rng = random.Random(5)
    for _ in range(300):
        a = (rng.randint(-4, 4), rng.randint(-4, 4))
        b = (rng.randint(-4, 4), rng.randint(-4, 4))
        if dominance_compare(a, b, A2_COLS) == LESS:
            assert order.compare(a, b) == LESS
    # the weight evaluates to 1 on every column
    for col in A2_COLS.cols():
        assert vdot(order.weight, col) == 1


def test_min_under_order():
    order = TotalOrder.refining(A2_COLS)
    cmp = lambda a, b: dominance_compare(a, b, A2_COLS)
    m, pointed = min_under_order([(0, 0)], cmp, order)
    assert m == (0, 0) and pointed
    m, pointed = min_under_order([(-1, 0), (-1, 1)], cmp, order)
    assert m == (-1, 0) and pointed
    m, pointed = min_under_order([(1, 0), (0, 1)], cmp,
                                 TotalOrder.graded_lex(2))
    assert m in ((1, 0), (0, 1)) and not pointed
    with pytest.raises(EmptyInput):
        min_under_order([], cmp, order)


def test_kernel_against_brute_force():
    rng = random.Random(3)
    for _ in range(8):
        m = Mat([[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)])
        ker = m.kernel()
        for v in ker:
            assert all(x == 0 for x in m * v)
        assert len(ker) == 5 - m.rank()
        # every small integer null vector lies in the span of the kernel
        span = Mat(ker) if ker else None
        for v in _box_vectors(rng, 400):
            if all(x == 0 for x in m * v):
                if span is None:
                    assert all(x == 0 for x in v)
                else:
                    sol = span.transpose().solve(v)
                    assert sol is not None


def _box_vectors(rng, count):
    for _ in range(count):
        yield tuple(rng.randint(-2, 2) for _ in range(5))


def test_matrix_basics():
    m = Mat([[2, 1], [1, 1]])
    assert m.det() == 1
    assert m.inverse() * m == Mat.identity(2)
    assert m.rank() == 2
    assert m.solve((3, 2)) == (Fraction(1), Fraction(1))


def _eliminations(m, b):
    try:
        inverse = m.inverse()
    except RankError as exc:
        inverse = str(exc)
    return m.rref(), m.rank(), m.kernel(), inverse, m.solve(b)


@pytest.mark.parametrize("rows, b", [
    ([[2, 1, 0], [1, 1, 3], [0, 2, 1]], (1, 2, 3)),
    ([[1, 2, 3], [2, 4, 7]], (1, 3)),
    ([[1, 2], [2, 4]], (1, 2)),
])
def test_stored_echelon_form_survives_edits_to_returned_lists(rows, b):
    m = Mat(rows)
    want = _eliminations(Mat(rows), b)
    for _ in range(2):
        ech, pivots = m.rref()
        ech[0][0] = 99
        ech.append([7] * m.ncols)
        pivots.append(5)
        assert _eliminations(m, b) == want


def test_solve_rejects_a_right_hand_side_of_another_length():
    m = Mat([[1, 0], [0, 1], [1, 1]])
    with pytest.raises(ValueError):
        m.solve((1, 2))
    assert m.solve((1, 2, 3)) == (1, 2)
    assert m.solve((1, 2, 4)) is None


def _random_int_matrix(rng):
    """Random integer matrix: uniform entries, or (half the time) a
    product of random m x r and r x n factors, often rank deficient."""
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    if rng.random() < 0.5:
        return [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
    r = rng.randint(0, min(m, n))
    a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
    return [[sum(x * y[j] for x, y in zip(row, b)) for j in range(n)]
            for row in a]


def test_mat_matches_sympy():
    sympy = pytest.importorskip("sympy")

    def frac(x):
        return Fraction(int(x.p), int(x.q))

    rng = random.Random(61)
    for _ in range(300):
        rows = _random_int_matrix(rng)
        m, s = Mat(rows), sympy.Matrix(rows)
        assert m.rank() == s.rank()
        want_rows, want_pivots = s.rref()
        got_rows, got_pivots = m.rref()
        assert got_pivots == list(want_pivots)
        assert got_rows == [[frac(x) for x in want_rows.row(i)]
                            for i in range(s.rows)]
        kernel = m.kernel()
        want = s.nullspace()
        assert len(kernel) == len(want)
        for got, v in zip(kernel, want):
            # each basis vector is a positive multiple of sympy's
            v = [frac(x) for x in v]
            c = next(g / x for g, x in zip(got, v) if x != 0)
            assert c > 0 and list(got) == [c * x for x in v]
        if m.nrows == m.ncols:
            det = frac(s.det())
            assert m.det() == det
            if det == 0:
                with pytest.raises(RankError):
                    m.inverse()
            else:
                inv = s.inv()
                assert m.inverse().rows == tuple(
                    tuple(frac(x) for x in inv.row(i)) for i in range(s.rows))
