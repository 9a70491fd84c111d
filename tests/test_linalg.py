import random
from fractions import Fraction

import pytest

from ctrop.errors import EmptyInput, RankError
from ctrop.linalg import (EQUAL, GREATER, INCOMPARABLE, LESS, Mat, TotalOrder,
                          dominance_compare, is_zero, vec, vneg, vsub, vdot)

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


def divisibility_compare(n1, n2, unfrozen):
    """Compare n1, n2 in the divisibility order: Less iff n2 - n1 is a
    nonzero nonnegative integer vector supported on the unfrozen indices."""
    delta = vsub(vec(n2), vec(n1))
    if is_zero(delta):
        return EQUAL

    def positive(d):
        return all(x >= 0 and (x == 0 or i in unfrozen)
                   and Fraction(x).denominator == 1 for i, x in enumerate(d))

    if positive(delta):
        return LESS
    if positive(vneg(delta)):
        return GREATER
    return INCOMPARABLE


def min_under_order(points, partial_compare, total_order):
    """Minimum of the points under the total order, plus a flag telling
    whether that minimum is strictly below every other point in the partial
    order (the pointedness witness)."""
    pts = [vec(p) for p in points]
    if not pts:
        raise EmptyInput("min of empty set")
    best = total_order.min(pts)
    return best, all(partial_compare(best, p) == LESS
                     for p in pts if p != best)


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
            assert order.key(a) < order.key(b)
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
    # graded lex: the all-ones weight
    m, pointed = min_under_order([(1, 0), (0, 1)], cmp, TotalOrder([1, 1]))
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
            # the same rows with a zero first pivot or in reverse order
            # need row swaps in any elimination
            for swapped in ([[0] + r[1:] if i == 0 else r
                             for i, r in enumerate(rows)], rows[::-1]):
                assert Mat(swapped).det() == frac(sympy.Matrix(swapped).det())
        _check_solve(sympy, m, s, rng, frac)


def _check_solve(sympy, m, s, rng, frac):
    """solve against sympy's gauss_jordan_solve with its free parameters
    set to 0, on a consistent b = A x and, where the column space is not
    everything, on a b outside it."""
    x = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
         for _ in range(m.ncols)]
    b = m * x
    got = m.solve(b)
    assert got is not None and m * got == b
    sol, params = s.gauss_jordan_solve(
        sympy.Matrix([sympy.Rational(v.numerator, v.denominator)
                      for v in b]))
    sol = sol.subs({t: 0 for t in params})
    assert list(got) == [frac(v) for v in sol]
    left = s.T.nullspace()
    if left:
        # y with y A = 0: y.(b + y) = y.y != 0, so b + y is no A x
        y = [frac(v) for v in left[0]]
        assert m.solve(tuple(u + v for u, v in zip(b, y))) is None


def _fraction_gauss_jordan(rows, ncols):
    """Reference: Gauss-Jordan elimination on Fractions, (rows, pivots,
    det) with det the signed product of the pivots."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    det = Fraction(1)
    pr = 0
    for pc in range(ncols):
        sel = next((r for r in range(pr, len(rows)) if rows[r][pc] != 0),
                   None)
        if sel is None:
            continue
        if sel != pr:
            rows[pr], rows[sel] = rows[sel], rows[pr]
            det = -det
        det *= rows[pr][pc]
        inv = 1 / rows[pr][pc]
        rows[pr] = [x * inv for x in rows[pr]]
        for r in range(len(rows)):
            if r != pr and rows[r][pc] != 0:
                c = rows[r][pc]
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(rows):
            break
    return rows, pivots, det


def _random_rational_matrix(rng):
    """Random rational matrix, 0 to 6 rows and columns: uniform entries or
    a product of rank-r factors, some columns zeroed, rows shuffled."""
    m, n = rng.randint(0, 6), rng.randint(0, 6)
    if rng.random() < 0.4:
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                 for _ in range(n)] for _ in range(m)]
    else:
        r = rng.randint(0, min(m, n))
        a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
              for _ in range(r)] for _ in range(m)]
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        rows = [[sum((x * y[j] for x, y in zip(row, b)), Fraction(0))
                 for j in range(n)] for row in a]
    for j in range(n):
        if rng.random() < 0.2:
            for row in rows:
                row[j] = 0
    rng.shuffle(rows)
    return rows, n


def test_fraction_free_elimination_matches_fraction_reference():
    # Mat eliminates on integers (Bareiss); the Fraction elimination it
    # replaced is the reference, also when solve runs first and rref reads
    # the elimination that solve made
    rng = random.Random(67)
    shapes = set()
    for _ in range(600):
        rows, n = _random_rational_matrix(rng)
        want_rows, want_pivots, want_det = _fraction_gauss_jordan(rows, n)
        fresh, solved = Mat(rows), Mat(rows)
        solved.solve([0] * len(rows))
        for m in (fresh, solved):
            got_rows, got_pivots = m.rref()
            assert got_pivots == want_pivots
            assert got_rows == want_rows
            assert m.rank() == len(want_pivots)
            if len(rows) == n:
                assert m.det() == (want_det if len(want_pivots) == n else 0)
        shapes.add((len(rows) > n, len(rows) < n, len(want_pivots)
                    < min(len(rows), n), len(rows) == 0))
    assert len(shapes) >= 5


def test_solve_reads_the_rank_from_its_own_elimination(monkeypatch):
    calls = []
    inner = Mat.rref
    monkeypatch.setattr(Mat, "rref",
                        lambda self: calls.append(1) or inner(self))
    m = Mat([[1, 2, 3], [2, 4, 6], [Fraction(1, 2), 0, 1]])
    assert m.solve((1, 2, 0)) is not None
    assert m.rank() == 2 and len(m.kernel()) == 1
    assert len(calls) == 1
    # the other order: the rank's elimination serves solve, kernel, det
    # and inverse
    calls.clear()
    m = Mat([[1, 2, 3], [0, 1, 4], [Fraction(1, 2), 0, 1]])
    assert m.rank() == 3
    assert m.solve((1, 2, 0)) is not None and m.kernel() == []
    assert m.det() == Fraction(7, 2)
    assert m.inverse() * m == Mat.identity(3)
    assert len(calls) == 1


def test_kernel_with_a_negative_last_pivot():
    # the elimination of [[1, 2, 3], [2, 3, 5]] ends on the pivot -1: the
    # left block is -1 * R, and the kernel vector must still have a
    # positive entry at the free column
    m = Mat([[1, 2, 3], [2, 3, 5]])
    assert m.kernel() == [(-1, -1, 1)]
    assert m._form[3] < 0
    assert m.rref() == ([[1, 0, 1], [0, 1, 1]], [0, 1])
    m = Mat([[Fraction(-1, 2), 3]])
    assert m.kernel() == [(6, 1)]
    assert m._form[3] < 0
