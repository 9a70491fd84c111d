import random
from fractions import Fraction

import pytest

from ctrop import laurent
from ctrop.errors import (BadParams, DomainError, EmptyInput, NotInSpan,
                          NotLaurent)
from ctrop.grassmannian import rectangles_seed
from ctrop.laurent import (LaurentPolynomial, PointedDecomposition,
                           binomial_power, g_valuation, is_pointed,
                           theta_expand, transport)
from ctrop.linalg import Mat, TotalOrder, vec
from ctrop.scattering import (LazyThetaTable, complete_rank2, initial_diagram,
                              theta_on_x)
from ctrop.seeds import (FixedData, Seed, build_principal, ensemble_map,
                         principal_ensemble_map, seed_from_json, seed_to_json)

A2 = FixedData(2, {0, 1}, Mat([[0, 1], [-1, 0]]), (1, 1))
RUNNING = FixedData(2, {0, 1}, Mat([[0, 1], [-1, 0]]), (1, 2))

mono = LaurentPolynomial.monomial


def apply_matrix(f, mat):
    """Monomial substitution z^e -> z^(mat @ e)."""
    out = {}
    for e, c in f.coeffs.items():
        e2 = tuple(int(x) for x in (mat * vec(e)))
        out[e2] = out.get(e2, Fraction(0)) + c
    return LaurentPolynomial(out, mat.nrows)


def c_valuation(decomp, s):
    """Minimal X-side theta label under a refinement of the divisibility
    order: graded lex, the all-ones weight, refines it."""
    if len(decomp) == 0:
        raise EmptyInput("empty decomposition")
    return TotalOrder([1] * s.fixed.n).min(decomp.labels())


def test_a_pullback_examples():
    s = A2.initial_seed()
    # z^{-f_1} on the mutated chart: own coordinates there are (-1, 0)·F^{-1};
    # the clean statements are through transport below; here the monomial
    # with zero pairing and the constant
    s1 = s.mutate(0)
    assert transport(mono((0, 1)), s1, s, "A") == mono((0, 1))
    one = LaurentPolynomial.one(2)
    assert transport(one, s1, s, "A") == one


def test_transport_examples():
    s0 = A2.initial_seed()
    s1 = s0.mutate(0)
    f = mono((2, -1))
    assert transport(f, s0, s0, "A") == f
    # the exchange relation: the new variable expands in the initial chart
    assert transport(mono((1, 0)), s1, s0, "A") == \
        LaurentPolynomial({(-1, 0): 1, (-1, 1): 1}, 2)


def test_transport_round_trip_valid_region():
    s0 = A2.initial_seed()
    s1 = s0.mutate(0)
    rng = random.Random(12)
    for _ in range(25):
        coeffs = {}
        for _ in range(4):
            e = (rng.randint(0, 3), rng.randint(-3, 3))
            coeffs[e] = rng.randint(1, 4)
        f = LaurentPolynomial(coeffs, 2)
        g = transport(f, s0, s1, "A")
        assert transport(g, s1, s0, "A") == f
    for _ in range(25):
        coeffs = {}
        for _ in range(4):
            e = (rng.randint(-3, 3), rng.randint(-3, 0))
            coeffs[e] = rng.randint(1, 4)
        f = LaurentPolynomial(coeffs, 2)
        g = transport(f, s0, s1, "X")
        assert transport(g, s1, s0, "X") == f


def test_transport_matches_exchange_recursion():
    # expansions of cluster variables through chains of pullbacks agree
    # with the exchange-relation recursion, over several paths
    from ctrop.grassmannian import _exchange_step
    s0 = A2.initial_seed()
    for word in [(0,), (1,), (0, 1), (1, 0), (0, 1, 0)]:
        s = s0
        variables = [mono((1, 0)), mono((0, 1))]
        for k in word:
            variables = list(variables)
            variables[k] = _exchange_step(s, variables, k)
            s = s.mutate(k)
        for i in range(2):
            unit = mono(tuple(1 if t == i else 0 for t in range(2)))
            assert transport(unit, s, s0, "A") == variables[i]


def test_transport_across_an_isolated_vertex_matches_exchange_step():
    # at a mutable vertex with no arrows both exchange monomials are 1, so
    # x_k x_k' = 2: the pullback carries (1 + z^0)^p = 2^p
    from ctrop.grassmannian import _exchange_step
    for fd in (FixedData(2, {0}, Mat([[0, 0], [0, 0]]), (1, 1)),
               FixedData(2, {0, 1}, Mat([[0, 0], [0, 0]]), (1, 2)),
               FixedData(3, {0, 1}, Mat([[0, 0, 0], [0, 0, 1], [0, -1, 0]]),
                         (1, 1, 1))):
        s0 = fd.initial_seed()
        s1 = s0.mutate(0)
        units = [mono(tuple(1 if t == i else 0 for t in range(fd.n)))
                 for i in range(fd.n)]
        got = transport(units[0], s1, s0, "A")
        assert got == _exchange_step(s0, units, 0)
        assert transport(got, s0, s1, "A") == units[0]
    assert binomial_power((0, 0), 3, 2) == \
        LaurentPolynomial({(0, 0): 8}, 2)


def test_x_pullback_examples():
    s = RUNNING.initial_seed()
    s1 = s.mutate(0)
    res = transport(mono((0, 1)), s1, s, "X")
    assert res == LaurentPolynomial({(0, 1): 1, (1, 1): 1}, 2)
    # the abstract monomial z^{e_1} is fixed: its coordinates on the
    # mutated chart are (-1, 0) since e_{1;s'} = -e_1
    assert transport(mono((-1, 0)), s1, s, "X") == mono((1, 0))
    one = LaurentPolynomial.one(2)
    assert transport(one, s1, s, "X") == one


def test_not_laurent():
    s0 = A2.initial_seed()
    s1 = s0.mutate(0)
    bad = LaurentPolynomial({(-1, 0): 1, (0, 0): 1}, 2)
    with pytest.raises(NotLaurent):
        transport(bad, s0, s1, "A")


def test_is_pointed():
    s = A2.initial_seed()
    p = ensemble_map(A2)
    assert is_pointed(mono((3, -2)), s, p) == (3, -2)
    f = LaurentPolynomial({(-1, 0): 1, (-1, 1): 1}, 2)
    assert is_pointed(f, s, p) == (-1, 0)
    assert is_pointed(LaurentPolynomial({(1, 1): 2}, 2), s, p) is None
    not_pointed = LaurentPolynomial({(0, 0): 1, (1, 1): 1}, 2)
    assert is_pointed(not_pointed, s, p) is None
    # (1,0) and (0,1) ARE comparable: difference = p*_1(e_1 + e_2)
    pointed = LaurentPolynomial({(1, 0): 1, (0, 1): 1}, 2)
    assert is_pointed(pointed, s, p) == (1, 0)


def test_is_pointed_eliminates_the_pstar_columns_once(monkeypatch):
    s = A2.initial_seed()
    cols = s.pstar_cols_unfrozen()
    calls = []
    inner = Mat.rref
    monkeypatch.setattr(Mat, "rref", lambda self: calls.append(self is cols)
                        or inner(self))
    # two exponents: the rank test and the dominance solve both read the
    # one elimination of cols; the refining order eliminates cols^T
    f = LaurentPolynomial({(-1, 0): 1, (-1, 1): 1}, 2)
    assert is_pointed(f, s) == (-1, 0)
    assert calls == [True, False]


def test_g_valuation():
    s = A2.initial_seed()
    d = PointedDecomposition([(1, (2, 3))])
    assert g_valuation(d, s) == (2, 3)
    d2 = PointedDecomposition([(1, (-1, 0)), (5, (-1, 1))])
    assert g_valuation(d2, s) == (-1, 0)
    with pytest.raises(EmptyInput):
        g_valuation(PointedDecomposition([]), s)


def test_c_valuation():
    s = RUNNING.initial_seed()
    d = PointedDecomposition([(1, (-2, -4))])
    assert c_valuation(d, s) == (-2, -4)
    d2 = PointedDecomposition([(1, (0, 0)), (1, (1, 0))])
    assert c_valuation(d2, s) == (0, 0)


def _a2_table():
    p = ensemble_map(A2)
    dia = complete_rank2(initial_diagram(A2, p, 12))
    return dia, LazyThetaTable(dia, 12)


def test_theta_expand():
    dia, table = _a2_table()
    s = A2.initial_seed()
    f = table[(-1, 1)]
    dec = theta_expand(f, s, table, max_rounds=100)
    assert dec.terms == [(1, (-1, 1))]
    # product of the mutated variable with the second initial one
    prod = table[(-1, 0)] * table[(0, 1)]
    dec2 = theta_expand(prod, s, table, max_rounds=100)
    assert (1, (-1, 1)) in dec2.terms
    order = TotalOrder.refining(s.pstar_cols_unfrozen())
    assert g_valuation(dec2, s, order=order) == (-1, 1)
    assert theta_expand(LaurentPolynomial.zero(2), s, table,
                        max_rounds=100).terms == []


def test_theta_expand_not_in_span():
    s = A2.initial_seed()
    table = {(0, 0): LaurentPolynomial.one(2)}
    with pytest.raises(NotInSpan):
        theta_expand(mono((2, 0)), s, table, max_rounds=100)


def test_valuation_product_law_small():
    dia, table = _a2_table()
    s = A2.initial_seed()
    order = TotalOrder.refining(s.pstar_cols_unfrozen())
    rng = random.Random(77)
    labels = [(i, j) for i in (-2, -1, 0, 1, 2) for j in (-2, -1, 0, 1, 2)]
    for _ in range(30):
        a = rng.choice(labels)
        b = rng.choice(labels)
        dec = theta_expand(table[a] * table[b], s, table, max_rounds=400)
        want = tuple(x + y for x, y in zip(a, b))
        assert g_valuation(dec, s, order=order) == want
        assert dict((m, c) for c, m in dec.terms)[want] == 1


def test_cval_gval_intertwining():
    # g(p*-pullback of theta^X_{dn}) = p*(n) while c(theta^X_{dn}) = dn
    p = ensemble_map(RUNNING)
    fdp = build_principal(RUNNING)
    pp = principal_ensemble_map(RUNNING, p)
    dia = complete_rank2(initial_diagram(fdp, pp, 12))
    s = RUNNING.initial_seed()
    for dn in [(-2, -4), (2, 0), (0, 2), (-2, 0), (2, 2)]:
        theta_x, exact = theta_on_x(dia, dn, p)
        assert exact
        n_vec = tuple(x // 2 for x in dn)
        dec_c = PointedDecomposition([(1, dn)])
        assert c_valuation(dec_c, s) == dn
        pulled = apply_matrix(theta_x, p.matrix)
        g = is_pointed(pulled, s, p)
        assert g == tuple(int(x) for x in p.apply(n_vec))


def test_g_valuation_superadditive_on_sums():
    dia, table = _a2_table()
    s = A2.initial_seed()
    order = TotalOrder.refining(s.pstar_cols_unfrozen())
    rng = random.Random(30)
    labels = [(i, j) for i in (-2, -1, 0, 1, 2) for j in (-2, -1, 0, 1, 2)]
    for _ in range(20):
        a, b = rng.choice(labels), rng.choice(labels)
        f = table[a].scale(rng.randint(1, 3))
        g = table[b].scale(rng.randint(1, 3))
        h = f + g
        if h.is_zero():
            continue
        dec = theta_expand(h, s, table, max_rounds=400)
        lead = g_valuation(dec, s, order=order)
        keys = sorted([order.key(a), order.key(b)])
        assert order.key(lead) >= keys[0]
        # scalar invariance
        dec2 = theta_expand(h.scale(7), s, table, max_rounds=400)
        assert g_valuation(dec2, s, order=order) == lead


def test_divide_exact_detects_sliding_nondivisibility():
    # divisor with two maximal-degree terms used to admit an unbounded
    # leading-term slide; the coordinate floors cut it off quickly
    f = LaurentPolynomial({(0, 5): 1}, 2)
    g = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): 1}, 2)
    with pytest.raises(NotLaurent):
        f.divide_exact(g)
    # genuine products still divide exactly
    q = LaurentPolynomial({(2, -1): 3, (-1, 4): 5}, 2)
    assert (q * g).divide_exact(g) == q


def test_divide_exact_step_limit_fails_loudly(monkeypatch):
    # the same exact quotient takes two leading-term steps: a limit of one
    # step must raise, not return a partial quotient
    g = LaurentPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): 1}, 2)
    q = LaurentPolynomial({(2, -1): 3, (-1, 4): 5}, 2)
    monkeypatch.setattr(laurent, "_DIVISION_STEPS", 1)
    with pytest.raises(NotLaurent, match="^division did not terminate$"):
        (q * g).divide_exact(g)


class _FractionPoly:
    """The Fraction arithmetic that the integer kernel replaced, kept as
    the reference: every constructor turns each coefficient into a nonzero
    Fraction, each division step copies the whole remainder, and binomial
    powers come from repeated squaring."""

    def __init__(self, coeffs, dim):
        self.coeffs = {}
        for e, c in coeffs.items():
            c = Fraction(c)
            if c != 0:
                self.coeffs[tuple(int(x) for x in e)] = c
        self.dim = dim

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return _FractionPoly(out, self.dim)

    def scale(self, c):
        return _FractionPoly({e: Fraction(c) * v
                              for e, v in self.coeffs.items()}, self.dim)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return _FractionPoly(out, self.dim)

    def shift(self, exp):
        return _FractionPoly({tuple(a + b for a, b in zip(e, exp)): c
                              for e, c in self.coeffs.items()}, self.dim)

    def pow(self, k):
        out = _FractionPoly({(0,) * self.dim: 1}, self.dim)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def divide_exact(self, other):
        floor = (min(sum(e) for e in self.coeffs)
                 - min(sum(e) for e in other.coeffs))
        coord_floor = tuple(
            min(e[i] for e in self.coeffs) - min(e[i] for e in other.coeffs)
            for i in range(self.dim))
        le_g = max(other.coeffs, key=laurent._grlex_key)
        rem, q = self, {}
        while rem.coeffs:
            le_r = max(rem.coeffs, key=laurent._grlex_key)
            t_exp = tuple(a - b for a, b in zip(le_r, le_g))
            if sum(t_exp) < floor or any(x < f for x, f in
                                         zip(t_exp, coord_floor)):
                raise NotLaurent("not divisible in the Laurent ring")
            t_coef = rem.coeffs[le_r] / other.coeffs[le_g]
            q[t_exp] = q.get(t_exp, Fraction(0)) + t_coef
            rem = rem - other.shift(t_exp).scale(t_coef)
        return _FractionPoly(q, self.dim)


def _binomial_power_reference(base, power, dim):
    return (_FractionPoly({(0,) * dim: 1}, dim)
            + _FractionPoly({tuple(base): 1}, dim)).pow(power)


def _random_pair(rng, dim, rational):
    coefs = [1, -1, 2, -3, 5] + ([Fraction(1, 2), Fraction(-2, 3)]
                                 if rational else [])

    def poly():
        return {tuple(rng.randint(-2, 2) for _ in range(dim)):
                rng.choice(coefs) for _ in range(rng.randint(1, 4))}

    return poly(), poly()


def _kind(c):
    return type(c) in (int, Fraction) and \
        (type(c) is int) == (Fraction(c).denominator == 1)


def test_kernel_matches_fraction_reference():
    # products, exact quotients and non-quotients of seeded random
    # polynomials, some with Fraction coefficients, against the Fraction
    # kernel; int inputs give int products
    rng = random.Random(20261019)
    raised = 0
    for trial in range(300):
        dim = rng.randint(1, 4)
        rational = trial % 3 == 0
        a, b = _random_pair(rng, dim, rational)
        fa, fb = LaurentPolynomial(a, dim), LaurentPolynomial(b, dim)
        ra, rb = _FractionPoly(a, dim), _FractionPoly(b, dim)
        if fb.is_zero() or fa.is_zero():
            continue
        prod = fa * fb
        assert prod.coeffs == (ra * rb).coeffs
        if not rational:
            assert all(type(c) is int for c in prod.coeffs.values())
        q = prod.divide_exact(fb)
        assert q == fa and q.coeffs == (ra * rb).divide_exact(rb).coeffs
        assert all(_kind(c) for c in q.coeffs.values())
        # one more term usually breaks divisibility: both kernels agree
        extra = {tuple(rng.randint(-2, 2) for _ in range(dim)): 1}
        g = prod + LaurentPolynomial(extra, dim)
        if g.is_zero():
            continue
        rg = ra * rb + _FractionPoly(extra, dim)
        got = _outcome(lambda: g.divide_exact(fb).coeffs)
        want = _outcome(lambda: rg.divide_exact(rb).coeffs)
        assert got == want
        raised += isinstance(want, tuple)
    assert raised > 20


def test_binomial_power_matches_repeated_squaring():
    dim = 3
    units = [tuple(s * int(i == j) for j in range(dim))
             for i in range(dim) for s in (1, -1)]
    for base in [(0, 0, 0)] + units + [(1, -1, 0), (2, 0, -3), (-1, -1, 1)]:
        for power in range(7):
            got = binomial_power(base, power, dim)
            assert got.coeffs == _binomial_power_reference(base, power,
                                                           dim).coeffs
            assert all(type(c) is int for c in got.coeffs.values())
    with pytest.raises(ValueError):
        binomial_power((1, 0, 0), -1, dim)


def _outcome(fn):
    try:
        return fn()
    except DomainError as exc:
        return type(exc).__name__, str(exc)


def _reduced_word(rng, letters, length):
    word = []
    while len(word) < length:
        k = rng.choice(letters)
        if not word or word[-1] != k:
            word.append(k)
    return tuple(word)


def _one_edge_at_a_time(f, fd, wf, wt, flavor):
    """transport from fd.seed(wf) to fd.seed(wt) as a chain of one-edge
    transports through the deepest common ancestor, on fresh seeds."""
    i = 0
    while i < min(len(wf), len(wt)) and wf[i] == wt[i]:
        i += 1
    path = [wf[:j] for j in range(len(wf), i - 1, -1)] + \
        [wt[:j] for j in range(i + 1, len(wt) + 1)]
    for a, b in zip(path, path[1:]):
        f = transport(f, fd.seed(a), fd.seed(b), flavor)
    return f


def test_transport_between_independent_seeds_gr36():
    fd, _, _ = rectangles_seed(3, 6)
    letters = sorted(fd.unfrozen)
    rng = random.Random(20261018)
    done = {"A": 0, "X": 0}
    for trial in range(8):
        wf = _reduced_word(rng, letters, rng.randint(1, 3))
        wt = wf[:rng.randint(0, len(wf))] + \
            _reduced_word(rng, letters, rng.randint(0, 2))
        wt = tuple(k for j, k in enumerate(wt) if j == 0 or wt[j - 1] != k)
        exp = tuple(rng.randint(0, 1) for _ in range(fd.n))
        f = mono(exp)
        frm = fd.seed(wf)
        to = fd.seed(wt) if trial % 2 else \
            seed_from_json(seed_to_json(fd.seed(wt)))
        for flavor in "AX":
            for a, b, wa, wb in ((frm, to, wf, wt), (to, frm, wt, wf)):
                want = _outcome(
                    lambda: _one_edge_at_a_time(f, fd, wa, wb, flavor))
                # twice on the same seeds, then on freshly built ones
                assert _outcome(lambda: transport(f, a, b, flavor)) == want
                assert _outcome(lambda: transport(f, a, b, flavor)) == want
                assert _outcome(lambda: transport(
                    f, fd.seed(wa), fd.seed(wb), flavor)) == want
                done[flavor] += isinstance(want, LaurentPolynomial)
    assert done["A"] > 0 and done["X"] > 0


def test_transport_from_a_seed_without_parent():
    fd, s0, _ = rectangles_seed(3, 6)
    s = fd.seed((4, 5, 4))
    orphan = Seed(fd, s.word, s.basis, s.eps)
    assert orphan.parent is None
    for v in range(fd.n):
        f = mono(tuple(1 if i == v else 0 for i in range(fd.n)))
        assert transport(f, orphan, s0) == transport(f, s, s0)
        assert transport(f, s0, orphan) == transport(f, s0, s)


def test_is_pointed_on_a_used_seed_matches_a_fresh_seed():
    fd, s0, em = rectangles_seed(3, 6)
    s = fd.seed((4, 5, 1, 2))
    for v in range(fd.n):
        f = transport(mono(tuple(1 if i == v else 0 for i in range(fd.n))),
                      s, s0)
        first = is_pointed(f, s0, em)
        assert first is not None
        assert is_pointed(f, s0, em) == first
        assert is_pointed(f, fd.seed(()), em) == first


def test_transport_needs_one_fixed_data():
    with pytest.raises(BadParams):
        transport(mono((1, 0)), A2.seed((0,)), RUNNING.initial_seed(), "A")
    with pytest.raises(BadParams):
        transport(mono((1, 0)), RUNNING.seed((1,)), A2.initial_seed(), "X")


D131 = FixedData(3, {0, 1}, Mat([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]),
                 (1, 3, 1))


def _reference_step(s, s2, f, flavor, forward):
    """The chart step on Fraction frames, as a second algorithm: the frame
    f = D^-1 B^-T D through Mat.inverse, the pairing in rationals and the
    substitution by apply_matrix."""
    fd = s.fixed
    n, d, lam = fd.n, fd.d, fd.skew
    k = s2.word[-1]
    src, dst = (s, s2) if forward else (s2, s)
    ek = s.basis.rows[k]

    def frame(t):
        binv_t = t.basis.inverse().transpose()
        return Mat([[binv_t.rows[i][j] * d[j] / Fraction(d[i])
                     for j in range(n)] for i in range(n)])

    if flavor == "A":
        frame_t = frame(src).transpose()
        to_own = frame(dst).inverse().transpose()
        binom = tuple(x * d[j] for j, x in enumerate((Mat([ek]) * lam).rows[0]))
        pairing = Mat([[Fraction(x, d[j]) * d[k] for j, x in enumerate(ek)]])
    else:
        frame_t = src.basis.transpose()
        to_own = dst.basis.inverse().transpose()
        binom = ek
        pairing = Mat([[x * d[k] for x in lam * ek]])
    terms = []
    for e, c in f.coeffs.items():
        init = frame_t * e
        p = (1 if forward else -1) * (pairing * init)[0]
        if p.denominator != 1:
            raise NotLaurent("non-integral pairing; exponent not in %s"
                             % ("M°" if flavor == "A" else "N"))
        terms.append((init, c, int(p)))
    shift = max([0] + [-p for _, _, p in terms])
    numer = LaurentPolynomial.zero(n)
    for e, c, p in terms:
        numer = numer + binomial_power(binom, p + shift, n) * \
            LaurentPolynomial({e: c}, n)
    if shift:
        numer = numer.divide_exact(binomial_power(binom, shift, n))
    return apply_matrix(numer, to_own)


def _reference_transport(f, fd, wf, wt, flavor):
    """f carried from the seed of word wf to that of wt through their
    longest common prefix, one reference step per edge, on seeds rebuilt
    from the initial one."""
    i = 0
    while i < min(len(wf), len(wt)) and wf[i] == wt[i]:
        i += 1
    for j in range(len(wf), i, -1):
        f = _reference_step(fd.seed(wf[:j - 1]), fd.seed(wf[:j]), f, flavor,
                            forward=False)
    for j in range(i + 1, len(wt) + 1):
        f = _reference_step(fd.seed(wt[:j - 1]), fd.seed(wt[:j]), f, flavor,
                            forward=True)
    return f


def _outcome(fn):
    try:
        return fn()
    except NotLaurent as exc:
        return ("NotLaurent", str(exc))


@pytest.mark.parametrize("name", ["gr25", "gr36", "running", "d131",
                                  "prin_running", "prin_d131"])
def test_transport_matches_fraction_frame_reference(name):
    # the integer-frame chart steps against the Fraction-frame ones, on
    # fixed-seed random words and polynomials; the principal data has a
    # rational skew form, and d131 a multiplier 3 and a frozen index
    if name.startswith("gr"):
        k, n = int(name[2]), int(name[3])
        fd = rectangles_seed(n - k, n, opposite=True)[0]
    else:
        fd = {"running": RUNNING, "d131": D131}[name.replace("prin_", "")]
        if name.startswith("prin_"):
            fd = build_principal(fd)
    rng = random.Random(name)
    letters = sorted(fd.unfrozen)
    span = 1 if fd.n > 6 else 2

    def word():
        w = []
        for _ in range(rng.randint(0, 4)):
            k = rng.choice([x for x in letters if not w or x != w[-1]])
            w.append(k)
        return tuple(w)

    seen = {"ok": 0, "NotLaurent": 0}
    for flavor in ("A", "X"):
        for _ in range(20):
            wf = word()
            wt = wf[:rng.randint(0, len(wf))] if rng.random() < 0.5 else word()
            if rng.random() < 0.5:
                j = rng.randrange(fd.n)
                f = mono(tuple(int(i == j) for i in range(fd.n)))
            else:
                f = LaurentPolynomial(
                    {tuple(rng.randint(-span, span) for _ in range(fd.n)):
                     rng.choice([1, -2, Fraction(1, 2)]) for _ in range(3)},
                    fd.n)
            got = _outcome(lambda: transport(f, fd.seed(wf), fd.seed(wt),
                                             flavor))
            want = _outcome(lambda: _reference_transport(f, fd, wf, wt,
                                                         flavor))
            assert got == want
            seen["NotLaurent" if isinstance(want, tuple) else "ok"] += 1
    assert seen["ok"] and seen["NotLaurent"]


def test_total_order_matches_fraction_weight_reference():
    # the integer-scaled weight ranks points as the Fraction weight does,
    # on integer and on rational points
    rng = random.Random(41)
    for _ in range(60):
        dim = rng.randint(1, 5)
        weight = [Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                  for _ in range(dim)]
        order = TotalOrder(weight)

        def ref_key(m):
            return (sum(w * Fraction(x) for w, x in zip(weight, m)),
                    tuple(Fraction(x) for x in m))

        for rational in (False, True):
            pts = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                         if rational else rng.randint(-3, 3)
                         for _ in range(dim)) for _ in range(rng.randint(1, 8))]
            best = pts[0]
            for p in pts[1:]:
                if ref_key(p) < ref_key(best):
                    best = p
            assert order.min(pts) == best
            for a in pts:
                for b in pts:
                    ka, kb = ref_key(a), ref_key(b)
                    oa, ob = order.key(a), order.key(b)
                    assert (oa < ob, oa == ob) == (ka < kb, ka == kb)
        assert order.weight == tuple(weight)
