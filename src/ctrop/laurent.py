"""Laurent polynomial arithmetic, cluster chart transitions, pointedness
and the g-/c-vector valuations.

A LaurentPolynomial stores a sparse map from integer exponent tuples to
nonzero rational coefficients.  Exponents are interpreted in the tagged
seed's own cluster coordinates; transitions between charts convert through
the initial coordinates internally.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadParams, EmptyInput, NotInSpan, NotLaurent, RankError
from .linalg import LESS, TotalOrder, dominance_compare, vec


def _grlex_key(e):
    return (sum(e), e)


class LaurentPolynomial:
    """Sparse exact Laurent polynomial in n variables."""

    __slots__ = ("coeffs", "dim")

    def __init__(self, coeffs, dim=None):
        self.coeffs = {}
        for e, c in coeffs.items():
            c = Fraction(c)
            if c != 0:
                self.coeffs[tuple(int(x) for x in e)] = c
        if dim is None:
            if not self.coeffs:
                raise ValueError("dimension needed for zero polynomial")
            dim = len(next(iter(self.coeffs)))
        self.dim = dim

    @staticmethod
    def zero(dim):
        return LaurentPolynomial({}, dim)

    @staticmethod
    def monomial(exp, coef=1):
        return LaurentPolynomial({tuple(exp): Fraction(coef)}, len(exp))

    @staticmethod
    def one(dim):
        return LaurentPolynomial({(0,) * dim: Fraction(1)}, dim)

    def is_zero(self):
        return not self.coeffs

    def terms(self):
        """Terms in canonical (graded-lex ascending) order."""
        return [(e, self.coeffs[e]) for e in sorted(self.coeffs, key=_grlex_key)]

    def __eq__(self, other):
        return (isinstance(other, LaurentPolynomial)
                and self.dim == other.dim and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.dim, tuple(self.terms())))

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return LaurentPolynomial(out, self.dim)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return LaurentPolynomial.zero(self.dim)
        return LaurentPolynomial({e: c * v for e, v in self.coeffs.items()}, self.dim)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return LaurentPolynomial(out, self.dim)

    def shift(self, exp):
        return LaurentPolynomial(
            {tuple(a + b for a, b in zip(e, exp)): c for e, c in self.coeffs.items()},
            self.dim)

    def pow(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = LaurentPolynomial.one(self.dim)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def leading(self):
        """Largest exponent in graded-lex order, with coefficient."""
        if not self.coeffs:
            raise EmptyInput("zero polynomial has no leading term")
        e = max(self.coeffs, key=_grlex_key)
        return e, self.coeffs[e]

    def divide_exact(self, other, max_steps=500000):
        """Exact quotient self / other; raises NotLaurent if not divisible.

        Termination: Newton polytopes of exact quotients satisfy
        NP(self) = NP(q) + NP(other), so every quotient exponent is bounded
        below coordinatewise (and in total degree) by the difference of the
        minima.  A candidate term violating a bound certifies
        non-divisibility, and within the bounded region the strictly
        decreasing leading terms must terminate.
        """
        if other.is_zero():
            raise ZeroDivisionError
        if self.is_zero():
            return LaurentPolynomial.zero(self.dim)
        floor = (min(sum(e) for e in self.coeffs)
                 - min(sum(e) for e in other.coeffs))
        coord_floor = tuple(
            min(e[i] for e in self.coeffs) - min(e[i] for e in other.coeffs)
            for i in range(self.dim))
        rem = self
        q = {}
        steps = 0
        le_g, lc_g = other.leading()
        while not rem.is_zero():
            steps += 1
            if steps > max_steps:
                raise NotLaurent("division did not terminate")
            le_r, lc_r = rem.leading()
            t_exp = tuple(a - b for a, b in zip(le_r, le_g))
            if sum(t_exp) < floor or any(x < f for x, f in
                                         zip(t_exp, coord_floor)):
                raise NotLaurent("not divisible in the Laurent ring")
            t_coef = lc_r / lc_g
            q[t_exp] = q.get(t_exp, Fraction(0)) + t_coef
            rem = rem - other.shift(t_exp).scale(t_coef)
        return LaurentPolynomial(q, self.dim)

    def apply_matrix(self, mat):
        """Monomial substitution z^e -> z^(mat @ e)."""
        out = {}
        for e, c in self.coeffs.items():
            e2 = tuple(int(x) for x in (mat * vec(e)))
            out[e2] = out.get(e2, Fraction(0)) + c
        return LaurentPolynomial(out, mat.nrows)

    def to_json(self):
        return [{"exp": list(e), "coef": str(c)} for e, c in self.terms()]

    @staticmethod
    def from_json(data, dim=None):
        """Polynomial from its list of {"exp", "coef"} terms; a missing
        field, a malformed value or an exponent of another length than
        `dim` is a BadParams error."""
        try:
            coeffs = {tuple(int(x) for x in t["exp"]): Fraction(t["coef"])
                      for t in data}
        except KeyError as exc:
            raise BadParams("Laurent term is missing %s" % (exc,))
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise BadParams("malformed Laurent term: %s" % (exc,))
        if dim is not None and any(len(e) != dim for e in coeffs):
            raise BadParams("Laurent exponents must have length %d" % dim)
        return LaurentPolynomial(coeffs, dim)

    def __repr__(self):
        return "LaurentPolynomial(%r)" % dict(self.terms())


def binomial_power(base_exp, power, dim):
    """(1 + z^base_exp)^power for integer power >= 0."""
    one_plus = LaurentPolynomial({(0,) * dim: 1, tuple(base_exp): 1}, dim)
    return one_plus.pow(power)


def _skew_pair(lam, a, b):
    la = lam * vec(b)
    return sum(x * y for x, y in zip(vec(a), la))


def _chart_step(s, s2, f, flavor, forward):
    """One chart transition along the edge s -> s2 = mutate(s, k), where k
    is the last letter of the word of s2.

    With forward=False, f lives on the chart of s2 and is pulled back to
    the chart of s; forward=True is the inverse.  Exponents are in
    the own coordinates of the source and target seeds.  Both flavors read
    the same mutation formula z^m -> z^m (1 + z^b)^(-/+ <d_k e_k, m>) in
    initial coordinates: for A, m in M° (frame f_{i;s}) and b = v_k; for X,
    m in N (frame e_{i;s}) and b = e_k, the pairing being d_k {m, e_k}.
    The result is divided through by the common negative power and checked
    for exactness.
    """
    k = s2.word[-1]
    src, dst = (s, s2) if forward else (s2, s)
    sign = 1 if forward else -1
    if flavor == "A":
        frame_t = src.f_matrix().transpose()
        to_own = dst.f_matrix().inverse().transpose()
        binom = s.v_initial(k)
        pairing = lambda m: s.pairing_dkek(k, m)
        lattice = "M°"
    else:
        frame_t = src.basis.transpose()
        to_own = dst.basis.inverse().transpose()
        binom = s.e_initial(k)
        pairing = lambda m: s.fixed.d[k] * _skew_pair(s.fixed.skew, m, binom)
        lattice = "N"
    g = {}
    powers = {}
    for e, c in f.coeffs.items():
        init = frame_t * e
        p = sign * pairing(init)
        if Fraction(p).denominator != 1:
            raise NotLaurent("non-integral pairing; exponent not in %s"
                             % lattice)
        g[init] = c
        powers[init] = int(p)
    dim = f.dim
    shift = max(0, max((-p for p in powers.values()), default=0))
    numer = LaurentPolynomial.zero(dim)
    for e, c in g.items():
        numer = numer + binomial_power(binom, powers[e] + shift,
                                       dim).shift(e).scale(c)
    if shift:
        numer = numer.divide_exact(binomial_power(binom, shift, dim))
    return numer.apply_matrix(to_own)


def _edges_to_depth(s, depth):
    """The edges (parent, child) from s back to its ancestor with a word
    of length `depth`, the edge at s first.  They are taken from the seed's
    own parent chain; a seed built without a parent falls back to
    rebuilding its parent from the initial seed."""
    edges = []
    while len(s.word) > depth:
        parent = s.parent if s.parent is not None else \
            s.fixed.seed(s.word[:-1])
        edges.append((parent, s))
        s = parent
    return edges


def transport(f, frm, to, flavor="A"):
    """Express a chart function given on `frm` in the chart of `to`.

    Both seeds must be reachable from the same initial seed; the function
    is carried through the deepest common ancestor by composing single-step
    pullbacks and their inverses.  Raises BadParams if the seeds have
    different fixed data and NotLaurent if any step leaves the Laurent
    ring.
    """
    if frm.fixed != to.fixed:
        raise BadParams("cannot transport between seeds of different "
                        "fixed data")
    wf, wt = frm.word, to.word
    i = 0
    while i < len(wf) and i < len(wt) and wf[i] == wt[i]:
        i += 1
    g = f
    for s, s2 in _edges_to_depth(frm, i):
        g = _chart_step(s, s2, g, flavor, forward=False)
    for s, s2 in reversed(_edges_to_depth(to, i)):
        g = _chart_step(s, s2, g, flavor, forward=True)
    return g


class PointedDecomposition:
    """List of (coefficient, theta label) pairs with distinct labels."""

    def __init__(self, terms):
        seen = {}
        for c, m in terms:
            m = tuple(int(x) for x in m)
            if m in seen:
                raise ValueError("duplicate label %r" % (m,))
            c = Fraction(c)
            if c != 0:
                seen[m] = c
        self.terms = sorted(((c, m) for m, c in seen.items()),
                            key=lambda t: _grlex_key(t[1]))

    def labels(self):
        return [m for _, m in self.terms]

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, PointedDecomposition) and self.terms == other.terms

    def __repr__(self):
        return "PointedDecomposition(%r)" % (self.terms,)


def is_pointed(f, s, p=None):
    """The pointedness test: returns the dominance-minimal exponent m0 if f
    has a unique minimal exponent with coefficient 1 and all exponents lie
    in m0 + p*_1(N+); otherwise None.  Exponents are in the seed's own
    coordinates."""
    if f.is_zero():
        return None
    cols = s.pstar_cols_unfrozen()
    if cols.rank() != cols.ncols:
        raise RankError("pointedness needs full-rank p*_1")
    order = s.refining_order()
    exps = list(f.coeffs)
    m0 = order.min(exps)
    if f.coeffs[m0] != 1:
        return None
    for e in exps:
        if e == m0:
            continue
        if dominance_compare(m0, e, cols) != LESS:
            return None
    return m0


def g_valuation(decomp, s, order=None):
    """Minimal theta label under a linear refinement of the opposite
    dominance order of s."""
    if len(decomp) == 0:
        raise EmptyInput("empty decomposition")
    if order is None:
        order = s.refining_order()
    return order.min(decomp.labels())


def c_valuation(decomp, s, order=None):
    """Minimal X-side theta label under a refinement of the divisibility
    order (graded-lex with all-ones weight refines it)."""
    if len(decomp) == 0:
        raise EmptyInput("empty decomposition")
    if order is None:
        order = TotalOrder.graded_lex(s.fixed.n)
    return order.min(decomp.labels())


def theta_expand(f, s, theta_table, max_rounds=None):
    """Greedy expansion of f in the theta functions supplied by the table.

    Repeatedly subtracts c * theta_{m0} at the order-minimal exponent m0 of
    the residual.  Raises NotInSpan if a needed label is missing or the
    iteration bound is exceeded.
    """
    order = s.refining_order()
    bound = max_rounds if max_rounds is not None else \
        10 * max(10, len(theta_table))
    residual = f
    out = []
    rounds = 0
    while not residual.is_zero():
        rounds += 1
        if rounds > bound:
            raise NotInSpan("theta expansion exceeded iteration bound")
        m0 = order.min(list(residual.coeffs))
        c = residual.coeffs[m0]
        theta = theta_table.get(m0)
        if theta is None:
            raise NotInSpan("no theta function with label %r" % (m0,))
        residual = residual - theta.scale(c)
        out.append((c, m0))
    return PointedDecomposition(out)
