"""Laurent polynomial arithmetic, cluster chart transitions, pointedness
and the g-vector valuation.

A LaurentPolynomial stores a sparse map from integer exponent tuples to
nonzero exact coefficients: int when integral, else Fraction (the rule
of linalg.exact).  Cluster variables have integer coefficients (the Laurent
phenomenon), so the arithmetic stays on ints until a rational enters
through from_json, a division or a wall series, and a wall series brings
one only when it is rational.  Exponents are interpreted in the tagged
seed's own cluster coordinates; transitions between charts convert through
the initial coordinates internally.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add, sub

from .errors import (BadParams, EmptyInput, NotInSpan, NotLaurent, RankError,
                     json_list)
from .linalg import LESS, dominance_compare, exact, vdot

# leading-term steps divide_exact takes before giving up
_DIVISION_STEPS = 500_000


def _grlex_key(e):
    return (sum(e), e)


def _summed(terms, dim, out=None):
    """The sum of the (int-tuple exponent, nonzero coefficient) terms, added
    up in the one dict `out` (a new one by default) that the result keeps;
    a sum that cancels to 0 is dropped, a Fraction sum is made `exact`."""
    if out is None:
        out = {}
    for e, c in terms:
        s = out.get(e, 0) + c
        if s:
            out[e] = s if type(s) is int else exact(s)
        else:
            out.pop(e, None)
    return LaurentPolynomial._of(out, dim)


class LaurentPolynomial:
    """Sparse exact Laurent polynomial in n variables."""

    __slots__ = ("coeffs", "dim")

    def __init__(self, coeffs, dim):
        """Polynomial from outside input: exponents become int tuples,
        coefficients exact (an integral one an int), zeros are dropped."""
        self.coeffs = {}
        for e, c in coeffs.items():
            c = exact(c)
            if c:
                self.coeffs[tuple(int(x) for x in e)] = c
        self.dim = dim

    @classmethod
    def _of(cls, coeffs, dim):
        """The arithmetic's constructor: keeps `coeffs` as it is, unchecked."""
        f = cls.__new__(cls)
        f.coeffs = coeffs
        f.dim = dim
        return f

    @staticmethod
    def zero(dim):
        return LaurentPolynomial._of({}, dim)

    @staticmethod
    def monomial(exp):
        return LaurentPolynomial({tuple(exp): 1}, len(exp))

    @staticmethod
    def one(dim):
        return LaurentPolynomial._of({(0,) * dim: 1}, dim)

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
        return _summed(other.coeffs.items(), self.dim, dict(self.coeffs))

    def __sub__(self, other):
        return _summed(((e, -c) for e, c in other.coeffs.items()), self.dim,
                       dict(self.coeffs))

    def scale(self, c):
        return _summed(((e, c * v) for e, v in self.coeffs.items()),
                       self.dim)

    def __mul__(self, other):
        return _summed(((tuple(map(add, e1, e2)), c1 * c2)
                        for e1, c1 in self.coeffs.items()
                        for e2, c2 in other.coeffs.items()), self.dim)

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

    def divide_exact(self, other):
        """Exact quotient self / other; raises NotLaurent if not divisible.

        Termination: Newton polytopes of exact quotients satisfy
        NP(self) = NP(q) + NP(other), so every quotient exponent is bounded
        below coordinatewise (and in total degree) by the difference of the
        minima.  A candidate term violating a bound certifies
        non-divisibility, and within the bounded region the strictly
        decreasing leading terms must terminate.  The remainder is one dict
        from which each step subtracts t * other in place; graded lex is a
        monomial order, so every step's term t is new to the quotient.
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
        rem = dict(self.coeffs)
        q = {}
        steps = 0
        le_g = max(other.coeffs, key=_grlex_key)
        lc_g = other.coeffs[le_g]
        while rem:
            steps += 1
            if steps > _DIVISION_STEPS:
                raise NotLaurent("division did not terminate")
            le_r = max(rem, key=_grlex_key)
            t_exp = tuple(map(sub, le_r, le_g))
            if sum(t_exp) < floor or any(x < f for x, f in
                                         zip(t_exp, coord_floor)):
                raise NotLaurent("not divisible in the Laurent ring")
            c = rem[le_r]
            # an even division of ints needs no Fraction
            t = q[t_exp] = (c // lc_g if type(c) is type(lc_g) is int
                            and c % lc_g == 0 else exact(Fraction(c, lc_g)))
            _summed(((tuple(map(add, e, t_exp)), -t * c)
                     for e, c in other.coeffs.items()), self.dim, rem)
        return LaurentPolynomial._of(q, self.dim)

    def to_json(self):
        return [{"exp": list(e), "coef": str(c)} for e, c in self.terms()]

    @staticmethod
    def from_json(data, dim):
        """Polynomial from its list of {"exp", "coef"} terms; a missing
        field, a malformed value, an exponent entry that is not an integer,
        a repeated exponent or an exponent of another length than `dim` is
        a BadParams error."""
        coeffs = {}
        try:
            for t in json_list(data, "a Laurent polynomial"):
                e = tuple(json_list(t["exp"], "a Laurent exponent"))
                exp = tuple(int(x) for x in e)
                if any(Fraction(x) != y for x, y in zip(e, exp)):
                    raise BadParams("Laurent exponent %s is not integral"
                                    % (list(e),))
                if exp in coeffs:
                    raise BadParams("repeated Laurent exponent %s"
                                    % (list(exp),))
                coeffs[exp] = Fraction(t["coef"])
        except KeyError as exc:
            raise BadParams("Laurent term is missing %s" % (exc,))
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise BadParams("malformed Laurent term: %s" % (exc,))
        if any(len(e) != dim for e in coeffs):
            raise BadParams("Laurent exponents must have length %d" % dim)
        return LaurentPolynomial(coeffs, dim)

    def __repr__(self):
        return "LaurentPolynomial(%r)" % dict(self.terms())


def binomial_power(base_exp, power, dim):
    """(1 + z^base_exp)^power for integer power >= 0, in closed form: the
    sum of C(power, i) z^(i base_exp), which is 2^power when base_exp = 0."""
    if power < 0:
        raise ValueError("negative power")
    base = tuple(int(x) for x in base_exp)
    return _summed(((tuple(i * b for b in base), comb(power, i))
                    for i in range(power + 1)), dim)


def _map_exponent(frame, e, lattice):
    """The integer map (den, rows) of a seed's frames applied to e."""
    den, rows = frame
    out = tuple(vdot(r, e) for r in rows)
    if den != 1:
        if any(x % den for x in out):
            raise NotLaurent("non-integral exponent; not in %s" % lattice)
        out = tuple(x // den for x in out)
    return out


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
    for exactness.  Exponents move between the charts through the seeds'
    integer frames, so every exponent stays an int.
    """
    k = s2.word[-1]
    src, dst = (s, s2) if forward else (s2, s)
    sign = 1 if forward else -1
    to_initial = src.frames(flavor)[0]
    to_own = dst.frames(flavor)[1]
    binom, pden, prow = s.exchange_pairing(flavor, k)
    lattice = "M°" if flavor == "A" else "N"
    terms = []
    for e, c in f.coeffs.items():
        init = _map_exponent(to_initial, e, lattice)
        p, r = divmod(sign * vdot(prow, init), pden)
        if r:
            raise NotLaurent("non-integral pairing; exponent not in %s"
                             % lattice)
        terms.append((init, c, p))
    dim = f.dim
    shift = max([0] + [-p for _, _, p in terms])
    numer = _summed(((tuple(map(add, e, x)), c * y) for e, c, p in terms
                     for x, y in binomial_power(binom, p + shift,
                                                dim).coeffs.items()), dim)
    if shift:
        numer = numer.divide_exact(binomial_power(binom, shift, dim))
    # the frame is invertible, so distinct exponents stay distinct
    return LaurentPolynomial._of({_map_exponent(to_own, e, lattice): c
                                  for e, c in numer.coeffs.items()}, dim)


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
            c = exact(c)
            if c:
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
    coordinates.  The ensemble map p is unused; it stays in the signature
    only for the benchmark's positional call is_pointed(f, s, p)."""
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


def theta_expand(f, s, theta_table, max_rounds):
    """Greedy expansion of f in the theta functions supplied by the table.

    Repeatedly subtracts c * theta_{m0} at the order-minimal exponent m0 of
    the residual.  Raises NotInSpan if a needed label is missing or the
    expansion takes more than max_rounds rounds.
    """
    order = s.refining_order()
    residual = f
    out = []
    rounds = 0
    while not residual.is_zero():
        rounds += 1
        if rounds > max_rounds:
            raise NotInSpan("theta expansion exceeded iteration bound")
        m0 = order.min(list(residual.coeffs))
        c = residual.coeffs[m0]
        theta = theta_table.get(m0)
        if theta is None:
            raise NotInSpan("no theta function with label %r" % (m0,))
        residual = residual - theta.scale(c)
        out.append((c, m0))
    return PointedDecomposition(out)
