"""Fixed data, seeds and seed mutation, principal coefficients, cluster
ensemble lattice maps.

Conventions.  A seed is addressed by its mutation word from a single
initial seed.  The `basis` matrix stores the seed basis vectors e_{i;s} as
rows, written in the coordinates of the initial basis of N.  The exchange
matrix is eps[i][j] = {e_{i;s}, d_j e_{j;s}}; mutation updates it by the
closed-form matrix mutation rule, which keeps this identity exactly.

Coordinate systems used throughout the library:
  * N-vectors: coordinates in the initial basis (e_i),
  * N°-vectors: coordinates in the basis (d_i e_i),
  * M°-vectors: coordinates in the basis (f_i), f_i = e_i^*/d_i.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import BadParams, FrozenIndex, json_list
from .linalg import Mat, TotalOrder, integer_scale, vdot, vec

POS = lambda x: x if x > 0 else 0


def _integer_frame(rows, d):
    """(den, ints): the rational matrix D rows D^-1, D = diag(d), as the
    integer rows ints over the least common denominator den."""
    n = len(d)
    den, flat = integer_scale([x for r in rows for x in r])
    big = lcm(*d)
    ints = [x * d[i] * (big // d[j])
            for i in range(n) for j, x in enumerate(flat[i * n:(i + 1) * n])]
    g = gcd(den * big, *ints)
    return den * big // g, tuple(tuple(x // g for x in ints[i * n:(i + 1) * n])
                                 for i in range(n))


class FixedData:
    """Index set with frozen/unfrozen split, skew form and multipliers."""

    def __init__(self, n, unfrozen, skew, d):
        self.n = n
        self.unfrozen = frozenset(unfrozen)
        self.skew = skew if isinstance(skew, Mat) else Mat(skew)
        self.d = tuple(int(x) for x in d)
        if any(Fraction(x) != y for x, y in zip(d, self.d)):
            raise BadParams("multipliers must be integers")
        self._validate()

    def _validate(self):
        if self.skew.nrows != self.n or self.skew.ncols != self.n:
            raise BadParams("skew form must be n x n")
        if len(self.d) != self.n:
            raise BadParams("need one multiplier per index")
        if not self.unfrozen <= set(range(self.n)):
            raise BadParams("unfrozen indices must lie in range(n)")
        if any(x <= 0 for x in self.d):
            raise BadParams("multipliers must be positive")
        g = 0
        for x in self.d:
            g = gcd(g, x)
        if self.n and g != 1:
            raise BadParams("gcd of multipliers must be 1")
        if self.skew.transpose() != -self.skew:
            raise BadParams("form must be skew-symmetric")
        eps = self.epsilon()
        for i in range(self.n):
            for j in range(self.n):
                if i in self.unfrozen or j in self.unfrozen:
                    if Fraction(eps.rows[i][j]).denominator != 1:
                        raise BadParams(
                            "epsilon must be integral on unfrozen rows/columns")

    def epsilon(self):
        """eps[i][j] = {e_i, d_j e_j} = skew[i][j] * d_j."""
        return Mat([[self.skew.rows[i][j] * self.d[j] for j in range(self.n)]
                    for i in range(self.n)])

    def initial_seed(self):
        return Seed(self, (), Mat.identity(self.n), self.epsilon())

    def seed(self, word):
        s = self.initial_seed()
        for k in word:
            s = s.mutate(k)
        return s

    def __eq__(self, other):
        return (isinstance(other, FixedData) and self.n == other.n
                and self.unfrozen == other.unfrozen
                and self.skew == other.skew and self.d == other.d)


class Seed:
    """A seed: mutation word plus the derived basis and exchange matrix.

    Words are kept reduced: mutating twice in the same direction returns
    the parent seed, with basis and exchange matrix literally restored.
    (The raw basis formula composed with itself gives the parent seed only
    up to a canonical monomial isomorphism; the reduced-word model quotients
    by it, which is what every identity in this library expects.)

    A seed is immutable: its integer chart frames and exchange pairings,
    its p*_1 columns and its refining total order are computed on first
    use and kept on the seed.
    """

    def __init__(self, fixed, word, basis, eps, parent=None):
        self.fixed = fixed
        self.word = tuple(word)
        self.basis = basis
        self.eps = eps
        self.parent = parent
        self._frames = {}
        self._exchange = {}
        self._pstar = None
        self._order = None

    @property
    def n(self):
        return self.fixed.n

    def key(self):
        """Canonical key identifying the seed data (not the word)."""
        return (self.basis.rows, self.eps.rows)

    def mutate(self, k):
        if k not in self.fixed.unfrozen:
            raise FrozenIndex("cannot mutate frozen index %r" % (k,))
        if self.word and self.word[-1] == k and self.parent is not None:
            return self.parent
        n = self.fixed.n
        e = self.eps.rows
        rows = []
        for i in range(n):
            if i == k:
                rows.append([-x for x in self.basis.rows[k]])
            else:
                c = POS(e[i][k])
                rows.append([a + c * b for a, b in
                             zip(self.basis.rows[i], self.basis.rows[k])])
        # matrix mutation in closed form (Fomin-Zelevinsky)
        eps = [[-e[i][j] if k in (i, j)
                else e[i][j] + POS(e[i][k]) * e[k][j] + e[i][k] * POS(-e[k][j])
                for j in range(n)] for i in range(n)]
        return Seed(self.fixed, self.word + (k,), Mat(rows), Mat(eps),
                    parent=self)

    def v_initial(self, k):
        """v_{k;s} = {e_{k;s}, .} in initial M°-coordinates (f-basis)."""
        b = self.basis.rows[k]
        d = self.fixed.d
        return tuple(vdot(b, c) * d[j]
                     for j, c in enumerate(self.fixed.skew.cols()))

    def skew_with_e(self, k, n_vec):
        """{e_{k;s}, n} for n in initial N-coordinates."""
        return vdot(self.basis.rows[k], self.fixed.skew * vec(n_vec))

    def frames(self, flavor):
        """(to_initial, to_own): the integer maps between the seed's own
        chart exponents and the initial ones, each as (den, rows) with
        den * m_initial = rows @ m_own, resp. den * m_own = rows @ m_initial.

        For A (M°, frame f_{i;s} = e_{i;s}^*/d_i) they are f^T = D B^-1 D^-1
        and (f^-1)^T = D B D^-1, the second read from the basis B itself;
        for X (N, frame e_{i;s}) they are B^T and (B^-1)^T."""
        fr = self._frames.get(flavor)
        if fr is None:
            b = self.basis
            if flavor == "A":
                fr = b.inverse().rows, b.rows
                d = self.fixed.d
            else:
                fr = b.transpose().rows, b.inverse().transpose().rows
                d = (1,) * self.fixed.n
            fr = self._frames[flavor] = tuple(_integer_frame(m, d) for m in fr)
        return fr

    def exchange_pairing(self, flavor, k):
        """(b, den, row) for mutation in direction k, in the flavor's
        initial coordinates: it multiplies z^m by a power of 1 + z^b, the
        power being <d_k e_{k;s}, m> = row . m / den.  For A, b = v_{k;s}
        and row_j = d_k (e_{k;s})_j / d_j; for X, b = e_{k;s} and the
        pairing is d_k {m, e_{k;s}}, so row = d_k Lambda e_{k;s}."""
        key = (flavor, k)
        ex = self._exchange.get(key)
        if ex is None:
            d = self.fixed.d
            ek = self.basis.rows[k]
            if flavor == "A":
                b = self.v_initial(k)
                row = [d[k] * x / Fraction(dj) for x, dj in zip(ek, d)]
            else:
                b = ek
                row = [d[k] * x for x in self.fixed.skew * ek]
            ex = self._exchange[key] = (b,) + integer_scale(row)
        return ex

    def pstar_cols_unfrozen(self):
        """Columns p*_1(e_{k;s}) in the seed's own M°-coordinates: these are
        the unfrozen rows of eps, transposed into columns."""
        if self._pstar is None:
            ks = sorted(self.fixed.unfrozen)
            self._pstar = Mat.from_cols([self.eps.rows[k] for k in ks])
        return self._pstar

    def refining_order(self):
        """The total order refining the opposite dominance order of this
        seed (see TotalOrder.refining)."""
        if self._order is None:
            self._order = TotalOrder.refining(self.pstar_cols_unfrozen())
        return self._order

    def __eq__(self, other):
        return (isinstance(other, Seed) and self.fixed == other.fixed
                and self.word == other.word)

    def __repr__(self):
        return "Seed(word=%r)" % (self.word,)


def build_principal(fd):
    """Principal-coefficient fixed data: index set doubled, skew form
    {(n1,m1),(n2,m2)} = {n1,n2} + <n1,m2> - <n2,m1>, multipliers repeated,
    unfrozen set kept in the first copy.

    The initial-seed basis of N_prin is ((e_i,0), (0,f_i)); in these
    coordinates <e_i, f_j> = delta_ij / d_j.
    """
    n = fd.n
    rows = []
    for i in range(2 * n):
        row = []
        for j in range(2 * n):
            if i < n and j < n:
                row.append(fd.skew.rows[i][j])
            elif i < n and j >= n:
                row.append(Fraction(1, fd.d[i]) if j - n == i else Fraction(0))
            elif i >= n and j < n:
                row.append(Fraction(-1, fd.d[j]) if i - n == j else Fraction(0))
            else:
                row.append(Fraction(0))
        rows.append(row)
    return FixedData(2 * n, fd.unfrozen, Mat(rows), fd.d + fd.d)


class EnsembleMap:
    """Matrix of a cluster ensemble lattice map p*: N -> M° in the initial
    bases; its kernel drives torus actions and fibrations (for the
    Grassmannian map it is the span of the all-ones vector)."""

    def __init__(self, fd, matrix):
        self.fd = fd
        self.matrix = matrix

    def apply(self, n_vec):
        """p*(n) in M°-coordinates, n in initial N-coordinates."""
        return self.matrix * vec(n_vec)


def ensemble_map(fd):
    """Assemble the map with unfrozen blocks forced to eps^tr and the free
    frozen x frozen block zero."""
    frozen = sorted(set(range(fd.n)) - fd.unfrozen)
    rows = [list(r) for r in fd.epsilon().transpose().rows]
    for i in frozen:
        for j in frozen:
            rows[i][j] = 0
    m = Mat(rows)
    if not m.is_integer():
        raise BadParams("ensemble map must be integral")
    return EnsembleMap(fd, m)


def principal_ensemble_map(fd, p):
    """p*_prin for the principal data: (n, m) -> (p*(n) - m, n)."""
    fdp = build_principal(fd)
    n = fd.n
    rows = []
    for i in range(n):
        rows.append([p.matrix.rows[i][j] for j in range(n)]
                    + [-1 if j == i else 0 for j in range(n)])
    for i in range(n):
        rows.append([1 if j == i else 0 for j in range(n)] + [0] * n)
    return EnsembleMap(fdp, Mat(rows))


def optimized_check(s, point):
    """True iff {e_{k;s}, n} >= 0 for every unfrozen k, where `point` is
    given in the N°-coordinates of the seed s."""
    n = s.fixed.n
    d = s.fixed.d
    init = [Fraction(0)] * n
    for i in range(n):
        ci = point[i] * d[i]
        for j in range(n):
            init[j] += ci * s.basis.rows[i][j]
    for k in sorted(s.fixed.unfrozen):
        if s.skew_with_e(k, init) < 0:
            return False
    return True


def seed_to_json(s):
    fd = s.fixed
    return {
        "n": fd.n,
        "unfrozen": sorted(fd.unfrozen),
        "lambda": [[str(x) for x in row] for row in fd.skew.rows],
        "d": list(fd.d),
        "word": list(s.word),
    }


def seed_from_json(data):
    """Seed from its JSON form; missing or malformed fields are BadParams
    errors."""
    try:
        fd = FixedData(
            data["n"],
            json_list(data["unfrozen"], 'seed "unfrozen"'),
            Mat([[Fraction(x) for x in json_list(row, 'a "lambda" row')]
                 for row in json_list(data["lambda"], 'seed "lambda"')]),
            json_list(data["d"], 'seed "d"'),
        )
        word = tuple(json_list(data["word"], 'seed "word"'))
    except KeyError as exc:
        raise BadParams("seed JSON is missing %s" % (exc,))
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise BadParams("malformed seed JSON: %s" % (exc,))
    if any(type(k) is not int for k in word):
        raise BadParams("seed word %r must hold integers" % (list(word),))
    return fd.seed(word)
