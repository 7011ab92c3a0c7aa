"""Quadratic forms, genus characters, Heegner divisors, and the generalized
Borcherds products attached to the optimal forms -- ending in the exact
rational-function fit of Psi_{D,r} against the principal modulus T.

Conventions.  Forms are positive definite, Q(x,y) = Ax^2 + Bxy + Cy^2 with
m | A, acted on by gamma = [[a,b],[c,d]] via (Q|gamma)(x,y) = Q(ax+by,
cx+dy), so Q|(gh) = (Q|g)|h.  The Gamma_0(m)-classes of Heegner forms
are enumerated, not searched for: they are the Aut(R)-orbits on the
cosets g Gamma_0(m), the points of P^1(Z/m), for each reduced form R (see
enumerate_heegner).
"""

from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, inf, isqrt, lcm
from operator import mul

from .arith import (
    divisors, is_fundamental, kronecker, prime_factorization,
)
from .cyclo import Cyc, cformat
from .errors import (
    BadDiscriminant, CongruenceViolation, ExcludedDiscriminant,
    InsufficientDepth, LevelMismatch, MissingSource, NonIntegralExponent,
    NoSolutionWithinDegree, Underdetermined,
)
from .jacobi import _stream_window
from .series import QSeries, _lo_eff, series_mul

__all__ = [
    "QuadForm", "enumerate_heegner", "genus_char", "heegner_divisor",
    "psi_expand", "fit_case",
]


class QuadForm:
    __slots__ = ("A", "B", "C")

    def __init__(self, A, B, C):
        self.A, self.B, self.C = A, B, C

    def value(self, x, y):
        return self.A * x * x + self.B * x * y + self.C * y * y

    def transform(self, g):
        a, b, c, d = g
        return QuadForm(self.value(a, c),
                        2 * self.A * a * b + self.B * (a * d + b * c)
                        + 2 * self.C * c * d,
                        self.value(b, d))

    def key(self):
        return (self.A, self.B, self.C)

    def __eq__(self, other):
        return isinstance(other, QuadForm) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"[{self.A}, {self.B}, {self.C}]"


@lru_cache(maxsize=None)
def _automorphs(key):
    """The SL_2(Z) stabilizer of the reduced positive definite form with
    this key (order 2, 4 or 6); its elements have entries in {-1, 0, 1}."""
    R = QuadForm(*key)
    rng = (-1, 0, 1)
    out = tuple((a, b, c, d) for a in rng for b in rng for c in rng
                for d in rng
                if a * d - b * c == 1 and R.transform((a, b, c, d)) == R)
    if len(out) not in (2, 4, 6):
        raise BadDiscriminant(f"{R} is not a reduced positive definite form")
    return out


def _check_level(m):
    if m < 1:
        raise LevelMismatch(f"the level must be a positive integer, got {m}")


def enumerate_heegner(m, D, r):
    """Canonical Gamma_0(m)-class representatives of Q(m, D, r), the forms
    [A, B, C] of discriminant D < 0 with m | A and B = r mod 2m, with
    stabilizer orders: sorted list of (QuadForm, #Gamma_0(m)_Q).

    Theorem (completeness).  Every form of discriminant D is R|g for
    exactly one reduced R of discriminant D, primitive or not, and some
    g in SL_2(Z); and R|g = R|h iff h is in Aut(R) g.  So the
    Gamma_0(m)-classes of forms with reduced form R are the double cosets
    Aut(R) \\ SL_2(Z) / Gamma_0(m).  The cosets g Gamma_0(m) are the
    points of P^1(Z/m), by the first column of g mod m (Cremona's
    M-symbols), and the conditions m | A and B = r mod 2m on R|g depend on
    the coset alone.  Hence the classes of Q(m, D, r) are, for each
    reduced R, the orbits of g -> u g, u in Aut(R), on the points whose
    R|g meets them: O(#reduced forms * #P^1(Z/m)) steps.  The stabilizer
    of Q = R|g in Gamma_0(m) is g^-1 u g for the u in Aut(R) with
    u g Gamma_0(m) = g Gamma_0(m), so its order is the number of u that
    fix g's point.  See Gross--Kohnen--Zagier, Math. Ann. 278, 1987,
    section I.

    The representative of a class is its form with the least A, then the
    least B in (-A, A] (see _least_form).
    """
    _check_level(m)
    if (D - r * r) % (4 * m) != 0:
        raise CongruenceViolation(f"D={D} is not {r}^2 mod {4 * m}")
    if D >= 0:
        raise BadDiscriminant(f"Heegner forms need D < 0, got {D}")
    ps = [(p, p ** k) for p, k in prime_factorization(m).items()]
    points = _p1(ps, m)
    reps = []
    for R in _reduced_forms(D):
        auts = _automorphs(R.key())
        seen = set()
        for key, g in points:
            if key in seen:
                continue
            Q = R.transform(g)
            if Q.A % m or (Q.B - r) % (2 * m):
                continue
            a, c = g[0], g[2]
            images = [_p1_key(u[0] * a + u[1] * c, u[2] * a + u[3] * c, ps)
                      for u in auts]
            seen.update(images)
            reps.append((_least_form(Q, m), images.count(key)))
    reps.sort(key=lambda qs: qs[0].key())
    return reps


def _reduced_forms(D):
    """Every reduced form of discriminant D < 0, primitive or not:
    -A < B <= A <= C, and B >= 0 when A = C (so 3A^2 <= |D|)."""
    out = []
    for A in range(1, isqrt(-D // 3) + 1):
        for B in range(1 - A, A + 1):
            if (B * B - D) % (4 * A) == 0:
                C = (B * B - D) // (4 * A)
                if C > A or (C == A and B >= 0):
                    out.append(QuadForm(A, B, C))
    return out


def _p1(ps, m):
    """The points of P^1(Z/m) for m = prod q over (p, q = p^k) in ps: a
    list of (key, g) with g in SL_2(Z) whose first column is the point.

    Mod q the points are (1 : d) for every d and (c : 1) for p | c; a
    point mod m is one point mod each q, joined by CRT.  key is the tuple
    of these, as _p1_key gives it for any vector of the point."""
    points = [((), 0, 0)]
    for p, q in ps:
        e = (m // q) * pow(m // q, -1, q)  # 1 mod q, 0 mod m / q
        axis = [(1, d) for d in range(q)] + [(c, 1) for c in range(0, q, p)]
        points = [(key + ((x, y),), (a + e * x) % m, (c + e * y) % m)
                  for key, a, c in points for x, y in axis]
    return [(key, _lift(a, c, m)) for key, a, c in points]


def _p1_key(x, y, ps):
    """The key of the point (x : y) of P^1(Z/m): mod each q = p^k, the
    vector scaled by the inverse of its first entry if that is a unit,
    else of its second."""
    key = []
    for p, q in ps:
        if x % p:
            key.append((1, y * pow(x, -1, q) % q))
        else:
            key.append((x * pow(y, -1, q) % q, 1))
    return tuple(key)


def _lift(a, c, m):
    """A g in SL_2(Z) whose first column is (a, c) mod m, for c >= 0 and
    gcd(a, c, m) = 1; it is (a, c) itself when gcd(a, c) = 1, and the
    identity when c = 0 (then a = 1 mod m)."""
    if c == 0:
        return (1, 0, 0, 1)
    # a + t m is prime to c for some t: the primes of c that divide m do
    # not divide a, and each other prime rules out one residue of t
    while gcd(a, c) != 1:
        a += m
    d = pow(a, -1, c)
    return (a, (a * d - 1) // c, c, d)


def _least_form(Q, m):
    """The form of Q's Gamma_0(m)-class with the least A, then the least
    B in (-A, A].

    The A of the class are the values Q(x, y) at the coprime (x, y) with
    m | y, the first columns of Gamma_0(m); (x, y) and (-x, -y) give the
    same form, so y >= 0.  Since 4A Q(x, y) = (2Ax + By)^2 + |D| y^2, no
    y with |D| y^2 > 4A best improves on a value best, and at each y the
    value grows as x moves away from -By/2A.  Each minimising (x, y)
    gives one form with B in (-A, A]; the least B among them is taken."""
    A, B = Q.A, Q.B
    nD = 4 * A * Q.C - B * B
    best, cols = A, [(1, 0)]
    y = m
    while nD * y * y <= 4 * A * best:
        x0 = -B * y // (2 * A)
        for x, step in ((x0, -1), (x0 + 1, 1)):
            while (v := Q.value(x, y)) <= best:
                if gcd(x, y) == 1:
                    if v < best:
                        best, cols = v, []
                    cols.append((x, y))
                x += step
        y += m
    forms = []
    for x, y in cols:
        F = Q.transform(_lift(x, y, m))
        k = (F.A - F.B) // (2 * F.A)  # puts B in (-A, A]
        forms.append(F.transform((1, k, 0, 1)))
    return min(forms, key=lambda F: F.B)


def genus_char(Q, D, m):
    """chi_D(Q) for a fundamental discriminant D: 0 when
    gcd(A/m, B, C, D) > 1, else (D/v) for any v prime to D represented by
    some F = (A/n)x^2 + Bxy + Cny^2 with n | m (Gross--Kohnen--Zagier,
    Math. Ann. 278, 1987, I.2), found without a search bound.

    Finding v is a residue computation: F takes a value prime to D exactly
    when no p | D divides all of F's coefficients, and p | F(x, y) depends
    on x, y mod p only, so by CRT one lies at 0 <= x, y <= |D|,
    (x, y) != (0, 0), and is positive.  Some n | m qualifies: for each
    p | gcd(B, D), the p-part of n is 1 if p does not divide C, else m's.
    """
    _check_level(m)
    if not is_fundamental(D):
        raise BadDiscriminant(f"{D} is not fundamental")
    if Q.A % m:
        raise LevelMismatch(f"level {m} does not divide A in {Q}")
    if gcd(gcd(Q.A // m, Q.B), gcd(Q.C, D)) != 1:
        return 0
    box = range(abs(D) + 1)
    for n in divisors(m):
        F = QuadForm(Q.A // n, Q.B, Q.C * n)
        for x in box:
            for y in box:
                v = F.value(x, y)
                if v and gcd(v, D) == 1:
                    return kronecker(D, v)
    raise AssertionError(
        f"chi_{D}({Q}) at level {m}: no n | m gives a form with no prime "
        f"of D dividing all its coefficients")


def heegner_divisor(symbol, D, r):
    """The weighted Heegner divisor of Eq-(3.23) type for the optimal form
    of the lambency with this catalog symbol: list of (QuadForm, weight)
    with weight = -4 chi_D(Q) / #Gamma_0(m)_Q, summed over the group
    translates of r."""
    from .catalog import get_lambency
    lam = get_lambency(symbol)
    m = lam.m
    out = {}
    for a in lam.K:
        for Q, stab in enumerate_heegner(m, D, (r * a) % (2 * m)):
            w = Fraction(-4 * genus_char(Q, D, m), stab)
            if w:
                out[Q] = out.get(Q, 0) + w
    return sorted(out.items(), key=lambda qw: qw[0].key())


def psi_expand(symbol, D, r, order=None, table=None):
    """The Borcherds product of the lambency with this catalog symbol,
    prod_{n>0} prod_{b mod D} (1 - ex(b/D) q^n)^{(D/b) C(Dn^2, rn)}
    expanded exactly; truncated at the first n whose exponent the table
    cannot justify (the returned window records this).

    Every coefficient lies in Q(sqrt D): for the primitive character
    (D/.), sum_b (D/b) ex(bk/D) = (D/k) G with the Gauss sum
    G = sum_b (D/b) ex(b/D), G^2 = D, so Psi = X + G Y with X, Y over Q.
    This is the twisted product of Bruinier--Ono ("Heegner divisors,
    L-functions and harmonic weak Maass forms", Ann. of Math. 2010,
    Thm 6.1).  q d/dq log Psi = -G sum_N c_N q^N with the integers
    c_N = sum_{n | N} n C(Dn^2, rn) (D/(N/n)), so X = sum x_N q^N and
    Y = sum y_N q^N follow N x_N = -D sum_k c_k y_{N-k} and
    N y_N = -sum_k c_k x_{N-k} from x_0 = 1, y_0 = 0 (see _psi_coords);
    2x_N and 2y_N are integers.  The coefficients are returned as the
    values x_N + G y_N.
    """
    x2, y2, window = _psi_coords(symbol, D, r, order, table)
    G = _gauss_sum(D)
    return QSeries({N: _quad_value(Fraction(a, 2), Fraction(b, 2), G)
                    for N, (a, b) in enumerate(zip(x2, y2))}, window)


def _psi_coords(symbol, D, r, order=None, table=None):
    """(x2, y2, window): the doubled coordinates 2x_N, 2y_N (ints, for
    0 <= N < window) of Psi = X + G Y, and the window of psi_expand."""
    from .catalog import get_lambency
    lam = get_lambency(symbol)
    m = lam.m
    if D >= 0 or not is_fundamental(D):
        raise BadDiscriminant(f"need a negative fundamental D, got {D}")
    if D == -3 and m in (7, 13, 21):
        raise ExcludedDiscriminant(f"D=-3 is excluded at m={m}")
    if (D - r * r) % (4 * m) != 0:
        raise CongruenceViolation(f"D={D} is not {r}^2 mod {4 * m}")
    if table is None:
        table = lam.fixture
        if table is None:
            raise MissingSource(f"{lam.symbol} has no coefficient table")
    order = inf if order is None else Fraction(order)
    if order == inf and not any(_runs_out(table, r * n)
                                for n in range(1, 2 * m + 1)):
        raise ExcludedDiscriminant(
            f"{lam.symbol} D={D} r={r}: every C(D n^2, r n) is a "
            f"structural zero, so Psi is identically 1")
    exponents = []
    n = 1
    while n < order:
        try:
            e = table.get(D * n * n, r * n)
        except InsufficientDepth:
            break
        if isinstance(e, Cyc) or e % 1:
            raise NonIntegralExponent(
                f"{lam.symbol}: the exponent C({D * n * n}, {r * n}) = "
                f"{cformat(e)} is not an integer")
        exponents.append(int(e))
        n += 1
    if not exponents and order > 1:
        raise InsufficientDepth(
            f"table gives no C({D}, {r}): cannot start the product")
    window = min(order, Fraction(len(exponents) + 1))
    count = max(1, ceil(window))
    chi = [0] + [kronecker(D, k) for k in range(1, count)]
    c = [0] * count
    for n, e in enumerate(exponents[:count - 1], start=1):
        if e:
            for N in range(n, count, n):
                c[N] += n * e * chi[N // n]
    x2, y2 = [2], [0]
    for N in range(1, count):
        cs = c[N:0:-1]  # c_N .. c_1 against the coordinates 0 .. N-1
        xN = -D * sum(map(mul, cs, y2)) // N
        yN = -sum(map(mul, cs, x2)) // N
        x2.append(xN)
        y2.append(yN)
    return x2, y2, window


def _runs_out(t, r):
    """True if reads of t at residue r raise InsufficientDepth below some
    discriminant D < 0, False if they are structural zeros at every depth.
    A square-support table reads 0 at every D < 0; any other table runs
    out where its stream window is finite."""
    if t.square_support:
        return False
    try:
        return _stream_window(t, r) != inf
    except InsufficientDepth:
        return True


@lru_cache(maxsize=None)
def _gauss_sum(D):
    """G = sum_{b mod |D|} (D/b) ex(b/D), with G^2 = D, for a negative
    fundamental D: a Cyc at its minimal conductor |D|."""
    n = -D
    coeffs = [0] * n
    for b in range(1, n):
        coeffs[-b % n] += kronecker(D, b)  # ex(b/D) = zeta_n^(-b)
    return Cyc.make(n, coeffs)


def _quad_value(x, y, G):
    """x + y G for rationals x, y, in normal form: the Fraction x when
    y = 0, else a Cyc at G's conductor, the minimal one of Q(sqrt D)."""
    if not y:
        return x
    c = [y * g for g in G.c]
    c[0] += x
    return Cyc(G.n, c)


# -- rational-function fitting -------------------------------------------

def _solve_int(rows, n_unknowns):
    """Gauss--Jordan elimination of integer rows [a_1 .. a_n, b], fraction
    free: each combination is divided by its content.  Returns the solution
    as Fractions (free variables set to 0), or None if inconsistent."""
    rows = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(n_unknowns):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i, row in enumerate(rows):
            b = row[col]
            if i != rank and b:
                g = gcd(p[col], b)
                a, b = p[col] // g, b // g
                row = [a * v - b * w for v, w in zip(row, p)]
                g = gcd(*row)
                rows[i] = [v // g for v in row] if g > 1 else row
        pivots.append((col, rank))
        rank += 1
    if any(row[-1] for row in rows[rank:]):
        return None
    sol = [Fraction(0)] * n_unknowns
    for col, i in pivots:
        sol[col] = Fraction(rows[i][-1], rows[i][col])
    return sol


def _satisfies(rows, sol):
    """Every integer row [a_1 .. a_n, b] has sum a_i sol_i = b."""
    den = lcm(*(u.denominator for u in sol))
    num = [u.numerator * (den // u.denominator) for u in sol]
    return all(sum(map(mul, row, num)) == row[-1] * den for row in rows)


def _fit_coords(X, Y, G, T, max_deg):
    """Exact fit psi = P(T)/Q(T) with deg P, deg Q <= max_deg, Q monic,
    for psi = X + G Y in integral powers of q: X, Y and T over Q, and G
    the Gauss sum of Q(sqrt D), G^2 = D.  Returns (P, Q) as ascending
    coefficient lists.

    Scans degree pairs in increasing order, solves psi*Q(T) - P(T) = 0
    through the full shared window, and accepts only solutions consistent
    with every justified coefficient (the overdetermined rows are the
    verification).  Each unknown u of P and Q is written u = u1 + G u2,
    and the pair (u1, u2) takes its place in the unknown vector, Q's
    coefficients first.  Each coefficient equation of
    (X + G Y)(Q1 + G Q2) = P1 + G P2 splits as
    (X Q1 + D Y Q2 - P1) + G (Y Q1 + X Q2 - P2) = 0 into two rational
    rows.  Interleaved so, the rational system has the pivots of the
    system over Q(sqrt D), and zeroing the free variables gives the same
    solution.  Each system's rows are scaled to integers and eliminated
    fraction-free."""
    parts, D = [X, Y], -G.n
    keys = [k for s in parts for k in s.coeffs]
    # the equation times L, the common denominator of psi's coordinates
    L = lcm(*(Fraction(v).denominator for s in parts
              for v in s.coeffs.values()))
    parts = [_times(s, L) for s in parts]
    lo_psi = min(keys) if keys else X.order
    Tpow = [QSeries({0: 1}, T.order)]
    for _ in range(max_deg):
        Tpow.append(series_mul(Tpow[-1], T))
    # columns (coordinate series, window, lowest exponent): psi T^i as the
    # coordinate products, with the window and lowest exponent of the
    # product over Q(sqrt D); and the rational -L T^j
    psiT = []
    for t in Tpow:
        window = min(X.order + _lo_eff(t), t.order + lo_psi)
        prods = [series_mul(s, t) for s in parts]
        lo = min([0] + [k for s in prods for k in s.coeffs if k < window])
        psiT.append((prods, window, lo))
    PT = [([_times(t, -L)], t.order, min([0] + list(t.coeffs)))
          for t in Tpow]
    pairs = sorted(((dp, dq) for dp in range(max_deg + 1)
                    for dq in range(max_deg + 1)),
                   key=lambda p: (max(p), p[0] + p[1], p[1]))
    skipped_short = False
    for dp, dq in pairs:
        used = psiT[:dq + 1] + PT[:dp + 1]
        window = min(w for _c, w, _l in used)
        lo = min(l for _c, _w, l in used)
        xs = range(int(lo), int(window))
        if len(xs) < dq + dp + 1:
            skipped_short = True
            continue
        rows = _fit_rows([c for c, _w, _l in used], dq, D, xs)
        sol = _solve_int(rows, len(rows[0]) - 1)
        # re-check every equation (free variables were zeroed)
        if sol is None or not _satisfies(rows, sol):
            continue
        vals = [_quad_value(u1, u2, G)
                for u1, u2 in zip(sol[::2], sol[1::2])]
        return vals[dq:], vals[:dq] + [1]
    if skipped_short:
        raise Underdetermined("every admissible degree pair lacked rows")
    raise NoSolutionWithinDegree(f"no fit with degrees <= {max_deg}")


def _times(s, f):
    """f s for a rational f, each value an int where it is whole."""
    out = {}
    for k, v in s.coeffs.items():
        v = Fraction(v) * f
        out[k] = v.numerator if v.denominator == 1 else v
    return QSeries(out, s.order, s.den)


def _fit_rows(cols, dq, D, xs):
    """The integer rows at the exponents xs of
    sum_{i<dq} q_i L psi T^i + sum_j p_j (-L T^j) = -L psi T^dq.

    cols holds the coordinate series (X and Y parts) of L psi T^0 ..
    L psi T^dq, then the one series of each of -L T^0 .. -L T^dp.  Each
    unknown is a pair (u1, u2), and each exponent gives the 1-row and then
    the G-row; a row with fractions is scaled to integers."""
    qcols, rhs, pcols = cols[:dq], cols[dq], cols[dq + 1:]
    rows = []
    for x in xs:
        one, gee = [], []
        for cx, cy in qcols:
            a, b = cx.coeffs.get(x, 0), cy.coeffs.get(x, 0)
            one += [a, D * b]
            gee += [b, a]
        for (c,) in pcols:
            a = c.coeffs.get(x, 0)
            one += [a, 0]
            gee += [0, a]
        for row in (one + [-rhs[0].coeffs.get(x, 0)],
                    gee + [-rhs[1].coeffs.get(x, 0)]):
            if any(type(v) is not int for v in row):
                den = lcm(*(Fraction(v).denominator for v in row))
                row = [int(v * den) for v in row]
            rows.append(row)
    return rows


def fit_case(symbol, D, r, max_deg=None, table=None):
    """End-to-end pipeline for one (lambency, D, r) case: expand Psi to the
    table's full depth, bound the degree by the Heegner divisor's poles
    (capped by the window), and fit against the principal modulus.  Psi
    stays in its rational coordinates X + G Y throughout."""
    from .catalog import get_lambency
    from .eta import eta_expand
    x2, y2, window = _psi_coords(symbol, D, r, table=table)
    if max_deg is None:
        div = heegner_divisor(symbol, D, r)
        poles = int(sum(-w for _q, w in div if w < 0))
        max_deg = min(poles, (int(window) - 2) // 2)
    # a fit of degree max_deg needs 2 max_deg + 2 coefficients of psi;
    # checked before T is expanded to that degree
    if int(window) < 2 * max_deg + 2:
        raise Underdetermined(f"window of {int(window)} coefficients cannot "
                              f"pin degree {max_deg}")
    X, Y = (QSeries({N: Fraction(v, 2) for N, v in enumerate(c)}, window)
            for c in (x2, y2))
    T = eta_expand(get_lambency(symbol).eta, window + max_deg + 1)
    P, Q = _fit_coords(X, Y, _gauss_sum(D), T, max_deg)
    return {"lambency": symbol, "D": D, "r": r, "P": P, "Q": Q,
            "window": window, "max_deg": max_deg}
