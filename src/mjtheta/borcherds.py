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

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, inf, isqrt
from operator import mul

from .arith import (
    divisors, is_fundamental, kronecker, kronecker_row, prime_factorization,
)
from .catalog import get_lambency, table_for
from .cyclo import Cyc
from .errors import (
    BadDiscriminant, CongruenceViolation, ExcludedDiscriminant,
    InsufficientDepth, LevelMismatch, NoSolutionWithinDegree, Underdetermined,
)
from .eta import eta_expand
from .jacobi import _stream_window
from .series import QSeries, series_mul

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


def enumerate_heegner(m, D, r, K=(1,)):
    """Canonical Gamma_0(m)-class representatives of Q(m, D, r a), a in K,
    the forms [A, B, C] of discriminant D < 0 with m | A and B = r a mod
    2m, and their stabilizer orders: sorted (QuadForm, #Gamma_0(m)_Q), a
    class once for each a it meets.

    Theorem (completeness).  Every form of discriminant D is R|g for
    exactly one reduced R of discriminant D, primitive or not, and some
    g in SL_2(Z); and R|g = R|h iff h is in Aut(R) g.  So the
    Gamma_0(m)-classes of forms with reduced form R are the double cosets
    Aut(R) \\ SL_2(Z) / Gamma_0(m).  The cosets g Gamma_0(m) are the
    points of P^1(Z/m), by the first column of g mod m (Cremona's
    M-symbols), and m | A and B mod 2m on R|g depend on the coset alone.
    Hence the classes are, for each reduced R, the orbits of g -> u g,
    u in Aut(R), on the points whose R|g meets them: one walk serves all
    of K, O(#reduced forms * #P^1(Z/m)) steps for each (m, D).  The
    stabilizer of Q = R|g in Gamma_0(m) is g^-1 u g for the u in Aut(R)
    with u g Gamma_0(m) = g Gamma_0(m), so its order is the number of u
    that fix g's point.  See Gross--Kohnen--Zagier, Math. Ann. 278, 1987,
    section I.

    The representative of a class is its form with the least A, then the
    least B in (-A, A] (see _least_form).
    """
    _check_level(m)
    for a in K:
        if (D - (r * a) ** 2) % (4 * m):
            raise CongruenceViolation(f"D={D} is not {r * a}^2 mod {4 * m}")
    if D >= 0:
        raise BadDiscriminant(f"Heegner forms need D < 0, got {D}")
    ts = [r * a % (2 * m) for a in K]
    ps = [(p, p ** k) for p, k in prime_factorization(m).items()]
    points = _p1(ps, m)
    reps = []
    for R in _reduced_forms(D):
        auts = _automorphs(R.key())
        seen = set()
        for key, g in points:
            a, c = g[0], g[2]
            if key in seen or R.value(a, c) % m:
                continue
            Q = R.transform(g)
            if n := ts.count(Q.B % (2 * m)):
                images = [_p1_key(u[0] * a + u[1] * c, u[2] * a + u[3] * c, ps)
                          for u in auts]
                seen.update(images)
                reps += [(_least_form(Q, m), images.count(key))] * n
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
    translates r a, a in K, of one enumerate_heegner walk."""
    lam = get_lambency(symbol)
    m = lam.m
    out = {}
    # a class the walk lists n times, once per translate it meets, has
    # its genus character computed once
    for (Q, stab), n in Counter(enumerate_heegner(m, D, r, lam.K)).items():
        w = Fraction(-4 * n * genus_char(Q, D, m), stab)
        if w:
            out[Q] = out.get(Q, 0) + w
    return sorted(out.items(), key=lambda qw: qw[0].key())


def psi_expand(symbol, D, r, order=None, table=None):
    """The Borcherds product of the lambency with this catalog symbol,
    prod_{n>0} prod_{b mod D} (1 - e(b/D) q^n)^{(D/b) C(Dn^2, rn)},
    e(x) = e^{2 pi i x},
    expanded exactly; truncated at the first n whose exponent the table
    cannot justify (the returned window records this).

    Every coefficient lies in Q(sqrt D): for the primitive character
    (D/.), sum_b (D/b) e(bk/D) = (D/k) G with the Gauss sum
    G = sum_b (D/b) e(b/D), G^2 = D, so Psi = X + G Y with X, Y over Q.
    This is the twisted product of Bruinier--Ono ("Heegner divisors,
    L-functions and harmonic weak Maass forms", Ann. of Math. 2010,
    Thm 6.1).  q d/dq log Psi = -G sum_N c_N q^N with the integers
    c_N = sum_{n | N} n C(Dn^2, rn) (D/(N/n)) (see _psi_log), so
    X = sum x_N q^N and Y = sum y_N q^N follow an integer recurrence
    from x_0 = 1, y_0 = 0, kept over one common denominator L (see
    _psi_coords); 2x_N and 2y_N are integers, so L is 1 or 2.  The
    coefficients are returned as the values Cyc.make(D, x_N, y_N).
    """
    c, window = _psi_log(symbol, D, r, order, table)
    X, Y, L = _psi_coords(c, D)
    return QSeries({N: Cyc.make(D, Fraction(x, L), Fraction(y, L))
                    for N, (x, y) in enumerate(zip(X, Y))}, window)


def _check_case(symbol, D, r):
    """The lambency with this catalog symbol, after the checks of D and r
    that read no table: D < 0, D = -3 not at m = 7, 13 or 21, and
    D = r^2 mod 4m.  They run before any table is chosen, so that a case
    gets the same error whatever data is at hand (see cli.cmd_fit)."""
    lam = get_lambency(symbol)
    m = lam.m
    if D >= 0:
        raise BadDiscriminant(f"need a negative fundamental D, got {D}")
    if D == -3 and m in (7, 13, 21):
        raise ExcludedDiscriminant(f"D=-3 is excluded at m={m}")
    if (D - r * r) % (4 * m) != 0:
        raise CongruenceViolation(f"D={D} is not {r}^2 mod {4 * m}")
    return lam


def _psi_log(symbol, D, r, order=None, table=None):
    """(c, window): the window of psi_expand, and the integers c_N of
    q d/dq log Psi = -G sum_N c_N q^N for 0 <= N < window (c_0 = 0)."""
    lam = _check_case(symbol, D, r)
    m = lam.m
    table = table_for(symbol, table)
    if not any(_runs_out(table, r * n) for n in range(1, 2 * m + 1)):
        raise ExcludedDiscriminant(
            f"{lam.symbol} D={D} r={r}: every C(D n^2, r n) is a "
            f"structural zero, so Psi is identically 1")
    order = inf if order is None else Fraction(order)
    exponents = []
    n = 1
    while n < max(order, 2):  # C(D, r) even at an order that needs none
        try:
            exponents.append(table.get(D * n * n, r * n))
        except InsufficientDepth:
            break
        n += 1
    # reads that met only rows which never run out saw structural zeros
    if not any(exponents) and not any(
            _runs_out(table, r * n) for n in range(1, len(exponents) + 1)):
        raise InsufficientDepth(f"table gives no C({D} n^2, {r} n) but "
                                "structural zeros: cannot start the product")
    # after the reads: factoring a D far beyond the table takes forever
    if not is_fundamental(D):
        raise BadDiscriminant(f"need a negative fundamental D, got {D}")
    window = min(order, Fraction(len(exponents) + 1))
    count = max(1, ceil(window))
    chi = kronecker_row(D, count)
    c = [0] * count
    for n, e in enumerate(exponents[:count - 1], start=1):
        if e:
            for N in range(n, count, n):
                c[N] += n * e * chi[N // n]
    return c, window


def _psi_coords(c, D, k=1):
    """(X, Y, L): the coordinates x_N = X[N] / L and y_N = Y[N] / L
    (0 <= N < len(c)) of Psi^(1/k) = X + G Y for the c_N of _psi_log, as
    lists of ints over one common denominator L.  Psi^(1/k) has
    q d/dq log = -G sum (c_N / k) q^N, so with x_0 = 1, y_0 = 0,
    N k x_N = -D sum_j c_j y_{N-j} and N k y_N = -sum_j c_j x_{N-j}.

    Step N forms the integer sums dx, dy of these right sides over L,
    so x_N = dx / (N k L); with g = gcd(dx, dy, N k) and s = N k / g, L
    grows by the factor s (the earlier entries with it) and dx / g,
    dy / g are appended.  As gcd(dx / g, dy / g, s) = 1, each prime of s
    divides L s exactly as often as the denominator of x_N or y_N, and
    no earlier entry loses a prime of L: L stays the lcm of the
    denominators of all x_N, y_N."""
    X, Y, L = [1], [0], 1
    for N in range(1, len(c)):
        cs = c[N:0:-1]  # c_N .. c_1 against the coordinates 0 .. N-1
        dx = -D * sum(map(mul, cs, Y))
        dy = -sum(map(mul, cs, X))
        g = gcd(dx, dy, N * k)
        s = N * k // g
        if s > 1:
            L *= s
            X = [s * v for v in X]
            Y = [s * v for v in Y]
        X.append(dx // g)
        Y.append(dy // g)
    return X, Y, L


def _runs_out(t, r):
    """True if reads of t at residue r raise InsufficientDepth below some
    discriminant D < 0, False if they are structural zeros at every depth:
    exactly where the stream window is finite.  A shadow kernel's range
    (-inf, depth] never runs out."""
    try:
        return _stream_window(t, r) != inf
    except InsufficientDepth:
        return True


# -- rational-function fitting -------------------------------------------

def _solve_int(rows, n_unknowns):
    """Gauss--Jordan elimination of integer rows [a_1 .. a_n, b], fraction
    free: each combination is divided by its content.  Returns (rank, the
    solution as Fractions with free variables set to 0), the solution None
    if the rows are inconsistent."""
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
        return rank, None
    sol = [Fraction(0)] * n_unknowns
    for col, i in pivots:
        sol[col] = Fraction(rows[i][-1], rows[i][col])
    return rank, sol


def _fit_coords(X, Y, L, D, T, e):
    """The monic S of degree e over Q(sqrt D) with R S(T) = conj S(T),
    for R = x + G y given by its coordinates x_N = X[N] / L, y_N = Y[N] / L
    (X, Y lists of ints at q^0 .. q^(W-1), x_0 = 1, y_0 = 0, as
    _psi_coords gives them), G the Gauss sum, G^2 = D.  Returns
    S as ascending coordinate pairs (u_j, v_j), s_j = u_j + G v_j, ending
    in (1, 0).

    With conj s_j = u_j - G v_j, the equation splits over Q(sqrt D) into
      sum_{j<e} u_j (X - 1) T^j + v_j D Y T^j = -(X - 1) T^e,
      sum_{j<e} u_j Y T^j + v_j (X + 1) T^j = -Y T^e.
    R has norm X^2 - D Y^2 = 1 (its log-derivative is G times a rational
    series), so (X + 1) times the first equation is D Y times the second:
    each first row follows from second rows below it, and only the second
    rows count.  There is one for each exponent from 1 - e up to the
    window of R T^e, W - 1 in all.  Scaled by L they are the integer rows
    of X, Y and L T^j, eliminated fraction-free.  Passes only at full rank
    2e with a surplus row, the one check of the solution; raises
    NoSolutionWithinDegree if the rows are inconsistent, else
    Underdetermined."""
    LX, LY = (QSeries(dict(enumerate(s)), len(X)) for s in (X, Y))
    # X T^j, Y T^j and T^j for j = 0 .. e in 3e - 1 products: none by
    # T^0 = 1, whose window (T's) still bounds top, and T^1 is T
    t = QSeries({0: 1}, T.order)
    cols = [(LX, LY, t)]
    for j in range(1, e + 1):
        t = T if j == 1 else series_mul(t, T)
        cols.append((series_mul(LX, t), series_mul(LY, t), t))
    top = min(s.order for col in cols for s in col)
    rows = []
    for x in range(1 - e, ceil(top)):
        row = []
        for xt, yt, t in cols:
            a, b = xt.coeffs.get(x, 0), yt.coeffs.get(x, 0)
            row += [b, a + L * t.coeffs.get(x, 0)]
        # the terms of j = e, known since S is monic, go to the right
        rows.append(row[:-2] + [-row[-2]])
    rank, sol = _solve_int(rows, 2 * e)
    if sol is None:
        raise NoSolutionWithinDegree(
            f"conj S(T) / S(T) matches the window of {len(X)} coefficients "
            f"for no monic S of degree {e} over Q(sqrt {D})")
    if rank < 2 * e or len(rows) == rank:
        raise Underdetermined(
            f"the window of {len(X)} coefficients leaves S of degree {e} "
            f"over Q(sqrt {D}) undetermined or unchecked: {len(rows)} rows "
            f"of rank {rank} for {2 * e} unknowns")
    return list(zip(sol[::2], sol[1::2])) + [(1, 0)]


def _pair_pow(S, k, D):
    """S^k, k >= 1, for S as ascending coordinate pairs (a, b) = a + G b,
    G^2 = D: k - 1 products (a, b)(c, d) = (ac + D bd, ad + bc)."""
    out = S
    for _ in range(k - 1):
        prod = [(0, 0)] * (len(out) + len(S) - 1)
        for i, (a, b) in enumerate(out):
            for j, (c, d) in enumerate(S):
                x, y = prod[i + j]
                prod[i + j] = (x + a * c + D * b * d, y + a * d + b * c)
        out = prod
    return out


def fit_case(symbol, D, r, table=None):
    """End-to-end pipeline for one (lambency, D, r) case: Psi from the
    table at its full depth, fitted against the principal modulus T in the
    shape its Heegner divisor fixes, Psi = conj S(T)^k / S(T)^k with S
    monic over Q(sqrt D), whose roots are the values of T at the Heegner
    points (Borcherds, Invent. Math. 132, 1998; Bruinier--Ono, Thm 6.1).

    With w the divisor's weights and K the lambency's group, P = conj S^k
    and Q = S^k have degree d = sum |w| / |K|, and k = gcd |w| / |K| when
    that is an integer, else 1: a K-orbit of o classes of weight w is a
    root of multiplicity o |w| / |K|, so k divides every multiplicity.
    R = Psi^(1/k) comes from Psi's recurrence with c_N / k, and one solve
    of R S(T) = conj S(T) gives S of degree d / k.  R stays in its
    integer coordinates over one denominator (see _psi_coords), and
    values in Q(sqrt D) are formed only for P and Q; "max_deg" is d."""
    lam = get_lambency(symbol)
    c, window = _psi_log(symbol, D, r, table=table)
    ws = [abs(w) for _q, w in heegner_divisor(symbol, D, r)]
    K = len(lam.K)
    d = Fraction(sum(ws), K)
    if d.denominator != 1:
        raise NoSolutionWithinDegree(
            f"the Heegner divisor has degree {d}, not that of a polynomial")
    g = gcd(*map(int, ws)) if all(w.denominator == 1 for w in ws) else 0
    k = g // K if g and g % K == 0 else 1
    S = _fit_coords(*_psi_coords(c, D, k), D, eta_expand(lam.eta, window),
                    int(d) // k)
    Sk = _pair_pow(S, k, D)
    return {"lambency": symbol, "D": D, "r": r,
            "P": [Cyc.make(D, a, -b) for a, b in Sk],
            "Q": [Cyc.make(D, a, b) for a, b in Sk],
            "window": window, "max_deg": int(d)}
