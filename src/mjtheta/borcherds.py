"""Quadratic forms, genus characters, Heegner divisors, and the generalized
Borcherds products attached to the optimal forms -- ending in the exact
rational-function fit of Psi_{D,r} against the principal modulus T.

Conventions.  Forms are positive definite, Q(x,y) = Ax^2 + Bxy + Cy^2 with
m | A, acted on by gamma = [[a,b],[c,d]] via (Q|gamma)(x,y) = Q(ax+by,
cx+dy), so Q|(gh) = (Q|g)|h.  Gamma_0(m)-equivalence of definite forms is
decided exactly: reduce both forms under SL_2(Z) with matrix tracking;
every SL_2 transform carrying one onto the other is (reduction matrix) *
(automorph of the reduced form) * (reduction matrix)^-1, a finite set, and
membership in Gamma_0(m) is a congruence on the lower-left entry.
"""

from fractions import Fraction
from math import gcd, inf

from math import isqrt

from .arith import divisors, is_fundamental, kronecker
from .cyclo import as_fraction, cadd, ciszero, cinv, cmul, cneg, ex
from .errors import (
    BadDiscriminant, CongruenceViolation, ExcludedDiscriminant,
    InsufficientDepth, LevelMismatch, MissingSource, NoRepresentativeFound,
    NoSolutionWithinDegree, Underdetermined,
)
from .jacobi import NEG_INF
from .series import QSeries, series_mul, series_pow

__all__ = [
    "QuadForm", "reduce_form", "automorphs", "gamma0_maps",
    "gamma0_equivalent", "enumerate_heegner", "genus_char",
    "heegner_divisor", "psi_expand", "fit_rational", "fit_case",
]

IDENT = (1, 0, 0, 1)


def _mat_mul(g, h):
    a, b, c, d = g
    p, q, r, s = h
    return (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)


def _mat_inv(g):
    a, b, c, d = g
    assert a * d - b * c == 1
    return (d, -b, -c, a)


class QuadForm:
    __slots__ = ("A", "B", "C")

    def __init__(self, A, B, C):
        self.A, self.B, self.C = A, B, C

    @property
    def disc(self):
        return self.B * self.B - 4 * self.A * self.C

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


def reduce_form(Q):
    """(reduced form R, g) with Q|g = R, for positive definite Q."""
    if Q.A <= 0 or Q.disc >= 0:
        raise BadDiscriminant(f"{Q} is not positive definite")
    g = IDENT
    S = (0, -1, 1, 0)
    while True:
        k = (Q.A - Q.B) // (2 * Q.A)  # puts B in (-A, A]
        if k:
            t = (1, k, 0, 1)
            Q, g = Q.transform(t), _mat_mul(g, t)
        if Q.A > Q.C or (Q.A == Q.C and Q.B < 0):
            Q, g = Q.transform(S), _mat_mul(g, S)
            continue
        return Q, g


def automorphs(R):
    """The SL_2(Z) stabilizer of a reduced definite form (order 2, 4, 6);
    all its elements have entries in {-1, 0, 1}."""
    out = []
    rng = (-1, 0, 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if a * d - b * c == 1 and R.transform((a, b, c, d)) == R:
                        out.append((a, b, c, d))
    assert len(out) in (2, 4, 6), R
    return out


def gamma0_maps(Q1, Q2, m):
    """All gamma in Gamma_0(m) with Q1|gamma = Q2."""
    R1, g1 = reduce_form(Q1)
    R2, g2 = reduce_form(Q2)
    if R1 != R2:
        return []
    g2i = _mat_inv(g2)
    out = []
    for u in automorphs(R1):
        g = _mat_mul(_mat_mul(g1, u), g2i)
        if g[2] % m == 0:
            out.append(g)
    return out


def gamma0_equivalent(Q1, Q2, m):
    return bool(gamma0_maps(Q1, Q2, m))


def enumerate_heegner(m, D, r):
    """Canonical Gamma_0(m)-class representatives of Q(m, D, r), with
    stabilizer orders: sorted list of (QuadForm, #Gamma_0(m)_Q).

    D < 0, D = r^2 mod 4m.  Completeness of the A-sweep (A <= m^2 |D|)
    rests on the height of Heegner points over the Gamma_0(m) fundamental
    domain; the class-count oracle in the tests cross-checks it.
    """
    if (D - r * r) % (4 * m) != 0:
        raise CongruenceViolation(f"D={D} is not {r}^2 mod {4 * m}")
    if D >= 0:
        raise BadDiscriminant(f"Heegner forms need D < 0, got {D}")
    r %= 2 * m
    reps = []
    for A in range(m, m * m * abs(D) + 1, m):
        # B = r mod 2m within (-A, A]: exactly A/m candidates
        b0 = ((r + A) % (2 * m)) - A
        if b0 <= -A:
            b0 += 2 * m
        for B in range(b0, A + 1, 2 * m):
            if (B * B - D) % (4 * A):
                continue
            Q = QuadForm(A, B, (B * B - D) // (4 * A))
            if any(gamma0_equivalent(Q, P, m) for P, _s in reps):
                continue
            reps.append((Q, len(gamma0_maps(Q, Q, m))))
    reps.sort(key=lambda qs: qs[0].key())
    return reps


def genus_char(Q, D, m, bound=10 ** 4):
    """chi_D(Q) for a fundamental discriminant D: 0 when
    gcd(A/m, B, C, D) > 1, else (D/d) for a represented d coprime to D,
    found by bounded search over (A/n)x^2 + Bxy + Cny^2 with n | m."""
    if not is_fundamental(D):
        raise BadDiscriminant(f"{D} is not fundamental")
    if Q.A % m:
        raise LevelMismatch(f"level {m} does not divide A in {Q}")
    if gcd(gcd(Q.A // m, Q.B), gcd(Q.C, D)) != 1:
        return 0
    span = isqrt(bound) + 1
    for n in divisors(m):
        F = QuadForm(Q.A // n, Q.B, Q.C * n)
        for x in range(-span, span + 1):
            for y in range(-span, span + 1):
                v = F.value(x, y)
                if 0 < v <= bound and gcd(v, D) == 1:
                    return kronecker(D, v)
    raise NoRepresentativeFound(f"chi_{D}({Q}) at level {m}, bound {bound}")


def heegner_divisor(lam, D, r):
    """The weighted Heegner divisor of Eq-(3.23) type for the lambency's
    optimal form: list of (QuadForm, weight) with weight =
    -4 chi_D(Q) / #Gamma_0(m)_Q, summed over the group translates of r."""
    from .catalog import get_lambency
    if isinstance(lam, str):
        lam = get_lambency(lam)
    m = lam.m
    out = {}
    for a in lam.K:
        for Q, stab in enumerate_heegner(m, D, (r * a) % (2 * m)):
            w = Fraction(-4 * genus_char(Q, D, m), stab)
            if w:
                out[Q] = out.get(Q, 0) + w
    return sorted(out.items(), key=lambda qw: qw[0].key())


def psi_expand(lam, D, r, order=None, table=None):
    """The Borcherds product
    prod_{n>0} prod_{b mod D} (1 - ex(b/D) q^n)^{(D/b) C(Dn^2, rn)}
    expanded exactly; truncated at the first n whose exponent the table
    cannot justify (the returned window records this)."""
    from .catalog import get_lambency
    if isinstance(lam, str):
        lam = get_lambency(lam)
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
        exponents.append(int(as_fraction(e)))
        n += 1
    if not exponents and order > 1:
        raise InsufficientDepth(
            f"table gives no C({D}, {r}): cannot start the product")
    window = min(order, Fraction(len(exponents) + 1))
    out = QSeries({0: 1}, window)
    for n, e in enumerate(exponents, start=1):
        if e == 0 or n >= window:
            continue
        for b in range(1, abs(D)):
            k = kronecker(D, b)
            if k == 0:
                continue
            zeta = ex(Fraction(b, D))
            factor = QSeries.from_terms([(0, 1), (n, -1 * zeta)], window)
            out = series_mul(out, series_pow(factor, k * e))
    return out


def _runs_out(t, r):
    """True if reads of t at residue r raise InsufficientDepth below some
    discriminant D < 0, False if they are structural zeros at every depth."""
    rc, _ = t.canonical(r)
    if t.square_support or (t.parity == -1 and rc in (0, t.m)):
        return False
    return rc not in t.ranges or t.ranges[rc][0] != NEG_INF


# -- rational-function fitting -------------------------------------------

def _solve_exact(rows, n_unknowns):
    """Gaussian elimination over the exact coefficient field; returns the
    solution vector (free variables set to 0) or None if inconsistent."""
    rows = [list(r) for r in rows]
    pivots = {}
    rank = 0
    for col in range(n_unknowns):
        piv = next((i for i in range(rank, len(rows))
                    if not ciszero(rows[i][col])), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = cinv(rows[rank][col])
        rows[rank] = [cmul(inv, v) for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and not ciszero(rows[i][col]):
                f = cneg(rows[i][col])
                rows[i] = [cadd(v, cmul(f, w))
                           for v, w in zip(rows[i], rows[rank])]
        pivots[col] = rank
        rank += 1
    for row in rows[rank:]:
        if not ciszero(row[-1]):
            return None
    sol = [0] * n_unknowns
    for col, i in pivots.items():
        sol[col] = rows[i][-1]
    return sol


def fit_rational(psi, T, max_deg):
    """Exact fit psi = P(T)/Q(T) with deg P, deg Q <= max_deg, Q monic.

    Scans degree pairs in increasing order, solves psi*Q(T) - P(T) = 0
    through the full shared window, and accepts only solutions consistent
    with every justified coefficient (the overdetermined rows are the
    verification).  Returns (P, Q) as ascending coefficient lists.
    """
    if psi.den != 1 or T.den != 1:
        raise NoSolutionWithinDegree(
            "fit_rational needs series in integral powers of q")
    avail = int(psi.order - min([0] + psi.support_exponents()))
    if avail < 2 * max_deg + 2:
        raise Underdetermined(
            f"window of {avail} coefficients cannot pin degree {max_deg}")
    Tpow = [QSeries({0: 1}, T.order)]
    for _ in range(max_deg):
        Tpow.append(series_mul(Tpow[-1], T))
    pairs = sorted(((dp, dq) for dp in range(max_deg + 1)
                    for dq in range(max_deg + 1)),
                   key=lambda p: (max(p), p[0] + p[1], p[1]))
    skipped_short = False
    for dp, dq in pairs:
        cols = [series_mul(psi, Tpow[i]) for i in range(dq)]
        cols += [-1 * Tpow[j] for j in range(dp + 1)]
        rhs = -1 * series_mul(psi, Tpow[dq])
        window = min(s.order for s in cols + [rhs])
        lo = min(min([0] + s.support_exponents()) for s in cols + [rhs])
        xs = [x for x in range(int(lo), int(window))]
        if len(xs) < len(cols):
            skipped_short = True
            continue
        rows = [[s.coeff(x) for s in cols] + [rhs.coeff(x)] for x in xs]
        sol = _solve_exact(rows, len(cols))
        if sol is None:
            continue
        # re-check every equation (free variables were zeroed)
        ok = True
        for row in rows:
            acc = row[-1]
            for v, u in zip(row[:-1], sol):
                acc = cadd(acc, cneg(cmul(v, u)))
            if not ciszero(acc):
                ok = False
                break
        if not ok:
            continue
        return list(sol[dq:]), list(sol[:dq]) + [1]
    if skipped_short:
        raise Underdetermined("every admissible degree pair lacked rows")
    raise NoSolutionWithinDegree(f"no fit with degrees <= {max_deg}")


def fit_case(symbol, D, r, max_deg=None, table=None):
    """End-to-end pipeline for one (lambency, D, r) case: expand Psi to the
    table's full depth, bound the degree by the Heegner divisor's poles
    (capped by the window), and fit against the principal modulus."""
    from .catalog import get_lambency
    from .eta import eta_expand
    lam = get_lambency(symbol)
    psi = psi_expand(lam, D, r, table=table)
    if max_deg is None:
        div = heegner_divisor(lam, D, r)
        poles = int(sum(-w for _q, w in div if w < 0))
        max_deg = min(poles, (int(psi.order) - 2) // 2)
    T = eta_expand(lam.eta, psi.order + max_deg + 1)
    P, Q = fit_rational(psi, T, max_deg)
    return {"lambency": symbol, "D": D, "r": r, "P": P, "Q": Q,
            "window": psi.order, "max_deg": max_deg}
