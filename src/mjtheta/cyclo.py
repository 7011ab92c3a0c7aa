"""Exact arithmetic in cyclotomic fields.

A :class:`Cyc` holds an element of Q(zeta_N) in the power basis
1, zeta, ..., zeta^{phi(N)-1} with Fraction coordinates, reduced modulo the
N-th cyclotomic polynomial.  Elements of different conductors combine by
embedding into the lcm conductor.  The normal form demotes any element that
is actually rational back to a plain Fraction, so code elsewhere can treat
coefficient values as ``int | Fraction | Cyc`` and use the dispatch helpers
at the bottom of this module (cadd, cmul, ...) without caring which case it
has in hand.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .arith import divisors

__all__ = [
    "Cyc", "ex", "cyclotomic_poly", "cadd", "csub", "cmul", "cneg",
    "cinv", "ceq", "ciszero", "cconj", "as_fraction", "cfloat", "cformat",
]


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Coefficients (ascending, ints) of the n-th cyclotomic polynomial.

    Computed by exact division of x^n - 1 by the product of Phi_d over
    proper divisors d of n.
    """
    if n == 1:
        return (-1, 1)
    # numerator x^n - 1
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in divisors(n)[:-1]:
        num = _poly_divexact(num, cyclotomic_poly(d))
    return tuple(num)


def _poly_divexact(a, b):
    """Exact division of integer polynomials (ascending coeff lists)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    out = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        q, r = divmod(a[i], lb)
        assert r == 0
        out[i - db] = q
        if q:
            for j, bj in enumerate(b):
                a[i - db + j] -= q * bj
    assert not any(a[:db]), "division was not exact"
    return out


@lru_cache(maxsize=None)
def _phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _reduce_mod_phi(coeffs, n):
    """Reduce an ascending Fraction coeff list modulo Phi_n; return list of
    length phi(n)."""
    phi = _phi(n)
    c = list(coeffs)
    mod = cyclotomic_poly(n)
    deg = len(mod) - 1  # == phi, monic
    for i in range(len(c) - 1, deg - 1, -1):
        lead = c[i]
        if lead:
            for j in range(deg + 1):
                c[i - deg + j] -= lead * mod[j]
    c = c[:phi]
    c += [Fraction(0)] * (phi - len(c))
    return c


class Cyc:
    """An element of Q(zeta_n), n > 1, that is not rational.

    Use :func:`ex` or :meth:`Cyc.make` to construct; both return a plain
    Fraction when the value lands in Q.
    """

    __slots__ = ("n", "c")

    def __init__(self, n, coeffs):
        # trusted constructor: coeffs already reduced, length phi(n),
        # element known not to be rational at this conductor
        self.n = n
        self.c = tuple(coeffs)

    @staticmethod
    def make(n, coeffs):
        """Build from ascending coefficients of powers of zeta_n, reducing
        and demoting to Fraction / minimal conductor where possible."""
        c = _reduce_mod_phi([Fraction(x) for x in coeffs], n)
        if all(x == 0 for x in c[1:]):
            return c[0] if c else Fraction(0)
        # Try to demote to a proper-divisor conductor.  This is a cosmetic
        # normalization (zero/rational detection above is already exact), so
        # skip it when the field is large enough that the linear solves would
        # dominate the arithmetic.
        if _phi(n) <= 16:
            for d in divisors(n)[1:-1]:
                sol = _try_demote(c, d, n, _embed_powers(d, n))
                if sol is not None:
                    return Cyc(d, sol)
        return Cyc(n, c)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return cadd(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return csub(self, other)

    def __rsub__(self, other):
        return csub(other, self)

    def __mul__(self, other):
        return cmul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return Cyc(self.n, tuple(-x for x in self.c))

    def __truediv__(self, other):
        return cmul(self, cinv(other))

    def __rtruediv__(self, other):
        return cmul(other, cinv(self))

    def __eq__(self, other):
        return ceq(self, other)

    def __hash__(self):
        return hash((self.n, self.c))

    def __repr__(self):
        return cformat(self)

    def conj(self):
        """Complex conjugate (zeta -> zeta^{-1})."""
        n = self.n
        out = [Fraction(0)] * n
        for i, x in enumerate(self.c):
            out[(-i) % n] += x
        return Cyc.make(n, out)

    def __complex__(self):
        return cfloat(self)


@lru_cache(maxsize=None)
def _embed_powers(d, n):
    """For each basis power zeta_d^i (i < phi(d)), its reduced coordinates in
    the conductor-n basis."""
    step = n // d
    out = []
    for i in range(_phi(d)):
        e = i * step
        poly = [Fraction(0)] * (e + 1)
        poly[e] = Fraction(1)
        out.append(tuple(_reduce_mod_phi(poly, n)))
    return tuple(out)


def _try_demote(c, d, n, emb):
    """Solve sum_i y_i * emb[i] == c for rationals y_i, or return None."""
    phi_n = _phi(n)
    rows = [[emb[i][j] for i in range(len(emb))] + [c[j]] for j in range(phi_n)]
    ncols = len(emb)
    # Gaussian elimination
    piv = 0
    where = []
    for col in range(ncols):
        sel = next((r for r in range(piv, phi_n) if rows[r][col] != 0), None)
        if sel is None:
            where.append(None)
            continue
        rows[piv], rows[sel] = rows[sel], rows[piv]
        inv = 1 / rows[piv][col]
        rows[piv] = [x * inv for x in rows[piv]]
        for r in range(phi_n):
            if r != piv and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[piv])]
        where.append(piv)
        piv += 1
    # consistency
    for r in range(piv, phi_n):
        if rows[r][-1] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for col, w in enumerate(where):
        if w is not None:
            sol[col] = rows[w][-1]
    return sol


def ex(x):
    """e^{2 pi i x} for a rational x, as an exact Fraction or Cyc."""
    x = Fraction(x)
    frac = x - (x // 1)  # in [0, 1)
    den = frac.denominator
    num = frac.numerator
    poly = [Fraction(0)] * (num + 1)
    poly[num] = Fraction(1)
    return Cyc.make(den, poly) if den > 1 else Fraction(1)


# -- dispatch helpers over int | Fraction | Cyc ---------------------------

def _lift(x, n):
    """Coordinates of x in conductor n (ascending, length phi(n))."""
    if isinstance(x, Cyc):
        if x.n == n:
            return list(x.c)
        emb = _embed_powers(x.n, n)
        out = [Fraction(0)] * _phi(n)
        for i, xi in enumerate(x.c):
            if xi:
                for j, ej in enumerate(emb[i]):
                    out[j] += xi * ej
        return out
    out = [Fraction(0)] * _phi(n)
    out[0] = Fraction(x)
    return out


def _conductor(x):
    return x.n if isinstance(x, Cyc) else 1


# Operands of exactly these types take the native operation: int op int stays
# int, and equal values hash equally whichever of the two types they have.
_RATIONAL = (int, Fraction)


def cadd(a, b):
    if type(a) in _RATIONAL and type(b) in _RATIONAL:
        return a + b
    if not isinstance(a, Cyc) and not isinstance(b, Cyc):
        return Fraction(a) + Fraction(b)
    n = lcm(_conductor(a), _conductor(b))
    ca, cb = _lift(a, n), _lift(b, n)
    return Cyc.make(n, [x + y for x, y in zip(ca, cb)])


def csub(a, b):
    return cadd(a, cneg(b))


def cneg(a):
    return -a if isinstance(a, Cyc) or type(a) in _RATIONAL else -Fraction(a)


def cmul(a, b):
    if type(a) in _RATIONAL and type(b) in _RATIONAL:
        return a * b
    if not isinstance(a, Cyc) and not isinstance(b, Cyc):
        return Fraction(a) * Fraction(b)
    if not isinstance(a, Cyc):
        a, b = b, a
    if not isinstance(b, Cyc):
        b = Fraction(b)
        if b == 0:
            return Fraction(0)
        return Cyc(a.n, tuple(x * b for x in a.c))
    n = lcm(a.n, b.n)
    ca, cb = _lift(a, n), _lift(b, n)
    prod = [Fraction(0)] * (len(ca) + len(cb) - 1)
    for i, x in enumerate(ca):
        if x:
            for j, y in enumerate(cb):
                if y:
                    prod[i + j] += x * y
    return Cyc.make(n, prod)


def cinv(a):
    """Multiplicative inverse of a nonzero value."""
    if not isinstance(a, Cyc):
        return 1 / Fraction(a)
    # extended Euclid in Q[x] against Phi_n
    n = a.n
    mod = [Fraction(c) for c in cyclotomic_poly(n)]
    r0, r1 = mod, list(a.c)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while any(x != 0 for x in r1):
        q, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    # r0 = gcd (a constant, since Phi_n is irreducible and a != 0 mod Phi_n)
    while r0 and r0[-1] == 0:
        r0.pop()
    assert len(r0) == 1, "inverse of zero or non-unit"
    inv_const = 1 / r0[0]
    return Cyc.make(n, [x * inv_const for x in s0])


def _poly_divmod(a, b):
    a = list(a)
    while b and b[-1] == 0:
        b = b[:-1]
    db = len(b) - 1
    q = [Fraction(0)] * max(len(a) - db, 1)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            f = a[i] / b[-1]
            q[i - db] = f
            for j in range(db + 1):
                a[i - db + j] -= f * b[j]
    return q, a[:db] if db > 0 else [Fraction(0)]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


def ceq(a, b):
    d = csub(a, b)
    return not isinstance(d, Cyc) and d == 0


def ciszero(a):
    if type(a) in _RATIONAL:
        return a == 0
    return not isinstance(a, Cyc) and Fraction(a) == 0


def cconj(a):
    return a.conj() if isinstance(a, Cyc) else Fraction(a)


def as_fraction(a):
    """Return a as a Fraction, or raise ValueError if irrational."""
    if isinstance(a, Cyc):
        raise ValueError(f"not rational: {a!r}")
    return Fraction(a)


def cfloat(a):
    """Complex float approximation (for sanity checks only)."""
    import cmath
    if not isinstance(a, Cyc):
        return complex(Fraction(a))
    z = cmath.exp(2j * cmath.pi / a.n)
    return sum(float(x) * z ** i for i, x in enumerate(a.c))


def cformat(a):
    if not isinstance(a, Cyc):
        f = Fraction(a)
        return str(f.numerator) if f.denominator == 1 else str(f)
    terms = []
    for i, x in enumerate(a.c):
        if x == 0:
            continue
        base = f"z{a.n}^{i}" if i > 1 else ("z%d" % a.n if i == 1 else "1")
        terms.append(f"{x}*{base}" if i else f"{x}")
    return "(" + " + ".join(terms) + ")"
