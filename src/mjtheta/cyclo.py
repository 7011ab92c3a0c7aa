"""Exact arithmetic in cyclotomic fields.

A :class:`Cyc` holds an irrational element of Q(zeta_N) in the power basis
1, zeta, ..., zeta^{phi(N)-1} with Fraction coordinates, reduced modulo the
N-th cyclotomic polynomial.  Elements of different conductors combine by
embedding into the lcm conductor.

The normal form is unique: a rational value is a plain Fraction, and any
other value sits at its minimal conductor N, which is never 2 mod 4 (there
Q(zeta_N) = Q(zeta_{N/2})).  So two values are equal exactly when their
(N, coordinates) pairs are, and ``==`` and ``hash`` are tuple operations.

A Cyc has no arithmetic operators.  Code elsewhere treats coefficient
values as ``int | Fraction | Cyc`` and computes with the one set of
helpers below (cadd and cmul), which take any of the three and keep
int op int an int.  A Cyc is never rational, so never 0: ``v == 0``
tests any of the three for zero.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .arith import divisors, prime_factorization

__all__ = [
    "Cyc", "ex", "cyclotomic_poly", "cadd", "cmul", "cformat",
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


def _phi(n):
    return len(cyclotomic_poly(n)) - 1


def _reduce_mod_phi(coeffs, n):
    """Reduce an ascending Fraction coeff list modulo Phi_n; return list of
    length phi(n)."""
    c = list(coeffs)
    mod = cyclotomic_poly(n)
    deg = len(mod) - 1  # phi(n); Phi_n is monic
    for i in range(len(c) - 1, deg - 1, -1):
        lead = c[i]
        if lead:
            for j, m in enumerate(mod):
                if m:
                    c[i - deg + j] -= lead * m
    return c[:deg] + [Fraction(0)] * (deg - len(c))


class Cyc:
    """An irrational element of Q(zeta_n) at its minimal conductor n.

    Use :func:`ex` or :meth:`Cyc.make` to construct; both return the normal
    form, a plain Fraction when the value lands in Q.
    """

    __slots__ = ("n", "c")

    def __init__(self, n, coeffs):
        # trusted constructor: coeffs already reduced, length phi(n), and
        # n the minimal conductor of an irrational value
        self.n = n
        self.c = tuple(coeffs)

    @staticmethod
    def make(n, coeffs):
        """Build from ascending coefficients of powers of zeta_n: reduce
        modulo Phi_n and return the value in normal form."""
        c = _reduce_mod_phi([Fraction(x) for x in coeffs], n)
        if not any(c[1:]):
            return c[0]
        return Cyc(*_descend(n, c))

    def __eq__(self, other):
        # normal forms are unique; against any other type Python falls back
        # to False, which is right as a Cyc is never rational
        if isinstance(other, Cyc):
            return self.n == other.n and self.c == other.c
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.c))

    def __repr__(self):
        return cformat(self)


@lru_cache(maxsize=None)
def _embed_powers(d, n):
    """For each basis power zeta_d^i (i < phi(d)), its reduced coordinates in
    the conductor-n basis."""
    return tuple(
        tuple(_reduce_mod_phi([Fraction(0)] * (i * n // d) + [Fraction(1)], n))
        for i in range(_phi(d)))


def _descend(n, c):
    """(d, coordinates at d) for the minimal conductor d of the irrational
    value with coordinates c at n, one prime at a time.  A prime that fails
    at n fails at every divisor of n, so each is tried until it fails."""
    for p in sorted(prime_factorization(n)):
        while n % p == 0 and n > p:
            d = n // p
            if d % p == 0:
                # Phi_n(x) = Phi_d(x^p): Q(zeta_d) is spanned by the
                # basis powers zeta_n^{pj}
                if any(x for i, x in enumerate(c) if i % p):
                    break
                y = c[::p]
            else:
                # x lies in Q(zeta_d) iff it equals its trace to Q(zeta_d)
                # over the degree p - 1, which is 1 for p = 2
                y = _trace_down(c, n, p)
                if p != 2 and _lift(Cyc(d, y), n) != c:
                    break
            n, c = d, y
    return n, c


def _trace_down(c, n, p):
    """Coordinates at d = n/p, p prime to d, of Tr(x) / (p - 1), with Tr the
    trace from Q(zeta_n) to Q(zeta_d): Tr(zeta_n^i) = zeta_d^{iu} times
    p - 1 if p | i and -1 otherwise, where u = 1/p mod d."""
    d = n // p
    u = pow(p, -1, d)
    poly = [Fraction(0)] * d
    for i, x in enumerate(c):
        if x:
            poly[i * u % d] += x if i % p == 0 else -x / (p - 1)
    return _reduce_mod_phi(poly, d)


def ex(x):
    """e^{2 pi i x} for a rational x, as an exact Fraction or Cyc."""
    x = Fraction(x) % 1
    if not x:
        return Fraction(1)
    return Cyc.make(x.denominator, [0] * x.numerator + [1])


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
                    if ej:
                        out[j] += xi * ej
        return out
    return [Fraction(x)] + [Fraction(0)] * (_phi(n) - 1)


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
    return Cyc.make(n, _poly_mul(_lift(a, n), _lift(b, n)))


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


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
