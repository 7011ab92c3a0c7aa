"""Test oracles for the arithmetic the package does not do: products of
series one pair of terms at a time, Laurent powers and reciprocals of
series, and the cyclotomic field Q(zeta_n) at one conductor n.  The
package forms products of int series only (series.series_mul, one
Kronecker product), and its only irrational values are the x + y G_D of
cyclo.Cyc, which it never computes with; these are the general paths it
dropped, kept as references.  The series oracles use + and *, so they
take ints, Fractions and Cyclotomic values alike."""

import cmath
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor

from mjtheta.arith import kronecker
from mjtheta.cyclo import Cyc, cyclotomic_poly
from mjtheta.series import QSeries, _align, _lo_eff


def pair_mul(a, b):
    """a * b for coefficients of any type, with series_mul's window, one
    pair of terms at a time."""
    den, ca, cb = _align(a, b)
    order = min(a.order + _lo_eff(b), b.order + _lo_eff(a))
    cutoff = ceil(order * den)
    out = {}
    for ka, va in ca.items():
        for kb, vb in cb.items():
            k = ka + kb
            if k < cutoff:
                out[k] = out.get(k, 0) + va * vb
    return QSeries(out, order, den)


def reciprocal(a):
    """1/a for a series with nonempty support (Laurent inversion)."""
    den = a.den
    l = min(a.coeffs)
    c0 = a.coeffs[l]
    # a lead of +-1 is its own inverse, so int series stay int
    c0inv = c0 if c0 in (1, -1) else cinv(c0)
    # a = q^(l/den) * c0 * (1 + u); invert the unit part by the standard
    # recurrence, valid over the same relative window
    rel = floor(a.order * den) - l  # relative window in key units
    u = {k - l: v * c0inv for k, v in a.coeffs.items() if k != l}
    binv = {0: 1}
    for n in range(1, rel):
        acc = 0
        for j, uj in u.items():
            if j <= n and (n - j) in binv:
                acc = acc + uj * binv[n - j]
        if acc != 0:
            binv[n] = -acc
    out = {k - l: v * c0inv for k, v in binv.items()}
    return QSeries(out, Fraction(rel - l, den), den)


def power(a, e):
    """a**e for an integer e, negative when a has a known leading term."""
    if e == 0:
        # the window of a**0 is still limited by the relative precision of a
        return QSeries({0: 1}, a.order - _lo_eff(a), a.den)
    if e < 0:
        return power(reciprocal(a), -e)
    result = None
    base = a
    while e:
        if e & 1:
            result = base if result is None else pair_mul(result, base)
        e >>= 1
        if e:
            base = pair_mul(base, base)
    return result


def neg(a):
    """-a for a series with coefficients of any type."""
    return QSeries({k: -v for k, v in a.coeffs.items()}, a.order, a.den)


def add(a, b):
    """a + b for series with coefficients of any type."""
    den, ca, cb = _align(a, b)
    out = dict(ca)
    for k, v in cb.items():
        out[k] = out.get(k, 0) + v
    return QSeries(out, min(a.order, b.order), den)


# -- Q(zeta_n) at one conductor --------------------------------------------

def _reduce(coeffs, n):
    """Ascending coefficients modulo the monic Phi_n, phi(n) of them."""
    c = list(coeffs)
    mod = cyclotomic_poly(n)
    deg = len(mod) - 1
    for i in range(len(c) - 1, deg - 1, -1):
        if c[i]:
            lead = c[i]
            for j, m in enumerate(mod):
                c[i - deg + j] -= lead * m
    return c[:deg] + [0] * (deg - len(c))


class Cyclotomic:
    """An element of Q(zeta_n) for one conductor n: Fraction coordinates
    on 1, zeta_n, ..., zeta_n^(phi(n)-1), reduced modulo Phi_n, so equal
    values have equal coordinates.  Arithmetic is by operators; an int,
    a Fraction or a package Cyc operand is embedded at n (see of)."""

    __slots__ = ("n", "c")

    def __init__(self, n, c):
        # trusted: c already reduced, length phi(n)
        self.n, self.c = n, tuple(c)

    @staticmethod
    def make(n, coeffs):
        """From ascending coefficients of powers of zeta_n, any length."""
        return Cyclotomic(n, _reduce(coeffs, n))

    @staticmethod
    def of(value, n):
        """value at conductor n: an int or Fraction, a Cyclotomic at n, or
        a package Cyc whose conductor divides n (its coordinates c on
        zeta_|D|^i = zeta_n^(i n/|D|))."""
        if isinstance(value, Cyclotomic):
            assert value.n == n, (value.n, n)
            return value
        if not isinstance(value, Cyc):
            return Cyclotomic(n, [value] + [0] * (len(cyclotomic_poly(n)) - 2))
        assert n % value.n == 0, (value.n, n)
        out = [0] * n
        for i, x in enumerate(value.c):
            out[i * (n // value.n)] += x
        return Cyclotomic.make(n, out)

    def rational(self):
        """The value as a Fraction, or None if it is irrational."""
        return None if any(self.c[1:]) else self.c[0]

    def conj(self):
        """The complex conjugate, zeta_n -> zeta_n^-1."""
        out = [Fraction(0)] * self.n
        for i, x in enumerate(self.c):
            out[-i % self.n] += x
        return Cyclotomic.make(self.n, out)

    def inverse(self):
        """1 / self, by extended Euclid in Q[x] against Phi_n."""
        n = self.n
        r0, r1 = [Fraction(c) for c in cyclotomic_poly(n)], list(self.c)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r0 is the gcd, a constant: Phi_n is irreducible, self != 0
        while r0 and r0[-1] == 0:
            r0.pop()
        assert len(r0) == 1, "inverse of zero"
        return Cyclotomic.make(n, [x / r0[0] for x in s0])

    def __complex__(self):
        """The float embedding, zeta_n at exp(2 pi i / n)."""
        z = cmath.exp(2j * cmath.pi / self.n)
        return sum(float(x) * z ** i for i, x in enumerate(self.c))

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, Cyc, Cyclotomic)):
            return Cyclotomic.of(other, self.n)
        return None

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.n, (self.c[0] + other,) + self.c[1:])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Cyclotomic(self.n, [x + y for x, y in zip(self.c, other.c)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.n, [-x for x in self.c])

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.n, [x * other for x in self.c])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.rational() is not None:
            return self * other.c[0]
        if self.rational() is not None:
            return other * self.c[0]
        return Cyclotomic.make(self.n, _poly_mul(self.c, other.c))

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        # a rational value hashes as its Fraction, as it compares equal
        q = self.rational()
        return hash((self.n, self.c)) if q is None else hash(q)

    def __repr__(self):
        return f"Cyclotomic({self.n}, {[str(x) for x in self.c]})"


@lru_cache(maxsize=None)
def root(n, turn):
    """e(turn) = e^{2 pi i turn} = zeta_n^(turn n), for turn n an
    integer."""
    k = Fraction(turn) * n
    assert k.denominator == 1, (turn, n)
    out = [0] * n
    out[k.numerator % n] = 1
    return Cyclotomic.make(n, out)


@lru_cache(maxsize=None)
def gauss_sum(D):
    """G_D = sum_{b mod |D|} (D/b) e(b/D), at conductor |D|."""
    n = -D
    return sum((root(n, Fraction(b, D)) * kronecker(D, b)
                for b in range(1, n)), Cyclotomic.of(0, n))


def cinv(a):
    """Multiplicative inverse of a nonzero int, Fraction or Cyclotomic."""
    if isinstance(a, Cyclotomic):
        return a.inverse()
    return 1 / Fraction(a)


def cconj(a):
    """The complex conjugate of a Cyclotomic, or of a package Cyc at its
    conductor |D|."""
    return Cyclotomic.of(a, a.n).conj()


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


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


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out
