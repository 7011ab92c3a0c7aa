"""Exact scalar values: rationals, and the quadratic irrationals of the
Borcherds products.

Every coefficient the package computes with is an int or a Fraction, and
cadd and cmul are the one spelling of + and * on them (int op int stays
an int).

The one irrational value the package forms is a coefficient of a Borcherds
product or of its fit: x + y G_D in Q(sqrt D), for a negative fundamental
discriminant D, where G_D = sum_{b mod |D|} (D/b) zeta_|D|^(-b) is the
Gauss sum, G_D^2 = D (Bruinier--Ono, "Heegner divisors, L-functions and
harmonic weak Maass forms", Ann. of Math. 2010, Thm 6.1).  A :class:`Cyc`
stores it as (D, x, y) with y != 0 and has no arithmetic: two values are
equal exactly when their (D, x, y) are, and a Cyc is never rational, so
never 0, and ``v == 0`` tests any value for zero.  Its conductor n = |D|
and its coordinates c on 1, zeta_n, ..., zeta_n^(phi(n)-1), reduced
modulo the n-th cyclotomic polynomial, are derived, for printing.
"""

from fractions import Fraction
from functools import lru_cache

from .arith import divisors, is_fundamental, kronecker
from .errors import BadDiscriminant

__all__ = ["Cyc", "cyclotomic_poly", "cadd", "cmul", "cformat"]


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Coefficients (ascending, ints) of the n-th cyclotomic polynomial:
    x^n - 1 divided exactly by Phi_d for each proper divisor d of n."""
    num = (-1,) + (0,) * (n - 1) + (1,)
    for d in divisors(n)[:-1]:
        num, _rem = _divide(num, cyclotomic_poly(d))
    return tuple(num)


def _divide(a, b):
    """(quotient, remainder) of the polynomial a by the monic b, both
    ascending, by synthetic division: from the top down, each entry of a
    is the quotient's and clears its multiple of b below it."""
    a, db = list(a), len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        for j in range(db):
            a[i - db + j] -= a[i] * b[j]
    return a[db:], a[:db]


@lru_cache(maxsize=None)
def _gauss_coords(D):
    """The coordinates of G_D at conductor n = |D|: sum_b (D/b) zeta_n^(-b)
    reduced modulo Phi_n, phi(n) ints.  BadDiscriminant unless D is a
    negative fundamental discriminant."""
    if D >= 0 or not is_fundamental(D):
        raise BadDiscriminant(f"need a negative fundamental D, got {D}")
    n = -D
    c = [0] * n
    for b in range(1, n):
        c[-b % n] += kronecker(D, b)
    return tuple(_divide(c, cyclotomic_poly(n))[1])


class Cyc:
    """x + y G_D for rationals x, y != 0 and a negative fundamental D.

    Build it with :meth:`Cyc.make`, which returns the rational x when
    y = 0."""

    __slots__ = ("D", "x", "y")

    def __init__(self, D, x, y):
        # trusted constructor: D negative fundamental, y nonzero
        self.D, self.x, self.y = D, x, y

    @staticmethod
    def make(D, x, y):
        """x + y G_D: the rational x when y = 0, else a Cyc.
        BadDiscriminant unless D is a negative fundamental discriminant."""
        _gauss_coords(D)
        return Cyc(D, Fraction(x), Fraction(y)) if y else x

    @property
    def n(self):
        """The conductor |D| of Q(sqrt D)."""
        return -self.D

    @property
    def c(self):
        """The coordinates on zeta_n^0 .. zeta_n^(phi(n)-1), reduced
        modulo Phi_n."""
        c = [self.y * g for g in _gauss_coords(self.D)]
        c[0] += self.x
        return tuple(c)

    def __eq__(self, other):
        # against any other type Python falls back to False, which is
        # right as a Cyc is never rational
        if isinstance(other, Cyc):
            return (self.D, self.x, self.y) == (other.D, other.x, other.y)
        return NotImplemented

    def __hash__(self):
        return hash((self.D, self.x, self.y))

    def __repr__(self):
        return cformat(self)


# Operands of exactly these types take the native operation: int op int stays
# int, and equal values hash equally whichever of the two types they have.
_RATIONAL = (int, Fraction)


def cadd(a, b):
    if type(a) in _RATIONAL and type(b) in _RATIONAL:
        return a + b
    return Fraction(a) + Fraction(b)


def cmul(a, b):
    if type(a) in _RATIONAL and type(b) in _RATIONAL:
        return a * b
    return Fraction(a) * Fraction(b)


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
