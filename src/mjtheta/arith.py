"""Small number-theoretic helpers used across modules."""

from functools import lru_cache
from math import isqrt

from .errors import BadDiscriminant

__all__ = [
    "kronecker", "kronecker_row", "is_fundamental", "divisors",
    "sigma1", "prime_factorization",
]


def prime_factorization(n):
    """dict p -> exponent for n >= 1."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=None)
def divisors(n):
    n = abs(n)
    out = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    out += [n // d for d in reversed(out) if d * d != n]
    return tuple(out)


@lru_cache(maxsize=None)
def sigma1(n):
    return sum(divisors(n))


def kronecker(D, b):
    """Kronecker symbol (D/b) for a discriminant D (0 or 1 mod 4, nonzero).

    Totally multiplicative in b, with (D/-1) = sign(D), (D/0) = 0 for
    |D| > 1, and the usual prime values.
    """
    if D == 0 or D % 4 not in (0, 1):
        raise BadDiscriminant(D)
    if b == 0:
        return 1 if D == 1 else 0
    result = 1
    if b < 0:
        b = -b
        if D < 0:
            result = -result
    for p, e in prime_factorization(b).items():
        if e % 2 == 0:
            if D % p == 0:
                return 0
            continue
        if D % p == 0:
            return 0
        if p == 2:
            result *= 1 if D % 8 == 1 else -1
        else:
            ls = pow(D % p, (p - 1) // 2, p)
            result *= 1 if ls == 1 else -1
    return result


def kronecker_row(D, count):
    """[0, (D/1), ..., (D/(count - 1))] for a nonzero discriminant D,
    index 0 set to 0.  For D = 0, 1 mod 4, (D/d) has period |D| in d >= 1,
    so kronecker runs only for d <= |D|."""
    p = abs(D)
    period = [kronecker(D, d) for d in range(1, min(p, count - 1) + 1)]
    return [0] + [period[(d - 1) % p] for d in range(1, count)]


def is_fundamental(D):
    """True for D = 1 and fundamental discriminants (positive or negative)."""
    if D == 0 or D % 4 not in (0, 1):
        return False
    if D % 4 == 1:
        return _squarefree(abs(D))
    m0 = D // 4
    return m0 % 4 in (2, 3) and _squarefree(abs(m0))


def _squarefree(n):
    return all(e == 1 for e in prime_factorization(n).values())
