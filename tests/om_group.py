"""Test oracle: the group O_m of residues by its definition, and a(n) by a
scan.  The package computes a(n) by a closed CRT formula (catalog._a_of);
these are the searches that formula replaced."""

from math import gcd

from mjtheta.arith import divisors


def om_elements(m):
    """O_m = {a mod 2m, a odd : a^2 = 1 mod 4m}, ascending."""
    return tuple(a for a in range(1, 2 * m, 2) if (a * a - 1) % (4 * m) == 0)


def exact_divisors(m):
    """The n | m with gcd(n, m/n) = 1, ascending."""
    return tuple(n for n in divisors(m) if gcd(n, m // n) == 1)


def a_by_search(m, n):
    """The odd a mod 2m with a = -1 mod 2n and a = 1 mod 2m/n."""
    for a in range(1, 2 * m + 1, 2):
        if (a + 1) % (2 * n) == 0 and (a - 1) % (2 * m // n) == 0:
            return a % (2 * m)
    raise AssertionError(f"no a({n}) for m={m}")
