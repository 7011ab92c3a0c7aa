"""Test oracles for the arithmetic the package does not do: products of
Fraction and Cyc series one pair of terms at a time, Laurent powers and
reciprocals of series, and the inverse in Q(zeta_n).  The package forms
products of int series only (series.series_mul, one Kronecker product);
these are the general paths it dropped, kept as references."""

from fractions import Fraction
from math import ceil, floor

from mjtheta.cyclo import (
    Cyc, cadd, cmul, cyclotomic_poly, _poly_mul, _reduce_mod_phi,
)
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
                out[k] = cadd(out.get(k, 0), cmul(va, vb))
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
    u = {k - l: cmul(v, c0inv) for k, v in a.coeffs.items() if k != l}
    binv = {0: 1}
    for n in range(1, rel):
        acc = 0
        for j, uj in u.items():
            if j <= n and (n - j) in binv:
                acc = cadd(acc, cmul(uj, binv[n - j]))
        if acc != 0:
            binv[n] = cmul(acc, -1)
    out = {k - l: cmul(v, c0inv) for k, v in binv.items()}
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


def cinv(a):
    """Multiplicative inverse of a nonzero int, Fraction or Cyc."""
    if not isinstance(a, Cyc):
        return 1 / Fraction(a)
    # extended Euclid in Q[x] against Phi_n
    n = a.n
    r0, r1 = [Fraction(c) for c in cyclotomic_poly(n)], list(a.c)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        q, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    # r0 is the gcd, a constant: Phi_n is irreducible and a != 0 mod Phi_n
    while r0 and r0[-1] == 0:
        r0.pop()
    assert len(r0) == 1, "inverse of zero or non-unit"
    # a and 1/a generate the same field, so n stays minimal
    return Cyc(n, _reduce_mod_phi([x / r0[0] for x in s0], n))


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
