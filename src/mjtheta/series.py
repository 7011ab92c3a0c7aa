"""Truncated q-series with exact coefficients and fractional exponents.

A :class:`QSeries` is a finite q-expansion sum_x c(x) q^x where the exponents
x are rationals with a common denominator ``den`` and the coefficients are
ints or Fractions; products are formed of int series only.
Every series carries a justified window: all coefficients at exponents
strictly below ``order`` (a Fraction) are known exactly, absent ones being
zero.  Nothing at or above ``order`` may be trusted.  All operations
propagate the window honestly.
"""

from fractions import Fraction
from math import ceil, gcd, lcm

from .cyclo import cadd, cmul, cformat
from .errors import Divergent, IrrationalPhase, NonIntegralCoefficient

__all__ = [
    "QSeries", "series_add", "series_scale", "series_mul", "series_rescale",
    "series_half_shift", "series_slice", "series_shift", "series_verdict",
]


class QSeries:
    """coeffs: dict mapping exponent numerator -> nonzero coefficient;
    the exponent of key k is Fraction(k, den).  order: Fraction window bound
    (coefficients at exponents < order are justified)."""

    __slots__ = ("den", "coeffs", "order")

    def __init__(self, coeffs, order, den=1):
        self.den = den
        self.order = Fraction(order)
        # the least key at or above the window bound
        cutoff = ceil(self.order * den)
        self.coeffs = {k: v for k, v in coeffs.items()
                       if v != 0 and k < cutoff}

    # -- inspection -------------------------------------------------------

    @property
    def lo(self):
        """Smallest exponent in the support, or None if (known) zero."""
        return Fraction(min(self.coeffs), self.den) if self.coeffs else None

    def coeff(self, exponent):
        """Coefficient at a given exponent; raises if outside the window."""
        x = Fraction(exponent)
        if x >= self.order:
            raise IndexError(f"exponent {x} at or above window bound {self.order}")
        if self.den % x.denominator != 0:
            return Fraction(0)  # off the exponent grid, hence zero
        k = x.numerator * (self.den // x.denominator)
        return self.coeffs.get(k, Fraction(0))

    def items(self):
        """Sorted (exponent: Fraction, coeff) pairs."""
        return [(Fraction(k, self.den), v)
                for k, v in sorted(self.coeffs.items())]

    def __repr__(self):
        terms = [f"{cformat(v)}*q^({Fraction(k, self.den)})"
                 for k, v in sorted(self.coeffs.items())[:8]]
        more = "" if len(self.coeffs) <= 8 else " + ..."
        body = " + ".join(terms) if terms else "0"
        return f"<{body}{more}  (+O(q^{self.order}))>"


def _align(a, b):
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    ca = a.coeffs if fa == 1 else {k * fa: v for k, v in a.coeffs.items()}
    cb = b.coeffs if fb == 1 else {k * fb: v for k, v in b.coeffs.items()}
    return den, ca, cb


def series_add(a, b):
    den, ca, cb = _align(a, b)
    order = min(a.order, b.order)
    out = dict(ca)
    for k, v in cb.items():
        out[k] = cadd(out.get(k, 0), v)
    return QSeries(out, order, den)


def series_scale(a, c):
    """c * a for a scalar c (int or Fraction)."""
    return QSeries({k: cmul(v, c) for k, v in a.coeffs.items()}, a.order,
                   a.den)


def _lo_eff(s):
    # effective lowest exponent for window propagation: an empty support
    # means "zero as far as we know", justified up to the window bound
    return s.lo if s.coeffs else s.order


def series_mul(a, b):
    """a * b for series with int coefficients, which every product the
    package forms has; any other value raises NonIntegralCoefficient."""
    den, ca, cb = _align(a, b)
    if not all(type(v) is int for c in (ca, cb) for v in c.values()):
        raise NonIntegralCoefficient("series_mul multiplies int series only")
    order = min(a.order + _lo_eff(b), b.order + _lo_eff(a))
    return QSeries(_mul_kronecker(ca, cb, ceil(order * den)), order, den)


def _mul_kronecker(ca, cb, cutoff):
    """Coefficients of the product of int series at keys below the cutoff,
    by Kronecker substitution.

    Each operand becomes one integer with an s-byte slot per step g of its
    keys (g the gcd of all key offsets), so that a single bigint multiply
    performs the convolution.  A product slot holds a sum of at most
    min(#a, #b) terms, each at most max|a| * max|b| in size; s bytes give
    that bound's bits plus a sign bit.  Slot values are stored offset by
    half = 2^(8s-1), so packing and unpacking (_unpack) stay byte copies."""
    if not ca or not cb:
        return {}
    la, lb = min(ca), min(cb)
    # product keys below the cutoff are la + lb + j, 0 <= j < span; the
    # window of a product lies above its lowest term, so span >= 1
    span = cutoff - la - lb
    ka = [k for k in ca if k - la < span]
    kb = [k for k in cb if k - lb < span]
    g = gcd(*(k - la for k in ka), *(k - lb for k in kb)) or 1
    n = -(-span // g)  # product slots below the cutoff
    bound = (max(abs(ca[k]) for k in ka) * max(abs(cb[k]) for k in kb)
             * min(len(ka), len(kb)))
    s = _slot_bytes(bound)
    half = 1 << (8 * s - 1)
    c = _pack(ca, ka, la, g, s, half) * _pack(cb, kb, lb, g, s, half)
    return _unpack(c, s, n, la + lb, g)


def _slot_bytes(bound):
    """Bytes per slot for ints of absolute value at most bound: the
    bound's bits and a sign bit, rounded up to whole bytes."""
    return (bound.bit_length() + 8) // 8


def _unpack(packed, s, n, base=0, g=1):
    """{base + g j: a_j} over the nonzero a_j, where packed is congruent to
    sum_{j<n} a_j 2^(8 s j) mod 2^(8 s n) and each a_j lies in
    [-2^(8s-1), 2^(8s-1)).  Adding half = 2^(8s-1) to every slot leaves
    each slot in [0, 2^8s), so the decode is a byte copy per slot."""
    half = 1 << (8 * s - 1)
    offset = int.from_bytes(half.to_bytes(s, "little") * n, "little")
    low = (packed + offset) & ((1 << (8 * s * n)) - 1)
    raw = low.to_bytes(s * n, "little")
    out, k, decode = {}, base, int.from_bytes
    for i in range(0, s * n, s):
        v = decode(raw[i:i + s], "little")
        if v != half:
            out[k] = v - half
        k += g
    return out


def _pack(coeffs, keys, lo, g, s, half):
    """sum_k coeffs[k] 2^(8s (k - lo) / g) over keys, as one int."""
    m = (max(keys) - lo) // g + 1
    zero = half.to_bytes(s, "little")
    slots = [zero] * m
    for k in keys:
        slots[(k - lo) // g] = (coeffs[k] + half).to_bytes(s, "little")
    return (int.from_bytes(b"".join(slots), "little")
            - int.from_bytes(zero * m, "little"))


def series_rescale(a, t):
    """q -> q^t for a positive rational t (exponents scale by t)."""
    t = Fraction(t)
    if t <= 0:
        raise Divergent(f"q -> q^{t} leaves no exponent window")
    coeffs = {k * t.numerator: v for k, v in a.coeffs.items()}
    return QSeries(coeffs, a.order * t, a.den * t.denominator)


def series_half_shift(a, s, turn=0):
    """tau -> tau + s for rational s, times e(turn) = e^{2 pi i turn}: the
    coefficient at exponent x picks up e(turn + s x), which must be +-1
    wherever it is nonzero; IrrationalPhase names the exponent where it
    is not."""
    s, turn = Fraction(s), Fraction(turn)
    # 2 (turn + s k / den) = (u + v k) / w, an integer exactly at a sign
    w = turn.denominator * s.denominator * a.den
    u = 2 * turn.numerator * s.denominator * a.den
    v = 2 * s.numerator * turn.denominator
    out = {}
    for k, c in a.coeffs.items():
        h, rem = divmod(u + v * k, w)
        if rem:
            x = Fraction(k, a.den)
            raise IrrationalPhase(
                f"e({turn + s * x}) at q^({x}) is not +-1: the coefficient "
                "would be irrational")
        out[k] = cmul(c, -1) if h & 1 else c
    return QSeries(out, a.order, a.den)


def series_shift(a, s):
    """Multiply by q^s: exponents shift by the rational s."""
    s = Fraction(s)
    den = lcm(a.den, s.denominator)
    f = den // a.den
    ds = s.numerator * (den // s.denominator)
    coeffs = {k * f + ds: v for k, v in a.coeffs.items()}
    return QSeries(coeffs, a.order + s, den)


def series_slice(a, r, b):
    """Pick exponents x = r (mod b) and shift them to x - r.

    r rational, b positive rational; this is the 'theta decomposition' style
    slice  f|[r; b] = sum_{x = r mod b} c(x) q^(x - r).  The result is
    written over the least common denominator of its exponents.
    """
    r, b = Fraction(r), Fraction(b)
    if b <= 0:
        raise Divergent(f"slice modulus {b} is not positive")
    den = lcm(a.den, r.denominator)
    f = den // a.den
    shift = r.numerator * (den // r.denominator)
    # x - r = j / den is a multiple of b iff j * b.den = 0 mod den * b.num
    modulus = den * b.numerator
    out = {}
    for k, v in a.coeffs.items():
        j = k * f - shift
        if j * b.denominator % modulus == 0:
            out[j] = v
    g = gcd(den, *out)
    # window: exponents x < order contribute shifted exponents up to order-r
    return QSeries({j // g: v for j, v in out.items()}, a.order - r, den // g)


def series_verdict(lhs, rhs):
    """The one verdict on an identity lhs = rhs of two series:
    {"status": "verified", "depth": w} when they agree below the shared
    window w, else {"status": "mismatch", "exponent": x, "lhs": a,
    "rhs": b} at the least exponent x where they differ."""
    den, ca, cb = _align(lhs, rhs)
    depth = min(lhs.order, rhs.order)
    cutoff = ceil(depth * den)
    zero = Fraction(0)
    for k in sorted(ca.keys() | cb.keys()):
        if k >= cutoff:
            break
        a, b = ca.get(k, zero), cb.get(k, zero)
        if a != b:
            return {"status": "mismatch", "exponent": Fraction(k, den),
                    "lhs": a, "rhs": b}
    return {"status": "verified", "depth": depth}
