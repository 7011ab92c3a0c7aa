"""Truncated q-series with exact coefficients and fractional exponents.

A :class:`QSeries` is a finite q-expansion sum_x c(x) q^x where the exponents
x are rationals with a common denominator ``den`` and the coefficients are
exact (int / Fraction / Cyc).  Every series carries a justified window: all
coefficients at exponents strictly below ``order`` (a Fraction) are known
exactly, absent ones being zero.  Nothing at or above ``order`` may be
trusted.  All operations propagate the window honestly.
"""

from fractions import Fraction
from math import ceil, floor, gcd, lcm

from .cyclo import cadd, cmul, cneg, cinv, ciszero, ex, cformat
from .errors import Divergent, NonInvertibleLeadingTerm

__all__ = [
    "QSeries", "series_add", "series_mul", "series_pow", "series_rescale",
    "series_half_shift", "series_slice", "series_shift", "series_eq",
    "series_first_mismatch", "series_verdict",
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
                       if not ciszero(v) and k < cutoff}

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(order, den=1):
        return QSeries({}, order, den)

    @staticmethod
    def one(order):
        return QSeries({0: Fraction(1)}, order)

    @staticmethod
    def monomial(coeff, exponent, order):
        e = Fraction(exponent)
        return QSeries({e.numerator: coeff}, order, e.denominator)

    @staticmethod
    def from_terms(terms, order):
        """terms: iterable of (exponent: Fraction-like, coeff)."""
        terms = [(Fraction(x), c) for x, c in terms]
        den = lcm(1, *(x.denominator for x, _ in terms)) if terms else 1
        coeffs = {}
        for x, c in terms:
            k = x.numerator * (den // x.denominator)
            coeffs[k] = cadd(coeffs.get(k, 0), c)
        return QSeries(coeffs, order, den)

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

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.monomial(other, 0, self.order)
        return series_add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return QSeries({k: cneg(v) for k, v in self.coeffs.items()},
                       self.order, self.den)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.monomial(other, 0, self.order)
        return series_add(self, -other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            return series_mul(self, other)
        return QSeries({k: cmul(v, other) for k, v in self.coeffs.items()},
                       self.order, self.den)

    __rmul__ = __mul__

    def __pow__(self, e):
        return series_pow(self, e)


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


def _lo_eff(s):
    # effective lowest exponent for window propagation: an empty support
    # means "zero as far as we know", justified up to the window bound
    return s.lo if s.coeffs else s.order


def series_mul(a, b):
    den, ca, cb = _align(a, b)
    order = min(a.order + _lo_eff(b), b.order + _lo_eff(a))
    cutoff = ceil(order * den)
    if _all_int(ca) and _all_int(cb):
        out = _mul_kronecker(ca, cb, cutoff)
    else:
        out = _mul_pairs(ca, cb, cutoff)
    return QSeries(out, order, den)


def _all_int(coeffs):
    return all(type(v) is int for v in coeffs.values())


def _mul_pairs(ca, cb, cutoff):
    """Coefficients of the product at keys below the cutoff, one pair of
    terms at a time: the kernel for Fraction and Cyc values."""
    out = {}
    for ka, va in ca.items():
        for kb, vb in cb.items():
            k = ka + kb
            if k < cutoff:
                out[k] = cadd(out.get(k, 0), cmul(va, vb))
    return out


def _mul_kronecker(ca, cb, cutoff):
    """_mul_pairs for int values by Kronecker substitution.

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
    return {base + g * j: v - half
            for j, v in enumerate(int.from_bytes(raw[i:i + s], "little")
                                  for i in range(0, s * n, s))
            if v != half}


def _pack(coeffs, keys, lo, g, s, half):
    """sum_k coeffs[k] 2^(8s (k - lo) / g) over keys, as one int."""
    m = (max(keys) - lo) // g + 1
    zero = half.to_bytes(s, "little")
    slots = [zero] * m
    for k in keys:
        slots[(k - lo) // g] = (coeffs[k] + half).to_bytes(s, "little")
    return (int.from_bytes(b"".join(slots), "little")
            - int.from_bytes(zero * m, "little"))


def _reciprocal(a):
    """1/a for a series with nonempty support (Laurent inversion)."""
    if not a.coeffs:
        raise NonInvertibleLeadingTerm("series has no known nonzero term")
    den = a.den
    keys = sorted(a.coeffs)
    l = keys[0]
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
        if not ciszero(acc):
            binv[n] = cneg(acc)
    out = {k - l: cmul(v, c0inv) for k, v in binv.items()}
    return QSeries(out, Fraction(rel - l, den), den)


def series_pow(a, e):
    """a**e for integer e (negative allowed when a has an invertible leading
    term)."""
    if e == 0:
        # the window of a**0 is still limited by the relative precision of a
        return QSeries({0: Fraction(1)}, a.order - _lo_eff(a), a.den)
    if e < 0:
        return series_pow(_reciprocal(a), -e)
    result = None
    base = a
    k = e
    while k:
        if k & 1:
            result = base if result is None else series_mul(result, base)
        k >>= 1
        if k:
            base = series_mul(base, base)
    return result


def series_rescale(a, t):
    """q -> q^t for a positive rational t (exponents scale by t)."""
    t = Fraction(t)
    if t <= 0:
        raise Divergent(f"q -> q^{t} leaves no exponent window")
    coeffs = {k * t.numerator: v for k, v in a.coeffs.items()}
    return QSeries(coeffs, a.order * t, a.den * t.denominator)


def series_half_shift(a, s):
    """tau -> tau + s for rational s: coefficient at exponent x picks up
    e^{2 pi i s x}."""
    # e^{2 pi i t k}, t = s/den, depends on k only mod the den of t: one
    # root per residue class met
    t = Fraction(s) / a.den
    roots = {}
    out = {}
    for k, v in a.coeffs.items():
        r = k % t.denominator
        root = roots.get(r)
        if root is None:
            root = roots[r] = ex(t * r)
        out[k] = cmul(v, root)
    return QSeries(out, a.order, a.den)


def _arg_transform(f, A, B):
    """f(A tau + B): the half-shift by B, then q -> q^A."""
    if B:
        f = series_half_shift(f, B)
    if A != 1:
        f = series_rescale(f, A)
    return f


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


def series_first_mismatch(a, b):
    """(x, a_x, b_x) at the least exponent x below both windows where the
    coefficients of a and b differ, or None if they agree on the overlap."""
    den, ca, cb = _align(a, b)
    cutoff = ceil(min(a.order, b.order) * den)
    zero = Fraction(0)
    for k in sorted(ca.keys() | cb.keys()):
        if k >= cutoff:
            break
        va, vb = ca.get(k, zero), cb.get(k, zero)
        if va != vb:
            return Fraction(k, den), va, vb
    return None


def series_verdict(lhs, rhs):
    """The one verdict on an identity lhs = rhs of two series:
    {"status": "verified", "depth": w} when they agree below the shared
    window w, else {"status": "mismatch", "exponent": x, "lhs": a,
    "rhs": b} at the least exponent x where they differ."""
    bad = series_first_mismatch(lhs, rhs)
    if bad is None:
        return {"status": "verified", "depth": min(lhs.order, rhs.order)}
    x, a, b = bad
    return {"status": "mismatch", "exponent": x, "lhs": a, "rhs": b}


def series_eq(a, b):
    """Equality of all coefficients on the overlap of the two windows."""
    return series_first_mismatch(a, b) is None
