"""Eta quotients: q-expansion, Fricke involution, logarithmic derivative.

An :class:`EtaQuotient` is a finite product  prod_i eta(n_i tau)^{d_i}  with
integer exponents d_i.  Expansions keep the fractional q^{n/24} prefactors
exactly (exponent denominator 24).
"""

from fractions import Fraction
from math import ceil
from operator import mul

from .arith import prime_factorization, sigma1
from .errors import InsufficientDepth, LevelMismatch, NotConstant, ParseError
from .series import QSeries, _pack, _slot_bytes, series_mul

__all__ = [
    "EtaQuotient", "eta_expand", "eta_fricke", "eta_dlog",
    "verify_fricke_constant", "parse_eta", "format_eta",
]


class EtaQuotient:
    """factors: tuple of (n, d) pairs with n >= 1, d != 0, n strictly
    increasing."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        merged = {}
        for n, d in factors:
            if n < 1:
                raise LevelMismatch(f"eta factor level {n} is not positive")
            merged[n] = merged.get(n, 0) + d
        self.factors = tuple(sorted((n, d) for n, d in merged.items() if d))

    def __repr__(self):
        return f"EtaQuotient({format_eta(self)!r})"

    def __eq__(self, other):
        return isinstance(other, EtaQuotient) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def prefactor_exponent(self):
        """Exponent of the leading q-power: sum n_i d_i / 24."""
        return Fraction(sum(n * d for n, d in self.factors), 24)


def parse_eta(text):
    """Parse '1^4 2^4 / 3^4 6^4' (or '1^24/2^24') into an EtaQuotient."""
    num, _, den = text.partition("/")
    factors = []
    for part, sign in ((num, 1), (den, -1)):
        for tok in part.split():
            n, caret, e = tok.partition("^")
            try:
                factors.append((int(n), sign * (int(e) if caret else 1)))
            except ValueError:
                raise ParseError(f"bad eta factor {tok!r}") from None
    return EtaQuotient(factors)


def format_eta(e):
    num = " ".join(f"{n}^{d}" for n, d in e.factors if d > 0)
    den = " ".join(f"{n}^{-d}" for n, d in e.factors if d < 0)
    if not den:
        return num
    return f"{num} / {den}" if num else f"1 / {den}"


def eta_expand(e, order):
    """q-expansion of the quotient, justified for exponents < order.

    Exponents are rationals with denominator dividing 24.  The unit part
    U = prod_i prod_{k>=1} (1 - q^{n_i k})^{d_i} = sum a_N q^N satisfies
    q U'/U = sum_{N>=1} b_N q^N with b_N the eta_dlog coefficients, hence
    N a_N = sum_{k=1..N} b_k a_{N-k}: an exact integer recurrence.

    The recurrence runs in blocks of B = _BLOCK = 64 coefficients.  Within
    a block each a_N takes a dot product over the block's own earlier
    terms.  Once a block a_t..a_{t+B-1} is final, its share of every later
    N a_N is one convolution with b_1, b_2, ...: a single bigint multiply
    by Kronecker substitution, with slots wide enough for
    max|a_block| * max|b| * B plus a sign bit, the bound of series_mul.
    b is packed once per expansion, at the width max|b| needs, and each
    block widens it to its own slots by byte copies (_add_block); of each
    product only the slots of the coefficients past the block are
    decoded.  A block that is all zero adds nothing and is skipped (its
    slot bound is 0).  The last block also takes the tail shorter than B,
    so a window of fewer than 2B coefficients is the plain loop alone and
    packs nothing.
    """
    order = Fraction(order)
    shift = e.prefactor_exponent()
    den = shift.denominator
    # a_N sits at exponent shift + N, so N ranges over 0 <= N < order - shift
    rel = order - shift
    a = _unit_coeffs(e, max(0, ceil(rel)))
    return QSeries({shift.numerator + N * den: aN for N, aN in enumerate(a)},
                   order, den)


# coefficients per block of the eta recurrence (see eta_expand)
_BLOCK = 64


def _unit_coeffs(e, count):
    """a_0 .. a_{count-1} of the unit part of the quotient, as ints."""
    return _unit_recurrence(_dlog_coeffs(e, count), _BLOCK)


def _unit_recurrence(b, block):
    """a_0 = 1 and N a_N = sum_{k=1..N} b_k a_{N-k} for 0 < N < len(b),
    computed in blocks of `block` coefficients (see eta_expand)."""
    count = len(b)
    a = [1] if count else []
    # blocks start at multiples of `block`; the last one runs to count, so
    # that a tail shorter than a block pays for no product of its own
    last = max(count // block - 1, 0) * block
    for N in range(1, block if last else count):
        a.append(sum(map(mul, b[1:N + 1], reversed(a))) // N)
    if not last:
        return a
    # late[N]: the part of N a_N from the blocks finished so far
    late = [0] * count
    bmax = max(map(abs, b))
    # b_1, b_2, ... packed once, each offset by 2^(8 wb - 1) in wb bytes
    wb = _slot_bytes(bmax)
    raw = b"".join([(v + (1 << (8 * wb - 1))).to_bytes(wb, "little")
                    for v in b[1:]])
    for s in range(block, last + 1, block):
        _add_block(late, a, raw, wb, s - block, bmax)
        for N in range(s, count if s == last else s + block):
            # reversed(a) runs a_{N-1} .. a_s against b_1 .. b_{N-s}
            a.append((late[N] + sum(map(mul, b[1:N - s + 1], reversed(a))))
                     // N)
    return a


def _add_block(late, a, raw, wb, t, bmax):
    """late[N] += sum_{t <= j < s} a_j b_{N-j} for s <= N < len(late),
    where s = len(a): one Kronecker product of the finished block
    a_t..a_{s-1} with b_1..b_n, n = len(late) - 1 - t, whose slot
    i + k - 1 holds a_{t+i} b_k.

    raw is b_1, b_2, ... packed once per expansion, in wb-byte slots each
    offset by hb = 2^(8 wb - 1).  The block's own slot width w >= wb comes
    from its max|a|.  wb strided byte copies widen b_1..b_n to w-byte
    slots, and subtracting hb from every slot leaves the int that _pack
    would give.  Of the product only slots s-t-1 .. n-1, those of N >= s,
    are decoded.  The offset half = 2^(8w - 1) goes into all n slots
    first, so that the slots below s, which may be negative, borrow
    nothing from the ones above; then one mask, one to_bytes and one
    int.from_bytes per decoded slot."""
    s, n = len(a), len(late) - 1 - t
    bound = max(map(abs, a[t:])) * bmax * (s - t)
    if not bound:
        # a zero block adds nothing, and 1-byte slots could not hold b
        return
    w = _slot_bytes(bound)
    half = 1 << (8 * w - 1)
    wide = bytearray(w * n)
    for i in range(wb):
        wide[i::w] = raw[i:wb * n:wb]
    # a 1 in each of the n slots
    ones = int.from_bytes((1).to_bytes(w, "little") * n, "little")
    c = (_pack(a, range(t, s), t, 1, w, half)
         * (int.from_bytes(wide, "little") - (1 << (8 * wb - 1)) * ones)
         + half * ones)
    out = (c & (1 << 8 * w * n) - 1).to_bytes(w * n, "little")
    late[s:] = [x + int.from_bytes(out[i:i + w], "little") - half
                for x, i in zip(late[s:], range(w * (s - t - 1), w * n, w))]


def _dlog_coeffs(e, count):
    """b_0 = 0, b_1 .. b_{count-1} of q U'/U, as ints:
    b_N = -sum_{n_i | N} d_i n_i sigma_1(N / n_i)."""
    b = [0] * count
    for n, d in e.factors:
        for N in range(n, count, n):
            b[N] -= d * n * sigma1(N // n)
    return b


def eta_fricke(e, m):
    """Image of the quotient under tau -> -1/(m tau).

    Every factor level must divide m.  Returns (EtaQuotient, multiplier)
    where the multiplier is the exact rational constant
    prod (m/n_i)^{d_i/2} (which must be rational, else LevelMismatch) and
    eta(n tau) |W_m picks up the factor (m/n)^{1/2} * (stuff) * eta((m/n) tau)
    up to the standard automorphy; for weight-0 quotients the product of the
    tau-dependent factors cancels.
    """
    for n, _ in e.factors:
        if m % n != 0:
            raise LevelMismatch(f"eta factor {n} does not divide level {m}")
    image = EtaQuotient(tuple((m // n, d) for n, d in e.factors))
    # accumulate prime exponents of prod (m/n)^d, then halve them
    expo = {}
    for n, d in e.factors:
        for p, k in prime_factorization(m // n).items():
            expo[p] = expo.get(p, 0) + d * k
    mult = Fraction(1)
    for p, a in expo.items():
        if a % 2:
            raise LevelMismatch(f"multiplier irrational: {p}^({a}/2) "
                                f"(weight/genus mismatch)")
        mult *= Fraction(p) ** (a // 2)
    return image, mult


def _fricke_constant(f, e, m):
    """Check that e * (e|W_m) is constant, given f = eta_expand(e, order);
    returns the constant and the window of the checked product.

    Raises NotConstant with the first offending exponent otherwise.  (For
    weight-0 quotients whose factors pair up as d(m/n) = -d(n) the product
    telescopes to the multiplier; the series check keeps us honest.)
    """
    image, mult = eta_fricke(e, m)
    prod = series_mul(f, eta_expand(image, f.order))
    if prod.order <= 0:
        raise InsufficientDepth(f"order {f.order} does not reach q^0")
    for k in sorted(prod.coeffs):
        if k != 0:
            raise NotConstant(Fraction(k, prod.den))
    return Fraction(prod.coeff(0)) * mult, prod.order


def verify_fricke_constant(e, m, order):
    """Check that e * (e|W_m) is constant to the requested order, returning
    the constant; see _fricke_constant."""
    return _fricke_constant(eta_expand(e, order), e, m)[0]


def eta_dlog(e, order):
    """Logarithmic derivative  (1/2 pi i) d/dtau log(e), as a q-series.

    Constant term sum_i d_i n_i / 24, a Fraction; coefficient of q^N
    (N >= 1) is the int -sum_{n_i | N} d_i n_i sigma_1(N / n_i).
    """
    coeffs = dict(enumerate(_dlog_coeffs(e, max(0, ceil(order)))))
    coeffs[0] = e.prefactor_exponent()
    return QSeries(coeffs, order)
