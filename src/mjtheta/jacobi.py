"""Coefficient tables of Jacobi forms and what the verdicts read from them.

The central object is :class:`CoeffTable`: a sparse store of Fourier
coefficients C(D, r) for a (mock/skew) Jacobi form of index m, indexed by the
discriminant D = r^2 - 4mn and the residue r mod 2m.  Its docstring states
the residue rule that every table obeys.

On top of the tables live:

* ez_apply          -- the action phi -> phi . a of a in O_m
                       (C(D,r) -> C(D,ra))
* sz_lift           -- the lift of a table to a q-series
* shadow_kernel     -- the theta-kernel combination attached to an eta
                       quotient, generated from its closed coefficient formula
* h_stream          -- the theta-decomposition components as q-series
"""

import math
from fractions import Fraction
from math import isqrt

from .arith import divisors, is_fundamental, is_square, kronecker
from .cyclo import cadd, ciszero, cmul
from .errors import (
    BadParity, CongruenceViolation, InsufficientDepth, LevelMismatch,
    NotFundamental,
)
from .series import (
    QSeries, _arg_transform, series_add, series_scale, series_slice,
)

__all__ = [
    "CoeffTable", "omega_entry", "ez_apply", "sz_lift", "shadow_kernel",
    "shadow_coeff", "h_stream", "stream_combination",
]


NEG_INF = -math.inf
POS_INF = math.inf


def _canonical(m, parity, r):
    """(rc, sign) with C(D, r) = sign C(D, rc) and 0 <= rc <= m, for a table
    of index m and the given parity; sign 0 where parity -1 forces
    C(D, r) = 0, at r = 0 and r = m mod 2m."""
    r %= 2 * m
    if r > m:
        return 2 * m - r, parity
    if parity == -1 and r in (0, m):
        return r, 0
    return r, 1


class CoeffTable:
    """Sparse table of coefficients C(D, r) for an index-m Jacobi form.

    The residue rule: C(D, r) depends on r mod 2m, and C(D, -r) =
    parity * C(D, r).  So every read reduces to a canonical residue
    0 <= rc <= m with a sign (see _canonical), and an odd table (parity -1)
    vanishes at r = 0 and r = m: those are structural zeros, never stored.
    Inside a residue's justified range [lo, hi] an absent key means the
    coefficient is zero; outside it any read raises InsufficientDepth.

    parity: s with C(D, -r) = s C(D, r).
    entries: {(D, r): value} with 0 <= r <= m, D = r^2 mod 4m, value != 0.
    ranges: {r: (lo, hi)} justified discriminant window per canonical
        residue; residues missing from `ranges` carry no data at all.
    """

    __slots__ = ("m", "parity", "entries", "ranges")

    def __init__(self, m, parity, entries, ranges):
        if parity not in (1, -1):
            raise BadParity(f"parity {parity} is not +1 or -1")
        self.m = m
        self.parity = parity
        self.ranges = dict(ranges)
        self.entries = {}
        # the residues at which the rule forces C(D, r) = 0
        zeros = [r for r in (0, m) if not _canonical(m, parity, r)[1]]
        for (D, r), v in entries.items():
            if ciszero(v):
                continue
            if not 0 <= r <= m or (D - r * r) % (4 * m):
                raise CongruenceViolation(
                    f"C({D}, {r}): need 0 <= r <= {m} and D = r^2 mod {4 * m}")
            if r in zeros:
                raise CongruenceViolation(
                    f"C({D}, {r}) = {v}: the table is odd, so it vanishes "
                    f"at r = {r}")
            lo, hi = self.ranges.get(r, (POS_INF, NEG_INF))
            if not lo <= D <= hi:
                raise InsufficientDepth(
                    f"C({D}, {r}) outside the justified range of residue {r}")
            self.entries[(D, r)] = v

    def get(self, D, r):
        """C(D, r); raises InsufficientDepth outside the justified range."""
        m = self.m
        rc, sign = _canonical(m, self.parity, r)
        if not sign or (D - rc * rc) % (4 * m):
            return 0
        if rc not in self.ranges:
            raise InsufficientDepth(f"no data for residue {r} (index {m})")
        lo, hi = self.ranges[rc]
        if not lo <= D <= hi:
            raise InsufficientDepth(
                f"C({D}, {r}) outside justified range [{lo}, {hi}]")
        v = self.entries.get((D, rc), 0)
        return v if sign == 1 else cmul(sign, v)

    def __repr__(self):
        return (f"<CoeffTable m={self.m} parity={self.parity:+d} "
                f"residues={sorted(self.ranges)} "
                f"entries={len(self.entries)}>")


def table_lin_comb(weighted_tables):
    """Exact linear combination of tables with equal (m, parity).

    Justified ranges intersect; residues must be known in every summand to
    survive.
    """
    weighted_tables = list(weighted_tables)
    if len({(t.m, t.parity) for _, t in weighted_tables}) != 1:
        raise LevelMismatch("table_lin_comb needs one or more tables of one "
                            "index and parity")
    m = weighted_tables[0][1].m
    parity = weighted_tables[0][1].parity
    ranges = {}
    for r in range(m + 1):
        if all(r in t.ranges for _, t in weighted_tables):
            lo = max(t.ranges[r][0] for _, t in weighted_tables)
            hi = min(t.ranges[r][1] for _, t in weighted_tables)
            if lo <= hi:
                ranges[r] = (lo, hi)
    entries = {}
    for w, t in weighted_tables:
        for (D, r), v in t.entries.items():
            if r in ranges and ranges[r][0] <= D <= ranges[r][1]:
                entries[(D, r)] = cadd(entries.get((D, r), 0), cmul(w, v))
    return CoeffTable(m, parity, entries, ranges)


# -- Omega matrices -------------------------------------------------------

def omega_entry(m, n, r, rp):
    """Entry Omega_m(n)_{r, r'} in {0, 1}."""
    return int((r + rp) % (2 * n) == 0 and (r - rp) % (2 * m // n) == 0)


# -- Eichler--Zagier action ----------------------------------------------

def ez_apply(t, a):
    """phi . a: C'(D, r) = C(D, r a), for a in O_m.  Each residue keeps the
    window of r a, and each entry the congruence D = (r a)^2 = r^2 mod 4m."""
    m, parity = t.m, t.parity
    if (a * a - 1) % (4 * m):
        raise CongruenceViolation(
            f"{a} is not in O_{m}: a^2 != 1 mod {4 * m}")
    by_res = {}
    for (D, r), v in t.entries.items():
        by_res.setdefault(r, []).append((D, v))
    ranges, entries = {}, {}
    for r in range(m + 1):
        sc, sign = _canonical(m, parity, r * a)
        if not sign:
            ranges[r] = (NEG_INF, POS_INF)
        elif sc in t.ranges:
            ranges[r] = t.ranges[sc]
            for D, v in by_res.get(sc, ()):
                entries[(D, r)] = v if sign == 1 else cmul(sign, v)
    return CoeffTable(m, parity, entries, ranges)


# -- the lift -------------------------------------------------------------

def _power(d, e):
    """d^e exactly: an int for e >= 0, else a Fraction (d ** e is a float
    there)."""
    return d ** e if e >= 0 else Fraction(1, d ** -e)


def sz_lift(t, D, r, k, order):
    """The lift S_{D,r}: n-th coefficient sum_{d|n} d^{k-2} (D/d)
    C(n^2 D / d^2, n r / d), for D fundamental.

    The n = 0 coefficient is emitted as 0 (the lift's constant term is a
    multiple of an inner product not visible from the table; comparisons
    should use n >= 1).  The window `order` may be rational: the
    coefficients are those of n < order.
    """
    if not is_fundamental(D):
        raise NotFundamental(D)
    count = max(0, math.ceil(order))
    chi = [0] + [kronecker(D, d) for d in range(1, count)]
    # with e = n / d the read is C(e^2 D, e r): one per e < order
    c = [0] + [t.get(e * e * D, e * r) for e in range(1, count)]
    coeffs = {}
    for n in range(1, count):
        acc = 0
        for d in divisors(n):
            if chi[d]:
                acc = cadd(acc, cmul(_power(d, k - 2) * chi[d], c[n // d]))
        if not ciszero(acc):
            coeffs[n] = acc
    return QSeries(coeffs, order)


# -- theta kernels from eta quotients -------------------------------------

def shadow_coeff(eta_quotient, m, D, r):
    """Closed-form coefficient of the theta kernel attached to the quotient:
    for D = j^2 a positive square, j (Omega_{j,r} - Omega_{-j,r}) where
    Omega = sum_i d_i Omega_m(n_i); zero for non-square D."""
    if D <= 0 or not is_square(D):
        return 0
    if (D - r * r) % (4 * m) != 0:
        return 0
    j = isqrt(D)
    acc = 0
    for n, d in eta_quotient.factors:
        acc += d * (omega_entry(m, n, j % (2 * m), r % (2 * m))
                    - omega_entry(m, n, (-j) % (2 * m), r % (2 * m)))
    return j * acc


def shadow_kernel(eta_quotient, m, depth):
    """The kernel table, justified for all discriminants D <= depth.

    The coefficients are those of shadow_coeff.  Its Omega entries and its
    congruence j^2 = r^2 mod 4m depend on j only through s = j mod 2m, so
    C(j^2, r) = j w(s, r) with w(s, r) = shadow_coeff(s^2, r) / s taken once
    per residue pair (w(0, r) = 0).  Parity -1 is structural.  Every D in
    the range (-inf, depth] other than the stored squares j^2 reads 0, so
    no residue runs out of depth below D = 0.
    """
    for n, _ in eta_quotient.factors:
        if m % n != 0:
            raise LevelMismatch(f"eta factor {n} does not divide index {m}")
    top = isqrt(max(0, math.floor(depth)))
    weights = [[]] + [
        [(r, w) for r in range(m + 1) if (s * s - r * r) % (4 * m) == 0
         and (w := shadow_coeff(eta_quotient, m, s * s, r) // s)]
        for s in range(1, min(2 * m, top + 1))]
    entries = {(j * j, r): j * w for j in range(1, top + 1)
               for r, w in weights[j % (2 * m)]}
    ranges = {r: (NEG_INF, depth) for r in range(m + 1)}
    return CoeffTable(m, -1, entries, ranges)


# -- H-streams ------------------------------------------------------------

def _stream_window(t, r):
    """The largest order h_stream(t, r, order) accepts: -D/4m for the first
    unjustified D = r^2 mod 4m, the largest of the class below the table's
    range for r; math.inf when no D is missing."""
    m = t.m
    rc, sign = _canonical(m, t.parity, r)
    if not sign:
        return math.inf
    if rc not in t.ranges:
        raise InsufficientDepth(f"no data for residue {r}")
    lo = t.ranges[rc][0]
    if lo == NEG_INF:
        return math.inf
    return Fraction((lo - 1 - rc * rc) % (4 * m) + 1 - lo, 4 * m)


def h_stream(t, r, order):
    """The r-th theta-decomposition component as a q-series:
    sum_D C(D, r) q^{-D/4m}, over all justified D with -D/4m < order.

    Requires order <= _stream_window(t, r), i.e. the table justified down
    to every D > -4m*order of the class; raises InsufficientDepth otherwise.
    """
    m = t.m
    order = Fraction(order)
    rc, sign = _canonical(m, t.parity, r)
    if not sign:
        return QSeries({}, order, 4 * m)
    window = _stream_window(t, r)
    lo, hi = t.ranges[rc]
    if order > window:
        # deepest discriminant of the class with -D/4m < order
        need = rc * rc - 4 * m * (
            math.ceil(Fraction(rc * rc, 4 * m) + order) - 1)
        raise InsufficientDepth(
            f"residue {r}: justified down to D={lo}, need D>={need}")
    if hi == POS_INF:
        # supported-below tables (e.g. optimal forms): nothing above the
        # largest stored entry, start there
        top = max((D for (D, rr) in t.entries if rr == rc),
                  default=rc * rc)
        top = max(top, rc * rc)
    else:
        top = rc * rc + 4 * m * ((hi - rc * rc) // (4 * m))
    coeffs = {}
    D = top
    while -Fraction(D, 4 * m) < order and (lo == NEG_INF or D >= lo):
        v = t.get(D, r)
        if not ciszero(v):
            coeffs[-D] = v
        D -= 4 * m
    return QSeries(coeffs, order, 4 * m)


def stream_combination(t, terms, order, s=0, b=1, arg=(1, 0), pre=1,
                       const=0):
    """pre * (sum_i c_i H_{r_i}) | [s; b] (A tau + B) + const, for terms
    [(c_i, r_i)] and arg (A, B), the H_r streams of the table t.

    Its window is min(order, the window t justifies through the slice and
    the substitution); InsufficientDepth when that window reaches no
    exponent (is <= 0).
    """
    A, B = arg
    s = Fraction(s)
    avail = min(_stream_window(t, r) for _c, r in terms)
    stream_order = min(avail, Fraction(order) / A + s)
    if stream_order <= s:
        raise InsufficientDepth(
            f"residues {sorted({r for _c, r in terms})} of the index-{t.m} "
            f"table: window {stream_order} reaches no exponent past the "
            f"shift {s}")
    g = None
    for c, r in terms:
        f = h_stream(t, r, stream_order)
        f = f if c == 1 else series_scale(f, c)
        g = f if g is None else series_add(g, f)
    if s or b != 1:
        g = series_slice(g, s, b)
    g = _arg_transform(g, A, B)
    if pre != 1:
        g = series_scale(g, pre)
    return series_add(g, QSeries({0: const}, g.order)) if const else g
