"""Coefficient tables of Jacobi forms and what the verdicts read from them.

The central object is :class:`CoeffTable`: a sparse store of Fourier
coefficients C(D, r) for a (mock/skew) Jacobi form of index m, indexed by the
discriminant D = r^2 - 4mn and the residue r mod 2m.  Its docstring states
the residue rule that every table obeys.

On top of the tables live:

* ez_apply          -- the action phi -> phi . a of a in O_m
                       (C(D,r) -> C(D,ra))
* sz_lift           -- the lift of a table to a q-series
* shadow_kernel     -- the theta kernel of an eta quotient
                       prod_i eta(n_i tau)^{d_i}, by its closed form
                       C(j^2, r) = j sum_i d_i (Omega_m(n_i)_{j,r}
                                                - Omega_m(n_i)_{-j,r})
* h_stream          -- the theta-decomposition components as q-series
"""

import math
import operator
from fractions import Fraction
from math import isqrt

from .arith import is_fundamental, kronecker_row
from .cyclo import _RATIONAL, cadd, ciszero, cmul
from .errors import (
    BadParity, CongruenceViolation, InsufficientDepth, LevelMismatch,
    NotFundamental,
)
from .series import (
    QSeries, _arg_transform, series_add, series_scale, series_slice,
)

__all__ = [
    "CoeffTable", "ez_apply", "sz_lift", "shadow_kernel", "h_stream",
    "stream_combination",
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

def sz_lift(t, D, r, k, order):
    """The lift S_{D,r}: n-th coefficient sum_{d|n} d^{k-2} (D/d)
    C(n^2 D / d^2, n r / d), for D fundamental.

    A Dirichlet sieve: with e = n / d the read is C(e^2 D, e r), so the
    c_e for e < order are read first, each weight d^{k-2} (D/d) is taken
    once, and each c_e != 0 adds its product with every weight to the
    coefficient at n = d e.  The sums are native when every c_e is an int
    or Fraction, else cadd/cmul for the whole lift.

    The n = 0 coefficient is emitted as 0 (the lift's constant term is a
    multiple of an inner product not visible from the table; comparisons
    should use n >= 1).  The window `order` may be rational: the
    coefficients are those of n < order.
    """
    if not is_fundamental(D):
        raise NotFundamental(D)
    count = max(0, math.ceil(order))
    c = [t.get(e * e * D, e * r) for e in range(1, count)]
    # d^(k-2) exactly: d ** (k - 2) is a float for k < 2
    w = [(d, x * d ** (k - 2) if k >= 2 else Fraction(x, d ** (2 - k)))
         for d, x in enumerate(kronecker_row(D, count)) if x]
    add, mul = ((operator.add, operator.mul)
                if all(type(v) in _RATIONAL for v in c) else (cadd, cmul))
    out = [0] * count
    for e, v in enumerate(c, start=1):
        if not ciszero(v):
            for d, x in w:
                if d * e >= count:
                    break
                out[d * e] = add(out[d * e], mul(x, v))
    return QSeries(dict(enumerate(out)), order)


# -- theta kernels from eta quotients -------------------------------------

def shadow_kernel(eta_quotient, m, depth):
    """The kernel table, justified for all discriminants D <= depth.

    For the quotient prod_i eta(n_i tau)^{d_i} and j > 0 the coefficients
    are C(j^2, r) = j sum_i d_i (Omega_m(n_i)_{j,r} - Omega_m(n_i)_{-j,r})
    where j^2 = r^2 mod 4m.  The Omega entries and the congruence depend
    on j only through s = j mod 2m, so C(j^2, r) = j w(s, r), with the sum
    w(s, r) formed once per s < 2m and per r <= m of the square class of
    s^2 mod 4m (w(0, r) = 0, as its two Omega terms agree).  Parity -1 is
    structural.  Every D in the range (-inf, depth] other than the stored
    squares j^2 reads 0, so no residue runs out of depth below D = 0.
    """
    for n, _ in eta_quotient.factors:
        if m % n != 0:
            raise LevelMismatch(f"eta factor {n} does not divide index {m}")
    top = isqrt(max(0, math.floor(depth)))
    # Omega_m(n)_{s,r} = 1 iff 2n | s + r and 2m/n | s - r, written as
    # (s + r) % 2n == (s - r) % (2m/n) == 0
    omegas = [(2 * n, 2 * m // n, d) for n, d in eta_quotient.factors]
    classes = {}
    for r in range(m + 1):
        classes.setdefault(r * r % (4 * m), []).append(r)
    weights = [
        [(r, w) for r in classes.get(s * s % (4 * m), ())
         if (w := sum(d * (((s + r) % a == (s - r) % b == 0)
                           - ((s - r) % a == (s + r) % b == 0))
                      for a, b, d in omegas))]
        for s in range(min(2 * m, top + 1))]
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
    The terms are the stored entries of r's canonical residue, with the
    residue rule's sign; QSeries cuts them at the window.
    """
    m = t.m
    order = Fraction(order)
    rc, sign = _canonical(m, t.parity, r)
    if not sign:
        return QSeries({}, order, 4 * m)
    if order > _stream_window(t, r):
        # deepest discriminant of the class with -D/4m < order
        need = rc * rc - 4 * m * (
            math.ceil(Fraction(rc * rc, 4 * m) + order) - 1)
        raise InsufficientDepth(
            f"residue {r}: justified down to D={t.ranges[rc][0]}, "
            f"need D>={need}")
    return QSeries({-D: v if sign == 1 else cmul(sign, v)
                    for (D, rr), v in t.entries.items() if rr == rc},
                   order, 4 * m)


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
