"""Coefficient tables of Jacobi forms and what the verdicts read from them.

The central object is :class:`CoeffTable`: a sparse store of Fourier
coefficients C(D, r) for a (mock/skew) Jacobi form of index m, indexed by the
discriminant D = r^2 - 4mn and the residue r mod 2m.  The optimal forms
have weight 1, so they are odd in z: C(D, -r) = -C(D, r) (Eichler--Zagier,
The Theory of Jacobi Forms, Thm 2.2).  Every table here is odd, the shadow
kernels included; the CoeffTable docstring states the residue rule.

On top of the tables live:

* ez_apply          -- the action phi -> phi . a of a in O_m
                       (C(D,r) -> C(D,ra))
* sz_lift           -- the lift S_{1,1} of a table to a q-series
* shadow_kernel     -- the theta kernel of an eta quotient
                       prod_i eta(n_i tau)^{d_i}, by its closed form
                       C(j^2, r) = j sum_i d_i (Omega_m(n_i)_{j,r}
                                                - Omega_m(n_i)_{-j,r})
* h_stream          -- the theta-decomposition components as q-series
* Stream            -- a sliced, substituted combination of them, built by
                       stream_combination
"""

import math
from fractions import Fraction
from math import isqrt

from .errors import (
    CongruenceViolation, InsufficientDepth, LevelMismatch,
    NonIntegralCoefficient,
)
from .series import (
    QSeries, series_add, series_half_shift, series_rescale, series_scale,
    series_slice,
)

__all__ = [
    "CoeffTable", "ez_apply", "sz_lift", "shadow_kernel", "h_stream",
    "Stream", "stream_combination",
]


NEG_INF = -math.inf
POS_INF = math.inf


def _canonical(m, r):
    """(rc, sign) with C(D, r) = sign C(D, rc) and 0 <= rc <= m, for a table
    of index m; sign 0 at r = 0 and r = m mod 2m, where C(D, r) = 0."""
    r %= 2 * m
    if r > m:
        return 2 * m - r, -1
    if r == 0 or r == m:
        return r, 0
    return r, 1


class CoeffTable:
    """Sparse table of coefficients C(D, r) for an index-m Jacobi form.

    The residue rule: C(D, r) depends on r mod 2m, and C(D, -r) =
    -C(D, r), since a Jacobi form of weight 1 is odd in z.  So every read
    reduces to a canonical residue 0 <= rc <= m with a sign (see
    _canonical), and the table vanishes at r = 0 and r = m: those are
    structural zeros, never stored.  Inside a residue's justified range
    [lo, hi] an absent key means the coefficient is zero; outside it any
    read raises InsufficientDepth.

    Every value is an int, as a Borcherds exponent C(D n^2, r n) must be
    (Borcherds, Invent. Math. 132, 1998); any other type raises
    NonIntegralCoefficient.

    entries: {(D, r): int} with 0 <= r <= m, D = r^2 mod 4m; zeros dropped.
    ranges: {r: (lo, hi)} justified discriminant window per canonical
        residue; residues missing from `ranges` carry no data at all.
    """

    __slots__ = ("m", "entries", "ranges")

    def __init__(self, m, entries, ranges):
        self.m = m
        self.ranges = dict(ranges)
        self.entries = {}
        for (D, r), v in entries.items():
            if type(v) is not int:
                raise NonIntegralCoefficient(
                    f"C({D}, {r}) = {v!r}: table values are ints")
            if not v:
                continue
            if not 0 <= r <= m or (D - r * r) % (4 * m):
                raise CongruenceViolation(
                    f"C({D}, {r}): need 0 <= r <= {m} and D = r^2 mod {4 * m}")
            if r == 0 or r == m:
                raise CongruenceViolation(
                    f"C({D}, {r}) = {v}: every table vanishes at r = {r}")
            lo, hi = self.ranges.get(r, (POS_INF, NEG_INF))
            if not lo <= D <= hi:
                raise InsufficientDepth(
                    f"C({D}, {r}) outside the justified range of residue {r}")
            self.entries[(D, r)] = v

    def get(self, D, r):
        """C(D, r); raises InsufficientDepth outside the justified range."""
        m = self.m
        rc, sign = _canonical(m, r)
        if not sign or (D - rc * rc) % (4 * m):
            return 0
        if rc not in self.ranges:
            raise InsufficientDepth(f"no data for residue {r} (index {m})")
        lo, hi = self.ranges[rc]
        if not lo <= D <= hi:
            raise InsufficientDepth(
                f"C({D}, {r}) outside justified range [{lo}, {hi}]")
        return sign * self.entries.get((D, rc), 0)

    def __repr__(self):
        return (f"<CoeffTable m={self.m} residues={sorted(self.ranges)} "
                f"entries={len(self.entries)}>")


def table_sum(tables):
    """The sum of tables of one index m.

    Justified ranges intersect; residues must be known in every summand to
    survive.
    """
    tables = list(tables)
    if len({t.m for t in tables}) != 1:
        raise LevelMismatch("table_sum needs one or more tables of one index")
    m = tables[0].m
    ranges = {}
    for r in range(m + 1):
        if all(r in t.ranges for t in tables):
            lo = max(t.ranges[r][0] for t in tables)
            hi = min(t.ranges[r][1] for t in tables)
            if lo <= hi:
                ranges[r] = (lo, hi)
    entries = {}
    for t in tables:
        for (D, r), v in t.entries.items():
            if r in ranges and ranges[r][0] <= D <= ranges[r][1]:
                entries[(D, r)] = entries.get((D, r), 0) + v
    return CoeffTable(m, entries, ranges)


# -- Eichler--Zagier action ----------------------------------------------

def ez_apply(t, a):
    """phi . a: C'(D, r) = C(D, r a), for a in O_m.  Each residue keeps the
    window of r a, and each entry the congruence D = (r a)^2 = r^2 mod 4m."""
    m = t.m
    if (a * a - 1) % (4 * m):
        raise CongruenceViolation(
            f"{a} is not in O_{m}: a^2 != 1 mod {4 * m}")
    by_res = {}
    for (D, r), v in t.entries.items():
        by_res.setdefault(r, []).append((D, v))
    ranges, entries = {}, {}
    for r in range(m + 1):
        sc, sign = _canonical(m, r * a)
        if not sign:
            ranges[r] = (NEG_INF, POS_INF)
        elif sc in t.ranges:
            ranges[r] = t.ranges[sc]
            for D, v in by_res.get(sc, ()):
                entries[(D, r)] = sign * v
    return CoeffTable(m, entries, ranges)


# -- the lift -------------------------------------------------------------

def sz_lift(t, order):
    """The lift S_{1,1} of a table at weight 2: n-th coefficient
    sum_{e|n} C(e^2, e).

    The table's form has weight 1, so it is odd, C(D, -r) = -C(D, r), and
    S_{1,-1} = -S_{1,1}.  A Dirichlet sieve: each C(e^2, e) for e < order
    is read once and added at every multiple of e.

    The n = 0 coefficient is emitted as 0 (the lift's constant term is a
    multiple of an inner product not visible from the table; comparisons
    should use n >= 1).  The window `order` may be rational: the
    coefficients are those of n < order.
    """
    count = max(0, math.ceil(order))
    out = [0] * count
    for e in range(1, count):
        if v := t.get(e * e, e):
            for n in range(e, count, e):
                out[n] += v
    return QSeries(dict(enumerate(out)), order)


# -- theta kernels from eta quotients -------------------------------------

def shadow_kernel(eta_quotient, m, depth):
    """The kernel table, justified for all discriminants D <= depth.

    For the quotient prod_i eta(n_i tau)^{d_i} and j > 0 the coefficients
    are C(j^2, r) = j sum_i d_i (Omega_m(n_i)_{j,r} - Omega_m(n_i)_{-j,r})
    where j^2 = r^2 mod 4m.  The Omega entries and the congruence depend
    on j only through s = j mod 2m, so C(j^2, r) = j w(s, r), with the sum
    w(s, r) formed once per s < 2m and per r <= m of the square class of
    s^2 mod 4m (w(0, r) = 0, as its two Omega terms agree).  The kernel is
    odd, as Omega_m(n)_{j,-r} = Omega_m(n)_{-j,r}.  Every D in the range (-inf, depth] other than the stored
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
    return CoeffTable(m, entries, ranges)


# -- H-streams ------------------------------------------------------------

def _stream_window(t, r):
    """The largest order h_stream(t, r, order) accepts: -D/4m for the first
    unjustified D = r^2 mod 4m, the largest of the class below the table's
    range for r; math.inf when no D is missing."""
    m = t.m
    rc, sign = _canonical(m, r)
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
    rc, sign = _canonical(m, r)
    if not sign:
        return QSeries({}, order, 4 * m)
    if order > _stream_window(t, r):
        # deepest discriminant of the class with -D/4m < order
        need = rc * rc - 4 * m * (
            math.ceil(Fraction(rc * rc, 4 * m) + order) - 1)
        raise InsufficientDepth(
            f"residue {r}: justified down to D={t.ranges[rc][0]}, "
            f"need D>={need}")
    return QSeries({-D: sign * v for (D, rr), v in t.entries.items()
                    if rr == rc}, order, 4 * m)


class Stream:
    """pre * (sum_i c_i e(t_i) H_{r_i}) | [s; b] (A tau + B) + const, for
    terms [(c_i, r_i)] or [(c_i, r_i, t_i)] and arg (A, B), the H_r
    streams of the named lambency's table: a mock theta row, or one side
    of a multiplicative relation.  Every value is rational: a root of
    unity e(t) = e^{2 pi i t} is a term's turn t.  s, b and t are
    Fractions or strings such as "-1/24"; terms are stored as (c, r, t)."""

    __slots__ = ("lambency", "terms", "s", "b", "arg", "pre", "const")

    def __init__(self, lambency, terms, s=0, b=1, arg=(1, 0), pre=1,
                 const=0):
        self.lambency = lambency
        # (c, r) is (c, r, 0): Fraction() is 0
        self.terms = [(c, r, Fraction(*t)) for c, r, *t in terms]
        self.s = Fraction(s)
        self.b = Fraction(b)
        self.arg = (Fraction(arg[0]), Fraction(arg[1]))
        self.pre = pre
        self.const = const


def stream_combination(t, spec, order):
    """The series of the Stream spec, its H_r read from the table t.

    Each term is sliced and multiplied, key by key, by its phase
    e(t_i + B x) at the sliced exponent x, which must be +-1
    (IrrationalPhase names the exponent where it is not); the sum is then
    substituted q -> q^A.  Its window is min(order, the window t
    justifies through the slice and the substitution); InsufficientDepth
    when that window reaches no exponent (is <= 0).
    """
    A, B = spec.arg
    s = spec.s
    avail = min(_stream_window(t, r) for _c, r, _t in spec.terms)
    stream_order = min(avail, Fraction(order) / A + s)
    if stream_order <= s:
        raise InsufficientDepth(
            f"residues {sorted({r for _c, r, _t in spec.terms})} of the "
            f"index-{t.m} table: window {stream_order} reaches no exponent "
            f"past the shift {s}")
    g = None
    for c, r, turn in spec.terms:
        f = h_stream(t, r, stream_order)
        if s or spec.b != 1:
            f = series_slice(f, s, spec.b)
        if B or turn:
            f = series_half_shift(f, B, turn)
        f = f if c == 1 else series_scale(f, c)
        g = f if g is None else series_add(g, f)
    if A != 1:
        g = series_rescale(g, A)
    if spec.pre != 1:
        g = series_scale(g, spec.pre)
    return series_add(g, QSeries({0: spec.const}, g.order)) \
        if spec.const else g
