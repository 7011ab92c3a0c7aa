"""Eulerian series for the classical mock theta functions, and the verifier
tying each of them to a theta-coefficient stream of an optimal form.

Names are "order:name" ("3:psi", "5:F0", "8:U0", "2:mu", ...).  Summation
over n >= 0 is implicit in the registry entries, matching the usual table
conventions.  Two rows carry their customary constant inside the name:
"8:V0" denotes 1+V0 and "6:2mu" denotes 2mu = 1 + sum(...), keeping every
registered series integral.

Each table row states an identity

    eulerian(name)  =  pre * (sum_i c_i e(t_i) H_{r_i}) | [s; b] (A tau + B)
                       + const

where H_r is the r-th theta-coefficient stream of the named lambency's
distinguished form, c_i, pre and const are rationals, and the root of
unity e(t_i) = e^{2 pi i t_i} is given by its turn t_i (0 unless a term
says otherwise).  ROWS holds the right sides as jacobi.Stream data,
with pre = 1/2 unless a row says otherwise, and jacobi.stream_combination
builds them.
H_r lives on the exponents -r^2/4m + Z, so the slice meets its support
only if s = -r^2/4m (mod b) for every term r.  The source prints some
shifts only up to sign; the rows store them resolved, and that congruence
fixes the sign for all of them but 2:B (s = 1/2, where both signs qualify
and +1/2 puts the lead 1 at q^0).  6:psi and 8:S1 store the congruent
shift that lines the stream's lead up with the Eulerian lead.
"""

import math
from fractions import Fraction
from functools import partial
from itertools import count, takewhile, zip_longest

from .catalog import table_for
from .errors import InsufficientDepth, UnknownName
from .jacobi import Stream, stream_combination
from .series import (
    QSeries, _slot_bytes, _unpack, series_add, series_half_shift,
    series_rescale, series_scale, series_shift, series_verdict,
)

__all__ = [
    "eulerian", "EULERIAN_NAMES", "ROWS", "row_names",
    "verify_table14_15", "verify_watson", "verify_andrews_hickerson",
]


# -- packed products ------------------------------------------------------
#
# q -> X = 2^s maps Z[q]/(q^W) into Z/2^(sW) as a ring homomorphism, so a
# truncated int series is one integer with an s-bit slot per power of q,
# and every step below is exact modulo 2^(s w) for its window w: slots may
# wrap around in between, and only the decoded sum must fit its slots.
#
# The slot bound.  For A >= max(|c|, 1), (1 - A q^e)^-|p| majorises
# (1 - c q^e)^p coefficient by coefficient, as binom(|p|, i) is at most
# binom(|p|+i-1, i).  A spec (registry below) holds each exponent once, so
# if P sums |power| over a summand's specs, prod_{e>=1} (1 - A q^e)^-P
# majorises its product: its q^N coefficient is at most A^N p_P(N), p_P
# counting partitions in P colours.  As for P = 1 (Apostol, Introduction
# to Analytic Number Theory, Thm 14.5), on 0 < x < 1
# p_P(N) x^N <= prod (1 - x^e)^-P <= exp(P pi^2 x / 6(1 - x)), and
# x = 1/(1 + t), t = pi sqrt(P/6N) give p_P(N) <= exp(pi sqrt(2PN/3)).
# So no decoded coefficient exceeds (|const| + sum_n |sign_n|) A^(W-1)
# 2^_bits(P, W-1), with A and P over the summands whose sign_n != 0.

def _bits(P, N):
    """t with p_P(N) <= 2^t: the least t >= pi log2(e) sqrt(2PN/3), as
    pi log2(e) = 4.53236... < 4.5324 = 11331/2500."""
    m = -(-2 * 11331 ** 2 * P * N // (3 * 2500 ** 2))
    t = math.isqrt(m)
    return t + (t * t < m)


def _changes(old, new, w):
    """[(c, e, d)], one per factor that changes, e < w and c != 0: below
    q^w the product of the specs `old` times each (1 - c q^e)^d is that of
    `new`.  Specs pair by position, a missing one empty (c = 0).  A pair
    with equal c, j, k and power (most steps: only the count or the window
    moves) gains or drops the factors between its two run ends; one with
    equal c, k and power, and j apart by a multiple of k, changes only at
    the ends of its runs; any other pair is divided out and multiplied in
    whole."""
    out = []
    for (c, i, k, m, p), (c2, j, k2, n, p2) in zip_longest(
            old, new, fillvalue=(0, 0, 1, 0, 0)):
        # factors of each spec below w: exponents i <= e < a1, j <= e < b1
        a1 = i + k * m if i + k * m < w else i if w <= i else w + (i - w) % k
        b1 = (j + k2 * n if j + k2 * n < w else j if w <= j
              else w + (j - w) % k2)
        if i == j and c == c2 and k == k2 and p == p2:
            if b1 < a1:  # the run shrank: drop its tail
                a1, b1, p = b1, a1, -p
            while c and a1 < b1:
                out.append((c, a1, p))
                a1 += k
            continue
        if (c, k, p) != (c2, k2, p2) or (j - i) % k:
            runs = (c, k, i, a1, -p), (c2, k2, j, b1, p2)
        else:  # one progression: only the ends of the runs move
            runs = ((c, k, j, min(b1, i), p), (c, k, max(j, a1), b1, p),
                    (c, k, i, min(a1, j), -p), (c, k, max(i, b1), a1, -p))
        for c, k, lo, hi, d in runs:
            if c:
                out += [(c, e, d) for e in range(lo, hi, k)]
    return out


def _packed_sum(plan, const, order):
    """const + sum_n sign_n q^(lead_n) prod(specs_n) below `order`, as a
    QSeries with int coefficients and den 1.

    plan(W) yields the summands (lead_n, sign_n, specs_n) for the window
    W = max(math.ceil(order), 0); it runs once.  Summand n's product is
    n-1's masked to w_n = W - lead_n and stepped by _changes: a gained
    factor is one shift-subtract u - c (u << s e), a dropped one
    1/(1 - y), y = c X^e, as prod_j (1 + y^(2^j)).  Slots fit the bound
    above, with A, P and size read in one pass.  Leads must be >= 0
    and non-decreasing (else AssertionError): a wider window would read
    slots that were cut off and never stepped."""
    W = max(math.ceil(order), 0)
    summands = list(plan(W))
    A, P, size = 1, 0, abs(const)
    for _lead, sign, specs in summands:
        if sign:
            size += abs(sign)
            p = 0
            for c, _j, _k, _n, power in specs:
                A, p = max(A, abs(c)), p + abs(power)
            P = max(P, p)
    N = max(W - 1, 0)
    nbytes = _slot_bytes(size * A ** N << _bits(P, N))
    s = 8 * nbytes
    total, u, have, last = const, 1, [], 0
    for lead, sign, specs in summands:
        if lead < last:
            raise AssertionError(f"lead {lead} after lead {last}")
        w, last = W - lead, lead
        mask = (1 << (s * w)) - 1
        u &= mask
        for c, e, d in _changes(have, specs, w):
            while d > 0:
                u = (u - c * (u << (s * e))) & mask
                d -= 1
            while d < 0:
                y, t = c, e
                while t < w:
                    u = (u + y * (u << (s * t))) & mask
                    y, t = y * y, 2 * t
                d += 1
        have = specs
        total += sign * (u << (s * lead))
    return QSeries(_unpack(total, nbytes, W), order)


# -- Eulerian series ------------------------------------------------------
#
# Each entry: (leading exponent of the n-th summand,
#              [(c, j, k, count, power)] meaning (c q^j; q^k)_count ^ power,
#              overall sign of the n-th summand, constant term added);
# c, j >= 1 (or count 0) and k >= 1 are ints, count an int or math.inf

def _E(lead, factors, sign=None, const=0):
    return (lead, factors, sign or (lambda n: 1), const)

_alt = lambda n: (-1) ** n

EULERIAN_DEFS = {
    "3:psi": _E(lambda n: (n + 1) ** 2, lambda n: [(1, 1, 2, n + 1, -1)]),
    "3:nu": _E(lambda n: n * (n + 1), lambda n: [(-1, 1, 2, n + 1, -1)]),
    "3:f": _E(lambda n: n * n, lambda n: [(-1, 1, 1, n, -2)]),
    "3:phi": _E(lambda n: n * n, lambda n: [(-1, 2, 2, n, -1)]),
    "3:chi": _E(lambda n: n * n,
                lambda n: [(-1, 1, 1, n, 1), (-1, 3, 3, n, -1)]),
    "3:omega": _E(lambda n: 2 * n * (n + 1),
                  lambda n: [(1, 1, 2, n + 1, -2)]),
    "3:rho": _E(lambda n: 2 * n * (n + 1),
                lambda n: [(1, 1, 2, n + 1, 1), (1, 3, 6, n + 1, -1)]),
    "5:psi0": _E(lambda n: (n + 1) * (n + 2) // 2,
                 lambda n: [(-1, 1, 1, n, 1)]),
    "5:psi1": _E(lambda n: n * (n + 1) // 2, lambda n: [(-1, 1, 1, n, 1)]),
    "5:chi0": _E(lambda n: n, lambda n: [(1, n + 1, 1, n, -1)]),
    "5:chi1": _E(lambda n: n, lambda n: [(1, n + 1, 1, n + 1, -1)]),
    "5:phi0": _E(lambda n: n * n, lambda n: [(-1, 1, 2, n, 1)]),
    "5:phi1": _E(lambda n: (n + 1) ** 2, lambda n: [(-1, 1, 2, n, 1)]),
    "5:F0": _E(lambda n: 2 * n * n, lambda n: [(1, 1, 2, n, -1)]),
    "5:F1": _E(lambda n: 2 * n * n + 2 * n,
               lambda n: [(1, 1, 2, n + 1, -1)]),
    "5:f0": _E(lambda n: n * n, lambda n: [(-1, 1, 1, n, -1)]),
    "5:f1": _E(lambda n: n * (n + 1), lambda n: [(-1, 1, 1, n, -1)]),
    "6:sigma": _E(lambda n: (n + 1) * (n + 2) // 2,
                  lambda n: [(-1, 1, 1, n, 1), (1, 1, 2, n + 1, -1)]),
    "6:psi": _E(lambda n: (n + 1) ** 2,
                lambda n: [(1, 1, 2, n, 1), (-1, 1, 1, 2 * n + 1, -1)],
                _alt),
    "6:phi": _E(lambda n: n * n,
                lambda n: [(1, 1, 2, n, 1), (-1, 1, 1, 2 * n, -1)], _alt),
    "6:gamma": _E(lambda n: n * n,
                  lambda n: [(1, 1, 1, n, 1), (1, 3, 3, n, -1)]),
    "6:rho": _E(lambda n: n * (n + 1) // 2,
                lambda n: [(-1, 1, 1, n, 1), (1, 1, 2, n + 1, -1)]),
    "6:lambda": _E(lambda n: n,
                   lambda n: [(1, 1, 2, n, 1), (-1, 1, 1, n, -1)], _alt),
    "7:F0": _E(lambda n: n * n, lambda n: [(1, n + 1, 1, n, -1)]),
    "7:F1": _E(lambda n: (n + 1) ** 2, lambda n: [(1, n + 1, 1, n + 1, -1)]),
    "7:F2": _E(lambda n: n * n + n, lambda n: [(1, n + 1, 1, n + 1, -1)]),
    "10:phi": _E(lambda n: n * (n + 1) // 2,
                 lambda n: [(1, 1, 2, n + 1, -1)]),
    "10:psi": _E(lambda n: (n + 1) * (n + 2) // 2,
                 lambda n: [(1, 1, 2, n + 1, -1)]),
    "10:X": _E(lambda n: n * n, lambda n: [(-1, 1, 1, 2 * n, -1)], _alt),
    "10:chi": _E(lambda n: (n + 1) ** 2,
                 lambda n: [(-1, 1, 1, 2 * n + 1, -1)], _alt),
    "2:mu": _E(lambda n: n * n,
               lambda n: [(1, 1, 2, n, 1), (-1, 2, 2, n, -2)], _alt),
    "2:A": _E(lambda n: n + 1,
              lambda n: [(-1, 2, 2, n, 1), (1, 1, 2, n + 1, -1)]),
    "2:B": _E(lambda n: n,
              lambda n: [(-1, 1, 2, n, 1), (1, 1, 2, n + 1, -1)]),
    "8:S0": _E(lambda n: n * n,
               lambda n: [(-1, 1, 2, n, 1), (-1, 2, 2, n, -1)]),
    "8:S1": _E(lambda n: n * (n + 2),
               lambda n: [(-1, 1, 2, n, 1), (-1, 2, 2, n, -1)]),
    "8:T0": _E(lambda n: (n + 1) * (n + 2),
               lambda n: [(-1, 2, 2, n, 1), (-1, 1, 2, n + 1, -1)]),
    "8:T1": _E(lambda n: n * (n + 1),
               lambda n: [(-1, 2, 2, n, 1), (-1, 1, 2, n + 1, -1)]),
    "8:U0": _E(lambda n: n * n,
               lambda n: [(-1, 1, 2, n, 1), (-1, 4, 4, n, -1)]),
    "8:U1": _E(lambda n: (n + 1) ** 2,
               lambda n: [(-1, 1, 2, n, 1), (-1, 2, 4, n + 1, -1)]),
    "8:V1": _E(lambda n: (n + 1) ** 2,
               lambda n: [(-1, 1, 2, n, 1), (1, 1, 2, n + 1, -1)]),
    # 1 + V0 in full: the n-th summand carries an overall 2
    "8:V0": _E(lambda n: n * n,
               lambda n: [(-1, 1, 2, n, 1), (1, 1, 2, n, -1)],
               lambda n: 2),
    # 2 mu = 1 + sum (-1)^n q^(n+1) (1 + q^n) (q;q^2)_n / (-q;q)_(n+1),
    # with 1 + q^n = (-q^n; q)_1 for n >= 1; at n = 0 it is the constant 2,
    # carried in the sign (a factor at q^0 cannot be divided back out)
    "6:2mu": _E(lambda n: n + 1,
                lambda n: [(1, 1, 2, n, 1), (-1, 1, 1, n + 1, -1),
                           (-1, n, 1, min(n, 1), 1)],
                lambda n: (-1) ** n if n else 2, 1),
}

EULERIAN_NAMES = sorted(EULERIAN_DEFS)


def eulerian(name, order):
    """The named series, truncated below `order`: one _packed_sum over the
    registry's summands, each product stepped from the one before by the
    factors that change, at a window order - lead(n) that only shrinks;
    lead(n) is called once per summand."""
    if name not in EULERIAN_DEFS:
        raise UnknownName(name)
    lead, factors, sign, const = EULERIAN_DEFS[name]
    summands = ((lead(n), sign(n), factors(n)) for n in count())
    plan = lambda W: takewhile(lambda t: t[0] < W, summands)
    return _packed_sum(plan, const, Fraction(order))


# -- table rows -----------------------------------------------------------

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


# a row's prefactor is 1/2 unless it says otherwise
_row = partial(Stream, pre=HALF)

ROWS = {
    "3:psi": _row("24+8", [(1, 2)], "-1/24"),
    "3:nu": _row("24+8", [(1, 8)], "1/3", arg=(1, -HALF)),
    "3:f": _row("6", [(1, 5), (-1, 1)], "-1/24"),
    "3:phi": _row("24+8", [(-1, 1), (1, 13), (-1, 25), (1, 37)],
                  "-1/96", "1/4", arg=(4, 0)),
    "3:chi": _row("18", [(1, r) for r in (1, 7, 13, 19, 25, 31)],
                  "-1/72", "1/3", arg=(3, 0), pre=-HALF),
    "3:omega": _row("6", [(1, 2), (1, 4)], "1/3", "1/2", arg=(2, 0),
                    pre=QUARTER),
    "3:rho": _row("18", [(1, r) for r in (2, 4, 14, 16, 26, 28)],
                  "1/9", "1/6", arg=(6, 0), pre=-HALF),
    "5:psi0": _row("60+12,15,20", [(1, 2)], "-1/60"),
    "5:psi1": _row("60+12,15,20", [(1, 14)], "11/60"),
    "5:chi0": _row("30+6,10,15", [(1, 1)], "-1/120", const=2),
    "5:chi1": _row("30+6,10,15", [(1, 7)], "71/120"),
    "5:phi0": _row("60+12,15,20", [(1, 1), (-1, 11)], "-1/240", "1/2",
                   arg=(2, 0), pre=-HALF),
    "5:phi1": _row("60+12,15,20", [(1, 7), (-1, 13)], "-49/240", "1/2",
                   arg=(2, 0)),
    "5:F0": _row("60+12,15,20", [(1, 2)], "-1/60", 2, arg=(HALF, 0),
                 const=1),
    "5:F1": _row("60+12,15,20", [(1, 14)], "71/60", 2, arg=(HALF, 0)),
    "6:sigma": _row("12", [(1, 2)], "-1/12"),
    "6:psi": _row("12", [(1, 3), (-1, 9)], "-3/16", "1/2", arg=(2, 0),
                  pre=-HALF),
    "6:phi": _row("12", [(1, r) for r in (1, 5, 13, 17)],
                  "-1/48", "1/2", arg=(2, 0), pre=-HALF),
    "6:gamma": _row("18", [(1, r) for r in (1, 5, 13, 17, 25, 29)],
                    "-1/72", "1/3", arg=(3, 0), pre=-HALF),
    "7:F0": _row("42+6,14,21", [(1, 1)], "-1/168", pre=-HALF),
    "7:F1": _row("42+6,14,21", [(1, 5)], "-25/168"),
    "7:F2": _row("42+6,14,21", [(1, 11)], "47/168"),
    "10:phi": _row("10", [(1, 4), (-1, 14)], "1/10", "1/2", arg=(2, 0)),
    "10:psi": _row("10", [(1, 2), (-1, 12)], "-1/10", "1/2", arg=(2, 0)),
    "10:X": _row("10", [(1, 1), (1, 11)], "-1/40", pre=-HALF),
    "10:chi": _row("10", [(1, 3), (1, 13)], "-9/40", pre=-HALF),
    "2:mu": _row("8", [(1, r) for r in (1, 5, 9, 13)], "-1/32", "1/4",
                 arg=(4, 0), pre=-HALF),
    "2:A": _row("8", [(1, 2)], "-1/8", pre=QUARTER),
    # the congruence allows -1/2 too; +1/2 keeps the lead 1 at q^0
    "2:B": _row("8", [(1, 4)], "1/2", pre=QUARTER),
    "8:S0": _row("16", [(1, r) for r in (1, 9, 17, 25)], "-1/64", "1/4",
                 arg=(4, 0), pre=-HALF),
    "8:S1": _row("16", [(1, r) for r in (3, 11, 19, 27)], "7/64", "1/4",
                 arg=(4, 0)),
    "8:T0": _row("16", [(1, 2)], "-1/16", arg=(1, HALF)),
    "8:T1": _row("16", [(1, 10)], "7/16", arg=(1, HALF)),
    "8:U0": _row("16", [(1, 1 + 4 * k) for k in range(8)],
                 "-1/64", "1/8", arg=(8, 0), pre=-HALF),
    "8:U1": _row("16", [(1, 2), (1, 10, "-1/4")],
                 "-1/16", "1/2", arg=(2, HALF)),
    "8:V0": _row("16", [(1, 8)], pre=1, const=1),
    "8:V1": _row("16", [(1, 4)], "-1/4"),
}


def row_names():
    return sorted(ROWS)


def verify_table14_15(name, source=None, order=None):
    """Check one row against its Eulerian series, to min(order, the window
    the source justifies); order defaults to 15.

    source: CoeffTable for the row's lambency, as catalog.table_for
    resolves it (the catalog fixture by default).  Returns the
    series_verdict with the row's name; InsufficientDepth when the source
    reaches no coefficient.
    """
    if name not in ROWS:
        raise UnknownName(name)
    row = ROWS[name]
    rhs = stream_combination(table_for(row.lambency, source), row,
                             15 if order is None else order)
    return {"row": name, **series_verdict(eulerian(name, rhs.order), rhs)}


# -- self-contained identities -------------------------------------------

def _alt_q(f):
    """f(-q)."""
    return series_half_shift(f, HALF)


def verify_watson(order=100):
    """f0(q) = -psi0(-q) + phi0(-q^2); f1(q) = psi1(-q) - q^-1 phi1(-q^2)."""
    order = Fraction(order)
    if order <= 0:
        raise InsufficientDepth(f"order {order} reaches no coefficient")
    half_order = order / 2 + 1
    f0 = eulerian("5:f0", order)
    f1 = eulerian("5:f1", order)
    rhs0 = series_add(
        series_scale(_alt_q(eulerian("5:psi0", order)), -1),
        series_rescale(_alt_q(eulerian("5:phi0", half_order)), 2))
    rhs1 = series_add(
        _alt_q(eulerian("5:psi1", order)),
        series_scale(series_shift(series_rescale(
            _alt_q(eulerian("5:phi1", half_order)), 2), -1), -1))
    return [{"identity": f"watson:{tag}", **series_verdict(a, b)}
            for tag, a, b in [("f0", f0, rhs0), ("f1", f1, rhs1)]]


def verify_andrews_hickerson(order=100):
    """The order-6 identities: both LHS variants against each product."""
    order = Fraction(order)
    if order <= 0:
        raise InsufficientDepth(f"order {order} reaches no coefficient")
    psi2 = series_shift(series_rescale(eulerian("6:psi", order / 2 + 1), 2),
                        -1)
    phi2 = series_rescale(eulerian("6:phi", order / 2 + 1), 2)
    inf = math.inf
    prod_a, prod_b = [_packed_sum(lambda W: [(0, 1, specs)], 0, order)
                      for specs in [[(-1, 1, 2, inf, 2), (-1, 1, 6, inf, 1),
                                     (-1, 5, 6, inf, 1), (1, 6, 6, inf, 1)],
                                    [(-1, 1, 2, inf, 2), (-1, 3, 6, inf, 2),
                                     (1, 6, 6, inf, 1)]]]
    cases = [
        ("rho", series_add(psi2, eulerian("6:rho", order)), prod_a),
        ("lambda", series_add(series_scale(psi2, 2),
                              _alt_q(eulerian("6:lambda", order))), prod_a),
        ("sigma", series_add(phi2,
                             series_scale(eulerian("6:sigma", order), 2)),
         prod_b),
        ("mu", series_add(series_scale(phi2, 2),
                          series_scale(_alt_q(eulerian("6:2mu", order)), -1)),
         prod_b),
    ]
    return [{"identity": f"andrews-hickerson:{tag}",
             **series_verdict(lhs, rhs)} for tag, lhs, rhs in cases]
