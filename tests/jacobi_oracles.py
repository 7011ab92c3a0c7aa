"""Test oracles for jacobi: the shadow kernel's coefficients by their
closed form, one (D, r) pair at a time; the H-streams by a walk over
every discriminant of the class; and a Stream's series in the cyclotomic
field.  The package builds the kernel per square class
(jacobi.shadow_kernel), reads the streams from the stored entries
(jacobi.h_stream) and gives each stream term its phase as a sign
(jacobi.stream_combination); these are the paths those replaced.  Random
odd tables feed the comparisons."""

import math
from fractions import Fraction
from math import isqrt, lcm

from mjtheta.errors import InsufficientDepth
from mjtheta.jacobi import (
    NEG_INF, POS_INF, CoeffTable, _canonical, _stream_window, h_stream,
)
from mjtheta.series import QSeries, series_rescale, series_slice

from product_oracles import Cyclotomic, root


def is_square(n):
    return n >= 0 and isqrt(n) ** 2 == n


def omega_entry(m, n, r, rp):
    """Entry Omega_m(n)_{r, r'} in {0, 1}."""
    return int((r + rp) % (2 * n) == 0 and (r - rp) % (2 * m // n) == 0)


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


def h_stream_by_walk(t, r, order):
    """h_stream by reading C(D, r) with CoeffTable.get for each D of the
    class, down from the top of the residue's range (or its largest stored
    entry when the range is open above) to the window or the range's
    bottom."""
    m = t.m
    order = Fraction(order)
    rc, sign = _canonical(m, r)
    if not sign:
        return QSeries({}, order, 4 * m)
    window = _stream_window(t, r)
    lo, hi = t.ranges[rc]
    if order > window:
        need = rc * rc - 4 * m * (
            math.ceil(Fraction(rc * rc, 4 * m) + order) - 1)
        raise InsufficientDepth(
            f"residue {r}: justified down to D={lo}, need D>={need}")
    if hi == POS_INF:
        top = max((D for (D, rr) in t.entries if rr == rc),
                  default=rc * rc)
        top = max(top, rc * rc)
    else:
        top = rc * rc + 4 * m * ((hi - rc * rc) // (4 * m))
    coeffs = {}
    D = top
    while -Fraction(D, 4 * m) < order and (lo == NEG_INF or D >= lo):
        v = t.get(D, r)
        if v != 0:
            coeffs[-D] = v
        D -= 4 * m
    return QSeries(coeffs, order, 4 * m)


def random_odd_table(m, rng, windows, values=range(-3, 4)):
    """An odd table of index m: each residue 0 < r < m justified at every
    D = r^2 mod 4m with -4m w < D <= r^2, so for the stream exponents
    -D/4m below w, with w drawn from windows per residue, and an entry
    drawn from values at each such D."""
    entries, ranges = {}, {}
    for r in range(1, m):
        w = rng.choice(windows)
        Ds = range(r * r, -4 * m * w, -4 * m)
        ranges[r] = (Ds[-1], r * r)
        for D in Ds:
            entries[(D, r)] = rng.choice(values)
    return CoeffTable(m, entries, ranges)


def stream_in_field(t, spec, order):
    """stream_combination as it was built over the cyclotomic field, its
    oracle: the terms c e(t) H_r summed with values in Q(zeta_N), the sum
    sliced, each coefficient at exponent x times e(B x), then q -> q^A, the
    prefactor and the constant.  N is the least common denominator of
    every phase met.  Returns a QSeries of Cyclotomic values."""
    A, B = spec.arg
    s = spec.s
    avail = min(_stream_window(t, r) for _c, r, _t in spec.terms)
    stream_order = min(avail, Fraction(order) / A + s)
    if stream_order <= s:
        raise InsufficientDepth(f"window {stream_order} past the shift {s}")
    streams = [(c, turn, h_stream(t, r, stream_order))
               for c, r, turn in spec.terms]
    N = lcm(*(turn.denominator for _c, turn, _f in streams),
            *((B * (x - s)).denominator for _c, _t, f in streams
              for x, _v in f.items()))
    total = {}
    for c, turn, f in streams:
        for k, v in f.coeffs.items():
            total[k] = total.get(k, 0) + root(N, turn) * (c * v)
    g = QSeries(total, stream_order, 4 * t.m)
    if s or spec.b != 1:
        g = series_slice(g, s, spec.b)
    g = QSeries({k: v * root(N, B * Fraction(k, g.den))
                 for k, v in g.coeffs.items()}, g.order, g.den)
    g = series_rescale(g, A)
    out = {k: v * spec.pre for k, v in g.coeffs.items()}
    out[0] = out.get(0, 0) + spec.const
    return QSeries({k: Cyclotomic.of(v, N) for k, v in out.items()},
                   g.order, g.den)
