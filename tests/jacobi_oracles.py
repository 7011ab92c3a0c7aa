"""Test oracles for jacobi: the shadow kernel's coefficients by their
closed form, one (D, r) pair at a time, and the H-streams by a walk over
every discriminant of the class.  The package builds the kernel per square
class (jacobi.shadow_kernel) and reads the streams from the stored entries
(jacobi.h_stream); these are the paths those replaced."""

import math
from fractions import Fraction
from math import isqrt

from mjtheta.arith import is_square
from mjtheta.cyclo import ciszero
from mjtheta.errors import InsufficientDepth
from mjtheta.jacobi import (
    NEG_INF, POS_INF, _canonical, _stream_window,
)
from mjtheta.series import QSeries


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
    rc, sign = _canonical(m, t.parity, r)
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
        if not ciszero(v):
            coeffs[-D] = v
        D -= 4 * m
    return QSeries(coeffs, order, 4 * m)
