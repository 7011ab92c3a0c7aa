"""Test helper: the ingested-data records a multiplicative relation
implies, built from the catalog fixture of its left-hand side.  The tests
write them as an HData file to check the relation verdicts on."""

from fractions import Fraction

from mjtheta.catalog import MULT_RELATIONS, get_lambency
from mjtheta.jacobi import h_stream
from mjtheta.series import series_add, series_rescale


def synthesize(row_id, order):
    """The records (lambency, class, r, D, coeff) of the right-hand side of
    a single-line, shift-free relation row, for -D/4m < order."""
    lhs_sym, rhs_sym, cls, lines = MULT_RELATIONS[row_id]
    (line,) = lines
    a, _b = line.arg
    lam = get_lambency(lhs_sym)
    mp = get_lambency(rhs_sym).m
    recs = []
    for r in range(mp + 1):
        s = None
        for i in range(line.count):
            f = series_rescale(
                h_stream(lam.fixture, r + line.step * i, Fraction(order, a)),
                a)
            s = f if s is None else series_add(s, f)
        c = line.rhs_pre(r)
        D = r * r
        while -Fraction(D, 4 * mp) < order:
            v = s.coeff(Fraction(-D, 4 * mp))
            assert v % c == 0
            recs.append((rhs_sym, cls, r, D, int(v // c)))
            D -= 4 * mp
    return recs
