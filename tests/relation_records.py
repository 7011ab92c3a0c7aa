"""Test helper: ingested-data records, and the HData file that holds
them.  The records of a multiplicative relation are built from the catalog
fixture of its left-hand side, those of a polar part from the lambency's
group K."""

import csv
from fractions import Fraction

from mjtheta.catalog import MULT_RELATIONS, get_lambency
from mjtheta.jacobi import _canonical, h_stream
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


def polar_records(symbol):
    """The D = 1 records (lambency, class, r, D, coeff) of the optimal
    form's polar part: -2 on the K-orbit of r = 1, and 0 at every other
    residue 0 < r < m of the class of D = 1, so that each is justified
    there."""
    lam = get_lambency(symbol)
    m = lam.m
    orbit = dict(_canonical(m, -1, a) for a in lam.K)
    return [(symbol, "1A", r, 1, -2 * orbit.get(r, 0))
            for r in range(1, m) if (r * r - 1) % (4 * m) == 0]


def write_records(path, records):
    """An HData file: the header, then one CSV row per record."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lambency", "class", "r", "D", "coeff"])
        w.writerows(records)
