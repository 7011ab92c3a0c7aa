"""Test oracle: the closure of a printed coefficient table under its
symbol's group K, row by row, apart from the record reader of the package.
An unprinted cell inside a printed row's span reads 0 here, so two rows of
one orbit must agree on every cell either prints; the package compares
only the cells both print."""

import csv

from mjtheta.catalog import CATALOG_CSV
from mjtheta.jacobi import NEG_INF, POS_INF, CoeffTable, _canonical


def printed_rows():
    """{symbol: {r: {D: coeff}}} of the packaged CSV, unchecked."""
    rows = {}
    with CATALOG_CSV.open() as fh:
        for rec in csv.reader(x for x in fh if not x.startswith("#")):
            if rec and rec[0] != "meta":
                symbol, _cls, r, D, c = rec
                rows.setdefault(symbol, {}).setdefault(
                    int(r), {})[int(D)] = int(c)
    return rows


def build_fixture(lam, rows):
    """The CoeffTable of lam from its printed rows {r: {D: coeff}}, closed
    under lam.K."""
    symbol, m, K = lam.symbol, lam.m, lam.K
    entries = {}
    ranges = {0: (NEG_INF, POS_INF), m: (NEG_INF, POS_INF)}
    lo_of = {t: min(row) for t, row in rows.items()}

    def row_value(t, D):
        # None if outside the printed window; above D = 1 the optimality
        # support condition pins the value to zero
        if D > 1:
            return 0
        if D < lo_of[t]:
            return None
        return rows[t].get(D, 0)

    for r in range(1, m):
        signs = {}  # canonical residue of r*a -> signs it is met with
        for a in K:
            t, sg = _canonical(m, r * a)
            signs.setdefault(t, set()).add(sg)
        # met with two signs (r a is never 0 or m mod 2m: a is a unit)
        forced_zero = any(len(v) == 2 for v in signs.values())
        printed = sorted(t for t in signs if t in rows)
        if forced_zero:
            for t in printed:
                assert not any(rows[t].values()), \
                    f"{symbol}: row {t} should vanish by symmetry"
            ranges[r] = (NEG_INF, POS_INF)
            continue
        if not printed:
            continue  # no data for this residue; reads will raise
        merged = {}
        for t in printed:
            sg = next(iter(signs[t]))
            for D, v in rows[t].items():
                if v:
                    merged.setdefault(D, sg * v)
        for t in printed:
            sg = next(iter(signs[t]))
            for D, want in merged.items():
                v = row_value(t, D)
                assert v is None or sg * v == want, \
                    f"{symbol}: rows disagree at C({D},{r})"
        ranges[r] = (min(lo_of[t] for t in printed), POS_INF)
        for D, v in merged.items():
            entries[(D, r)] = v
    return CoeffTable(m, entries, ranges)
