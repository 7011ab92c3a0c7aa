"""The 39-entry lambency catalog, its reference coefficient tables, external
data ingestion, averaging constructions, and the positivity audits.

The catalog (a static data file under ``mjtheta/data``) carries, per lambency
``m+n,n',...``:

* the eta quotient of the principal modulus T,
* the root system string for the 23 distinguished ("positive") lambencies,
* for the 16 remaining lambencies, the reference Fourier coefficients
  C(r^2 - 4mn, r) of the distinguished optimal form, to table depth n <= 15.

The packaged tables and ingested data files hold the same records
symbol,class,r,D,coeff; one reader checks them and one builder makes them
tables.  A printed table lists one residue per orbit of the symbol's group
K (acting by r -> r*a mod 2m), so each printed record is also read at every
r*a; two reads of one coefficient that disagree raise ParseError.  Residues
whose orbit meets no printed row carry no data at all (reads there raise
InsufficientDepth rather than guessing).

Every check reads its table through table_for: the caller's table, else
the shipped fixture, else the ingested one.

The multiplicative relations are data: pairs of jacobi.Stream, one over a
fixture and one over an ingested table, that verify_mult_relation builds.
"""

import csv
import os
import re
from fractions import Fraction
from importlib import resources
from math import gcd
from pathlib import Path

from .errors import (
    CongruenceViolation, LevelMismatch, MissingSource, ParseError,
    UnknownLambency, UnknownName, UnreadableSource,
)
from .eta import parse_eta
from .jacobi import (
    NEG_INF, POS_INF, CoeffTable, Stream, _canonical, ez_apply,
    shadow_kernel, stream_combination, table_sum,
)
from .series import series_verdict

__all__ = [
    "Lambency", "HData", "load_catalog", "catalog_by_symbol", "get_lambency",
    "table_for", "ingest_hdata", "construct_averaged", "MULT_RELATIONS",
    "verify_mult_relation", "check_positivity_sigma",
    "check_positivity_phi", "FIXTURE_DEPTH_N",
]

FIXTURE_DEPTH_N = 15  # tables print n = 0..15

# averaged lambencies: target -> (source lambency, averaging divisor n)
AVERAGED_FROM = {
    "6+2": ("6", 2),
    "10+2": ("10", 2),
    "12+3": ("12", 3),
    "18+2": ("18", 2),
    "30+3,5,15": ("30+15", 3),
}


class Lambency:
    """One catalog entry.

    group_ns: the exact divisors {1, n, n', ...} named by the symbol, a
    group under n * n' = nn'/(n,n')^2.
    K: the corresponding subgroup {a(n) : n in group_ns} of O_m, as
    ascending residues a mod 2m (see _a_of).
    fixture: CoeffTable of reference coefficients (the 16 entries outside
    the root-system class), else None.
    """

    __slots__ = ("symbol", "m", "group_ns", "K", "eta", "in_L1_plus",
                 "root_system", "fixture")

    def __init__(self, symbol, eta, root_system):
        self.symbol = symbol
        self.m, self.group_ns = _parse_symbol(symbol)
        self.K = tuple(sorted(_a_of(self.m, n) for n in self.group_ns))
        self.eta = eta
        self.root_system = root_system or None
        self.in_L1_plus = bool(root_system)
        self.fixture = None

    def __repr__(self):
        return f"<Lambency {self.symbol}>"


def _a_of(m, n):
    """The element a(n) of O_m = {a mod 2m : a^2 = 1 mod 4m} for an exact
    divisor n of m: a = -1 mod 2n and a = 1 mod 2m/n, by CRT (n and m/n
    are coprime; pow(n, -1, 1) = 0 covers n = m)."""
    return (2 * n * pow(n, -1, m // n) - 1) % (2 * m)


def _parse_symbol(symbol):
    head, _, tail = symbol.partition("+")
    m = int(head)
    ns = {1}
    if tail:
        ns.update(int(x) for x in tail.split(","))
    for n in ns:
        if m % n or gcd(n, m // n) != 1:
            raise ParseError(f"{symbol}: {n} is not an exact divisor of {m}")
    for n in ns:
        for np in ns:
            if n * np // gcd(n, np) ** 2 not in ns:
                raise ParseError(f"{symbol}: group part not closed under *")
    # non-Fricke: the Fricke involution a(m) = -1 must not be in K
    if m in ns and m > 1:
        raise ParseError(f"{symbol}: Fricke symbol not in the catalog")
    return m, tuple(sorted(ns))


# -- coefficient records -------------------------------------------------

CATALOG_CSV = resources.files(__package__) / "data" / "catalog.csv"
_INTEGER = re.compile(r"-?[0-9]+")


def _csv_lines(source):
    """Yield (line number, fields) for each line of the CSV file `source`,
    after any byte-order mark, that is neither blank nor a comment."""
    with source.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            yield from ((reader.line_num, rec) for rec in reader
                        if rec and not rec[0].startswith("#"))
        except csv.Error as e:  # a field above csv.field_size_limit()
            raise ParseError(f"line {reader.line_num}: {e}") from None


def _read_records(lines, catalog, printed):
    """{(symbol, class): {(D, rc): C(D, rc)}} from the records
    symbol,class,r,D,coeff of `lines`, each checked.  A printed record
    stands for its residue's K-orbit, so it is also read at every r*a; an
    ingested one is read as given.  Reads that disagree raise ParseError."""
    raw = {}
    seen = set()
    for lineno, rec in lines:
        if lineno == 1 and rec[0] == "lambency":
            continue  # the header
        if len(rec) != 5:
            raise ParseError(f"line {lineno}: expected 5 fields")
        symbol, cls, r, D, c = rec
        if symbol not in catalog:
            raise UnknownLambency(f"line {lineno}: {symbol}")
        m = catalog[symbol].m
        try:  # int() alone takes " 7", "+7", "4_4" and non-ASCII digits
            if not all(map(_INTEGER.fullmatch, (r, D, c))):
                raise ValueError
            r, D, c = int(r), int(D), int(c)  # ValueError past 4300 digits
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer field") from None
        if not 0 <= r < 2 * m:
            raise ParseError(f"line {lineno}: residue {r} out of range")
        if (D - r * r) % (4 * m) != 0:
            raise CongruenceViolation(
                f"line {lineno}: D={D} != {r}^2 mod {4 * m}")
        if (symbol, cls, r, D) in seen:
            raise ParseError(f"line {lineno}: duplicate key "
                             f"{symbol},{cls},{r},{D}")
        seen.add((symbol, cls, r, D))
        values = raw.setdefault((symbol, cls), {})
        for a in catalog[symbol].K if printed else (1,):
            rc, sign = _canonical(m, r * a)
            if c and not sign:
                raise ParseError(f"line {lineno}: C({D},{r}) = {c}, but the "
                                 f"table is odd, so it vanishes at r = {r}")
            if values.setdefault((D, rc), sign * c) != sign * c:
                raise ParseError(f"line {lineno}: records for C({D},{r}) "
                                 f"conflict under antisymmetry or K")
    return raw


def _build_tables(lines, catalog, printed):
    """The CoeffTable of each (symbol, class) of _read_records, justified
    at each residue over its records' span [min D, max D]; a printed one
    has no bound above (optimality pins C(D > 1, r) to 0) and none at all
    where the K-orbit of r meets both signs.  C(1, 1) = -2 where reached."""
    tables = {}
    for (symbol, cls), values in _read_records(lines, catalog,
                                               printed).items():
        m, K = catalog[symbol].m, catalog[symbol].K
        column = {}
        for D, rc in values:
            column.setdefault(rc, []).append(D)
        ranges = {rc: (min(Ds), POS_INF if printed else max(Ds))
                  for rc, Ds in column.items()}
        if printed:  # C(D, r) = C(D, ra) = -C(D, r) where ra = -r
            ranges.update((r, (NEG_INF, POS_INF)) for r in range(m + 1)
                          if any((r + r * a) % (2 * m) == 0 for a in K))
        lo, hi = ranges.get(1, (POS_INF, NEG_INF))
        if lo <= 1 <= hi and values.get((1, 1), 0) != -2:
            raise ParseError(f"{symbol} {cls}: C(1,1) = "
                             f"{values.get((1, 1), 0)}, expected -2")
        tables[(symbol, cls)] = CoeffTable(m, values, ranges)
    return tables


# -- catalog loading ------------------------------------------------------

def load_catalog():
    """All 39 lambencies, in catalog order, from the packaged CSV, where
    each symbol's meta line comes before the printed rows of its table."""
    by_symbol = {}

    def rows():
        for lineno, rec in _csv_lines(CATALOG_CSV):
            if rec[0] != "meta":
                yield lineno, rec
            else:
                by_symbol[rec[1]] = Lambency(rec[1], parse_eta(rec[2]), rec[3])

    tables = _build_tables(rows(), by_symbol, printed=True)
    for (symbol, _cls), t in tables.items():
        by_symbol[symbol].fixture = t
    return list(by_symbol.values())


_CATALOG = {}

def catalog_by_symbol():
    if not _CATALOG:
        _CATALOG.update((lam.symbol, lam) for lam in load_catalog())
    return _CATALOG


def get_lambency(symbol):
    try:
        return catalog_by_symbol()[symbol]
    except KeyError:
        raise UnknownLambency(symbol) from None


def table_for(symbol, table=None, hdata=None, cls="1A"):
    """The coefficient table a check of `symbol` reads for class `cls`:
    the caller's `table` (LevelMismatch unless its index is the
    lambency's), else the shipped fixture (class 1A), else the table
    ingested in `hdata`, else MissingSource.  So ingested data never
    replaces a fixture."""
    lam = get_lambency(symbol)
    if table is not None:
        if table.m != lam.m:
            raise LevelMismatch(f"{symbol} needs index {lam.m}, not {table.m}")
        return table
    if cls == "1A" and lam.fixture is not None:
        return lam.fixture
    if hdata is not None and (symbol, cls) in hdata.tables:
        return hdata.tables[(symbol, cls)]
    raise MissingSource(f"no ingested data for {symbol} class {cls}")


# -- ingestion ------------------------------------------------------------

class HData:
    """Externally supplied coefficient tables, keyed (symbol, class label).

    The class label is "1A" for the untwisted series, or one of the labels
    of the multiplicative-relation table for twisted ones.
    """

    __slots__ = ("tables", "provenance")

    def __init__(self, tables, provenance=""):
        self.tables = tables
        self.provenance = provenance


def ingest_hdata(path):
    """Read a coefficient CSV (header lambency,class,r,D,coeff): one table
    per (lambency, class), its records read as given."""
    try:
        lines = list(_csv_lines(Path(path)))
    except (OSError, UnicodeDecodeError) as e:
        reason = getattr(e, "strerror", None) or e
        raise UnreadableSource(f"{os.fspath(path)}: {reason}") from None
    return HData(_build_tables(lines, catalog_by_symbol(), printed=False),
                 provenance=os.fspath(path))


def construct_averaged(symbol, h):
    """The table phi + phi.a(n) of each of the five lambencies obtained
    by symmetrizing a distinguished neighbour.  It is the sum, not the
    average: the polar part of the source's optimal phi (-2 on its K-orbit
    of r = 1, 2 on the negatives) and its image under a(n) add up to the
    polar part of the averaged lambency's optimal form."""
    if symbol not in AVERAGED_FROM:
        raise UnknownLambency(f"{symbol} is not an averaged lambency")
    source, n = AVERAGED_FROM[symbol]
    t = table_for(source, hdata=h)
    return table_sum([t, ez_apply(t, _a_of(t.m, n))])


# -- multiplicative relations ---------------------------------------------

def _progression(lhs, rhs, rs, step, count, a, c=1):
    """For each r in rs: sum_{i < count} H_{r + step i}(a tau) of lhs
    against c H_r of rhs."""
    return [(Stream(lhs, [(1, r + step * i) for i in range(count)],
                    arg=(a, 0)), Stream(rhs, [(1, r)], pre=c)) for r in rs]


HALF = Fraction(1, 2)

# row -> (class, [(catalog side, ingested side)]): each pair of Streams is
# one identity, its catalog side over the fixture of the row's lambency,
# its ingested side over the class's table of an L1+ lambency.
MULT_RELATIONS = {
    "15+5:5A": ("5A", _progression("15+5", "3", range(6), 6, 5, 5, 2)),
    "20+4:2C": ("2C", _progression("20+4", "5", [1, 3, 7, 9], 10, 2, 4) + [
        (Stream("20+4", [(1, 2 * r)]),
         Stream("5", [(1, r, Fraction(r * r, 160))], arg=(1, HALF)))
        for r in [2, 4, 6, 8]]),
    "21+3:3AB": ("3AB", _progression("21+3", "7", range(14), 14, 3, 3, 2)),
    "24+8:8CD": ("8CD", _progression("24+8", "3", range(6), 12, 4, 8)),
    "28+7:7AB": ("7AB", _progression("28+7", "4", range(8), 8, 7, 7, 2)),
    "33+11:11AB": ("11AB",
                   _progression("33+11", "3", range(6), 6, 11, 11, 2)),
    "36+4:6C": ("6C", _progression("36+4", "3", [1, 5], 12, 6, 12) + [
        (Stream("36+4", [(1, r, "1/6") for r in (2, 14, 26)],
                arg=(3, Fraction(3, 2))), Stream("3", [(1, 2)]))]),
    "36+4:2B": ("2B", _progression("36+4", "9", [3, 15], 18, 4, 4) + [
        (Stream("36+4", [(1, 12)]),
         Stream("9", [(1, 6)], arg=(1, HALF), pre=-1))]),
    "60+12,15,20:2A": ("2A", _progression(
        "60+12,15,20", "30+6,10,15", range(60), 60, 2, 2)),
}


def verify_mult_relation(row_id, h, order=None):
    """Check one multiplicative-relation row against ingested data, pair
    by pair, to min(order, the window both tables justify; default
    FIXTURE_DEPTH_N).  Returns the series_verdict of the first pair that
    mismatches (with its ingested residue r), else "verified" with the
    least depth.  MissingSource when the catalog side reads a fixture row
    the catalog lacks, or the ingested side is absent; InsufficientDepth
    when a stream reaches no coefficient."""
    if row_id not in MULT_RELATIONS:
        raise UnknownName(row_id)
    cls, pairs = MULT_RELATIONS[row_id]
    lam = get_lambency(pairs[0][0].lambency)  # every pair reads its fixture
    missing = sorted({rc for lhs, _rhs in pairs for _c, r, _t in lhs.terms
                      for rc, sign in [_canonical(lam.m, r)]
                      if sign and rc not in lam.fixture.ranges})
    if missing:
        raise MissingSource(f"{lam.symbol} has no fixture rows {missing}")
    order = FIXTURE_DEPTH_N if order is None else order
    depths = []
    for lhs, rhs in pairs:
        rep = series_verdict(
            stream_combination(lam.fixture, lhs, order),
            stream_combination(table_for(rhs.lambency, hdata=h, cls=cls),
                               rhs, order))
        if rep["status"] != "verified":
            return {"row": row_id, "r": rhs.terms[0][1], **rep}
        depths.append(rep["depth"])
    return {"row": row_id, "status": "verified", "depth": min(depths)}


# -- positivity audits ----------------------------------------------------

def check_positivity_sigma(lam):
    """True iff a single global sign s makes sgn C_sigma(k^2, r) equal
    s * eps(k) * eps(r) throughout the finite window 0 < D < m^2,
    0 < r < m (zeros allowed).  eps(k) = eps(r) = +1 there, so the
    nonzero kernel entries of the window share one sign; the odd kernel
    stores none at r = 0 or m."""
    m = lam.m
    kernel = shadow_kernel(lam.eta, m, (m - 1) ** 2)
    return len({v > 0 for v in kernel.entries.values()}) <= 1


def check_positivity_phi(lam, table=None):
    """True iff every stored C(D, r) with D < 0 of table_for(lam.symbol,
    table) is positive, within the table's recorded depth (zeros pass).
    The table is odd, so it stores only 0 < r < m, where eps_m(r) = +1."""
    t = table_for(lam.symbol, table)
    return all(v > 0 for (D, _r), v in t.entries.items() if D < 0)
