"""The 39-entry lambency catalog, its reference coefficient tables, external
data ingestion, averaging constructions, and the positivity audits.

The catalog (a static data file under ``mjtheta/data``) carries, per lambency
``m+n,n',...``:

* the eta quotient of the principal modulus T,
* the root system string for the 23 distinguished ("positive") lambencies,
* for the 16 remaining lambencies, the reference Fourier coefficients
  C(r^2 - 4mn, r) of the distinguished optimal form, to table depth n <= 15.

The printed tables only list one residue per orbit of the symbol's group K
(acting by r -> r*a mod 2m).  Loading closes the tables under that action
with the residue rule of jacobi.CoeffTable -- copying rows with its sign,
deriving forced-zero rows, and asserting consistency whenever two printed
rows meet the same orbit.  Residues whose orbit meets no printed row carry
no data at all (reads there raise InsufficientDepth rather than guessing).
"""

import csv
import os
from fractions import Fraction
from importlib import resources
from math import gcd

from .cyclo import ex
from .errors import (
    CongruenceViolation, InsufficientDepth, MissingSource, ParseError,
    UnknownLambency, UnreadableSource,
)
from .eta import parse_eta
from .jacobi import (
    NEG_INF, POS_INF, CoeffTable, _canonical, ez_apply,
    shadow_kernel, stream_combination, table_lin_comb,
)
from .series import series_verdict

__all__ = [
    "Lambency", "HData", "load_catalog", "catalog_by_symbol", "get_lambency",
    "ingest_hdata", "construct_averaged", "MULT_RELATIONS",
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
    group under n * n' = nn'/(n,n')^2; the corresponding subgroup K of
    O_m is {a(n) : n in group_ns} (see _a_of).
    fixture: CoeffTable of reference coefficients (the 16 entries outside
    the root-system class), else None.
    """

    __slots__ = ("symbol", "m", "group_ns", "eta", "in_L1_plus",
                 "root_system", "fixture")

    def __init__(self, symbol, eta, root_system):
        self.symbol = symbol
        self.m, self.group_ns = _parse_symbol(symbol)
        self.eta = eta
        self.root_system = root_system or None
        self.in_L1_plus = bool(root_system)
        self.fixture = None

    @property
    def K(self):
        """The subgroup K of O_m as residues a mod 2m."""
        return tuple(sorted(_a_of(self.m, n) for n in self.group_ns))

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


# -- fixture closure ------------------------------------------------------

def _build_fixture(lam, rows):
    """The odd CoeffTable of lam from printed rows {r: {D: coeff}}, closed
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
            t, sg = _canonical(m, -1, r * a)
            signs.setdefault(t, set()).add(sg)
        # met with two signs, or with a structural zero
        forced_zero = any(len(v) == 2 or 0 in v for v in signs.values())
        printed = sorted(t for t in signs if t in rows)
        if forced_zero:
            for t in printed:
                assert not any(rows[t].values()), \
                    f"{symbol}: row {t} should vanish by symmetry"
            ranges[r] = (NEG_INF, POS_INF)
            continue
        if not printed:
            continue  # no data for this residue; reads will raise
        # merge the printed sources, checking consistency on overlaps
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
    return CoeffTable(m, -1, entries, ranges)


# -- catalog loading ------------------------------------------------------

CATALOG_CSV = resources.files(__package__) / "data" / "catalog.csv"


def load_catalog():
    """All 39 lambencies, in catalog order, from the packaged CSV."""
    meta = []          # (symbol, eta text, root system)
    rows = {}          # symbol -> {r: {D: coeff}}
    with CATALOG_CSV.open() as fh:
        for rec in csv.reader(x for x in fh if not x.startswith("#")):
            if not rec:
                continue
            if rec[0] == "meta":
                meta.append((rec[1], rec[2], rec[3]))
            else:
                symbol, _cls, r, D, c = rec
                rows.setdefault(symbol, {}).setdefault(
                    int(r), {})[int(D)] = int(c)
    out = []
    for symbol, eta_text, roots in meta:
        lam = Lambency(symbol, parse_eta(eta_text), roots)
        if symbol in rows:
            lam.fixture = _build_fixture(lam, rows[symbol])
        out.append(lam)
    assert len(out) == 39 and sum(x.in_L1_plus for x in out) == 23
    return out


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

    def get(self, symbol, cls="1A"):
        try:
            return self.tables[(symbol, cls)]
        except KeyError:
            raise MissingSource(f"no ingested data for {symbol} class {cls}") \
                from None


def ingest_hdata(path):
    """Read a coefficient CSV (header lambency,class,r,D,coeff)."""
    catalog = catalog_by_symbol()
    raw = {}
    seen = set()
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as e:
        reason = getattr(e, "strerror", None) or e
        raise UnreadableSource(f"{os.fspath(path)}: {reason}") from None
    for lineno, rec in enumerate(rows, start=1):
        if not rec or rec[0].startswith("#"):
            continue
        if lineno == 1 and rec[:1] == ["lambency"]:
            continue
        if len(rec) != 5:
            raise ParseError(f"line {lineno}: expected 5 fields")
        symbol, cls, r, D, c = rec
        if symbol not in catalog:
            raise UnknownLambency(f"line {lineno}: {symbol}")
        m = catalog[symbol].m
        try:
            r, D, c = int(r), int(D), int(c)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer field") from None
        if not 0 <= r < 2 * m:
            raise ParseError(f"line {lineno}: residue {r} out of range")
        if (D - r * r) % (4 * m) != 0:
            raise CongruenceViolation(
                f"line {lineno}: D={D} != {r}^2 mod {4 * m}")
        key = (symbol, cls)
        if (key, r, D) in seen:
            raise ParseError(f"line {lineno}: duplicate key "
                             f"{symbol},{cls},{r},{D}")
        seen.add((key, r, D))
        rc, sign = _canonical(m, -1, r)
        if c and not sign:
            raise ParseError(f"line {lineno}: C({D},{r}) = {c}, but the "
                             f"table is odd, so it vanishes at r = {r}")
        store = raw.setdefault(key, {})
        if (D, rc) in store and store[(D, rc)] != sign * c:
            raise ParseError(
                f"line {lineno}: records for C({D},{r}) conflict under "
                f"antisymmetry")
        store[(D, rc)] = sign * c
    tables = {}
    for (symbol, cls), store in raw.items():
        m = catalog[symbol].m
        ranges = {}
        for (D, rc), _v in store.items():
            lo, hi = ranges.get(rc, (D, D))
            ranges[rc] = (min(lo, D), max(hi, D))
        t = CoeffTable(m, -1, store, ranges)
        try:
            c11 = t.get(1, 1)
        except InsufficientDepth:
            pass  # no record at D = 1 to check
        else:
            if c11 != -2:
                raise ParseError(
                    f"{symbol} {cls}: C(1,1) = {c11}, expected -2")
        tables[(symbol, cls)] = t
    return HData(tables, provenance=os.fspath(path))


def construct_averaged(symbol, h):
    """The table phi + phi.a(n) of each of the five lambencies obtained
    by symmetrizing a distinguished neighbour.  It is the sum, not the
    average: the polar part of the source's optimal phi (-2 on its K-orbit
    of r = 1, 2 on the negatives) and its image under a(n) add up to the
    polar part of the averaged lambency's optimal form."""
    if symbol not in AVERAGED_FROM:
        raise UnknownLambency(f"{symbol} is not an averaged lambency")
    source, n = AVERAGED_FROM[symbol]
    t = h.get(source)
    return table_lin_comb([(1, t), (1, ez_apply(t, _a_of(t.m, n)))])


# -- multiplicative relations ---------------------------------------------

class MultLine:
    """One verification line: pre * sum_n H_{base+step*n}(a tau + b) on the
    side of the catalog lambency, against rhs_pre * H_{class,r}(a' tau + b')
    on the ingested side, for r in rset (residues of the ingested level)."""

    def __init__(self, rset, base, step, count, arg, rhs_pre, rhs_arg=(1, 0),
                 pre=None):
        self.rset = rset
        self.base = base          # callable r -> starting residue
        self.step = step
        self.count = count
        self.arg = arg            # (a, b): tau -> a tau + b
        self.pre = pre            # callable r -> scalar, default 1
        self.rhs_pre = rhs_pre    # callable r -> scalar
        self.rhs_arg = rhs_arg


def _line(rset, step, count, a, rhs_c):
    return MultLine(rset, lambda r: r, step, count, (a, 0),
                    lambda r: rhs_c)


MULT_RELATIONS = {
    "15+5:5A": ("15+5", "3", "5A", [_line(range(6), 6, 5, 5, 2)]),
    "20+4:2C": ("20+4", "5", "2C", [
        MultLine([1, 3, 7, 9], lambda r: r, 10, 2, (4, 0), lambda r: 1),
        MultLine([2, 4, 6, 8], lambda r: 2 * r, 0, 1, (1, 0),
                 lambda r: ex(Fraction(r * r, 160)),
                 rhs_arg=(1, Fraction(1, 2))),
    ]),
    "21+3:3AB": ("21+3", "7", "3AB", [_line(range(14), 14, 3, 3, 2)]),
    "24+8:8CD": ("24+8", "3", "8CD", [_line(range(6), 12, 4, 8, 1)]),
    "28+7:7AB": ("28+7", "4", "7AB", [_line(range(8), 8, 7, 7, 2)]),
    "33+11:11AB": ("33+11", "3", "11AB", [_line(range(6), 6, 11, 11, 2)]),
    "36+4:6C": ("36+4", "3", "6C", [
        MultLine([1, 5], lambda r: r, 12, 6, (12, 0), lambda r: 1),
        MultLine([2], lambda r: 2, 12, 3, (3, Fraction(3, 2)),
                 lambda r: 1, pre=lambda r: ex(Fraction(1, 6))),
    ]),
    "36+4:2B": ("36+4", "9", "2B", [
        MultLine([3, 15], lambda r: r, 18, 4, (4, 0), lambda r: 1),
        MultLine([6], lambda r: 12, 0, 1, (1, 0), lambda r: -1,
                 rhs_arg=(1, Fraction(1, 2))),
    ]),
    "60+12,15,20:2A": ("60+12,15,20", "30+6,10,15", "2A",
                       [_line(range(60), 60, 2, 2, 1)]),
}


def verify_mult_relation(row_id, h, order=None):
    """Check one multiplicative-relation row against ingested data, for
    each residue to min(order, the window both tables justify); order
    defaults to FIXTURE_DEPTH_N.

    Returns the series_verdict of the first residue that mismatches (with
    its r), else "verified" with the least depth reached; raises
    MissingSource when the ingested side is absent and InsufficientDepth
    when a stream reaches no coefficient."""
    if row_id not in MULT_RELATIONS:
        raise UnknownLambency(row_id)
    lhs_sym, rhs_sym, cls, lines = MULT_RELATIONS[row_id]
    lam = get_lambency(lhs_sym)
    if lam.fixture is None:
        raise MissingSource(f"{lhs_sym} has no fixture table")
    rhs_t = h.get(rhs_sym, cls)
    order = FIXTURE_DEPTH_N if order is None else order
    depths = []
    for line in lines:
        for r in line.rset:
            terms = [(1, line.base(r) + line.step * i)
                     for i in range(line.count)]
            pre = 1 if line.pre is None else line.pre(r)
            lhs = stream_combination(lam.fixture, terms, order, arg=line.arg,
                                     pre=pre)
            rhs = stream_combination(rhs_t, [(1, r)], order,
                                     arg=line.rhs_arg, pre=line.rhs_pre(r))
            rep = series_verdict(lhs, rhs)
            if rep["status"] != "verified":
                return {"row": row_id, "r": r, **rep}
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
    """True iff every stored C(D, r) with D < 0 is positive, within the
    table's recorded depth (zeros pass).  The table is odd, so it stores
    only 0 < r < m, where eps_m(r) = +1."""
    t = table if table is not None else lam.fixture
    if t is None:
        raise MissingSource(f"{lam.symbol}: no table to audit")
    return all(v > 0 for (D, _r), v in t.entries.items() if D < 0)
