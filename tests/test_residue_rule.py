"""The residue rule of coefficient tables, against the per-module copies it
replaced.

The oracles below are the earlier implementations, kept verbatim in
substance: ez_apply with its own residue loop, the catalog's orbit of
signed residues, and the Borcherds test for residues whose reads run out
of depth.  Each is compared with the one rule in jacobi._canonical and
with jacobi.ez_apply.
"""

from mjtheta.borcherds import _runs_out
from mjtheta.catalog import load_catalog
from mjtheta.cyclo import cmul
from mjtheta.jacobi import (
    NEG_INF, POS_INF, CoeffTable, _canonical, ez_apply, shadow_kernel,
)
from om_group import om_elements

CATALOG = load_catalog()
FIXTURES = [lam for lam in CATALOG if lam.fixture is not None]


# -- oracles --------------------------------------------------------------

def canonical_oracle(m, parity, r):
    """(canonical residue, sign) as CoeffTable.canonical gave them, and
    whether the inline test `parity == -1 and rc in (0, m)` made the read a
    structural zero."""
    r %= 2 * m
    rc, sign = (2 * m - r, parity) if r > m else (r, 1)
    return rc, sign, parity == -1 and rc in (0, m)


def ez_apply_oracle(t, a):
    """phi . a: C'(D, r) = C(D, r a), with its own residue loop."""
    m = t.m
    by_res = {}
    for (D, r), v in t.entries.items():
        by_res.setdefault(r, []).append((D, v))
    ranges, entries = {}, {}
    for r in range(m + 1):
        sc, sign, zero = canonical_oracle(m, t.parity, r * a)
        if zero:
            ranges[r] = (NEG_INF, POS_INF)
            continue
        if sc not in t.ranges:
            continue
        ranges[r] = t.ranges[sc]
        for D, v in by_res.get(sc, []):
            entries[(D, r)] = v if sign == 1 else cmul(sign, v)
    return CoeffTable(m, t.parity, entries, ranges)


def orbit_oracle(m, K, r):
    """[(canonical residue, sign)] of r*a over a in K, signs from
    C(D, -r) = -C(D, r)."""
    out = []
    for a in K:
        s = (r * a) % (2 * m)
        out.append((2 * m - s, -1) if s > m else (s, 1))
    return out


def runs_out_oracle(t, r):
    """True if reads of t at residue r raise InsufficientDepth below some
    D < 0, False if they are structural zeros at every depth."""
    rc, _sign, zero = canonical_oracle(t.m, t.parity, r)
    if zero:
        return False
    return rc not in t.ranges or t.ranges[rc][0] != NEG_INF


# -- the tables compared --------------------------------------------------

def kernels(depth=50):
    return [(lam, shadow_kernel(lam.eta, lam.m, depth)) for lam in CATALOG]


def same_table(got, want):
    assert (got.m, got.parity) == (want.m, want.parity)
    assert got.ranges == want.ranges
    assert got.entries == want.entries


def test_canonical_against_inline_rules():
    for m in range(1, 61):
        for parity in (1, -1):
            for r in range(-4 * m, 4 * m + 1):
                rc, sign, zero = canonical_oracle(m, parity, r)
                assert _canonical(m, parity, r) == (rc, 0 if zero else sign)


def test_ez_apply_on_fixtures_under_K():
    for lam in FIXTURES:
        for a in lam.K:
            same_table(ez_apply(lam.fixture, a),
                       ez_apply_oracle(lam.fixture, a))


def test_ez_apply_on_kernels_under_O_m():
    for lam, t in kernels():
        for a in om_elements(lam.m):
            same_table(ez_apply(t, a), ez_apply_oracle(t, a))


def test_ez_apply_on_even_tables():
    # parity +1 keeps r = 0 and r = m, and a finite lower bound carries over
    t = CoeffTable(3, 1, {(-12, 0): 4, (-15, 3): -2, (-11, 1): 7},
                   {0: (-40, 0), 1: (-35, 1), 3: (-39, 9)})
    for a in om_elements(3):
        same_table(ez_apply(t, a), ez_apply_oracle(t, a))


def test_fixture_closure_against_orbits():
    # a residue is a forced zero exactly when its orbit meets a residue
    # with two signs, or meets 0 or m
    for lam in FIXTURES:
        m, f = lam.m, lam.fixture
        for r in range(1, m):
            signs = {}
            for t, sg in orbit_oracle(m, lam.K, r):
                signs.setdefault(t, set()).add(sg)
            forced = any(len(v) == 2 for v in signs.values()) or \
                any(t in (0, m) for t in signs)
            if forced:
                assert f.ranges[r] == (NEG_INF, POS_INF), (lam.symbol, r)
                assert not any(rr == r for _D, rr in f.entries)
            elif r in f.ranges:
                assert f.ranges[r][1] == POS_INF and f.ranges[r][0] > NEG_INF
            # every orbit sign agrees with the rule, 0 at 0 and m
            for a, (t, sg) in zip(lam.K, orbit_oracle(m, lam.K, r)):
                assert _canonical(m, -1, r * a) == \
                    (t, 0 if t in (0, m) else sg)


def runs_out_tables():
    odd = CoeffTable(4, -1, {(-15, 1): 3},
                     {1: (-63, 1), 2: (NEG_INF, POS_INF), 3: (-55, 9)})
    even = CoeffTable(4, 1, {(-16, 0): 2, (-12, 2): 5},
                      {0: (-48, 0), 2: (NEG_INF, 4), 4: (-32, 16)})
    # square entries alone no longer make a finite lower bound harmless
    square = CoeffTable(4, -1, {(1, 1): 2, (9, 3): -2},
                        {1: (-15, 100), 3: (-7, 100)})
    return ([lam.fixture for lam in FIXTURES] + [t for _l, t in kernels()]
            + [odd, even, square])


def test_runs_out_against_oracle():
    seen = set()
    for t in runs_out_tables():
        for r in range(-2 * t.m, 2 * t.m + 1):
            got = _runs_out(t, r)
            assert got == runs_out_oracle(t, r), (t, r)
            seen.add(got)
    assert seen == {True, False}


def test_shadow_kernels_never_run_out():
    # the range (-inf, depth] of every residue: each D < 0 reads 0
    for lam, t in kernels():
        for r in range(-2 * lam.m, 2 * lam.m + 1):
            assert not _runs_out(t, r), (lam.symbol, r)
            assert t.get(r * r - 4 * lam.m * 10 ** 6, r) == 0
