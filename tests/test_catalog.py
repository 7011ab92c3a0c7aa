from fractions import Fraction
from math import inf
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from mjtheta.arith import divisors
from mjtheta.catalog import (
    AVERAGED_FROM, HData, MULT_RELATIONS, _a_of, _parse_symbol,
    check_positivity_phi, check_positivity_sigma, construct_averaged,
    get_lambency, ingest_hdata, load_catalog, verify_mult_relation,
)
from mjtheta.errors import (
    CongruenceViolation, InsufficientDepth, MissingSource, ParseError,
    UnknownLambency,
)
from mjtheta.eta import EtaQuotient
from mjtheta.jacobi import (
    CoeffTable, NEG_INF, POS_INF, _canonical, ez_apply,
)
from jacobi_oracles import shadow_coeff
from om_group import a_by_search, exact_divisors, om_elements
from relation_records import synthesize, write_records


L1_PLUS = {
    "2", "3", "4", "5", "6", "6+3", "7", "8", "9", "10", "10+5", "12",
    "12+4", "13", "14+7", "16", "18", "18+9", "22+11", "25", "30+15",
    "30+6,10,15", "46+23",
}


def test_catalog_counts_and_partition():
    cat = load_catalog()
    assert len(cat) == 39
    assert {x.symbol for x in cat if x.in_L1_plus} == L1_PLUS
    assert sum(1 for x in cat if x.fixture is not None) == 16
    # fixtures exactly on the complement
    assert all((x.fixture is None) == x.in_L1_plus for x in cat)


def test_a_of_against_search():
    # the CRT formula against the scan it replaced, and n -> a(n) a
    # bijection onto O_m
    for m in range(1, 301):
        ns = exact_divisors(m)
        assert [_a_of(m, n) for n in ns] == [a_by_search(m, n) for n in ns]
        assert sorted(_a_of(m, n) for n in ns) == list(om_elements(m)), m
    assert [_a_of(6, n) for n in (1, 2, 3, 6)] == [1, 7, 5, 11]
    assert [_a_of(30, n) for n in (3, 5, 15)] == [41, 49, 29]


def test_K_against_search():
    for lam in load_catalog():
        assert lam.K == tuple(sorted(a_by_search(lam.m, n)
                                     for n in lam.group_ns)), lam.symbol
    assert get_lambency("6+2").K == (1, 7)
    assert get_lambency("30+6,10,15").K == (1, 11, 19, 29)


def test_parse_symbol_checks_the_group():
    # n * n' = nn'/(n,n')^2: 6 * 10 = 15 and 6 * 15 = 10 close 30+6,10,15
    assert _parse_symbol("30+6,10,15") == (30, (1, 6, 10, 15))
    for bad in ("30+6,10", "30+6,15", "6+4", "12+2", "6+6"):
        with pytest.raises(ParseError):
            _parse_symbol(bad)


def test_catalog_entry_two():
    lam = get_lambency("2")
    assert lam.m == 2 and lam.group_ns == (1,)
    assert lam.root_system == "A1^24"
    assert lam.eta.factors == ((1, 24), (2, -24))


def test_fixture_verbatim_rows():
    f = get_lambency("6+2").fixture
    want = [-2, -2, 4, -6, 6, -6, 10, -14, 12, -12, 20, -24, 22, -26, 34,
            -40]
    assert [f.get(1 - 24 * n, 1) for n in range(16)] == want
    assert f.get(4 - 24, 2) == 16
    assert f.get(16 - 24 * 4, 4) == 80
    # 36+4 has the lone odd value C(0, 12) = 1
    g = get_lambency("36+4").fixture
    assert g.get(144 - 144, 12) == 1
    # printed zeros are zeros, not gaps
    h = get_lambency("18+2").fixture
    assert h.get(1 - 72, 1) == 0


def test_fixture_blank_cells_read_zero():
    # blank leading cells all have D > 1; optimality pins them to zero
    f = get_lambency("6+2").fixture
    assert f.get(4, 2) == 0
    assert f.get(16, 4) == 0


def test_fixture_group_closure():
    f = get_lambency("6+2").fixture
    # row 5 = -row 1 via a(2) = 7 (5*7 = 35 = 11 = -1 mod 12)
    assert f.get(1, 5) == 2
    assert f.get(1 - 24, 5) == 2
    # row 3 is forced to vanish: 3*7 = 21 = 9 = -3 mod 12
    assert f.ranges[3] == (NEG_INF, POS_INF)
    assert f.get(9 - 36 * 24, 3) == 0
    # 30+3,5,15: row 27 is a signed copy of row 3
    g = get_lambency("30+3,5,15").fixture
    assert g.get(9 - 240, 27) == g.get(9 - 240, 3) == 4


def test_all_fixtures_normalized():
    for lam in load_catalog():
        if lam.fixture is not None:
            assert lam.fixture.get(1, 1) == -2, lam.symbol


def test_fixture_support_condition():
    # C(1, r) != 0 exactly when r = +-a mod 2m for some a in K
    for lam in load_catalog():
        f = lam.fixture
        if f is None:
            continue
        m2 = 2 * lam.m
        K = set(lam.K) | {(-a) % m2 for a in lam.K}
        for r in range(m2):
            try:
                v = f.get(1, r)
            except InsufficientDepth:
                continue
            assert (v != 0) == (r in K), (lam.symbol, r, v)
            if v:
                assert v == (-2 if r in lam.K else 2), (lam.symbol, r)


def test_fixture_ez_invariance():
    for lam in load_catalog():
        f = lam.fixture
        if f is None:
            continue
        for a in lam.K:
            g = ez_apply(f, a)
            for (D, r), v in f.entries.items():
                try:
                    w = g.get(D, r)
                except InsufficientDepth:
                    continue
                assert w == v, (lam.symbol, a, D, r)


def test_unknown_lambency():
    with pytest.raises(UnknownLambency):
        get_lambency("11")


def test_uncovered_residues_raise():
    # 20+4 prints no row for r = 2 and the group cannot supply one
    f = get_lambency("20+4").fixture
    assert 2 not in f.ranges
    with pytest.raises(InsufficientDepth):
        f.get(4 - 80, 2)


# -- ingestion ------------------------------------------------------------

def write_csv(tmp_path, rows):
    p = tmp_path / "h.csv"
    write_records(p, rows)
    return p


def test_ingest_roundtrip(tmp_path):
    p = write_csv(tmp_path, [("2", "1A", 1, 1, -2), ("2", "1A", 1, -7, 4488),
                             ("2", "1A", 3, -7, -4488)])
    h = ingest_hdata(p)
    t = h.get("2")
    assert t.get(-7, 1) == 4488
    assert t.get(-7, 3) == -4488  # r = 3 = -1 mod 4
    assert h.provenance.endswith("h.csv")


def test_ingest_empty(tmp_path):
    p = write_csv(tmp_path, [])
    assert ingest_hdata(p).tables == {}


def test_ingest_congruence_violation(tmp_path):
    p = write_csv(tmp_path, [("2", "1A", 1, 2, 5)])
    with pytest.raises(CongruenceViolation):
        ingest_hdata(p)


def test_ingest_unknown_symbol(tmp_path):
    p = write_csv(tmp_path, [("11", "1A", 1, 1, -2)])
    with pytest.raises(UnknownLambency):
        ingest_hdata(p)


def test_ingest_duplicate_key(tmp_path):
    p = write_csv(tmp_path, [("2", "1A", 1, 1, -2), ("2", "1A", 1, 1, -2)])
    with pytest.raises(ParseError):
        ingest_hdata(p)


def test_ingest_antisymmetry_conflict(tmp_path):
    p = write_csv(tmp_path, [("2", "1A", 1, -7, 10), ("2", "1A", 3, -7, 10)])
    with pytest.raises(ParseError):
        ingest_hdata(p)


def test_ingest_normalization_check(tmp_path):
    p = write_csv(tmp_path, [("2", "1A", 1, 1, -1)])
    with pytest.raises(ParseError):
        ingest_hdata(p)


@pytest.mark.parametrize("r", [0, 6])
def test_ingest_rejects_a_value_at_a_structural_zero(tmp_path, r):
    # an odd index-6 table vanishes at r = 0 and r = 6: no read reaches the
    # value, so it cannot enter the entries (or a positivity verdict)
    p = write_csv(tmp_path, [("6+2", "1A", 1, 1, -2),
                             ("6+2", "1A", r, r * r - 24, 5)])
    with pytest.raises(ParseError, match="line 3"):
        ingest_hdata(p)


def test_ingest_accepts_zeros_at_structural_zeros(tmp_path):
    p = write_csv(tmp_path, [("6+2", "1A", 1, 1, -2), ("6+2", "1A", 0, -24, 0),
                             ("6+2", "1A", 6, 12, 0)])
    t = ingest_hdata(p).get("6+2")
    assert t.get(-24, 0) == 0 and t.get(12, 6) == 0
    assert list(t.entries) == [(1, 1)]


def test_ingest_bad_line(tmp_path):
    p = write_csv(tmp_path, [("2", "1A", "x", 1, -2)])
    with pytest.raises(ParseError) as e:
        ingest_hdata(p)
    assert "line 2" in str(e.value)


# -- averaging ------------------------------------------------------------

def optimal_polar_part(symbol):
    """The polar part of the optimal form of a lambency: C(1, r) = -2 on
    the K-orbit of r = 1 and 2 on its negatives, and no other entry."""
    lam = get_lambency(symbol)
    m = lam.m
    entries = {}
    for a in lam.K:
        entries[(1, a) if a <= m else (1, 2 * m - a)] = -2 if a <= m else 2
    return CoeffTable(m, -1, entries, {r: (1, 1) for r in range(m + 1)})


def test_construct_averaged_plumbing():
    # the source's optimal polar part plus its image under a(n) is the
    # averaged lambency's: phi + phi.a(n), not half of it
    for symbol, (source, _n) in AVERAGED_FROM.items():
        h = HData({(source, "1A"): optimal_polar_part(source)})
        avg = construct_averaged(symbol, h)
        f = get_lambency(symbol).fixture
        m = f.m
        rs = [r for r in range(2 * m) if (1 - r * r) % (4 * m) == 0]
        assert [avg.get(1, r) for r in rs] == [f.get(1, r) for r in rs], \
            symbol
        assert avg.get(1, 1) == -2


def test_construct_averaged_missing_source():
    with pytest.raises(MissingSource):
        construct_averaged("6+2", HData({}))
    with pytest.raises(UnknownLambency):
        construct_averaged("7", HData({}))


# -- multiplicative relations ---------------------------------------------

def test_mult_relation_roundtrip(tmp_path):
    order = 5
    recs = synthesize("60+12,15,20:2A", order)
    h = ingest_hdata(write_csv(tmp_path, recs))
    rep = verify_mult_relation("60+12,15,20:2A", h, order=order)
    assert rep["status"] == "verified"
    assert rep["depth"] == order


def test_mult_relation_detects_corruption(tmp_path):
    order = 5
    recs = [list(x) for x in synthesize("60+12,15,20:2A", order)]
    for rec in recs:
        if rec[2] == 1 and rec[3] < 0 and rec[4] != 0:
            rec[4] += 1
            bad_D = rec[3]
            break
    h = ingest_hdata(write_csv(tmp_path, recs))
    rep = verify_mult_relation("60+12,15,20:2A", h, order=order)
    assert rep["status"] == "mismatch"
    assert rep["exponent"] == Fraction(-bad_D, 120)


def test_mult_relation_missing_source():
    with pytest.raises(MissingSource):
        verify_mult_relation("15+5:5A", HData({}))


def test_mult_relation_registry_shape():
    assert len(MULT_RELATIONS) == 9
    for row_id, (lhs, rhs, cls, lines) in MULT_RELATIONS.items():
        assert get_lambency(lhs).fixture is not None
        assert get_lambency(rhs).in_L1_plus
        assert lines


# -- positivity -----------------------------------------------------------

def test_positivity_sigma_partition():
    for lam in load_catalog():
        assert check_positivity_sigma(lam) == lam.in_L1_plus, lam.symbol


def sigma_by_closed_form(lam):
    """Oracle: check_positivity_sigma with each coefficient of the window
    0 < k, r < m from the closed form, one pair at a time."""
    m = lam.m
    s = 0
    for k in range(1, m):
        for r in range(1, m):
            if (k * k - r * r) % (4 * m) != 0:
                continue
            c = shadow_coeff(lam.eta, m, k * k, r)
            if c == 0:
                continue
            this = 1 if c > 0 else -1  # eps(k) = eps(r) = +1 in the window
            if s == 0:
                s = this
            elif this != s:
                return False
    return True


@st.composite
def eta_lambencies(draw):
    """A stand-in lambency: an index m <= 30 and an eta quotient of up to
    four factors n | m."""
    m = draw(st.integers(1, 30))
    factors = draw(st.lists(
        st.tuples(st.sampled_from(divisors(m)),
                  st.integers(-24, 24).filter(bool)), max_size=4))
    return SimpleNamespace(m=m, eta=EtaQuotient(factors), symbol=str(m))


@settings(max_examples=200, deadline=None)
@given(lam=eta_lambencies())
def test_positivity_sigma_against_closed_form(lam):
    assert check_positivity_sigma(lam) == sigma_by_closed_form(lam)


def phi_by_epsilon(t):
    """Oracle: check_positivity_phi as the sign eps_m(r) of the residue
    rule, +1 on 1..m-1, 0 at 0 and m, -1 on m+1..2m-1 (mod 2m), asked of
    every stored C(D < 0, r)."""
    for (D, r), v in t.entries.items():
        if D >= 0:
            continue
        want = _canonical(t.m, -1, r)[1]
        got = 0 if v == 0 else (1 if v > 0 else -1)
        if got != 0 and got != want:
            return False
    return True


@st.composite
def odd_tables(draw):
    """An odd table of index m <= 12: entries on residues 0 < r < m at
    discriminants of their class above and below 0, of either sign or
    (for about half the tables) none negative."""
    m = draw(st.integers(1, 12))
    values = draw(st.sampled_from([
        st.one_of(st.integers(0, 9), st.fractions(0, 2, max_denominator=6)),
        st.one_of(st.integers(0, 9), st.integers(-3, 3),
                  st.fractions(-2, 2, max_denominator=6))]))
    entries = {}
    for r in range(1, m):
        for D in range(r * r, r * r - 24 * m, -4 * m):
            entries[(D, r)] = draw(values)
    ranges = {r: (-inf, inf) for r in range(m + 1)}
    return CoeffTable(m, -1, entries, ranges)


@settings(max_examples=300, deadline=None)
@given(t=odd_tables())
# a negative entry at D = 0 is not polar, so it passes
@example(t=CoeffTable(9, -1, {(0, 6): -1, (-36, 6): 1}, {6: (-36, 0)}))
def test_positivity_phi_against_epsilon(t):
    lam = get_lambency("2")
    assert check_positivity_phi(lam, t) == phi_by_epsilon(t)


def test_positivity_phi_fails_on_all_fixtures():
    for lam in load_catalog():
        if lam.fixture is not None:
            assert not check_positivity_phi(lam), lam.symbol


def test_positivity_phi_vacuous_and_passing():
    m = 2
    zero = CoeffTable(m, -1, {}, {1: (-100, 1)})
    lam = get_lambency("2")
    assert check_positivity_phi(lam, zero)
    pos = CoeffTable(m, -1, {(1, 1): Fraction(-2), (-7, 1): Fraction(4488)},
                     {1: (-7, 1)})
    assert check_positivity_phi(lam, pos)
    neg = CoeffTable(m, -1, {(-7, 1): Fraction(-4488)}, {1: (-7, 1)})
    assert not check_positivity_phi(lam, neg)


def test_positivity_phi_requires_table():
    with pytest.raises(MissingSource):
        check_positivity_phi(get_lambency("2"))
