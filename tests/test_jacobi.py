import random
from fractions import Fraction
from math import ceil, gcd, inf

import pytest
from hypothesis import example, given, settings, strategies as st

from mjtheta.arith import divisors, is_fundamental, kronecker, kronecker_row
from mjtheta.catalog import MULT_RELATIONS, _a_of, get_lambency
from mjtheta.cyclo import cadd, cmul
from mjtheta.errors import BadDiscriminant, InsufficientDepth, IrrationalPhase
from mjtheta.eta import parse_eta, eta_dlog
from mjtheta.jacobi import (
    CoeffTable, ez_apply, sz_lift, shadow_kernel, h_stream,
    stream_combination, _canonical, _stream_window,
)
from mjtheta.mocktheta import ROWS
from mjtheta.series import QSeries
from jacobi_oracles import (
    h_stream_by_walk, random_odd_table, shadow_coeff, stream_in_field,
)
from om_group import a_by_search, exact_divisors, om_elements


# -- Kronecker symbol: definitional oracle --------------------------------

def kron_prime_oracle(D, p):
    # (D/p) = 1 iff D is a nonzero square mod 4p, -1 if not a square,
    # 0 if p | D  (odd p via Legendre; p = 2 via the mod-8 rule is what we
    # check against the 4p-definition here)
    if D % p == 0:
        return 0
    squares = {(x * x) % (4 * p) for x in range(4 * p)}
    return 1 if D % (4 * p) in squares else -1


def test_kronecker_prime_rule():
    for D in [1, 5, 8, 12, 13, -3, -4, -7, -8, -20, 21, -23]:
        for p in [2, 3, 5, 7, 11, 13]:
            assert kronecker(D, p) == kron_prime_oracle(D, p), (D, p)


def test_kronecker_multiplicative():
    for D in [5, -3, -8, 13, -20]:
        for a in range(1, 30):
            for b in range(1, 30):
                assert kronecker(D, a * b) == \
                    kronecker(D, a) * kronecker(D, b)


def test_kronecker_sign_and_errors():
    assert kronecker(-4, -1) == -1
    assert kronecker(5, -1) == 1
    assert kronecker(1, 0) == 1
    assert kronecker(5, 0) == 0
    with pytest.raises(BadDiscriminant):
        kronecker(3, 5)
    with pytest.raises(BadDiscriminant):
        kronecker(0, 5)


def test_kronecker_row_is_periodic():
    # entry by entry against kronecker, at counts below, at and above 3|D|
    # for every fundamental D with |D| <= 200
    for D in filter(is_fundamental, range(-200, 201)):
        for count in (0, 1, 2, 3 * abs(D) - 1, 3 * abs(D), 3 * abs(D) + 7):
            assert kronecker_row(D, count) == \
                [0] + [kronecker(D, d) for d in range(1, count)], (D, count)


def test_is_fundamental():
    fund = [1, 5, 8, 12, 13, -3, -4, -7, -8, -11, -15, -19, -20]
    not_fund = [0, 2, 3, 9, -9, -12, 25, -16, -18, 45]
    assert all(is_fundamental(D) for D in fund)
    assert not any(is_fundamental(D) for D in not_fund)


# -- the group O_m and a(n) -----------------------------------------------

def star(n, np):
    return n * np // gcd(n, np) ** 2


def test_OmGroup_m6():
    assert om_elements(6) == (1, 5, 7, 11)
    assert exact_divisors(6) == (1, 2, 3, 6)
    assert {n: _a_of(6, n) for n in exact_divisors(6)} == \
        {1: 1, 2: 7, 3: 5, 6: 11}
    assert star(2, 3) == 6 and star(2, 6) == 3 and star(6, 6) == 1
    # a is a homomorphism: a(n * n') = a(n) a(n') in O_m
    for n in exact_divisors(6):
        for np in exact_divisors(6):
            assert _a_of(6, star(n, np)) == _a_of(6, n) * _a_of(6, np) % 12


def test_OmGroup_m30():
    assert _a_of(30, 3) == 41 and _a_of(30, 5) == 49 and _a_of(30, 15) == 29
    assert len(om_elements(30)) == 8
    assert sorted(_a_of(30, n) for n in exact_divisors(30)) == \
        list(om_elements(30))


# -- shadow kernels -------------------------------------------------------

def lam2_kernel(depth=60):
    return shadow_kernel(parse_eta("1^24 / 2^24"), 2, depth)


def test_shadow_coeff_lambency2():
    e = parse_eta("1^24 / 2^24")
    assert shadow_coeff(e, 2, 1, 1) == 48
    assert shadow_coeff(e, 2, 4, 1) == 0  # congruence fails
    assert shadow_coeff(e, 2, 2, 0) == 0  # not a square
    t = lam2_kernel()
    assert t.get(1, 1) == 48
    assert t.get(9, 3) == -t.get(9, 1)  # 3 = -1 mod 4: one sign flip


def test_shadow_kernel_parity_and_support():
    t = lam2_kernel()
    assert t.get(1, -1) == -48
    assert t.get(2, 0) == 0
    assert t.get(5, 1) == 0  # 5 is off the congruence D = 1 mod 8
    # on the congruence but no square: every D < 0 reads 0
    assert t.get(17, 1) == t.get(-7, 1) == t.get(-10 ** 9 + 1, 1) == 0
    with pytest.raises(InsufficientDepth):
        t.get(63 * 63, 63)  # square discriminant beyond the depth


def test_shadow_kernel_lambency_46_23_vanishing():
    # C(4, 2) = 0 for the 46+23 kernel although eps*eps = +1 there; this is
    # the value that forces the 'zeros allowed' reading of the positivity
    # window check
    t = shadow_kernel(parse_eta("1^1 23^1 / 2^1 46^1"), 46, 50)
    assert t.get(4, 2) == 0
    assert t.get(1, 1) != 0


def test_shadow_kernel_against_shadow_coeff():
    # the periodic kernel entry by entry against the closed form, for every
    # catalog quotient, at depths 0, 1, 50, a non-square and 201^2
    from mjtheta.catalog import load_catalog
    depths = [0, 1, 50, 1000, 201 ** 2]
    for lam in load_catalog():
        m = lam.m
        want = {}
        for j in range(1, 202):
            for r in range(m + 1):
                v = shadow_coeff(lam.eta, m, j * j, r)
                if v:
                    want[(j * j, r)] = v
        for depth in depths:
            t = shadow_kernel(lam.eta, m, depth)
            assert t.entries == {k: v for k, v in want.items()
                                 if k[0] <= depth}, (lam.symbol, depth)
            assert all(type(v) is int for v in t.entries.values())
            assert t.ranges == {r: (-inf, depth) for r in range(m + 1)}


# -- EZ action ------------------------------------------------------------

def tables_agree(t1, t2):
    assert t1.m == t2.m
    for r in set(t1.ranges) & set(t2.ranges):
        lo = max(t1.ranges[r][0], t2.ranges[r][0])
        hi = min(t1.ranges[r][1], t2.ranges[r][1])
        for (D, rr) in set(t1.entries) | set(t2.entries):
            if rr == r and lo <= D <= hi:
                if t1.get(D, r) != t2.get(D, r):
                    return False
    return True


def test_ez_involution():
    t = lam2_kernel()
    a = a_by_search(2, 2)
    tt = ez_apply(ez_apply(t, a), a)
    assert tables_agree(t, tt)


def test_ez_spec_example():
    # for the index-2 kernel, a(2) = 3 swaps nothing at r=1 (1*3 = 3 = -1):
    # C'(D, 1) = C(D, 3) = -C(D, 1)
    t = lam2_kernel()
    assert a_by_search(2, 2) == 3
    tt = ez_apply(t, 3)
    assert tt.get(1, 1) == -t.get(1, 1)


# -- the lift -------------------------------------------------------------

def sz_lift_by_pairs(t, D, r, k, order):
    """Oracle: the lift S_{D,r} at weight k, with (D/d) taken per (n, d)
    pair, summed from Fraction(0), every weight factor d^(k-2) a Fraction,
    for n < order.  sz_lift is its case D = r = 1, k = 2."""
    coeffs = {}
    for n in range(1, ceil(order)):
        acc = Fraction(0)
        for d in divisors(n):
            s = kronecker(D, d)
            if s == 0:
                continue
            acc = cadd(acc, cmul(Fraction(d) ** (k - 2) * s,
                                 t.get(n * n * D // (d * d), n * r // d)))
        if acc != 0:
            coeffs[n] = acc
    return QSeries(coeffs, order)


def lift_or_depth(lift, *args):
    try:
        return lift(*args)
    except InsufficientDepth:
        return InsufficientDepth


def lift_agrees_with_pairs(t, order):
    """sz_lift and sz_lift_by_pairs give the same series, or both raise
    InsufficientDepth; returns the series or InsufficientDepth."""
    got = lift_or_depth(sz_lift, t, order)
    want = lift_or_depth(sz_lift_by_pairs, t, 1, 1, 2, order)
    if want is InsufficientDepth:
        assert got is InsufficientDepth
    else:
        assert (got.coeffs, got.order, got.den) == \
            (want.coeffs, want.order, want.den)
    return got


def test_sz_lift_against_pair_loop():
    # every fixture table, and every catalog kernel to depth 50, whose
    # lifts at order 12 read C(e^2, e) past D = 50 and run out of table,
    # when both raise
    from mjtheta.catalog import load_catalog
    depth_errors = nonzero = 0
    for lam in load_catalog():
        tables = [shadow_kernel(lam.eta, lam.m, 50)]
        if lam.fixture is not None:
            tables.append(lam.fixture)
        for t in tables:
            for order in (4, 12):
                got = lift_agrees_with_pairs(t, order)
                if got is InsufficientDepth:
                    depth_errors += 1
                else:
                    nonzero += bool(got.coeffs)
    assert depth_errors and nonzero


def test_kernel_lift_values_are_int():
    e = parse_eta("1^24 / 2^24")
    t = shadow_kernel(e, 2, 31 ** 2)
    lift = sz_lift(t, 30)
    assert lift.coeffs == sz_lift_by_pairs(t, 1, 1, 2, 30).coeffs
    assert all(type(v) is int for v in lift.coeffs.values())
    # an absent entry reads as int 0, equal and hash-equal to Fraction(0)
    # (off the congruence, at a structural zero, at a non-square D inside
    # the window)
    for v in (t.get(5, 1), t.get(16, 0), t.get(17, 1),
              CoeffTable(2, {}, {1: (-inf, 9)}).get(1, 1)):
        assert type(v) is int and v == 0
    assert hash(0) == hash(Fraction(0))


def test_sz_lift_rational_windows():
    # the window is kept as given; the coefficients are the integer
    # window's, cut below it
    t = lam2_kernel()
    for order, whole in ((Fraction(5, 2), 3), (Fraction(1, 3), 1),
                         (0, 0), (-3, -3)):
        got, want = sz_lift(t, order), sz_lift(t, whole)
        assert got.order == order
        assert got.coeffs == {k: v for k, v in want.coeffs.items()
                              if k < order}
    assert sz_lift(t, Fraction(5, 2)).coeffs == {1: 48, 2: 48}


def test_shadow_lift_proportional_to_dlog():
    # S_{1,1} of the index-2 kernel is -2 times the eta quotient's dlog
    e = parse_eta("1^24 / 2^24")
    N = 50
    t = shadow_kernel(e, 2, (N + 1) ** 2)
    lift = sz_lift(t, N)
    dl = eta_dlog(e, N)
    for n in range(1, N):
        assert lift.coeff(n) == -2 * dl.coeff(n), n


def stream_or_error(stream, t, r, order):
    try:
        return stream(t, r, order)
    except InsufficientDepth as e:
        return str(e)


def stream_against_walk(t, r, order):
    """h_stream and the per-D walk give the same series, or raise the same
    InsufficientDepth; returns the series or the error's message."""
    got = stream_or_error(h_stream, t, r, order)
    want = stream_or_error(h_stream_by_walk, t, r, order)
    if isinstance(want, str):
        assert got == want
    else:
        assert (got.coeffs, got.order, got.den) == \
            (want.coeffs, want.order, want.den)
    return got


def test_stream_window_is_the_largest_accepted_order():
    from mjtheta.catalog import load_catalog
    # lower bounds off and on the residue classes D = r^2 mod 12; r = 0
    # and r = 3 are zeros at every depth
    t = CoeffTable(3, {}, {1: (-38, 1), 2: (-44, 4)})
    assert [_stream_window(t, r) for r in range(4)] == \
        [inf, Fraction(47, 12), Fraction(56, 12), inf]
    tables = [t] + [lam.fixture for lam in load_catalog() if lam.fixture]
    for t in tables:
        for r in t.ranges:
            w = _stream_window(t, r)
            if w == inf:
                continue
            assert not isinstance(stream_against_walk(t, r, w), str)
            assert isinstance(
                stream_against_walk(t, r, w + Fraction(1, 4 * t.m)), str)


def test_h_stream_of_kernel():
    t = lam2_kernel(depth=100)
    h = h_stream(t, 1, 3)
    # exponents -k^2/8 for odd k: -1/8 coefficient 48 (= C(1,1))
    assert h.coeff(Fraction(-1, 8)) == 48
    assert h.coeff(Fraction(-9, 8)) == t.get(9, 1)


# -- the lift on random int tables ----------------------------------------

INT_VALUES = st.one_of(st.integers(-3, 3).filter(bool),
                       st.integers(-10 ** 20, 10 ** 20).filter(bool))


@st.composite
def lift_cases(draw):
    """(t, order): a table of index m <= 4 holding ints of either sign at
    the reads C(e^2, e) the lift makes, each canonical residue justified up to
    a drawn bound or not at all, so that some lifts run out of table."""
    m = draw(st.integers(1, 4))
    order = draw(st.one_of(st.integers(1, 13),
                           st.fractions(1, 13, max_denominator=4)))
    count = ceil(order)
    # the largest discriminant read at each canonical residue
    reads = {}
    for e in range(1, count):
        rc = _canonical(m, e)[0]
        reads[rc] = max(reads.get(rc, -inf), e * e)
    ranges = {}
    for rc in range(m + 1):
        top = reads.get(rc, 0)
        top = draw(st.sampled_from([inf, inf, top, top, top - 4 * m, None]))
        if top is not None:
            ranges[rc] = (-inf, top)
    entries = {}
    for e in range(1, count):
        rc, sign = _canonical(m, e)
        if sign and rc in ranges and e * e <= ranges[rc][1]:
            entries[(e * e, rc)] = draw(INT_VALUES)
    return CoeffTable(m, entries, ranges), order


@settings(max_examples=150, deadline=None)
@given(case=lift_cases())
# C(9, 3) = -C(9, 1) = -2 cancels C(1, 1) = 2 at q^3: the lift is
# 2 q + 2 q^2
@example(case=(CoeffTable(2, {(1, 1): 2, (9, 1): 2},
                          {1: (-inf, inf), 2: (-inf, inf)}), 4))
def test_sz_lift_on_mixed_values(case):
    lift_agrees_with_pairs(*case)


# -- H-streams against the per-D walk ------------------------------------

@st.composite
def stream_cases(draw):
    """(t, r, order, must_raise): a table of index m <= 5, each canonical
    residue justified on a drawn range (either end finite or infinite, on
    or off the class) or not at all, holding ints of either sign; r
    anywhere in [-3m, 3m); order a rational, or exactly the
    stream window (must_raise False) or 1/4m past it (must_raise True)."""
    m = draw(st.integers(1, 5))
    ranges, entries = {}, {}
    for rc in range(m + 1):
        sq = rc * rc
        lo = draw(st.sampled_from(
            [-inf, None, draw(st.integers(sq - 40 * m, sq + 4 * m))]))
        if lo is None:
            continue
        hi = draw(st.sampled_from(
            [inf, draw(st.integers(max(lo, sq - 40 * m), sq + 12 * m))]))
        ranges[rc] = (lo, hi)
        if not _canonical(m, rc)[1]:
            continue
        ds = [D for D in range(sq + 8 * m, sq - 44 * m, -4 * m)
              if lo <= D <= hi]
        if ds:
            for D in draw(st.lists(st.sampled_from(ds), min_size=1,
                                   max_size=6, unique=True)):
                entries[(D, rc)] = draw(INT_VALUES)
    t = CoeffTable(m, entries, ranges)
    r = draw(st.integers(-3 * m, 3 * m - 1))
    try:
        w = _stream_window(t, r)
    except InsufficientDepth:
        w = inf
    kind = draw(st.sampled_from(["window", "past", "any"]))
    if kind == "any" or w == inf:
        order = draw(st.fractions(-3, 12, max_denominator=4 * m))
        return t, r, order, None
    if kind == "window":
        return t, r, w, False
    return t, r, w + Fraction(1, 4 * m), True


@settings(max_examples=300, deadline=None)
@given(case=stream_cases())
def test_h_stream_against_walk(case):
    t, r, order, must_raise = case
    got = stream_against_walk(t, r, order)
    if must_raise is not None:
        assert isinstance(got, str) == must_raise


# -- streams: signs against the field construction ---------------------------

# every mock theta row and both sides of every relation pair
STREAMS = list(ROWS.values()) + [
    spec for _cls, pairs in MULT_RELATIONS.values() for pair in pairs
    for spec in pair]


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False),
       st.fractions(min_value=Fraction(1, 8), max_value=5,
                    max_denominator=8))
def test_stream_combination_matches_the_field_construction(gen, order):
    # each stream over a random odd table of its index, every residue
    # justified to its own random window: where the field construction
    # gives rational coefficients the signs give the same series, and
    # where it gives an irrational one they raise IrrationalPhase
    tables = {}
    for spec in STREAMS:
        m = get_lambency(spec.lambency).m
        if m not in tables:
            tables[m] = random_odd_table(m, gen, range(5))
        t = tables[m]
        try:
            want = stream_in_field(t, spec, order)
        except InsufficientDepth:
            with pytest.raises(InsufficientDepth):
                stream_combination(t, spec, order)
            continue
        values = [(x, v.rational()) for x, v in want.items()]
        if any(v is None for _x, v in values):
            with pytest.raises(IrrationalPhase):
                stream_combination(t, spec, order)
            continue
        got = stream_combination(t, spec, order)
        assert (got.items(), got.order) == (values, want.order)
        assert all(type(v) in (int, Fraction) for v in got.coeffs.values())


@pytest.mark.parametrize("row_id, side, count",
                         [("20+4:2C", 1, 4), ("36+4:6C", 0, 1)])
def test_relation_pairs_with_roots_of_unity_never_verify(row_id, side,
                                                         count):
    # the e(r^2/160) pairs of 20+4:2C and the e(1/6) pair of 36+4:6C: on
    # a table with no zero entry the field construction gives a non-real
    # coefficient at every key, so the signs raise IrrationalPhase
    _cls, pairs = MULT_RELATIONS[row_id]
    specs = [pair[side] for pair in pairs
             if any(turn for _c, _r, turn in pair[side].terms)]
    assert len(specs) == count
    gen = random.Random(1)
    for spec in specs:
        t = random_odd_table(get_lambency(spec.lambency).m, gen, [6],
                             range(1, 4))
        want = stream_in_field(t, spec, 6)
        assert want.coeffs
        assert all(v.rational() is None for v in want.coeffs.values())
        with pytest.raises(IrrationalPhase):
            stream_combination(t, spec, 6)
