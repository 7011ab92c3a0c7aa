import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mjtheta.cyclo import cmul
from mjtheta.errors import Divergent, IrrationalPhase
from mjtheta.series import (
    QSeries, series_add, series_mul, series_rescale, series_half_shift,
    series_scale, series_slice, series_shift, series_verdict,
)

from product_oracles import pair_mul, power
from series_terms import from_terms


def poly(pairs, order=20, den=1):
    return QSeries(dict(pairs), order, den)


def same_series(got, want):
    assert (got.coeffs, got.den, got.order) == \
        (want.coeffs, want.den, want.order)


def agree(a, b):
    return series_verdict(a, b)["status"] == "verified"


# -- oracle: dense polynomial arithmetic ---------------------------------

def dense_mul(a, b, order):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            if ka + kb < order:
                out[ka + kb] = out.get(ka + kb, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def test_add_mul_against_dense():
    rng = random.Random(7)
    for _ in range(50):
        a = {rng.randrange(0, 10): rng.randrange(-5, 6) for _ in range(5)}
        b = {rng.randrange(0, 10): rng.randrange(-5, 6) for _ in range(5)}
        a = {k: v for k, v in a.items() if v}
        b = {k: v for k, v in b.items() if v}
        A, B = poly(a), poly(b)
        C = series_mul(A, B)
        lo_a = min(a) if a else 20
        lo_b = min(b) if b else 20
        assert C.order == min(20 + lo_b, 20 + lo_a)
        want = dense_mul(a, b, int(C.order))
        assert {k: v for k, v in C.coeffs.items()} == \
            {k: Fraction(v) for k, v in want.items()}


def test_window_tracking_mul():
    # q^2 * (known to order 5) against (known to order 7): window math
    a = poly({2: 1}, order=5)
    b = poly({0: 1, 1: 3}, order=7)
    c = series_mul(a, b)
    assert c.order == min(5 + 0, 7 + 2) == 5
    assert c.coeff(3) == 3


def test_pow_inverse_roundtrip():
    # the oracle power: an int series led by 1 has an int inverse
    a = poly({0: 1, 1: -1, 3: 2}, order=15)
    inv = power(a, -1)
    one = series_mul(a, inv)
    assert agree(one, QSeries({0: 1}, one.order))
    # Laurent case with a pole
    t = QSeries({-1: 1, 1: 196884}, 10, 1)
    tinv = power(t, -1)
    assert tinv.lo == 1
    assert agree(series_mul(t, tinv), QSeries({0: 1}, 1))


def test_pow_negative_matches_repeated_inverse():
    a = poly({0: 2, 1: 1}, order=12)
    x = power(a, -3)
    y = power(power(a, 3), -1)
    assert agree(x, y)


def test_rescale():
    a = poly({1: 5, 3: 7}, order=10)
    b = series_rescale(a, 2)
    assert b.coeff(2) == 5 and b.coeff(6) == 7
    assert b.order == 20
    c = series_rescale(a, Fraction(1, 2))
    assert c.coeff(Fraction(1, 2)) == 5
    assert c.order == 5


def test_rescale_needs_positive_exponent():
    for t in (0, -1, Fraction(-1, 2)):
        with pytest.raises(Divergent):
            series_rescale(poly({1: 5}), t)


def test_half_shift():
    # f(tau + 1/2): coefficient at exponent n flips sign for odd n
    a = poly({0: 1, 1: 1, 2: 1}, order=10)
    b = series_half_shift(a, Fraction(1, 2))
    assert b.coeff(0) == 1 and b.coeff(1) == -1 and b.coeff(2) == 1
    # round trip through +s then -s is the identity, exactly, and so is
    # a whole turn
    s = Fraction(3, 2)
    c = series_half_shift(series_half_shift(a, s), -s)
    assert agree(a, c) and agree(a, series_half_shift(a, 0, 1))
    # a turn of 1/2 is the factor -1
    assert series_half_shift(a, 0, Fraction(1, 2)).coeffs == \
        {0: -1, 1: -1, 2: -1}


def test_half_shift_fractional_exponents():
    # 2 q^{1/24} picks up e(1/48): irrational, so refused, naming the
    # exponent; with the turn -1/48 the phase is 1
    a = QSeries({1: Fraction(2)}, 3, 24)
    with pytest.raises(IrrationalPhase, match=r"e\(1/48\) at q\^\(1/24\)"):
        series_half_shift(a, Fraction(1, 2))
    b = series_half_shift(a, Fraction(1, 2), Fraction(-1, 48))
    assert b.coeffs == a.coeffs
    # a zero coefficient needs no phase: it is not stored
    assert series_half_shift(QSeries({1: 0}, 3, 24), Fraction(1, 2)) \
        .coeffs == {}


_shift_values = st.one_of(st.integers(-5, 5), st.fractions(max_denominator=4))


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.integers(-40, 150), _shift_values, max_size=60),
       st.sampled_from([1, 2, 3, 24, 96]),
       st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
       st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)))
def test_half_shift_matches_one_root_per_coefficient(coeffs, den, s, turn):
    # the oracle takes the phase e(turn + s k/den) afresh at every key k,
    # in Fractions: the factor +-1 when 2 (turn + s k/den) is an integer
    a = QSeries(coeffs, 200, den)
    phases = {k: 2 * (turn + s * Fraction(k, den)) for k in a.coeffs}
    if any(h.denominator != 1 for h in phases.values()):
        with pytest.raises(IrrationalPhase):
            series_half_shift(a, s, turn)
        return
    got = series_half_shift(a, s, turn)
    want = QSeries({k: -v if phases[k] % 2 else v
                    for k, v in a.coeffs.items()}, a.order, den)
    assert (got.coeffs, got.den, got.order) == \
        (want.coeffs, want.den, want.order)
    assert [type(v) for v in got.coeffs.values()] == \
        [type(v) for v in want.coeffs.values()]


def test_slice():
    a = poly({0: 1, 1: 2, 2: 3, 3: 4, 4: 5}, order=5)
    s = series_slice(a, 1, 2)
    assert s.coeff(0) == 2 and s.coeff(2) == 4
    assert s.order == 4
    # fractional residue off-grid picks nothing but keeps honest window
    s2 = series_slice(a, Fraction(1, 3), 1)
    assert not s2.coeffs and s2.order == 5 - Fraction(1, 3)


# -- oracle: the slice one Fraction per term --------------------------------

def fraction_slice(a, r, b):
    """series_slice as it was: each exponent as a Fraction, the picked
    terms rebuilt by from_terms."""
    r, b = Fraction(r), Fraction(b)
    out = []
    for k, v in a.coeffs.items():
        x = Fraction(k, a.den)
        if (x - r) % b == 0:
            out.append((x - r, v))
    return from_terms(out, a.order - r) if out else \
        QSeries({}, a.order - r)


@st.composite
def slice_case(draw):
    """A series with den > 1 allowed, negative keys and a window that may
    cut into its support; a fractional residue r of either sign and a
    fractional or integral modulus b > 0."""
    den = draw(st.sampled_from([1, 2, 3, 4, 24, 96]))
    coeffs = draw(st.dictionaries(
        st.integers(min_value=-3 * den, max_value=6 * den),
        st.integers(min_value=-9, max_value=9).filter(bool), max_size=30))
    order = Fraction(draw(st.integers(min_value=-40, max_value=120)),
                     draw(st.sampled_from([1, 7, den])))
    r = Fraction(draw(st.integers(min_value=-60, max_value=60)),
                 draw(st.sampled_from([1, 2, 3, 8, 24, 96])))
    b = Fraction(draw(st.integers(min_value=1, max_value=8)),
                 draw(st.sampled_from([1, 2, 3, 4, 16])))
    return QSeries(coeffs, order, den), r, b


@settings(max_examples=400, deadline=None)
@given(slice_case())
@example((QSeries({-1: 2, 23: 3, 47: 5}, 3, 24), Fraction(-1, 24), 1))
@example((QSeries({-9: 1, 15: 2, 39: 4}, 2, 48), Fraction(-3, 16),
          Fraction(1, 2)))
@example((QSeries({1: 1}, 5, 2), Fraction(1, 3), 2))  # off the grid
def test_slice_matches_fraction_slice(case):
    a, r, b = case
    same_series(series_slice(a, r, b), fraction_slice(a, r, b))


def test_shift():
    a = poly({0: 1, 2: 3}, order=6)
    b = series_shift(a, Fraction(-1, 4))
    assert b.coeff(Fraction(-1, 4)) == 1
    assert b.coeff(Fraction(7, 4)) == 3
    assert b.order == 6 - Fraction(1, 4)


small_series = st.builds(
    lambda d, o: poly({k: v for k, v in d.items() if v}, order=o),
    st.dictionaries(st.integers(min_value=-3, max_value=8),
                    st.integers(min_value=-9, max_value=9), max_size=5),
    st.integers(min_value=9, max_value=14),
)


@settings(max_examples=80, deadline=None)
@given(small_series, small_series, small_series)
def test_ring_axioms(a, b, c):
    assert agree(series_add(a, b), series_add(b, a))
    assert agree(series_mul(a, b), series_mul(b, a))
    assert agree(series_mul(a, series_add(b, c)),
                 series_add(series_mul(a, b), series_mul(a, c)))
    assert agree(series_mul(series_mul(a, b), c),
                 series_mul(a, series_mul(b, c)))


@settings(max_examples=50, deadline=None)
@given(small_series, st.integers(min_value=0, max_value=4))
def test_pow_is_repeated_mul(a, e):
    direct = power(a, e)
    acc = QSeries({0: 1}, 99)
    for _ in range(e):
        acc = series_mul(acc, a)
    assert agree(direct, acc)


# -- windows off the integer grid -------------------------------------------

def hand_mul(a, b):
    """Window and coefficients of a*b from exact exponents, no key units."""
    lo = lambda s: s.lo if s.coeffs else s.order
    order = min(a.order + lo(b), b.order + lo(a))
    out = {}
    for xa, va in a.items():
        for xb, vb in b.items():
            if xa + xb < order:
                out[xa + xb] = out.get(xa + xb, 0) + va * vb
    return order, {x: v for x, v in out.items() if v}


fractional_series = st.builds(
    lambda d, den, num: QSeries(d, Fraction(num, 7 * den), den),
    st.dictionaries(st.integers(min_value=-6, max_value=30),
                    st.integers(min_value=-9, max_value=9), max_size=6),
    st.sampled_from([2, 3, 4, 6]),
    # order * den = num / 7 is never an integer
    st.integers(min_value=1, max_value=200).filter(lambda n: n % 7),
)


@settings(max_examples=150, deadline=None)
@given(fractional_series, fractional_series)
def test_mul_fractional_window_by_hand(a, b):
    assert (a.order * a.den).denominator > 1
    c = series_mul(a, b)
    order, want = hand_mul(a, b)
    assert c.order == order
    assert dict(c.items()) == want
    assert all(x < c.order for x, _v in c.items())


def test_mul_fractional_window_example():
    # a = 1 + 2q^{1/2} + 5q^{3/2} + O(q^{11/6})
    # b = q^{1/3} - q^{2/3} + O(q^{7/4})
    a = QSeries({0: 1, 1: 2, 3: 5}, Fraction(11, 6), 2)
    b = QSeries({1: 1, 2: -1}, Fraction(7, 4), 3)
    c = series_mul(a, b)
    # window min(11/6 + 1/3, 7/4 + 0) = 7/4 on the grid 1/6: key bound 10.5
    assert c.order == Fraction(7, 4) and c.den == 6
    # 5q^{3/2} * q^{1/3} = 5q^{11/6} lies just past the window and is cut
    assert dict(c.items()) == {Fraction(1, 3): 1, Fraction(2, 3): -1,
                               Fraction(5, 6): 2, Fraction(7, 6): -2}


# -- the verdict's first mismatch ----------------------------------------

def fraction_scan(a, b):
    """Oracle: walk the exact exponents of both supports in increasing order
    through coeff(), stopping at the first that differs below both windows."""
    window = min(a.order, b.order)
    for x in sorted({x for s in (a, b) for x, _v in s.items()}):
        if x < window and a.coeff(x) != b.coeff(x):
            return x, a.coeff(x), b.coeff(x)
    return None


def scan_verdict(a, b):
    """series_verdict(a, b) as the oracle scan gives it."""
    bad = fraction_scan(a, b)
    if bad is None:
        return {"status": "verified", "depth": min(a.order, b.order)}
    x, va, vb = bad
    return {"status": "mismatch", "exponent": x, "lhs": va, "rhs": vb}


@st.composite
def near_pairs(draw):
    """a with den > 1 and a fractional window, and b: a re-keyed on a finer
    grid with a few coefficients changed, and its own fractional window."""
    a = draw(fractional_series)
    f = draw(st.sampled_from([1, 2, 5]))
    den = a.den * f
    coeffs = {k * f: v for k, v in a.coeffs.items()}
    for k, dv in draw(st.dictionaries(
            st.integers(min_value=-6 * f, max_value=30 * f),
            st.integers(min_value=-2, max_value=2), max_size=3)).items():
        coeffs[k] = coeffs.get(k, 0) + dv
    num = draw(st.integers(min_value=1, max_value=1400).filter(
        lambda n: n % 7))
    return a, QSeries(coeffs, Fraction(num, 7 * den), den)


@settings(max_examples=200, deadline=None)
@given(near_pairs())
def test_first_mismatch_against_fraction_scan(pair):
    a, b = pair
    assert (a.order * a.den).denominator > 1
    assert series_verdict(a, b) == scan_verdict(a, b)
    assert series_verdict(b, a) == scan_verdict(b, a)


def test_first_mismatch_example():
    # a = 1 + 2q^{1/2} + O(q^{11/6}), b = 1 + 2q^{1/2} - q^{4/3} + O(q^{5/3})
    a = QSeries({0: Fraction(1), 1: Fraction(2)}, Fraction(11, 6), 2)
    b = QSeries({0: Fraction(1), 3: Fraction(2), 8: Fraction(-1)},
                Fraction(5, 3), 6)
    assert series_verdict(a, b) == {"status": "mismatch",
                                    "exponent": Fraction(4, 3),
                                    "lhs": 0, "rhs": -1}
    assert series_verdict(b, a) == {"status": "mismatch",
                                    "exponent": Fraction(4, 3),
                                    "lhs": -1, "rhs": 0}
    # past the shorter window nothing is compared
    c = QSeries({0: Fraction(1), 3: Fraction(2), 10: Fraction(7)},
                Fraction(5, 3), 6)
    assert series_verdict(a, c) == series_verdict(c, a) == \
        {"status": "verified", "depth": Fraction(5, 3)}


# -- the scalar product against cmul one coefficient at a time -------------

_scalars = st.one_of(st.integers(-9, 9), st.fractions(max_denominator=6))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(-40, 150), _scalars, max_size=30),
       st.sampled_from([1, 2, 3, 24]),
       st.integers(min_value=-50, max_value=1500).filter(lambda n: n % 7),
       _scalars)
@example({0: 3, 5: -2}, 1, 70, 4)  # int * int
@example({1: Fraction(1, 2), 3: 5}, 24, 200, 0)  # zero scalar
def test_scale_matches_cmul_per_coefficient(coeffs, den, num, c):
    # windows off the key grid: order * den = num / 7
    a = QSeries(coeffs, Fraction(num, 7 * den), den)
    got = series_scale(a, c)
    assert (got.den, got.order) == (a.den, a.order)
    want = {x: cmul(c, v) for x, v in a.items()}
    assert dict(got.items()) == {x: v for x, v in want.items() if v != 0}
    if type(c) is int:
        # int * int stays int
        assert all(type(got.coeffs[k]) is int for k, v in a.coeffs.items()
                   if type(v) is int and k in got.coeffs)


# -- the Kronecker kernel against the pair loop -------------------------------

def same_product(c, want):
    assert (c.coeffs, c.order, c.den) == (want.coeffs, want.order, want.den)
    assert all(type(v) is int for v in c.coeffs.values())


# values at and next to the slot byte boundaries, besides uniform ones
_edge_values = st.sampled_from(
    [s * v for e in (7, 8, 15, 16, 63, 64, 399, 400) for s in (1, -1)
     for v in (2 ** e - 1, 2 ** e, 2 ** e + 1)])


@st.composite
def int_series(draw):
    """Int coefficients on keys offset + stride * j, negative keys allowed,
    den from 1 to 24 and windows off the key grid (order * den = num / 7)
    that may cut into the support or lie below it."""
    den = draw(st.sampled_from([1, 2, 3, 24]))
    stride = draw(st.sampled_from([1, 2, 3, 5, 24]))
    offset = draw(st.integers(min_value=-40, max_value=40))
    mag = draw(st.sampled_from([1, 9, 10 ** 6, 10 ** 40, 10 ** 120]))
    values = st.one_of(st.integers(min_value=-mag, max_value=mag),
                       _edge_values).filter(bool)
    coeffs = draw(st.dictionaries(
        st.integers(min_value=-5, max_value=25).map(
            lambda j: offset + stride * j), values, max_size=8))
    num = draw(st.integers(min_value=-300, max_value=1500))
    return QSeries(coeffs, Fraction(num, 7 * den), den)


@settings(max_examples=400, deadline=None)
@given(int_series(), int_series())
@example(QSeries({0: -15}, 5), QSeries({0: 17}, 5))  # |c| = 255: 9 bits
@example(QSeries({0: 127, 1: 127}, 9), QSeries({0: 1, 1: 1}, 9))  # 2 * 127
@example(QSeries({0: 255, 3: -255}, 9),
         QSeries({0: 257, 6: 1}, Fraction(58, 7)))
@example(QSeries({}, 5), QSeries({0: 1, 1: 2}, 5))
@example(QSeries({0: 2, 3: 5}, 5), QSeries({0: 7}, 10))  # 5 keys, stride 3
@example(QSeries({-48: 10 ** 120}, Fraction(9, 7), 24),
         QSeries({-1: -(10 ** 120), 2: 3}, Fraction(7, 3), 3))
def test_kronecker_matches_pair_loop(a, b):
    same_product(series_mul(a, b), pair_mul(a, b))
    same_product(series_mul(b, a), pair_mul(b, a))


@pytest.mark.parametrize("m", [1, 3, 10 ** 120])
def test_kronecker_cancellation(m):
    # m (1 - q^3) * m (1 + q^3 + q^6 + ...) = m^2 (1 - q^30): nothing but the
    # constant survives below the window, on a stride-3 grid with den 24
    a = QSeries({0: m, 72: -m}, 11, 24)
    b = QSeries({72 * i: m for i in range(10)}, 10, 24)
    c = series_mul(a, b)
    same_product(c, pair_mul(a, b))
    assert c.coeffs == {0: m * m} and c.order == 10
    # (q + q^2)(q - q^2) = q^2 - q^4: the q^3 terms cancel exactly
    c = series_mul(QSeries({1: m, 2: m}, 9), QSeries({1: m, 2: -m}, 9))
    assert c.coeffs == {2: m * m, 4: -m * m}
    # an operand with no term inside its window is zero up to it: the
    # product is zero up to 4/3 + 5
    c = series_mul(QSeries({5: m}, 6), QSeries({5: -m}, Fraction(4, 3)))
    assert c.coeffs == {} and c.order == Fraction(19, 3)
