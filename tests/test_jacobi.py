from fractions import Fraction
from functools import lru_cache
from math import gcd, inf

import pytest
from hypothesis import example, given, settings, strategies as st

from mjtheta.arith import divisors, is_fundamental, kronecker
from mjtheta.cyclo import cadd, ciszero, cmul
from mjtheta.errors import (
    BadDiscriminant, Divergent, InsufficientDepth, NotFundamental,
)
from mjtheta.eta import parse_eta, eta_dlog
from mjtheta.jacobi import (
    CoeffTable, theta_nullwert, OmGroup, ez_apply, hecke_Vl, sz_lift,
    shadow_kernel, shadow_coeff, h_stream, _stream_window,
)
from mjtheta.series import QSeries, series_eq


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


def test_is_fundamental():
    fund = [1, 5, 8, 12, 13, -3, -4, -7, -8, -11, -15, -19, -20]
    not_fund = [0, 2, 3, 9, -9, -12, 25, -16, -18, 45]
    assert all(is_fundamental(D) for D in fund)
    assert not any(is_fundamental(D) for D in not_fund)


# -- theta constants ------------------------------------------------------

def test_theta_nullwert_lattice_sum():
    # sum over r mod 2m of theta^0_{m,r} = sum_{l in Z} q^{l^2/4m}
    m = 6
    total = QSeries.zero(5, 4 * m)
    for r in range(2 * m):
        total = total + theta_nullwert(m, r, 1, 5)
    want = {}
    l = 0
    while l * l < 5 * 4 * m:
        want[l * l] = Fraction(1) if l == 0 else Fraction(2)
        l += 1
    assert {k: v for k, v in total.coeffs.items()} == want


def test_theta_nullwert_antisymmetry():
    m, r = 5, 2
    a = theta_nullwert(m, r, 2, 8)
    b = theta_nullwert(m, -r, 2, 8)
    assert series_eq(a, -1 * b)
    # and the weight-1/2 ones are symmetric
    assert series_eq(theta_nullwert(m, r, 1, 8), theta_nullwert(m, -r, 1, 8))


def test_theta_nullwert_small_values():
    # m=1, r=1, k=2: sum_{l odd} l q^{l^2/4} = q^{1/4}(1 - 3 q^2 + 5 q^6 -..)
    f = theta_nullwert(1, 1, 2, 13)
    assert f.coeff(Fraction(1, 4)) == 1 + (-1)  # l=1 and l=-1... see below
    # careful: l = 1 contributes +1, l = -1 contributes -1; they live at the
    # same exponent only when k-1 is even.  For k=2 the two cancel?  No:
    # theta^1_{m,r} sums over l = r mod 2m only; for m=1, r=1 that is all odd
    # l, and +1, -1 both occur: 1*q^{1/4} + (-1)*q^{1/4} = 0.
    assert f.coeff(Fraction(9, 4)) == 3 - 3


def test_theta_nullwert_separated_residue():
    # m=6, r=1: l = 1, 13, -11, 25, -23, ... no cancellation
    f = theta_nullwert(6, 1, 2, 8)
    assert f.coeff(Fraction(1, 24)) == 1
    assert f.coeff(Fraction(121, 24)) == -11
    assert f.coeff(Fraction(169, 24)) == 13


# -- O_m ------------------------------------------------------------------

def test_OmGroup_m6():
    g = OmGroup(6)
    assert g.elements == (1, 5, 7, 11)
    assert g.ex_divisors == (1, 2, 3, 6)
    assert g.a_of == {1: 1, 2: 7, 3: 5, 6: 11}
    assert g.star(2, 3) == 6 and g.star(2, 6) == 3 and g.star(6, 6) == 1


def test_OmGroup_m30():
    g = OmGroup(30)
    assert g.a_of[3] == 41 and g.a_of[5] == 49 and g.a_of[15] == 29
    assert len(g.elements) == 8


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
    assert t.get(9, 3) == -t.get(9, 1)  # 3 = -1 mod 4: one parity flip


def test_shadow_kernel_parity_and_support():
    t = lam2_kernel()
    assert t.get(1, -1) == -48
    assert t.get(2, 0) == 0
    assert t.get(5, 1) == 0  # 5 off the square support (and congruence)
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
            assert t.square_support and t.parity == -1


# -- EZ action ------------------------------------------------------------

def tables_agree(t1, t2):
    assert t1.m == t2.m and t1.parity == t2.parity
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
    a = OmGroup(2).a_of[2]
    tt = ez_apply(ez_apply(t, a), a)
    assert tables_agree(t, tt)


def test_ez_spec_example():
    # for the index-2 kernel, a(2) = 3 swaps nothing at r=1 (1*3 = 3 = -1):
    # C'(D, 1) = C(D, 3) = -C(D, 1)
    t = lam2_kernel()
    tt = ez_apply(t, OmGroup(2).a_of[2])
    assert tt.get(1, 1) == -t.get(1, 1)


# -- V_l ------------------------------------------------------------------

def test_V1_is_identity():
    t = lam2_kernel()
    assert tables_agree(hecke_Vl(t, 1, 2), t)


@pytest.mark.parametrize("l", [2, 3])
def test_Vl_against_divisor_sum(l):
    # phi | V_l has index 2l and C'(D, r) = sum over d | (n, r, l) of
    # d^(k-1) C(D/d^2, r/d), where D = r^2 - 4 (2l) n
    k, depth = 2, 200
    t = lam2_kernel(depth)
    v = hecke_Vl(t, l, k)
    m2 = 2 * l
    assert v.m == m2 and v.parity == -1
    assert v.ranges == {r: (-inf, depth) for r in range(m2 + 1)}
    nonzero = 0
    for r in range(m2 + 1):
        for D in range(-40 * m2, depth + 1):
            if (D - r * r) % (4 * m2):
                continue
            g = gcd((r * r - D) // (4 * m2), r, l)
            want = sum(d ** (k - 1) * t.get(D // (d * d), r // d)
                       for d in range(1, g + 1) if g % d == 0)
            assert v.get(D, r) == want, (D, r)
            nonzero += want != 0
    assert nonzero >= 10


def sz_lift_by_pairs(t, D, r, k, order):
    """Oracle: the lift with (D/d) taken per (n, d) pair, summed from
    Fraction(0), every weight factor d^(k-2) a Fraction."""
    coeffs = {}
    for n in range(1, order):
        acc = Fraction(0)
        for d in divisors(n):
            s = kronecker(D, d)
            if s == 0:
                continue
            acc = cadd(acc, cmul(Fraction(d) ** (k - 2) * s,
                                 t.get(n * n * D // (d * d), n * r // d)))
        if not ciszero(acc):
            coeffs[n] = acc
    return QSeries(coeffs, order)


def lift_or_depth(lift, t, D, r, k, order):
    try:
        return lift(t, D, r, k, order)
    except InsufficientDepth:
        return InsufficientDepth


def test_sz_lift_against_pair_loop():
    # every fixture table and canonical residue, k = 2 and 3; reads off the
    # congruence are zeros, and the deeper lifts run out of table, when
    # both raise
    from mjtheta.catalog import load_catalog
    depth_errors = nonzero = 0
    for lam in load_catalog():
        t = lam.fixture
        if t is None:
            continue
        for D in (1, -3, -4, 5, -7, 8):
            for r in range(t.m + 1):
                for k in (2, 3):
                    for order in (4, 12):
                        got = lift_or_depth(sz_lift, t, D, r, k, order)
                        want = lift_or_depth(sz_lift_by_pairs, t, D, r, k,
                                             order)
                        if want is InsufficientDepth:
                            depth_errors += 1
                            assert got is InsufficientDepth
                        else:
                            assert (got.coeffs, got.order, got.den) == \
                                (want.coeffs, want.order, want.den)
                            nonzero += bool(got.coeffs)
    assert depth_errors and nonzero


def test_kernel_lift_values_are_int():
    e = parse_eta("1^24 / 2^24")
    t = shadow_kernel(e, 2, 31 ** 2)
    lift = sz_lift(t, 1, 1, 2, 30)
    assert lift.coeffs == sz_lift_by_pairs(t, 1, 1, 2, 30).coeffs
    assert all(type(v) is int for v in lift.coeffs.values())
    # an absent entry reads as int 0, equal and hash-equal to Fraction(0)
    # (off the congruence, at a structural zero, off the square support,
    # inside the window)
    for v in (t.get(5, 1), t.get(16, 0), t.get(17, 1),
              CoeffTable(2, 1, {}, {1: (-inf, 9)}).get(1, 1)):
        assert type(v) is int and v == 0
    assert hash(0) == hash(Fraction(0))


def test_sz_lift_requires_fundamental():
    t = lam2_kernel()
    with pytest.raises(NotFundamental):
        sz_lift(t, 9, 3, 2, 10)


def test_shadow_lift_proportional_to_dlog():
    # S_{1,1} of the index-2 kernel is -2 times the eta quotient's dlog
    e = parse_eta("1^24 / 2^24")
    N = 50
    t = shadow_kernel(e, 2, (N + 1) ** 2)
    lift = sz_lift(t, 1, 1, 2, N)
    dl = eta_dlog(e, N)
    for n in range(1, N):
        assert lift.coeff(n) == -2 * dl.coeff(n), n


def test_stream_window_is_the_largest_accepted_order():
    from mjtheta.catalog import load_catalog
    # lower bounds off and on the residue classes D = r^2 mod 8
    t = CoeffTable(2, 1, {}, {0: (-41, 0), 1: (-38, 1), 2: (-36, 4)})
    assert [_stream_window(t, r) for r in range(3)] == \
        [6, Fraction(39, 8), Fraction(44, 8)]
    tables = [t] + [lam.fixture for lam in load_catalog() if lam.fixture]
    for t in tables:
        for r in t.ranges:
            w = _stream_window(t, r)
            if w == inf:
                continue
            h_stream(t, r, w)
            with pytest.raises(InsufficientDepth):
                h_stream(t, r, w + Fraction(1, 4 * t.m))


def test_h_stream_of_kernel():
    t = lam2_kernel(depth=100)
    h = h_stream(t, 1, 3)
    # exponents -k^2/8 for odd k: -1/8 coefficient 48 (= C(1,1))
    assert h.coeff(Fraction(-1, 8)) == 48
    assert h.coeff(Fraction(-9, 8)) == t.get(9, 1)


# -- exact at every weight ------------------------------------------------

@lru_cache(maxsize=None)
def weight_kernel():
    return lam2_kernel(400)


def theta_by_fractions(m, r, k, order):
    """Oracle: sum over l = r mod 2m of l^(k-1) q^(l^2/4m), each power a
    Fraction."""
    coeffs = {}
    top = 2 * m * order + abs(r)
    for l in range(-top, top + 1):
        if (l - r) % (2 * m) == 0 and l * l < 4 * m * order:
            coeffs[l * l] = coeffs.get(l * l, 0) + Fraction(l) ** (k - 1)
    return coeffs


def exact_values(values):
    return all(type(v) in (int, Fraction) for v in values)


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([-1, 0, 1, 2, 3]), m=st.integers(1, 6),
       r=st.integers(-12, 12), order=st.integers(1, 6))
def test_theta_nullwert_exact_at_every_weight(k, m, r, order):
    if k < 1 and r % (2 * m) == 0:
        with pytest.raises(Divergent):
            theta_nullwert(m, r, k, order)
        return
    f = theta_nullwert(m, r, k, order)
    want = theta_by_fractions(m, r, k, order)
    assert f.coeffs == {x: v for x, v in want.items() if v}
    assert exact_values(f.coeffs.values())


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([-1, 0, 1, 2, 3]), D=st.sampled_from([1, 5]),
       r=st.sampled_from([1, 2, 3]), order=st.integers(2, 12))
@example(k=1, D=1, r=1, order=5)  # 1/3 is not a binary float
def test_sz_lift_exact_at_every_weight(k, D, r, order):
    t = weight_kernel()
    got = sz_lift(t, D, r, k, order)
    want = sz_lift_by_pairs(t, D, r, k, order)
    assert got.coeffs == want.coeffs
    assert exact_values(got.coeffs.values())


@settings(max_examples=20, deadline=None)
@given(k=st.sampled_from([-1, 0, 1, 2, 3]), l=st.sampled_from([2, 3, 4]))
def test_hecke_Vl_exact_at_every_weight(k, l):
    t = weight_kernel()
    v = hecke_Vl(t, l, k)
    assert exact_values(v.entries.values())
    m2 = 2 * l
    for r in range(m2 + 1):
        for D in range(-4 * m2, 200):
            if (D - r * r) % (4 * m2):
                continue
            g = gcd((r * r - D) // (4 * m2), r, l)
            want = sum(Fraction(d) ** (k - 1) * t.get(D // (d * d), r // d)
                       for d in range(1, g + 1) if g % d == 0)
            assert v.get(D, r) == want, (D, r)
