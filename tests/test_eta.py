from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from mjtheta.catalog import load_catalog
from mjtheta.cli import fricke_report
from mjtheta.errors import LevelMismatch, NotConstant, ParseError
from mjtheta.eta import (
    EtaQuotient, parse_eta, format_eta, eta_expand, eta_fricke, eta_dlog,
    verify_fricke_constant, _dlog_coeffs, _unit_coeffs, _unit_recurrence,
)
from mjtheta.series import (
    QSeries, series_mul, series_pow, series_eq, series_rescale,
)


# -- oracle: the Euler-product expansion ----------------------------------
#
# eta_expand runs the log-derivative recurrence; these two functions are the
# independent product route it is checked against: pentagonal numbers for
# E(q) = prod (1 - q^n), then rescale, power and multiply factor by factor.

def _euler_product(order):
    """prod_{n>=1} (1 - q^n) to the given integer order, by the pentagonal
    number theorem (exact sparse support)."""
    coeffs = {0: Fraction(1)}
    j = 1
    while True:
        g1 = j * (3 * j - 1) // 2
        g2 = j * (3 * j + 1) // 2
        if g1 >= order and g2 >= order:
            break
        s = Fraction(-1 if j % 2 else 1)
        if g1 < order:
            coeffs[g1] = s
        if g2 < order:
            coeffs[g2] = s
        j += 1
    return QSeries(coeffs, order)


def product_expand(e, order):
    order = Fraction(order)
    shift = e.prefactor_exponent()
    # the Euler-product part must be known relative to the prefactor
    rel = order - shift
    result = QSeries.monomial(Fraction(1), shift, order)
    for n, d in e.factors:
        # (E(q^n))^d needs E to relative order ceil(rel/n)
        need = max(int(rel / n) + 1, 1)
        block = series_pow(series_rescale(_euler_product(need), n), d)
        result = series_mul(result, block)
    # the product of unit series times a monomial is justified to `order`
    return QSeries(result.coeffs, min(result.order, order), result.den)


def brute_euler(order):
    # oracle: multiply the factors (1 - q^n) one at a time
    c = {0: 1}
    for n in range(1, order):
        c = {k: v for k, v in c.items()}
        new = dict(c)
        for k, v in c.items():
            if k + n < order:
                new[k + n] = new.get(k + n, 0) - v
        c = {k: v for k, v in new.items() if v}
    return c


def test_euler_product_against_brute_force():
    order = 60
    got = _euler_product(order)
    want = brute_euler(order)
    assert {k: v for k, v in got.coeffs.items()} == \
        {k: Fraction(v) for k, v in want.items()}
    # eta(tau) = q^{1/24} E(q): the recurrence meets the same brute force
    eta = eta_expand(EtaQuotient([(1, 1)]), Fraction(order * 24 + 1, 24))
    assert eta.den == 24
    assert {(k - 1) // 24: v for k, v in eta.coeffs.items()} == want


def assert_matches_oracle(e, order):
    got, want = eta_expand(e, order), product_expand(e, order)
    assert (got.coeffs, got.den, got.order) == \
        (want.coeffs, want.den, want.order), (e, order)


@pytest.mark.parametrize("order", [1, 7, 100])
def test_recurrence_matches_product_oracle(order):
    # every catalog quotient and its Fricke image, windows included
    for lam in load_catalog():
        image, _ = eta_fricke(lam.eta, lam.m)
        assert_matches_oracle(lam.eta, order)
        assert_matches_oracle(image, order)


def test_recurrence_windows_off_the_integer_grid():
    # fractional and non-positive orders, including ones below the prefactor
    for text in ["1^1", "1^24 / 2^24", "1^2 8^1 / 2^1 16^2", "2^3 / 1^5"]:
        for order in (Fraction(1, 3), Fraction(-5, 24), Fraction(201, 8),
                      0, -3):
            assert_matches_oracle(parse_eta(text), order)


# -- oracle: the plain recurrence ------------------------------------------
#
# eta._unit_coeffs runs N a_N = sum_{k<=N} b_k a_{N-k} in blocks, adding each
# finished block to every later N by one Kronecker product; the plain loop
# below, one dot product over all earlier terms per N, is its oracle.

def plain_unit_coeffs(e, count):
    b = _dlog_coeffs(e, count)
    a = [1] if count else []
    for N in range(1, count):
        a.append(sum(map(mul, b[1:N + 1], reversed(a))) // N)
    return a


exponents = st.one_of(st.integers(-30, -1), st.integers(1, 30))


@st.composite
def recurrence_case(draw):
    """(quotient, count, block).  Half the cases are one factor
    eta(n tau)^d with n > block: its unit part vanishes off the multiples
    of n, so whole blocks are 0."""
    count = draw(st.integers(0, 300))
    if draw(st.booleans()):
        n = draw(st.integers(2, 72))
        return (EtaQuotient([(n, draw(exponents))]), count,
                draw(st.integers(1, n - 1)))
    factors = draw(st.lists(st.tuples(st.integers(1, 72), exponents),
                            min_size=1, max_size=4))
    return EtaQuotient(factors), count, draw(st.integers(1, 96))


@settings(max_examples=150, deadline=None)
@given(recurrence_case())
# a_7 .. a_13 of eta(70 tau)^5 are 0 while |b_70| = 350: a slot width taken
# from that zero block would be one byte, too narrow to pack b
@example((EtaQuotient([(70, 5)]), 300, 7))
@example((EtaQuotient([(1, 24), (2, -24)]), 300, 1))
# 15- to 20-byte blocks over 2-byte b, at the kernel's own block size
@example((EtaQuotient([(1, 24), (2, -24)]), 300, 64))
def test_blocked_recurrence_matches_plain(case):
    e, count, block = case
    want = plain_unit_coeffs(e, count)
    assert _unit_recurrence(_dlog_coeffs(e, count), block) == want
    assert _unit_coeffs(e, count) == want


def test_blocked_recurrence_at_moduli_depth():
    # the moduli benchmark's 401 unit coefficients, for every principal
    # modulus and its Fricke image
    for lam in load_catalog():
        for e in (lam.eta, eta_fricke(lam.eta, lam.m)[0]):
            assert _unit_coeffs(e, 401) == plain_unit_coeffs(e, 401), e


def test_parse_format_roundtrip():
    for text in ["1^24 / 2^24", "1^4 2^4 / 3^4 6^4", "1^2 8^1 / 2^1 16^2",
                 "1^1 12^1 15^1 20^1 / 3^1 4^1 5^1 60^1"]:
        e = parse_eta(text)
        assert parse_eta(format_eta(e)) == e


def test_eta_expand_leading_term():
    e = parse_eta("1^24 / 2^24")
    f = eta_expand(e, 5)
    assert f.coeff(-1) == 1
    assert f.coeff(0) == -24
    # eta(tau)^24 itself: q * prod(1-q^n)^24 = q - 24 q^2 + 252 q^3 - ...
    g = eta_expand(EtaQuotient([(1, 24)]), 5)
    assert g.coeff(1) == 1 and g.coeff(2) == -24 and g.coeff(3) == 252


def test_eta_expand_fractional_prefactor():
    # eta(tau) = q^{1/24}(1 - q - q^2 + q^5 + ...)
    f = eta_expand(EtaQuotient([(1, 1)]), 3)
    assert f.coeff(Fraction(1, 24)) == 1
    assert f.coeff(Fraction(25, 24)) == -1
    assert f.coeff(Fraction(49, 24)) == -1


def test_fricke_level_mismatch():
    with pytest.raises(LevelMismatch):
        eta_fricke(parse_eta("1^4 5^2"), 6)


def test_fricke_irrational_multiplier():
    # eta(tau)/eta(2 tau) at level 2: the multiplier is sqrt(2)
    with pytest.raises(LevelMismatch, match="irrational"):
        eta_fricke(parse_eta("1^1 / 2^1"), 2)


def test_eta_factor_level_must_be_positive():
    for n in (0, -3):
        with pytest.raises(LevelMismatch):
            EtaQuotient([(n, 2)])


def test_parse_eta_malformed():
    for text in ("1^24/2^x", "1^2^3", "a", "2^"):
        with pytest.raises(ParseError):
            parse_eta(text)


def test_fricke_lambency_two():
    e = parse_eta("1^24 / 2^24")
    image, mult = eta_fricke(e, 2)
    assert image == parse_eta("2^24 / 1^24")
    assert mult == 4096
    assert verify_fricke_constant(e, 2, 30) == 4096


def test_fricke_constant_by_series_product():
    # independent route: expand both factors and multiply
    e = parse_eta("1^4 2^4 / 3^4 6^4")
    image, mult = eta_fricke(e, 6)
    prod = series_mul(eta_expand(e, 40), eta_expand(image, 40))
    assert list(prod.coeffs.items()) == [(0, 1)]
    assert verify_fricke_constant(e, 6, 40) == mult == 81


def test_fricke_constants_at_benchmark_depth():
    # the moduli benchmark's order: T * (T|W_m) is constant to q^399 and
    # equals the multiplier, which checks every block of both expansions
    for lam in load_catalog():
        rep = fricke_report(lam.symbol, 400, None)
        assert rep == {"status": "pass", "depth": 399,
                       "constant": eta_fricke(lam.eta, lam.m)[1]}, lam.symbol


def test_not_constant_detected():
    # eta(tau)^24 * (eta(tau)^24 | W_1) = eta^48 is certainly not constant
    e = EtaQuotient([(1, 24)])
    with pytest.raises(NotConstant):
        verify_fricke_constant(e, 1, 10)


def numeric_dlog(e, order):
    # oracle: theta(f)/f with theta = q d/dq acting on the exact expansion
    f = eta_expand(e, order)
    theta = QSeries({k: v * Fraction(k, f.den) for k, v in f.coeffs.items()},
                    f.order, f.den)
    return series_mul(theta, series_pow(f, -1))


def test_dlog_against_log_derivative():
    for text in ["1^24 / 2^24", "1^4 2^4 / 3^4 6^4", "1^12 / 3^12",
                 "1^2 8^1 / 2^1 16^2"]:
        e = parse_eta(text)
        got = eta_dlog(e, 25)
        want = numeric_dlog(e, 25)
        assert series_eq(got, want), text


def test_dlog_known_values():
    # 1^24/2^24: constant -1, then -24, -24, -96, -24, -144
    f = eta_dlog(parse_eta("1^24 / 2^24"), 6)
    assert [f.coeff(n) for n in range(6)] == [-1, -24, -24, -96, -24, -144]


def test_dlog_constant_is_minus_one_for_weight_zero_catalog_shapes():
    for text in ["1^24 / 2^24", "1^4 2^4 / 3^4 6^4",
                 "1^1 12^1 15^1 20^1 / 3^1 4^1 5^1 60^1"]:
        assert eta_dlog(parse_eta(text), 2).coeff(0) == -1


def test_dlog_rational_windows():
    # the window is kept as given; the coefficients are the integer
    # window's, cut below it
    e = parse_eta("1^24 / 2^24")
    for order, whole in ((Fraction(5, 2), 3), (Fraction(1, 3), 1),
                         (0, 0), (-3, -3)):
        got, want = eta_dlog(e, order), eta_dlog(e, whole)
        assert got.order == order
        assert got.coeffs == {k: v for k, v in want.coeffs.items()
                              if k < order}
