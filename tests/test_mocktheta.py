import math
from fractions import Fraction

import pytest

from mjtheta.errors import (
    Divergent, MissingSource, UnknownName, UnresolvableShift,
)
from mjtheta.mocktheta import (
    EULERIAN_NAMES, ROWS, eulerian, pochhammer, row_names,
    verify_andrews_hickerson, verify_table14_15, verify_watson,
)
from mjtheta.series import QSeries, series_eq

q = (1, 1)

INTERNAL_ROWS = [
    "3:psi", "3:nu", "3:phi",
    "5:psi0", "5:psi1", "5:phi0", "5:phi1", "5:F0", "5:F1",
    "7:F0", "7:F1", "7:F2",
]


# -- pochhammer -----------------------------------------------------------

def test_pochhammer_finite():
    p = pochhammer(q, q, 2, 10)
    assert p.items() == [(0, 1), (1, -1), (2, -1), (3, 1)]
    assert pochhammer((Fraction(3), 2), q, 0, 10).items() == [(0, 1)]


def test_pochhammer_infinite_pentagonal():
    # (q; q)_inf = sum (-1)^k q^(k(3k-1)/2)
    p = pochhammer(q, q, math.inf, 13)
    want = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}
    assert {int(k): v for k, v in p.items()} == want


def test_pochhammer_divergent():
    with pytest.raises(Divergent):
        pochhammer(q, (1, 0), math.inf, 5)


# -- Eulerian series ------------------------------------------------------

def test_eulerian_spot_values():
    assert [eulerian("3:psi", 8).coeff(n) for n in range(8)] == \
        [0, 1, 1, 1, 2, 2, 2, 3]
    assert [eulerian("3:f", 8).coeff(n) for n in range(8)] == \
        [1, 1, -2, 3, -3, 3, -5, 7]
    assert [eulerian("5:F0", 6).coeff(n) for n in range(6)] == \
        [1, 0, 1, 1, 1, 1]
    assert [eulerian("3:omega", 6).coeff(n) for n in range(6)] == \
        [1, 2, 3, 4, 6, 8]


def test_eulerian_integer_coefficients():
    for name in EULERIAN_NAMES:
        f = eulerian(name, 12)
        assert f.den == 1, name
        for _x, v in f.items():
            assert Fraction(v).denominator == 1, name


@pytest.mark.parametrize("order", [Fraction(1345, 96), Fraction(23, 2)])
def test_eulerian_keeps_fractional_window(order):
    # the window is exactly the requested order, and the coefficients are
    # those of the integer-order expansion below it
    for name in EULERIAN_NAMES:
        f = eulerian(name, order)
        g = eulerian(name, math.ceil(order))
        assert f.order == order and f.den == g.den == 1, name
        assert f.coeffs == \
            {k: v for k, v in g.coeffs.items() if k < order}, name
    assert pochhammer(q, q, math.inf, order).order == order


def test_eulerian_unknown_name():
    with pytest.raises(UnknownName):
        eulerian("9:zeta", 10)


def test_eulerian_8U1_against_defining_sum():
    # U1 = sum_n q^((n+1)^2) (-q; q^2)_n / (-q^2; q^4)_(n+1)  (Gordon-McIntosh)
    N = 40
    want = [0] * N
    n = 0
    while (n + 1) ** 2 < N:
        t = [0] * N
        t[(n + 1) ** 2] = 1
        for i in range(n):  # times (1 + q^(2i+1))
            e = 2 * i + 1
            for x in range(N - 1, e - 1, -1):
                t[x] += t[x - e]
        for i in range(n + 1):  # divided by (1 + q^(4i+2))
            e = 4 * i + 2
            for x in range(e, N):
                t[x] -= t[x - e]
        want = [w + v for w, v in zip(want, t)]
        n += 1
    f = eulerian("8:U1", N)
    assert f.order == N
    assert [f.coeff(x) for x in range(N)] == want
    assert want[:6] == [0, 1, 0, -1, 1, 2]


def test_eulerian_2mu_constant():
    # the registered series is 2*mu, whose constant term is 1
    assert eulerian("6:2mu", 4).coeff(0) == 1


# -- table rows against the catalog fixtures ------------------------------

@pytest.mark.parametrize("name", INTERNAL_ROWS)
def test_internal_row_verifies(name):
    rep = verify_table14_15(name, order=8)
    assert rep["status"] == "verified", rep
    assert rep["depth"] >= 6


def test_row_depth_limited_by_fixture():
    # 24+8 row 2 is printed to n = 15, enough for psi past order 12
    rep = verify_table14_15("3:psi", order=12)
    assert rep["status"] == "verified" and rep["depth"] == 12


def test_rows_without_data_raise():
    with pytest.raises(MissingSource):
        verify_table14_15("3:f")
    with pytest.raises(MissingSource):
        verify_table14_15("8:V0")


def test_row_unknown_name():
    with pytest.raises(UnknownName):
        verify_table14_15("3:zeta")


def test_row_partition():
    # exactly the rows over 24+8, 42+..., 60+... close over the catalog
    internal = []
    for name in row_names():
        try:
            verify_table14_15(name, order=2)
            internal.append(name)
        except MissingSource:
            pass
    assert internal == sorted(INTERNAL_ROWS)


def test_unresolvable_shift(monkeypatch):
    # a wrong +-shift leaves no candidate aligned with integer exponents
    monkeypatch.setattr(ROWS["3:psi"], "shift", ("pm", Fraction(1, 5)))
    with pytest.raises(UnresolvableShift):
        verify_table14_15("3:psi", order=4)


def test_mismatch_is_reported():
    # corrupting the source at depth 2 flips the report, and the first
    # offending exponent is located
    from mjtheta.catalog import get_lambency
    f = get_lambency("24+8").fixture
    entries = dict(f.entries)
    key = (4 - 96, 2)
    entries[key] = entries[key] + 2
    from mjtheta.jacobi import CoeffTable
    bad = CoeffTable(f.m, f.parity, entries, f.ranges)
    rep = verify_table14_15("3:psi", source=bad, order=4)
    assert rep["status"] == "mismatch"
    assert rep["exponent"] == Fraction(92, 96) - Fraction(-1, 24)


# -- self-contained identities --------------------------------------------

def test_watson():
    for rep in verify_watson(60):
        assert rep["status"] == "verified", rep


def test_andrews_hickerson():
    for rep in verify_andrews_hickerson(60):
        assert rep["status"] == "verified", rep


def test_watson_catches_perturbation():
    # sanity: the comparison is not vacuous
    a = eulerian("5:f0", 20)
    b = a + QSeries.monomial(1, 19, 20)
    assert not series_eq(a, b)
