import math
from fractions import Fraction

import pytest

from hypothesis import example, given, settings, strategies as st

from mjtheta.cyclo import cmul, ex
from mjtheta.catalog import get_lambency
from mjtheta import mocktheta, series
from mjtheta.errors import Divergent, MissingSource, UnknownName
from mjtheta.jacobi import _stream_window, h_stream
from mjtheta.mocktheta import (
    EULERIAN_DEFS, EULERIAN_NAMES, ROWS, _powers, _step, eulerian,
    pochhammer, row_names, verify_andrews_hickerson, verify_table14_15,
    verify_watson,
)
from mjtheta.series import (
    QSeries, _arg_transform, series_eq, series_mul, series_pow,
    series_slice,
)

q = (1, 1)

INTERNAL_ROWS = [
    "3:psi", "3:nu", "3:phi",
    "5:psi0", "5:psi1", "5:phi0", "5:phi1", "5:F0", "5:F1",
    "7:F0", "7:F1", "7:F2",
]


# -- oracle: the full-window Pochhammer product ----------------------------
#
# Every factor (1 - c q^e), and every geometric series 1/(1 - c q^e), is a
# series over the whole window, multiplied in by series_mul; so is each
# summand's monomial.  The package takes one O(window) step per factor and
# builds summand n only below order - lead(n).

def _geom(c, e, order):
    """1/(1 - c q^e) as a truncated series."""
    terms, i = [], 0
    while i * e < order:
        terms.append((i * e, cmul(1, c ** i) if i else 1))
        i += 1
    return QSeries.from_terms(terms, order)


class FullWindowPoch:
    """Prefix products (c q^j; x q^k)_n and their reciprocals at one window,
    one series_mul per factor."""

    def __init__(self, order):
        self.order = order
        self.fwd = {}
        self.inv = {}

    def _extend(self, store, c, j, k, x, n, step):
        seq = store.setdefault((c, j, k, x),
                               [QSeries({0: 1}, self.order)])
        while len(seq) <= n:
            i = len(seq) - 1
            e = j + i * k
            if e >= self.order:
                seq.append(seq[-1])
                continue
            seq.append(step(seq[-1], cmul(c, x ** i), e))
        return seq[n]

    def get(self, c, j, k, n, power=1, x=1):
        if n is math.inf:
            n = 0
            while j + n * k < self.order:
                n += 1
        if power >= 0:
            base = self._extend(
                self.fwd, c, j, k, x, n,
                lambda f, cc, e: series_mul(f, QSeries.from_terms(
                    [(0, 1), (e, cmul(-1, cc))], self.order)))
        else:
            base = self._extend(
                self.inv, c, j, k, x, n,
                lambda f, cc, e: series_mul(f, _geom(cc, e, self.order)))
        p = abs(power)
        return base if p == 1 else series_pow(base, p)

    def product(self, factors):
        out = QSeries({0: 1}, self.order)
        for c, j, k, n, power in factors:
            out = series_mul(out, self.get(c, j, k, n, power))
        return out


def full_window_eulerian(name, order):
    order = Fraction(order)
    cache = FullWindowPoch(order)
    if name == "6:2mu":
        # 2 mu = 1 + sum (-1)^n q^(n+1) (1 + q^n) (q;q^2)_n / (-q;q)_(n+1)
        out = QSeries({0: 1}, order)
        n = 0
        while n + 1 < order:
            t = series_mul(
                QSeries.from_terms([(n + 1, 1), (2 * n + 1, 1)], order),
                cache.product([(1, 1, 2, n, 1), (-1, 1, 1, n + 1, -1)]))
            out = out + (-1) ** n * t
            n += 1
        return out
    lead, factors, sign, const = EULERIAN_DEFS[name]
    assert const == 0
    out = QSeries.zero(order)
    n = 0
    while lead(n) < order:
        out = out + series_mul(QSeries.monomial(sign(n), lead(n), order),
                               cache.product(factors(n)))
        n += 1
    return out


def same_series(got, want):
    assert (got.coeffs, got.den, got.order) == \
        (want.coeffs, want.den, want.order)


@pytest.mark.parametrize("order", [1, 7, 100, Fraction(1345, 96)])
def test_eulerian_matches_full_window_product(order):
    assert len(EULERIAN_NAMES) == 42
    for name in EULERIAN_NAMES:
        same_series(eulerian(name, order), full_window_eulerian(name, order))


def test_one_pochhammer_path(monkeypatch):
    # every product is built by series_binomial steps alone
    def banned(*args):
        raise AssertionError("series_mul or series_pow called")

    assert not hasattr(mocktheta, "series_mul")
    assert not hasattr(mocktheta, "series_pow")
    monkeypatch.setattr(series, "series_mul", banned)
    monkeypatch.setattr(series, "series_pow", banned)
    for name in EULERIAN_NAMES:
        eulerian(name, 20)
    pochhammer(q, q, math.inf, 20)
    pochhammer((-1, 1), (1, 2), 5, 20)
    assert all(rep["status"] == "verified"
               for rep in verify_andrews_hickerson(20))


@pytest.mark.parametrize("name", EULERIAN_NAMES)
def test_lead_is_non_decreasing(name):
    # so the window order - lead(n) of eulerian's carried product only
    # shrinks from one summand to the next
    lead = EULERIAN_DEFS[name][0]
    assert all(lead(n) <= lead(n + 1) for n in range(200))


_factor_maps = st.dictionaries(
    st.tuples(st.sampled_from([1, -1, 2, Fraction(1, 2), ex(Fraction(1, 3))]),
              st.integers(1, 12)),
    st.integers(-2, 2), max_size=5)


@settings(max_examples=150, deadline=None)
@given(_factor_maps, _factor_maps,
       st.builds(Fraction, st.integers(1, 40), st.sampled_from([1, 3])),
       st.builds(Fraction, st.integers(0, 10)))
def test_step_matches_building_from_one(have, want, w, extra):
    # stepping the product of `have` (built at a window no narrower) to
    # `want` is the product of `want` built from 1; integral exponents, as
    # in eulerian, so the den is 1 both ways
    one = QSeries({0: 1}, w + extra)
    stepped = _step(_step(one, {}, have, w + extra), have, want, w)
    same_series(stepped, _step(QSeries({0: 1}, w), {}, want, w))


_fractional_factor_maps = st.dictionaries(
    st.tuples(st.sampled_from([1, -1, Fraction(1, 2), ex(Fraction(1, 3))]),
              st.builds(Fraction, st.integers(1, 24),
                        st.sampled_from([2, 3]))),
    st.integers(-2, 2), max_size=5)


@settings(max_examples=150, deadline=None)
@given(_fractional_factor_maps, _fractional_factor_maps,
       st.builds(Fraction, st.integers(1, 40), st.sampled_from([1, 2, 3])),
       st.builds(Fraction, st.integers(0, 10)))
def test_step_with_fractional_exponents_matches_building_from_one(
        have, want, w, extra):
    # exponents with den 2 and 3: series_binomial never lowers the den, so
    # a product stepped past its fractional factors may keep a larger den
    # than the one built from 1; the terms and the window agree
    one = QSeries({0: 1}, w + extra)
    stepped = _step(_step(one, {}, have, w + extra), have, want, w)
    built = _step(QSeries({0: 1}, w), {}, want, w)
    assert (stepped.items(), stepped.order) == (built.items(), built.order)


def test_powers_merges_factors_below_the_window():
    assert _powers([(-1, 1, 2, math.inf, 2), (-1, 1, 1, 3, -1)], 6) == \
        {(-1, 1): 1, (-1, 2): -1, (-1, 3): 1, (-1, 5): 2}
    # a factor at the window bound is 1 inside it, also among falling ones
    assert _powers([(1, 6, 1, 4, 1)], 6) == {}
    assert _powers([(1, 6, -1, 3, 1)], 6) == {(1, 5): 1, (1, 4): 1}


_pochhammer_scalars = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.sampled_from([ex(Fraction(1, 4)), ex(Fraction(2, 3))]))
_exponents = st.builds(Fraction, st.integers(-4, 8),
                       st.sampled_from([1, 2, 3]))


@settings(max_examples=150, deadline=None)
@given(_pochhammer_scalars, _exponents, _pochhammer_scalars, _exponents,
       st.one_of(st.integers(min_value=0, max_value=8), st.just(math.inf)),
       st.builds(Fraction, st.integers(-20, 90), st.sampled_from([1, 7])))
# falling exponents 8, 5, 2, -1, -4: the first two factors are 1 in the
# window, the later ones are not
@example(1, Fraction(8), 1, Fraction(-3), 5, Fraction(5))
def test_pochhammer_matches_full_window_product(ca, ea, cx, ex_, n, order):
    if n is math.inf and ex_ <= 0:
        with pytest.raises(Divergent):
            pochhammer((ca, ea), (cx, ex_), n, order)
        return
    want = FullWindowPoch(order).get(ca, ea, ex_, n, x=cx)
    same_series(pochhammer((ca, ea), (cx, ex_), n, order), want)


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
    assert eulerian("6:2mu", 1).coeffs == {0: 1}


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


def test_wrong_shift_is_never_verified(monkeypatch):
    # the other sign and an off-grid shift slice nothing from H_2; one a
    # whole step lower moves the stream a step up
    for s in [Fraction(1, 24), Fraction(1, 5), Fraction(-25, 24)]:
        monkeypatch.setattr(ROWS["3:psi"], "s", s)
        rep = verify_table14_15("3:psi", order=4)
        assert rep["status"] == "mismatch", (s, rep)


# -- the stored shifts ----------------------------------------------------
#
# The source prints these 18 shifts only up to sign; the rows store them
# resolved.

PM_ROWS = ["3:psi", "3:nu", "3:f", "5:psi0", "5:psi1", "5:chi0", "5:chi1",
           "6:sigma", "7:F0", "7:F1", "7:F2", "10:X", "10:chi", "2:A",
           "2:B", "8:T0", "8:T1", "8:V1"]


def meets_support(row, s):
    """s = -r^2/4m (mod b) for every term r: H_r lives on -r^2/4m + Z, so
    only then can the slice [s; b] pick a term of it."""
    m = get_lambency(row.lambency).m
    return all((s + Fraction(r * r, 4 * m)) % row.b == 0
               for _c, r in row.terms)


@pytest.mark.parametrize("name", row_names())
def test_row_shift_meets_the_support(name):
    assert meets_support(ROWS[name], ROWS[name].s)


def test_congruence_fixes_the_printed_signs():
    # only 2:B (s = 1/2) admits both signs; it keeps +1/2, the lead 1 of
    # 2:B(q) at q^0
    assert all(ROWS[name].b == 1 and ROWS[name].s for name in PM_ROWS)
    assert [name for name in PM_ROWS
            if meets_support(ROWS[name], -ROWS[name].s)] == ["2:B"]
    assert ROWS["2:B"].s == Fraction(1, 2)


def resolve_pm_shift(name, s0, order):
    """The shifts among +-s0 that the runtime resolver admitted while the
    rows stored them up to sign: those whose sliced stream lies on integer
    exponents, and, when both do, those that agree with the Eulerian
    series at the stream's lead."""
    row = ROWS[name]
    source = get_lambency(row.lambency).fixture
    candidates = [s0, -s0]
    avail = min(_stream_window(source, r) for _c, r in row.terms)
    stream_order = min(avail, order / row.arg[0] + max(candidates))

    def build(s):
        combined = None
        for c, r in row.terms:
            f = h_stream(source, r, stream_order)
            f = c * f if c != 1 else f
            combined = f if combined is None else combined + f
        g = _arg_transform(series_slice(combined, s, 1), *row.arg)
        g = row.pre * g if row.pre != 1 else g
        return g + QSeries({0: row.const}, g.order) if row.const else g

    viable = [(s, g) for s in candidates for g in [build(s)]
              if g.coeffs and all(k % g.den == 0 for k in g.coeffs)]
    if len(viable) > 1:
        probe_series = eulerian(name, 3)
        kept = []
        for s, g in viable:
            probe = Fraction(min(g.coeffs), g.den)
            try:
                if probe_series.coeff(probe) == g.coeff(probe):
                    kept.append((s, g))
            except IndexError:
                kept.append((s, g))
        viable = kept
    return [s for s, _g in viable]


def test_stored_shifts_match_the_runtime_resolver():
    pm_with_fixtures = [name for name in PM_ROWS
                        if get_lambency(ROWS[name].lambency).fixture]
    assert pm_with_fixtures == ["3:psi", "3:nu", "5:psi0", "5:psi1",
                                "7:F0", "7:F1", "7:F2"]
    for name in pm_with_fixtures:
        s = ROWS[name].s
        for order in range(2, 16):
            assert resolve_pm_shift(name, abs(s), order) == [s], \
                (name, order)


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
    x = Fraction(92, 96) - Fraction(-1, 24)
    assert rep["exponent"] == x
    assert (rep["lhs"], rep["rhs"]) == \
        (eulerian("3:psi", 4).coeff(x), rep["lhs"] + 1)


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
