import math
import runpy
from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import pytest

from hypothesis import example, given, settings, strategies as st

from mjtheta.cyclo import cmul
from mjtheta.catalog import get_lambency
from mjtheta import mocktheta, series
from mjtheta.errors import MissingSource, UnknownName
from mjtheta.jacobi import _stream_window, h_stream
from mjtheta.mocktheta import (
    EULERIAN_DEFS, EULERIAN_NAMES, ROWS, _bits, _changes, _packed_sum,
    eulerian, row_names, verify_andrews_hickerson, verify_table14_15,
    verify_watson,
)
from mjtheta.series import (
    QSeries, _slot_bytes, _unpack, series_add, series_half_shift, series_mul,
    series_rescale, series_scale, series_shift, series_slice, series_verdict,
)

from product_oracles import power as series_power
from series_terms import from_terms

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
    return from_terms(terms, order)


class FullWindowPoch:
    """Prefix products (c q^j; q^k)_n and their reciprocals at one window,
    one series_mul per factor."""

    def __init__(self, order):
        self.order = order
        self.fwd = {}
        self.inv = {}

    def _extend(self, store, c, j, k, n, step):
        seq = store.setdefault((c, j, k), [QSeries({0: 1}, self.order)])
        while len(seq) <= n:
            e = j + (len(seq) - 1) * k
            seq.append(seq[-1] if e >= self.order else step(seq[-1], e))
        return seq[n]

    def get(self, c, j, k, n, power=1):
        if n is math.inf:
            n = 0
            while j + n * k < self.order:
                n += 1
        if power >= 0:
            base = self._extend(
                self.fwd, c, j, k, n,
                lambda f, e: series_mul(f, from_terms(
                    [(0, 1), (e, cmul(-1, c))], self.order)))
        else:
            base = self._extend(
                self.inv, c, j, k, n,
                lambda f, e: series_mul(f, _geom(c, e, self.order)))
        p = abs(power)
        return base if p == 1 else series_power(base, p)

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
                from_terms([(n + 1, 1), (2 * n + 1, 1)], order),
                cache.product([(1, 1, 2, n, 1), (-1, 1, 1, n + 1, -1)]))
            out = series_add(out, series_scale(t, (-1) ** n))
            n += 1
        return out
    lead, factors, sign, const = EULERIAN_DEFS[name]
    assert const == 0
    out = QSeries({}, order)
    n = 0
    while lead(n) < order:
        out = series_add(out, series_mul(QSeries({lead(n): sign(n)}, order),
                                         cache.product(factors(n))))
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
    # no product is built by series_mul, and the package has no power:
    # each product is stepped factor by factor inside the packed kernel
    def banned(*args):
        raise AssertionError("series_mul called")

    assert not hasattr(mocktheta, "series_mul")
    assert not hasattr(series, "series_pow")
    monkeypatch.setattr(series, "series_mul", banned)
    for name in EULERIAN_NAMES:
        eulerian(name, 20)
    assert all(rep["status"] == "verified"
               for rep in verify_andrews_hickerson(20))


@pytest.mark.parametrize("name", EULERIAN_NAMES)
def test_lead_is_non_decreasing(name):
    # so the window order - lead(n) of eulerian's carried product only
    # shrinks from one summand to the next
    lead = EULERIAN_DEFS[name][0]
    assert all(lead(n) <= lead(n + 1) for n in range(200))


def test_registry_factors_pack():
    # the packed kernel needs an int c and an integer e >= 1 in every
    # factor: int c, j, k >= 1 and power in every spec, j >= 1 unless the
    # count is 0, and the count an int >= 0 or math.inf
    for name in EULERIAN_NAMES:
        lead, factors, sign, const = EULERIAN_DEFS[name]
        assert type(const) is int, name
        for n in range(60):
            assert type(lead(n)) is int and type(sign(n)) is int, name
            for c, j, k, count, power in factors(n):
                assert all(type(x) is int for x in (c, j, k, power)), (name, n)
                assert k >= 1 and (j >= 1 or count == 0), (name, n)
                assert count is math.inf or type(count) is int and count >= 0


@pytest.mark.parametrize("name", EULERIAN_NAMES)
def test_registry_steps_only_the_factors_that_change(name):
    # consecutive specs line up, so each summand costs one step per factor
    # of the oracle's diff and no more, at every window eulerian uses: the
    # benchmark's order 100, Andrews-Hickerson's 150, and 300
    lead, factors, _sign, _const = EULERIAN_DEFS[name]
    for W in (100, 150, 300):
        old, n = [], 0
        while lead(n) < W:
            new, w = factors(n), W - lead(n)
            steps = _changes(old, new, w)
            assert len(steps) == len(full_diff(old, new, w)), (name, W, n)
            assert stepped(old, new, w) == full_diff(old, new, w), \
                (name, W, n)
            old, n = new, n + 1


# -- the packed kernel against the full-window product ---------------------
#
# The oracle builds each summand's product from 1 at its window, one
# series_mul per factor (FullWindowPoch), and shifts, scales and adds the
# summands as series: it shares no step with the kernel.  The kernel steps
# each product from the one before by _changes, read off two spec lists as
# progressions; the oracle for those steps materialises every factor below
# the window (_powers) and diffs the two full maps.

def _powers(specs, w):
    """{(c, j + i k): total power} over the factors (1 - c q^(j+ik)),
    i < count, of each spec (c, j, k, count, power) with j + i k below the
    window w; k >= 1, and count is a nonnegative int or math.inf."""
    out = {}
    for c, j, k, count, power in specs:
        # ceil((w - j) / k), exact for ints and Fractions alike
        for i in range(min(count, max(-((j - w) // k), 0))):
            key = (c, j + i * k)
            out[key] = out.get(key, 0) + power
    return out


def full_diff(old, new, w):
    """{(c, e): change of power} from the factors of the specs `old` to
    those of `new` below q^w, over the symmetric difference of the two
    full maps; a factor with c = 0 is 1 and never changes."""
    want, have = _powers(new, w), _powers(old, w)
    diff = {key: want.get(key, 0) - have.get(key, 0)
            for key, _ in want.items() ^ have.items()}
    return {key: d for key, d in diff.items() if d and key[0]}


def stepped(old, new, w):
    """_changes(old, new, w) summed per factor."""
    out = {}
    for c, e, d in _changes(old, new, w):
        assert type(e) is int and 1 <= e < w and c, (c, e, w)
        out[(c, e)] = out.get((c, e), 0) + d
    return {key: d for key, d in out.items() if d}


def changes_by_runs(old, new, w):
    """_changes by runs alone, as a generator: two runs per pair of specs,
    or four where c, k and power agree and j moves along the progression;
    each run's end found by min and max."""
    for (c, i, k, m, p), (c2, j, k2, n, p2) in zip_longest(
            old, new, fillvalue=(0, 0, 1, 0, 0)):
        a1 = i + k * min(m, max(-((i - w) // k), 0))
        b1 = j + k2 * min(n, max(-((j - w) // k2), 0))
        if (c, k, p) != (c2, k2, p2) or (j - i) % k:
            runs = (c, k, i, a1, -p), (c2, k2, j, b1, p2)
        else:
            runs = ((c, k, j, min(b1, i), p), (c, k, max(j, a1), b1, p),
                    (c, k, i, min(a1, j), -p), (c, k, max(i, b1), a1, -p))
        for c, k, lo, hi, d in runs:
            for e in range(lo, hi, k) if c else ():
                yield c, e, d


def full_window_sum(summands, const, order):
    order = Fraction(order)
    out = QSeries({0: const}, order)
    for lead, sign, specs in summands:
        if lead >= order:
            break
        unit = FullWindowPoch(order - lead).product(specs)
        out = series_add(out, series_shift(series_scale(unit, sign), lead))
    return out


def packed(summands, const, order):
    return _packed_sum(lambda W: [s for s in summands if s[0] < W], const,
                       Fraction(order))


_spec = st.tuples(st.integers(-3, 3), st.integers(1, 12), st.integers(1, 4),
                  st.one_of(st.integers(0, 8), st.just(math.inf)),
                  st.integers(-3, 3))


@st.composite
def _moved(draw, spec):
    """The spec moved along its progression or off it: j by a random step
    (kept >= 1), a finite count by another."""
    c, j, k, count, power = spec
    if count is not math.inf:
        count = max(count + draw(st.integers(-2, 3)), 0)
    return c, max(j + draw(st.integers(-6, 6)), 1), k, count, power


@st.composite
def spec_plan(draw):
    """Summands (lead, sign, specs) with non-decreasing leads in [0, 30]
    and signs in [-3, 3]; specs with c and power in [-3, 3], j >= 1, k in
    [1, 4], count in [0, 8] or math.inf.  Each summand's specs are the
    last one's, each moved, kept or redrawn, and the list sometimes cut
    and extended at the end.  A constant; a window in [0, 60] with den 1,
    2 or 3."""
    leads = sorted(draw(st.lists(st.integers(0, 30), min_size=1,
                                 max_size=6)))
    summands, specs = [], draw(st.lists(_spec, max_size=3))
    for lead in leads:
        summands.append((lead, draw(st.integers(-3, 3)), specs))
        specs = [draw(st.one_of(st.just(f), _moved(f), _spec))
                 for f in specs]
        if draw(st.booleans()):
            specs = specs[:draw(st.integers(0, len(specs)))] + \
                draw(st.lists(_spec, max_size=2))
    den = draw(st.sampled_from([1, 2, 3]))
    order = Fraction(draw(st.integers(0, 60 * den)), den)
    return summands, draw(st.integers(-3, 3)), order


_EXAMPLES = [
    ([(0, 1, [(1, 1, 1, math.inf, -1)])], 0, Fraction(60)),  # partitions
    ([(0, 1, [(-3, 1, 1, 1, 3), (3, 2, 1, 1, -3)])], 0, Fraction(121, 2)),
    ([(0, -2, [(1, 1, 1, 1, 1)]),
      (3, 1, [(1, 1, 1, 1, 0), (-1, 2, 1, 1, -2)])], 2, Fraction(0)),
    # (-q; q)_n gains a factor a step; then j moves off the progression
    ([(0, 1, [(-1, 1, 1, 0, -1)]), (1, -1, [(-1, 1, 1, 1, -1)]),
      (3, 2, [(-1, 1, 1, 2, -1)]), (3, 1, [(-1, 2, 2, 2, -1)]),
      (4, 1, [(-1, 5, 2, 2, -1), (2, 1, 3, math.inf, 2)])],
     1, Fraction(70, 3)),
    # one progression, every end moving: j back, the count down, j past
    # the old run; then only the power changes
    ([(0, 1, [(1, 4, 1, 5, 1)]), (1, 1, [(1, 2, 1, 4, 1)]),
      (2, -1, [(1, 3, 1, 2, 1)]), (2, 1, [(1, 5, 1, 3, 1)]),
      (3, 1, [(1, 5, 1, 3, -2)])], 0, 30),
]


@settings(max_examples=300, deadline=None)
@given(spec_plan())
@example(_EXAMPLES[0])
@example(_EXAMPLES[1])
@example(_EXAMPLES[2])
@example(_EXAMPLES[3])
@example(_EXAMPLES[4])
def test_changes_match_the_full_diff(plan):
    summands, _const, order = plan
    W, old = math.ceil(order), []
    for lead, _sign, specs in summands:
        if lead < W:
            assert stepped(old, specs, W - lead) == \
                full_diff(old, specs, W - lead)
            old = specs


@st.composite
def _recounted(draw, spec):
    """The spec with only its count redrawn, as most registry steps are."""
    c, j, k, _count, power = spec
    count = draw(st.one_of(st.integers(0, 8), st.just(math.inf)))
    return c, j, k, count, power


@settings(max_examples=300, deadline=None)
@given(spec_plan(), st.data())
def test_changes_match_the_runs_oracle(plan, data):
    # the same steps as the run-by-run generator, in any order, at every
    # summand's window W - lead (w <= j, and w <= 0 past the window), from
    # the last specs to the next (infinite counts and specs moved off their
    # progression included) and to the last ones recounted
    summands, _const, order = plan
    W, old = math.ceil(order), []
    for lead, _sign, specs in summands:
        for new in specs, [data.draw(_recounted(f)) for f in old]:
            steps = _changes(old, new, W - lead)
            assert type(steps) is list
            assert Counter(steps) == \
                Counter(changes_by_runs(old, new, W - lead))
        old = specs


@settings(max_examples=300, deadline=None)
@given(spec_plan())
@example(_EXAMPLES[0])
@example(_EXAMPLES[1])
@example(_EXAMPLES[2])
@example(_EXAMPLES[3])
@example(_EXAMPLES[4])
def test_packed_sum_matches_full_window_sum(plan):
    summands, const, order = plan
    got, want = packed(summands, const, order), \
        full_window_sum(summands, const, order)
    same_series(got, want)
    assert all(type(v) is int for v in got.coeffs.values())


def test_packed_sum_refuses_a_falling_lead():
    # a wider window than the summand before would read slots cut off and
    # never stepped; every Eulerian lead rises (test_lead_is_non_decreasing)
    for summands in [[(3, 1, [(1, 1, 1, 1, -1)]), (2, 1, [])],
                     [(-1, 1, [])]]:
        with pytest.raises(AssertionError, match="lead"):
            packed(summands, 0, 10)
    same_series(packed([(2, 1, []), (2, 1, [(1, 1, 1, 1, -1)])], 0, 10),
                full_window_sum([(2, 1, []), (2, 1, [(1, 1, 1, 1, -1)])],
                                0, 10))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 9])
def test_slot_width_edge(k, monkeypatch):
    top = 2 ** (8 * k - 1)
    assert _slot_bytes(top - 1) == k and _slot_bytes(top) == k + 1
    # the extreme values of a k-byte slot decode exactly, next to each
    # other and with bits above the n slots
    vals = [top - 1, -(top - 1), -(top - 1), top - 1, 0, -top, 1]
    packed_vals = sum(v << (8 * k * j) for j, v in enumerate(vals))
    for extra in (0, 5 << (8 * k * len(vals))):
        assert _unpack(packed_vals + extra, k, len(vals)) == \
            {j: v for j, v in enumerate(vals) if v}
    # through the kernel: a bound of top - 1 gets k bytes, and sums at
    # +-(top - 1) decode exactly, alone and after dropped factors (a
    # summand of sign 0 adds nothing to the bound)
    widths = recording_slot_bytes(monkeypatch)
    for v in (top - 1, -(top - 1)):
        assert packed([], v, 1).coeffs == {0: v}
        dropped = [(0, 0, [(-1, 1, 1, 1, 2), (1, 2, 1, 1, -1)]), (1, v, [])]
        got = packed(dropped, 0, 3)
        assert got.coeffs == {1: v}
        same_series(got, full_window_sum(dropped, 0, 3))
    assert widths == [k] * 4
    assert packed([], -top, 1).coeffs == {0: -top} and widths[-1] == k + 1


def slot_by_slot(packed, s, n, base, g):
    """{base + g j: a_j} over the nonzero a_j, slot by slot: a_j is the
    lowest 8s bits read as signed, taken off before the next slot."""
    top, out = 1 << (8 * s), {}
    for j in range(n):
        a = packed % top
        a -= top if 2 * a >= top else 0
        if a:
            out[base + g * j] = a
        packed = (packed - a) >> (8 * s)
    return out


@st.composite
def packed_slots(draw):
    """(packed, s, n, base, g, values): n values of s-byte signed slots,
    packed with arbitrary bits above slot n."""
    s, n = draw(st.integers(1, 12)), draw(st.integers(0, 40))
    top = 1 << (8 * s - 1)
    values = draw(st.lists(st.one_of(st.just(0), st.sampled_from(
        [-top, top - 1, -1, 1]), st.integers(-top, top - 1)),
        min_size=n, max_size=n))
    above = draw(st.integers(-2 ** 80, 2 ** 80))
    packed = sum(v << (8 * s * j) for j, v in enumerate(values))
    return (packed + (above << (8 * s * n)), s, n,
            draw(st.integers(-10 ** 6, 10 ** 6)), draw(st.integers(1, 50)),
            values)


@settings(max_examples=300, deadline=None)
@given(packed_slots())
def test_unpack_matches_slot_by_slot(case):
    packed, s, n, base, g, values = case
    got = _unpack(packed, s, n, base, g)
    assert got == slot_by_slot(packed, s, n, base, g) == \
        {base + g * j: v for j, v in enumerate(values) if v}


def test_eulerian_outputs_are_pinned():
    # every Eulerian expansion at order 100 and the Watson and
    # Andrews-Hickerson verdicts, byte for byte (tools/eulerian_outputs.py)
    root = Path(__file__).parent.parent
    tool = runpy.run_path(str(root / "tools" / "eulerian_outputs.py"))
    golden = root / "tests" / "data" / "eulerian_outputs.txt"
    assert tool["render"]() == golden.read_text()


def test_powers_merges_factors_below_the_window():
    specs = [(-1, 1, 2, math.inf, 2), (-1, 1, 1, 3, -1)]
    merged = {(-1, 1): 1, (-1, 2): -1, (-1, 3): 1, (-1, 5): 2}
    assert _powers(specs, 6) == merged
    # the kernel's first step, from no specs, gains the same factors
    assert stepped([], specs, 6) == merged
    # a factor at the window bound is 1 inside it
    assert _powers([(1, 6, 1, 4, 1)], 6) == {} == \
        stepped([], [(1, 6, 1, 4, 1)], 6)


def poch(c, j, k, n, order, power=1):
    """(c q^j; q^k)_n ^ power below `order`: one spec through the packed
    kernel."""
    return _packed_sum(lambda W: [(0, 1, [(c, j, k, n, power)])], 0, order)


# -- the slot bound -------------------------------------------------------

def partitions_in_colours(P, N):
    """p_P(0), ..., p_P(N - 1), the q^n coefficients of
    prod_{e>=1} (1 - q^e)^-P, by P passes of 1/(1 - q^e) for each e."""
    p = [1] + [0] * (N - 1)
    for _ in range(P):
        for e in range(1, N):
            for x in range(e, N):
                p[x] += p[x - e]
    return p


def test_partition_bound():
    for P in range(1, 6):
        for N, v in enumerate(partitions_in_colours(P, 300)):
            assert v <= 2 ** _bits(P, N), (P, N)
    assert _bits(0, 10) == _bits(3, 0) == 0


def recording_slot_bytes(monkeypatch):
    widths = []
    monkeypatch.setattr(mocktheta, "_slot_bytes",
                        lambda b: widths.append(_slot_bytes(b)) or widths[-1])
    return widths


@pytest.mark.parametrize("order", [1, 7, 100, 150, 300, Fraction(1345, 96)])
def test_slots_hold_every_decoded_coefficient(order, monkeypatch):
    # each series again at 64-byte slots (the largest coefficient to
    # order 300 needs 7 bytes): the same coefficients, each of them inside
    # the slot the bound chose
    widths = recording_slot_bytes(monkeypatch)
    got = [eulerian(name, order) for name in EULERIAN_NAMES]
    monkeypatch.setattr(mocktheta, "_slot_bytes", lambda b: 64)
    for name, f, width in zip(EULERIAN_NAMES, got, widths):
        wide = eulerian(name, order)
        same_series(f, wide)
        need = _slot_bytes(max(map(abs, wide.coeffs.values()), default=0))
        assert need <= width, name


def test_slots_of_6_lambda(monkeypatch):
    # coefficients of 27 bits in slots of at most 11 bytes, where an L1-norm
    # bound on each summand's product gives 23
    widths = recording_slot_bytes(monkeypatch)
    f = eulerian("6:lambda", 150)
    assert max(abs(v) for v in f.coeffs.values()).bit_length() == 27
    assert len(widths) == 1 and widths[0] <= 11


@settings(max_examples=150, deadline=None)
@given(st.integers(-2, 2), st.integers(1, 8), st.integers(1, 4),
       st.one_of(st.integers(0, 8), st.just(math.inf)), st.integers(-2, 2),
       st.builds(Fraction, st.integers(0, 90), st.sampled_from([1, 7])))
def test_pochhammer_matches_full_window_product(c, j, k, n, power, order):
    same_series(poch(c, j, k, n, order, power),
                FullWindowPoch(order).get(c, j, k, n, power))


def test_pochhammer_finite():
    assert poch(1, 1, 1, 2, 10).items() == [(0, 1), (1, -1), (2, -1), (3, 1)]
    assert poch(3, 2, 1, 0, 10).items() == [(0, 1)]


def test_pochhammer_infinite_pentagonal():
    # Euler: (q; q)_inf = sum (-1)^k q^(k(3k-1)/2)
    p = poch(1, 1, 1, math.inf, 13)
    want = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}
    assert {int(k): v for k, v in p.items()} == want


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
               for _c, r, _t in row.terms)


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
    avail = min(_stream_window(source, r) for _c, r, _t in row.terms)
    stream_order = min(avail, order / row.arg[0] + max(candidates))
    A, B = row.arg

    def build(s):
        combined = None
        for c, r, _t in row.terms:
            f = h_stream(source, r, stream_order)
            f = series_scale(f, c) if c != 1 else f
            combined = f if combined is None else series_add(combined, f)
        # f(A tau + B): the half-shift by B, then q -> q^A
        g = series_rescale(series_half_shift(series_slice(combined, s, 1),
                                             B), A)
        g = series_scale(g, row.pre) if row.pre != 1 else g
        return series_add(g, QSeries({0: row.const}, g.order)) \
            if row.const else g

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
    bad = CoeffTable(f.m, entries, f.ranges)
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
    b = series_add(a, QSeries({19: 1}, 20))
    assert series_verdict(a, b) == {"status": "mismatch", "exponent": 19,
                                    "lhs": a.coeff(19),
                                    "rhs": a.coeff(19) + 1}
