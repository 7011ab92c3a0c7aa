"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with -s to see the lines; every check is exact (no tolerances anywhere).
Criterion 10 needs an ingested data file (MJTHETA_DATA) and is skipped,
not failed, without one; test_10_on_polar_parts runs it on a file of
polar parts that it writes.
"""

import os
import random
import time
from fractions import Fraction
from math import gcd, isqrt

import pytest

from mjtheta.arith import kronecker
from mjtheta.borcherds import enumerate_heegner, fit_case
from mjtheta.catalog import (
    AVERAGED_FROM, construct_averaged, get_lambency, ingest_hdata,
    load_catalog, MULT_RELATIONS,
)
from mjtheta.cli import (
    fixture_report, fricke_report, invariance_report, lift_report,
    mult_relation_report, positivity_report,
)
from mjtheta.errors import InsufficientDepth, MissingSource
from mjtheta.mocktheta import (
    verify_andrews_hickerson, verify_table14_15, verify_watson,
)
from mjtheta.series import QSeries, series_add, series_mul, series_verdict
from relation_records import polar_records, write_records

rng = random.Random(1847)


def report(k, ok, msg):
    print(f"[acceptance {k:2d}] {'PASS' if ok else 'FAIL'} — {msg}")
    assert ok, msg


def reports(report_fn, order):
    """{symbol: report} over the catalog, asserting that none fails."""
    out = {lam.symbol: report_fn(lam.symbol, order, None)
           for lam in load_catalog()}
    for symbol, rep in out.items():
        assert rep["status"] != "fail", (symbol, rep)
    return out


def test_01_hauptmodul_characterization():
    t0 = time.monotonic()
    reps = reports(fricke_report, 100)  # raises if not constant
    dt = time.monotonic() - t0
    passed = sum(r["status"] == "pass" for r in reps.values())
    report(1, passed == 39 and dt < 10, f"{passed}/39 principal moduli, "
           f"q^-1+O(1) and Fricke constant to order 100 in {dt:.1f}s")


def test_02_shadow_lift_identity():
    t0 = time.monotonic()
    N = 200
    cs = {r["c"] for r in reports(lift_report, N).values()}
    dt = time.monotonic() - t0
    report(2, cs == {Fraction(-2)} and dt < 60,
           f"39/39 lifts proportional to dlog T at n=1..{N - 1}, "
           f"fitted c = {sorted(cs)} in {dt:.1f}s")


def test_03_shadow_group_invariance():
    reps = reports(invariance_report, 50)
    passed = sum(r["status"] == "pass" for r in reps.values())
    report(3, passed == 39,
           f"{passed}/39 shadow tables fixed by every a in K to depth 50")


def test_04_fixture_integrity():
    reps = reports(fixture_report, None)
    n_fix = sum(r["status"] == "pass" for r in reps.values())
    report(4, n_fix == 16,
           f"{n_fix}/16 fixtures: C(1,1)=-2, group-invariant, support in K")


MOCK_ROWS = [("3:psi", 3), ("3:nu", 3),
             ("7:F0", 7), ("7:F1", 7), ("7:F2", 7),
             ("5:psi0", 5), ("5:psi1", 5), ("5:phi0", 5), ("5:phi1", 5),
             ("5:F0", 5), ("5:F1", 5)]


def test_05_mock_theta_rows():
    # orders are the mock theta function orders; compare at full table depth
    for name, _mto in MOCK_ROWS:
        rep = verify_table14_15(name, order=12)
        assert rep["status"] == "verified", rep
        assert rep["depth"] >= 6, rep
    report(5, True, f"{len(MOCK_ROWS)}/{len(MOCK_ROWS)} internal table "
           "rows exact after shift resolution")


def test_06_watson_andrews_hickerson():
    t0 = time.monotonic()
    reps = verify_watson(100) + verify_andrews_hickerson(100)
    dt = time.monotonic() - t0
    ok = all(r["status"] == "verified" for r in reps)
    report(6, ok and dt < 10,
           f"{len(reps)} identities exact to order 100 in {dt:.1f}s")


def test_07_positivity_audits():
    ok = all(positivity_report(lam.symbol, None, None)["status"] == "pass"
             for lam in load_catalog())
    report(7, ok, "sigma-positivity exactly on the 23 L1+ lambencies; "
           "phi-positivity fails on all 16 fixtures")


FIT_CASES = [("10+2", -4, 6), ("6+2", -8, 4), ("18+2", -8, 8),
             ("33+11", -8, 28), ("15+5", -11, 7)]


def test_08_borcherds_rationality():
    for sym, D, r in FIT_CASES:
        rep = fit_case(sym, D, r)  # raises unless every surplus
        assert rep["Q"][-1] == 1   # coefficient matches exactly
    report(8, True, f"{len(FIT_CASES)} Borcherds products are exact "
           "rational functions in T (zero residual)")


def test_09_oracle_equivalences():
    # Kronecker vs the definitional square-mod-4p rule
    primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
    for D in range(-99, 100):
        if D == 0 or D % 4 not in (0, 1):
            continue
        for p in primes:
            want = 0 if D % p == 0 else \
                (1 if any((x * x - D) % (4 * p) == 0
                          for x in range(4 * p)) else -1)
            assert kronecker(D, p) == want, (D, p)
    # Heegner class counts: level m vs level 1
    def h_level1(D):
        count = 0
        for A in range(1, isqrt(abs(D) // 3) + 1):
            for B in range(-A, A + 1):
                if (B * B - D) % (4 * A) == 0 and (B * B - D) // (4 * A) >= A \
                        and not (B < 0 and (A == (B * B - D) // (4 * A)
                                            or A == -B)):
                    count += 1
        return count
    done = 0
    while done < 10:
        m = rng.choice([2, 3, 5, 6, 7, 10, 12, 15])
        D = rng.choice([-3, -7, -11, -23, -31, -47, -59, -71])
        rs = [r for r in range(2 * m) if (D - r * r) % (4 * m) == 0]
        if gcd(D, 4 * m) != 1 or not rs:
            continue
        assert len(enumerate_heegner(m, D, rs[0])) == h_level1(D), (m, D)
        done += 1
    # series-ring axioms on random sparse operands
    def rand_series():
        return QSeries({rng.randint(-3, 20): Fraction(rng.randint(-9, 9))
                        for _ in range(rng.randint(0, 4))}, 21)
    for _ in range(1000):
        a, b, c = rand_series(), rand_series(), rand_series()
        for lhs, rhs in [
                (series_add(a, b), series_add(b, a)),
                (series_mul(a, b), series_mul(b, a)),
                (series_mul(a, series_add(b, c)),
                 series_add(series_mul(a, b), series_mul(a, c))),
                (series_mul(series_mul(a, b), c),
                 series_mul(a, series_mul(b, c)))]:
            assert series_verdict(lhs, rhs)["status"] == "verified"
    report(9, True, "Kronecker 4p-rule, 10 class-count pairs, and "
           "ring axioms on 1000 operand triples all exact")


def criterion_10():
    """Criterion 10 on the data file MJTHETA_DATA names, skipped without
    one: the averaged lambencies, the relation rows and the L1+ phi audits
    the data reaches, as three lists of what was verified."""
    path = os.environ.get("MJTHETA_DATA")
    if not path or not os.path.exists(path):
        report(10, True, "SKIPPED — no ingested data (set MJTHETA_DATA)")
        pytest.skip("no HData available")
    h = ingest_hdata(path)
    checked = []
    for symbol in AVERAGED_FROM:
        try:
            avg = construct_averaged(symbol, h)
        except MissingSource:
            continue
        f = get_lambency(symbol).fixture
        for k, v in avg.entries.items():
            try:
                want = f.get(*k)
            except InsufficientDepth:
                continue
            assert want == v, (symbol, k)
        checked.append(symbol)
    # the relations and phi parts are those of mjtheta verify
    # mult-relations and positivity --data; only a missing source skips
    mult = []
    for row_id in sorted(MULT_RELATIONS):
        rep = mult_relation_report(row_id, None, h)
        if rep["status"] == "skipped":
            continue
        assert rep["status"] == "pass", (row_id, rep)
        mult.append(row_id)
    phi = []
    for lam in load_catalog():
        if not lam.in_L1_plus:
            continue
        rep = positivity_report(lam.symbol, None, h)
        assert rep["status"] == "pass", (lam.symbol, rep)
        if "detail" not in rep:  # else no phi data: sigma only
            phi.append(lam.symbol)
    report(10, True, f"averaging {len(checked)}, relations {len(mult)}, "
           f"phi-positivity {len(phi)} verified against ingested data")
    return checked, mult, phi


def test_10_conditional_hdata():
    criterion_10()


def test_10_on_polar_parts(tmp_path, monkeypatch):
    # the D = 1 polar parts of the five averaging sources, and an L1+
    # table of lambency 2 reaching D = -7: each averaged table is checked
    # against its fixture, and the phi audit reads a D < 0 entry
    path = tmp_path / "h.csv"
    write_records(path, [
        *(rec for source, _n in AVERAGED_FROM.values()
          for rec in polar_records(source)),
        *polar_records("2"), ("2", "1A", 1, -7, 90)])
    monkeypatch.setenv("MJTHETA_DATA", str(path))
    checked, _mult, phi = criterion_10()
    assert sorted(checked) == sorted(AVERAGED_FROM)
    assert "2" in phi
