"""Bad arguments to public functions raise typed errors, also under -O.

`python -O` strips asserts, so an assert cannot reject these inputs.  The
cases run in this process and once more in a single `python -O` subprocess.
"""

import os
import subprocess
import sys

import pytest

from mjtheta import errors

SETUP = """
from fractions import Fraction
from pathlib import Path
from tempfile import TemporaryDirectory
from mjtheta import catalog
from mjtheta.borcherds import QuadForm, enumerate_heegner, fit_case, \\
    genus_char, psi_expand
from mjtheta.catalog import (
    HData, check_positivity_phi, get_lambency, ingest_hdata,
    verify_mult_relation,
)
from mjtheta.jacobi import CoeffTable, Stream, ez_apply, stream_combination, \\
    table_sum
from mjtheta.cyclo import Cyc
from mjtheta.mocktheta import (
    verify_andrews_hickerson, verify_table14_15, verify_watson,
)
from mjtheta.series import QSeries, series_half_shift, series_mul, \\
    series_slice
T5 = CoeffTable(5, {}, {1: (-100, 1)})
F62 = get_lambency("6+2").fixture
F102 = get_lambency("10+2").fixture

# load_catalog from a copy of the packaged CSV with `line` appended
def load_patched(line):
    with TemporaryDirectory() as d:
        path = Path(d) / "catalog.csv"
        path.write_text(catalog.CATALOG_CSV.read_text() + line + "\\n")
        packaged, catalog.CATALOG_CSV = catalog.CATALOG_CSV, path
        try:
            return catalog.load_catalog()
        finally:
            catalog.CATALOG_CSV = packaged

# ingest_hdata of a data file holding the header and `line`
def ingest_line(line):
    with TemporaryDirectory() as d:
        path = Path(d) / "h.csv"
        path.write_text("lambency,class,r,D,coeff\\n" + line + "\\n",
                        encoding="utf-8")
        return ingest_hdata(path)
"""

# name: (error class, expression)
CASES = {
    "residue above m": ("CongruenceViolation",
                        "CoeffTable(5, {(-4, 6): 2}, {6: (-100, 1)})"),
    "D not r^2 mod 4m": ("CongruenceViolation",
                         "CoeffTable(5, {(3, 1): 2}, {1: (-100, 1)})"),
    "D outside range": ("InsufficientDepth",
                        "CoeffTable(5, {(-119, 1): 2}, {1: (-100, 1)})"),
    "residue without range": ("InsufficientDepth",
                              "CoeffTable(5, {(-19, 1): 2}, {})"),
    "odd table nonzero at r = 0": (
        "CongruenceViolation",
        "CoeffTable(5, {(-20, 0): 2}, {0: (-100, 1)})"),
    "odd table nonzero at r = m": (
        "CongruenceViolation",
        "CoeffTable(5, {(5, 5): 2}, {5: (-100, 5)})"),
    # doubled exponents give Psi^2 = conj S(T)^4 / S(T)^4, which is no
    # conj S^2 / S^2 of the divisor's degree 2
    "fit of a product off the divisor's shape": (
        "NoSolutionWithinDegree",
        "fit_case('6+2', -8, 4, table=table_sum([F62, F62]))"),
    # a 2-coefficient window against S of degree 20
    "fit of a degree the window cannot pin": (
        "Underdetermined", "fit_case('20+4', -119, 11)"),
    "genus_char with m not dividing A": (
        "LevelMismatch", "genus_char(QuadForm(1, 1, 1), -3, 2)"),
    # a level m < 1 divides by 0, or passes every "m | A" test
    "Heegner forms at level 0": (
        "LevelMismatch", "enumerate_heegner(0, -8, 4)"),
    "Heegner forms at level -6": (
        "LevelMismatch", "enumerate_heegner(-6, -8, 4)"),
    "genus_char at level 0": (
        "LevelMismatch", "genus_char(QuadForm(1, 1, 1), -3, 0)"),
    "genus_char at level -1": (
        "LevelMismatch", "genus_char(QuadForm(1, 1, 1), -3, -1)"),
    "slice modulo 0": ("Divergent", "series_slice(QSeries({0: 1}, 5), 0, 0)"),
    "slice modulo -1": ("Divergent",
                        "series_slice(QSeries({0: 1}, 5), 0, -1)"),
    "ez_apply outside O_m": ("CongruenceViolation", "ez_apply(T5, 2)"),
    # C(-20, 2) = 16 as 16/3, and as sqrt(-3): table values are ints, so
    # the table that would give such an exponent cannot be built
    "Borcherds exponent not an integer": (
        "NonIntegralCoefficient",
        "psi_expand('6+2', -20, 2, "
        "table=CoeffTable(6, {(-20, 2): Fraction(16, 3)}, {2: (-20, 4)}))"),
    "Borcherds exponent not rational": (
        "NonIntegralCoefficient",
        "psi_expand('6+2', -20, 2, "
        "table=CoeffTable(6, {(-20, 2): Cyc.make(-3, 0, 1)}, {2: (-20, 4)}))"),
    # equal to an int or not, a value of another type is refused; a zero
    # is checked like any other value
    "table value a Fraction": (
        "NonIntegralCoefficient",
        "CoeffTable(5, {(-19, 1): Fraction(16)}, {1: (-100, 1)})"),
    "table value a bool": (
        "NonIntegralCoefficient",
        "CoeffTable(5, {(-19, 1): True}, {1: (-100, 1)})"),
    "table value a float": (
        "NonIntegralCoefficient",
        "CoeffTable(5, {(-19, 1): 2.0}, {1: (-100, 1)})"),
    "table zero a Fraction": (
        "NonIntegralCoefficient",
        "CoeffTable(5, {(-19, 1): Fraction(0)}, {1: (-100, 1)})"),
    # every product the package forms is one of int series
    "series_mul of a Fraction series": (
        "NonIntegralCoefficient",
        "series_mul(QSeries({0: 1}, 5), QSeries({0: Fraction(1, 2)}, 5))"),
    "series_mul of a Cyc series": (
        "NonIntegralCoefficient",
        "series_mul(QSeries({0: Cyc.make(-3, 0, 1), 1: 1}, 5), "
        "QSeries({0: 1}, 5))"),
    # a phase e(t + B x) other than +-1 would make the coefficient
    # irrational: q^(1/24) under tau -> tau + 1/2, and the stream
    # e(1/3) H_1 of an index-5 table
    "half-shift to an irrational phase": (
        "IrrationalPhase",
        "series_half_shift(QSeries({1: 2}, 3, 24), Fraction(1, 2))"),
    "stream term with an irrational turn": (
        "IrrationalPhase",
        "stream_combination(CoeffTable(5, {(-19, 1): 2}, {1: (-100, 1)}), "
        "Stream('5', [(1, 1, '1/3')]), 5)"),
    "Cyc of a nonfundamental D": ("BadDiscriminant", "Cyc.make(-12, 0, 1)"),
    "table_sum of nothing": ("LevelMismatch", "table_sum([])"),
    "table_sum across indices": (
        "LevelMismatch", "table_sum([T5, CoeffTable(6, {}, {})])"),
    # an index-10 table read at index-6 discriminants: off its classes
    # every read is 0 at any depth, so the product never ended and the
    # row reported a false mismatch
    "Borcherds product from a table of another index": (
        "LevelMismatch", "psi_expand('6+2', -8, 4, table=F102)"),
    "fit from a table of another index": (
        "LevelMismatch", "fit_case('6+2', -8, 4, table=F102)"),
    "table row from a table of another index": (
        "LevelMismatch", "verify_table14_15('3:f', source=F102, order=12)"),
    # every negative entry of 6+2 at index 2 was read as an entry of 2
    "positivity audit of a table of another index": (
        "LevelMismatch", "check_positivity_phi(get_lambency('2'), F62)"),
    # int() reads these as C(-7, 1) = 4488 and C(-15, 1) = 4
    "data field with an underscore": (
        "ParseError", "ingest_line('2,1A,1,-7, 44_88')"),
    "data field with a non-ASCII digit": (
        "ParseError", "ingest_line('2,1A,1,-15,\\u0664')"),
    # an order <= 0 compares nothing, so no verdict can be given
    "Watson at order 0": ("InsufficientDepth", "verify_watson(0)"),
    "Andrews-Hickerson at order -3": (
        "InsufficientDepth", "verify_andrews_hickerson(-3)"),
    "relation row not in the registry": (
        "UnknownName", "verify_mult_relation('nope', HData({}))"),
    # 6+2 prints row 1, and K = {1, 7} makes row 5 its negative: a printed
    # row 5 must read C(1, 5) = 2
    "printed row disagreeing with its orbit": (
        "ParseError", "load_patched('6+2,1A,5,1,-2')"),
    # 3 * 7 = -3 mod 12: row 3 of 6+2 meets both signs, so it vanishes
    "printed value at a forced zero": (
        "ParseError", "load_patched('6+2,1A,3,-15,1')"),
}

# Good arguments near the bad ones, with the value each must give.
# name: (value, expression)
VALUES = {
    # zeros at r = 0 and r = m obey the residue rule and are not stored
    "zero entries at r = 0 and r = m": (
        {(-19, 1): 2},
        "CoeffTable(5, {(-20, 0): 0, (5, 5): 0, (-19, 1): 2}, "
        "{0: (-100, 1), 1: (-100, 1), 5: (-100, 5)}).entries"),
    # the least order that reaches a coefficient: q^0
    "Watson and Andrews-Hickerson at order 1": (
        ["1"] * 6, "[str(r['depth']) for r in verify_watson(1) "
                 "+ verify_andrews_hickerson(1)]"),
    # a printed row that agrees with its orbit is read, not refused
    "printed row agreeing with its orbit": (
        [2], "[lam.fixture.get(1, 5) for lam in load_patched('6+2,1A,5,1,2')"
             " if lam.symbol == '6+2']"),
}

# Prints the optimization level, then one line per case: its name and the
# type of what it raised; then one line per value: its name and the value.
PROBE = SETUP + """
import sys
print(f"optimize: {sys.flags.optimize}")
for name, (_, expr) in CASES.items():
    try:
        eval(expr)
        got = "nothing"
    except Exception as e:
        got = type(e).__name__
    print(f"{name}: {got}")
for name, (_, expr) in VALUES.items():
    print(f"{name}: {eval(expr)!r}")
"""


@pytest.mark.parametrize("name", VALUES)
def test_good_argument_gives_its_value(name):
    want, expr = VALUES[name]
    scope = {}
    exec(SETUP, scope)
    assert eval(expr, scope) == want


@pytest.mark.parametrize("name", CASES)
def test_bad_argument_raises_typed_error(name):
    cls, expr = CASES[name]
    scope = {}
    exec(SETUP, scope)
    with pytest.raises(getattr(errors, cls)):
        eval(expr, scope)


def test_typed_errors_survive_python_O():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         f"CASES = {CASES!r}\nVALUES = {VALUES!r}\n" + PROBE],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = ["optimize: 1"]
    want += [f"{name}: {cls}" for name, (cls, _) in CASES.items()]
    want += [f"{name}: {value!r}" for name, (value, _) in VALUES.items()]
    assert proc.stdout.splitlines() == want
