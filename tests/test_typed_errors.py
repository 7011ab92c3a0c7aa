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
from mjtheta.borcherds import QuadForm, enumerate_heegner, fit_case, \\
    genus_char, psi_expand
from mjtheta.catalog import get_lambency
from mjtheta.jacobi import CoeffTable, ez_apply, table_lin_comb
from mjtheta.cyclo import ex
from mjtheta.mocktheta import verify_andrews_hickerson, verify_watson
from mjtheta.series import QSeries, series_slice
T5 = CoeffTable(5, 1, {}, {1: (-100, 1)})
F62 = get_lambency("6+2").fixture
"""

# name: (error class, expression)
CASES = {
    "parity 0": ("BadParity", "CoeffTable(5, 0, {}, {})"),
    "residue above m": ("CongruenceViolation",
                        "CoeffTable(5, 1, {(-4, 6): 2}, {6: (-100, 1)})"),
    "D not r^2 mod 4m": ("CongruenceViolation",
                         "CoeffTable(5, -1, {(3, 1): 2}, {1: (-100, 1)})"),
    "D outside range": ("InsufficientDepth",
                        "CoeffTable(5, -1, {(-119, 1): 2}, {1: (-100, 1)})"),
    "residue without range": ("InsufficientDepth",
                              "CoeffTable(5, -1, {(-19, 1): 2}, {})"),
    "odd table nonzero at r = 0": (
        "CongruenceViolation",
        "CoeffTable(5, -1, {(-20, 0): 2}, {0: (-100, 1)})"),
    "odd table nonzero at r = m": (
        "CongruenceViolation",
        "CoeffTable(5, -1, {(5, 5): 2}, {5: (-100, 5)})"),
    # doubled exponents give Psi^2 = conj S(T)^4 / S(T)^4, which is no
    # conj S^2 / S^2 of the divisor's degree 2
    "fit of a product off the divisor's shape": (
        "NoSolutionWithinDegree",
        "fit_case('6+2', -8, 4, table=table_lin_comb([(2, F62)]))"),
    # a 2-coefficient window against S of degree 20
    "fit of a degree the window cannot pin": (
        "Underdetermined", "fit_case('20+4', -119, 11)"),
    # at D = -3 the one Heegner point of level 3 is elliptic, of weight
    # 2/3; an even table keeps r = 3 from being a structural zero
    "fit of a divisor of degree 2/3": (
        "NoSolutionWithinDegree",
        "fit_case('3', -3, 3, "
        "table=CoeffTable(3, 1, {}, {r: (-100, 1) for r in range(4)}))"),
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
    # C(-20, 2) = 16 becomes 16/3, and 16 zeta_3
    "Borcherds exponent not an integer": (
        "NonIntegralExponent",
        "psi_expand('6+2', -20, 2, "
        "table=table_lin_comb([(Fraction(1, 3), F62)]))"),
    "Borcherds exponent not rational": (
        "NonIntegralExponent",
        "psi_expand('6+2', -20, 2, table=table_lin_comb([(ex('1/3'), F62)]))"),
    "table_lin_comb of nothing": ("LevelMismatch", "table_lin_comb([])"),
    "table_lin_comb across indices": (
        "LevelMismatch",
        "table_lin_comb([(1, T5), (1, CoeffTable(6, 1, {}, {}))])"),
    "table_lin_comb across parities": (
        "LevelMismatch",
        "table_lin_comb([(1, T5), (1, CoeffTable(5, -1, {}, {}))])"),
    # an order <= 0 compares nothing, so no verdict can be given
    "Watson at order 0": ("InsufficientDepth", "verify_watson(0)"),
    "Andrews-Hickerson at order -3": (
        "InsufficientDepth", "verify_andrews_hickerson(-3)"),
}

# Good arguments near the bad ones, with the value each must give.
# name: (value, expression)
VALUES = {
    # an even table keeps its entries at r = 0 and r = m
    "even table at r = 0 and r = m": (
        {(-20, 0): 2, (5, 5): 3},
        "CoeffTable(5, 1, {(-20, 0): 2, (5, 5): 3}, "
        "{0: (-100, 1), 5: (-100, 5)}).entries"),
    # integral exponents held as Fractions give the product of the ints
    "Borcherds exponents as Fractions": (
        True, "psi_expand('6+2', -20, 2, "
              "table=table_lin_comb([(Fraction(1), F62)]))"
              ".coeffs == psi_expand('6+2', -20, 2).coeffs"),
    # the least order that reaches a coefficient: q^0
    "Watson and Andrews-Hickerson at order 1": (
        ["1"] * 6, "[str(r['depth']) for r in verify_watson(1) "
                 "+ verify_andrews_hickerson(1)]"),
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
