#!/usr/bin/env python3
"""Print the fit census that tests/data/fit_census.txt pins: one line per
case (symbol, D, r) over every lambency with a shipped table, every
fundamental D with -60 <= D <= -3 and every r with 1 <= r < m and
D = r^2 mod 4m.  A line is the case, then either the output of
`mjtheta fit --format records` or the error class and message.

Regenerate the file from the root of a checkout with

    PYTHONPATH=src python3 tools/fit_census.py > tests/data/fit_census.txt

tests/test_cli.py compares render() with the file byte for byte.
The Underdetermined messages carry the row and rank counts of each solve,
so the file also pins the window of the fit's rows.
"""

import io
import sys

from mjtheta.arith import is_fundamental
from mjtheta.catalog import load_catalog
from mjtheta.cli import build_parser
from mjtheta.errors import MJTError

D_RANGE = range(-3, -61, -1)


def cases():
    return [(lam.symbol, D, r) for lam in load_catalog()
            if lam.fixture is not None
            for D in D_RANGE if is_fundamental(D)
            for r in range(1, lam.m) if (D - r * r) % (4 * lam.m) == 0]


def render():
    out = io.StringIO()
    for sym, D, r in cases():
        out.write(f"{sym} {D} {r} ")
        args = build_parser().parse_args(
            ["fit", "--lambency", sym, f"--D={D}", f"--r={r}",
             "--format", "records"])
        try:
            args.fn(args, out=out)
        except MJTError as e:
            out.write(f"{type(e).__name__}: {e}\n")
    return out.getvalue()


if __name__ == "__main__":
    sys.stdout.write(render())
