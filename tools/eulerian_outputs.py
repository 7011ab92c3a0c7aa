#!/usr/bin/env python3
"""Print the mock theta outputs that tests/data/eulerian_outputs.txt pins:

  - `mjtheta expand --eulerian NAME --order 100` for every registered name;
  - the verdicts of verify_watson and verify_andrews_hickerson at the
    orders 150 and 67/2, one repr per line.

Regenerate the file from the root of a checkout with

    PYTHONPATH=src python3 tools/eulerian_outputs.py \
        > tests/data/eulerian_outputs.txt

tests/test_mocktheta.py compares render() with the file byte for byte.
"""

import io
import sys
from fractions import Fraction

from mjtheta.cli import build_parser
from mjtheta.mocktheta import (
    EULERIAN_NAMES, verify_andrews_hickerson, verify_watson,
)

EXPAND_ORDER = "100"
IDENTITY_ORDERS = (Fraction(150), Fraction(67, 2))


def render():
    out = io.StringIO()
    for name in EULERIAN_NAMES:
        argv = ["expand", "--eulerian", name, "--order", EXPAND_ORDER]
        out.write(f"# mjtheta {' '.join(argv)}\n")
        args = build_parser().parse_args(argv)
        args.fn(args, out=out)
    for order in IDENTITY_ORDERS:
        for verify in (verify_watson, verify_andrews_hickerson):
            out.write(f"# {verify.__name__}({order})\n")
            for verdict in verify(order):
                out.write(f"{verdict!r}\n")
    return out.getvalue()


if __name__ == "__main__":
    sys.stdout.write(render())
