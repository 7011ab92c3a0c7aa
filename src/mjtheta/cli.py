"""Command-line driver: series expansion, verification suites, and the
rational-function fit.

The verification reports below (fricke_report, lift_report,
invariance_report, fixture_report, positivity_report, ...) are the one
definition of each acceptance criterion they check: `mjtheta verify` runs
them per case, serially in one process, and tests/test_acceptance.py calls
them directly.

Exit codes: 0 success, 1 verification or computation failure (or a
reader that closed stdout early), 2 usage error (among them an --order
above ORDER_MAX).  Each error is one line on stderr.
Reports are one line per case; --format records emits them as JSON objects
with identical content.
"""

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .catalog import (
    FIXTURE_DEPTH_N, MULT_RELATIONS, catalog_by_symbol, check_positivity_phi,
    check_positivity_sigma, get_lambency, ingest_hdata, table_for,
    verify_mult_relation,
)
from .cyclo import cformat
from .errors import InsufficientDepth, MJTError, MissingSource
from .eta import _fricke_constant, eta_dlog, eta_expand, parse_eta
from .jacobi import shadow_kernel, sz_lift
from .mocktheta import (
    ROWS, eulerian, row_names, verify_andrews_hickerson, verify_table14_15,
    verify_watson,
)

DATA_ENV = "MJTHETA_DATA"


def cmd_expand(args, out=None):
    out = out or sys.stdout
    if args.eta is not None:
        f = eta_expand(args.eta, args.order)
    elif args.lambency is not None:
        f = eta_expand(get_lambency(args.lambency).eta, args.order)
    else:
        f = eulerian(args.eulerian, args.order)
    items = f.items()
    if not items:
        print(f"mjtheta expand: no nonzero coefficient below the window "
              f"q^{f.order}", file=sys.stderr)
    for x, v in items:
        out.write(f"{x} {cformat(v)}\n")
    return 0


# -- verification reports ------------------------------------------------
#
# One function per checked claim, shared by `mjtheta verify` and the
# acceptance tests.  Each takes (case_key, order, hdata) and returns a
# report dict whose status is "pass", "fail" or "skipped"; hdata is the
# HData parsed from --data, once per run, or None.

def _moved(t, K):
    """A fail report if some a in K moves an entry of t that ez_apply(t, a)
    justifies, else None.  ez_apply(t, a) reads C(D, r) as C(D, r a), so
    the table is read there directly."""
    for a in K:
        for key, v in t.entries.items():
            D, r = key
            try:
                moved = t.get(D, r * a) != v
            except InsufficientDepth:
                continue
            if moved:
                return {"status": "fail",
                        "detail": f"ez_apply({a}) moved C{key}"}
    return None


def _verdict(rep):
    if rep["status"] != "verified":
        return {"status": "fail", "detail": f"at q^{rep['exponent']}"}
    return {"status": "pass", "depth": str(rep["depth"])}


def fricke_report(symbol, order, _hdata):
    """Criterion 1: T = q^-1 + O(q^0), and T * (T|W_m) is constant."""
    lam = get_lambency(symbol)
    f = eta_expand(lam.eta, order)
    if f.lo != -1 or f.coeff(-1) != 1:
        return {"status": "fail", "detail": f"leading term {f.lo}"}
    constant, window = _fricke_constant(f, lam.eta, lam.m)
    if window.denominator == 1:
        window = int(window)
    return {"status": "pass", "depth": window, "constant": constant}


def lift_report(symbol, order, _hdata):
    """Criterion 2: the lift of the shadow table is c * dlog T at
    q^1..q^(order-1); reports the fitted c."""
    lam = get_lambency(symbol)
    if order < 2:
        raise InsufficientDepth(f"order {order} reaches no coefficient q^1")
    t = shadow_kernel(lam.eta, lam.m, (order + 1) ** 2)
    lift = sz_lift(t, order)
    dl = eta_dlog(lam.eta, order)
    a, b = lift.coeffs.get(1, 0), dl.coeffs.get(1, 0)
    c = Fraction(a, b)
    for n in range(1, order):
        # a_n = c b_n, cleared of the denominator b
        if lift.coeffs.get(n, 0) * b != a * dl.coeffs.get(n, 0):
            return {"status": "fail", "detail": f"n={n}"}
    return {"status": "pass", "depth": order, "c": c}


def invariance_report(symbol, order, _hdata):
    """Criterion 3: the shadow table to depth `order` is fixed by every a
    in K."""
    lam = get_lambency(symbol)
    t = shadow_kernel(lam.eta, lam.m, order)
    return _moved(t, lam.K) or {"status": "pass", "depth": order}


def fixture_report(symbol, _order, _hdata):
    """Criterion 4: the printed table has C(1,1) = -2, C(1,r) != 0 exactly
    for r in +-K, and is fixed by every a in K."""
    lam = get_lambency(symbol)
    f = lam.fixture
    if f is None:
        return {"status": "skipped", "detail": "no printed table"}
    if f.get(1, 1) != -2:
        return {"status": "fail", "detail": "C(1,1) != -2"}
    m2 = 2 * lam.m
    K = set(lam.K) | {(-a) % m2 for a in lam.K}
    for r in range(m2):
        try:
            v = f.get(1, r)
        except InsufficientDepth:
            continue
        if (v != 0) != (r in K):
            return {"status": "fail", "detail": f"support at r={r}"}
    return _moved(f, lam.K) or {"status": "pass", "depth": FIXTURE_DEPTH_N}


def mocktheta_report(name, order, hdata):
    """A mock theta table row, or the Watson or Andrews-Hickerson set."""
    if name in ("watson", "andrews-hickerson"):
        verify = verify_watson if name == "watson" else \
            verify_andrews_hickerson
        bad = [r for r in verify(order) if r["status"] != "verified"]
        if bad:
            return {"status": "fail", "detail": bad[0]["identity"]}
        return {"status": "pass", "depth": order}
    sym = ROWS[name].lambency
    try:
        source = table_for(sym, hdata=hdata)
    except MissingSource:
        return {"status": "skipped",
                "detail": f"{sym} needs ingested data for row {name}"}
    return _verdict(verify_table14_15(name, source=source, order=order))


def positivity_report(symbol, _order, hdata):
    """Criterion 7: sigma-positivity holds exactly on L1+, and
    phi-positivity fails on every fixture; with data, it holds on L1+."""
    lam = get_lambency(symbol)
    if check_positivity_sigma(lam) != lam.in_L1_plus:
        return {"status": "fail", "detail": "sigma partition"}
    try:
        table = table_for(symbol, hdata=hdata)
    except MissingSource:
        return {"status": "pass"} if hdata is None else \
            {"status": "pass", "detail": "sigma only (no phi data)"}
    if check_positivity_phi(lam, table) != lam.in_L1_plus:
        return {"status": "fail", "detail": "phi failed on L1+ data"
                if lam.in_L1_plus else "phi passed outside L1+"}
    return {"status": "pass"}


def mult_relation_report(row_id, order, hdata):
    """A multiplicative-relation row against the ingested data."""
    if hdata is None:
        return {"status": "skipped", "detail": "no --data"}
    try:
        return _verdict(verify_mult_relation(row_id, hdata, order=order))
    except MissingSource as e:
        return {"status": "skipped", "detail": str(e)}


def _shadow_lift(symbol, order, hdata):
    """The shadow-lift suite: criterion 2, then criterion 3 to depth 50."""
    rep = lift_report(symbol, order, hdata)
    if rep["status"] != "pass":
        return rep
    inv = invariance_report(symbol, 50, hdata)
    return rep if inv["status"] == "pass" else inv


# suite -> (report function, case keys (a callable), default order)
SUITES = {
    "fricke": (fricke_report, catalog_by_symbol, 100),
    "shadow-lift": (_shadow_lift, catalog_by_symbol, 200),
    "fixtures": (fixture_report, lambda: [
        s for s, lam in catalog_by_symbol().items()
        if lam.fixture is not None], None),
    "mocktheta": (mocktheta_report,
                  lambda: row_names() + ["watson", "andrews-hickerson"], 8),
    "positivity": (positivity_report, catalog_by_symbol, None),
    "mult-relations": (mult_relation_report, lambda: sorted(MULT_RELATIONS),
                       None),
}


def _run_case(suite, key, order, hdata):
    report_fn, _keys, default_order = SUITES[suite]
    try:
        rep = report_fn(key, default_order if order is None else order,
                        hdata)
    except MJTError as e:
        rep = {"status": "fail", "detail": f"{type(e).__name__}: {e}"}
    rep.update(suite=suite, case=key)
    return rep


def cmd_verify(args, out=None):
    out = out or sys.stdout
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    hdata = ingest_hdata(args.data) if args.data else None
    t0 = time.perf_counter()
    reports = [_run_case(s, k, args.order, hdata)
               for s in suites for k in SUITES[s][1]()]
    reports.sort(key=lambda r: (r["suite"], str(r["case"])))
    failed = 0
    for rep in reports:
        if rep["status"] == "fail":
            failed += 1
        if args.format == "records":
            out.write(json.dumps(rep, sort_keys=True, default=str) + "\n")
        else:
            extra = ", ".join(f"{k}={v}" for k, v in sorted(rep.items())
                              if k not in ("suite", "case", "status"))
            out.write(f"{rep['status'].upper():7s} {rep['suite']}:"
                      f"{rep['case']}" + (f"  ({extra})" if extra else "")
                      + "\n")
    if args.format != "records":
        out.write(f"{len(reports)} cases, {failed} failed "
                  f"({time.perf_counter() - t0:.1f}s)\n")
    return 1 if failed else 0


def cmd_fit(args, out=None):
    out = out or sys.stdout
    from .borcherds import _check_case, fit_case
    # D and r are checked before a --data file's table is chosen, as
    # fit_case checks them before it chooses one itself; the file is read
    # even where the fixture is the table
    _check_case(args.lambency, args.D, args.r)
    table = table_for(args.lambency, hdata=ingest_hdata(args.data)) \
        if args.data else None
    rep = fit_case(args.lambency, args.D, args.r, table=table)
    if args.format == "records":
        out.write(json.dumps(
            {k: [cformat(c) for c in v] if k in ("P", "Q") else str(v)
             for k, v in rep.items()}, sort_keys=True) + "\n")
    else:
        out.write(f"{rep['lambency']}  D={rep['D']} r={rep['r']}  "
                  f"window={rep['window']}  max_deg={rep['max_deg']}\n")
        out.write("P: " + ", ".join(cformat(c) for c in rep["P"]) + "\n")
        out.write("Q: " + ", ".join(cformat(c) for c in rep["Q"]) + "\n")
        out.write("residual: 0 on all surplus coefficients\n")
    return 0


def _eta_arg(text):
    try:
        return parse_eta(text)
    except MJTError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


# The largest --order of expand and verify.  A window gets lists and packed
# integers of about `order` slots before any work starts, so a larger value
# is a usage error (exit 2) rather than a traceback or a run without end.
# Windows below it can still outgrow memory (MemoryError, exit 1).
ORDER_MAX = 10 ** 6


def _order_arg(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    if int(text) > ORDER_MAX:
        raise argparse.ArgumentTypeError(
            f"must be at most {ORDER_MAX}, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """A usage error is one stderr line, "{prog}: error: {message}", and
    exit 2; subparsers are built by this class too (parser_class)."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser():
    p = _Parser(
        prog="mjtheta",
        description="exact expansions and verifications for optimal mock "
                    "Jacobi theta functions")
    sub = p.add_subparsers(dest="command", required=True)

    def data_and_format(sp):
        sp.add_argument("--data", default=os.environ.get(DATA_ENV))
        sp.add_argument("--format", choices=("human", "records"),
                        default="human")

    pe = sub.add_parser("expand", help="print a q-expansion")
    tgt = pe.add_mutually_exclusive_group(required=True)
    tgt.add_argument("--eta", type=_eta_arg,
                     help="eta quotient, e.g. '1^24/2^24'")
    tgt.add_argument("--lambency", help="catalog symbol, e.g. '6+2'")
    tgt.add_argument("--eulerian", help="mock theta name, e.g. '3:psi'")
    pe.add_argument("--order", type=_order_arg, default=100)
    pe.set_defaults(fn=cmd_expand)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=(*SUITES, "all"))
    pv.add_argument("--order", type=_order_arg, default=None)
    data_and_format(pv)
    pv.set_defaults(fn=cmd_verify)

    pf = sub.add_parser("fit", help="fit a Borcherds product against T")
    pf.add_argument("--lambency", required=True)
    pf.add_argument("--D", type=int, required=True)
    pf.add_argument("--r", type=int, required=True)
    data_and_format(pf)
    pf.set_defaults(fn=cmd_fit)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return rc
    except BrokenPipeError:
        # stdout to devnull, so that the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except MJTError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: MemoryError: out of memory; try a smaller --order",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
