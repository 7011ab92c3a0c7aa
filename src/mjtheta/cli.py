"""Command-line driver: series expansion, verification suites, and the
rational-function fit.

Exit codes: 0 success, 1 verification or computation failure, 2 usage error.
Reports are one line per case; --format records emits them as JSON objects
with identical content.
"""

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .catalog import (
    MULT_RELATIONS, check_positivity_phi, check_positivity_sigma,
    get_lambency, ingest_hdata, load_catalog, verify_mult_relation,
)
from .cyclo import cformat
from .errors import InsufficientDepth, MJTError, MissingSource
from .eta import eta_dlog, eta_expand, parse_eta, verify_fricke_constant
from .jacobi import ez_apply, shadow_kernel, sz_lift
from .mocktheta import (
    eulerian, row_names, verify_andrews_hickerson, verify_table14_15,
    verify_watson,
)

DATA_ENV = "MJTHETA_DATA"
SUITES = ("fricke", "shadow-lift", "fixtures", "mocktheta", "positivity",
          "mult-relations")


def _fmt_coeff(v):
    return cformat(v) if not isinstance(v, (int, Fraction)) else str(v)


def _print_series(f, out):
    for x, v in f.items():
        out.write(f"{x} {_fmt_coeff(v)}\n")


def cmd_expand(args, out=None):
    out = out or sys.stdout
    order = args.order if args.order is not None else 100
    if args.eta is not None:
        f = eta_expand(args.eta, order)
    elif args.lambency is not None:
        f = eta_expand(get_lambency(args.lambency).eta, order)
    else:
        f = eulerian(args.eulerian, order)
    _print_series(f, out)
    return 0


# -- verification cases ---------------------------------------------------
#
# Each case function takes (case_key, order, hdata) and returns a report
# dict; module-level so the worker pool can pickle the tasks.  hdata is the
# HData parsed from --data, once per run, or None.

def _case_fricke(symbol, order, _hdata):
    lam = get_lambency(symbol)
    f = eta_expand(lam.eta, order)
    if f.lo != -1 or f.coeff(-1) != 1:
        return {"status": "fail", "detail": f"leading term {f.lo}"}
    mult = verify_fricke_constant(lam.eta, lam.m, order)
    return {"status": "pass", "depth": order, "constant": str(mult)}


def _case_shadow(symbol, order, _hdata):
    lam = get_lambency(symbol)
    n_max = order
    if n_max < 2:
        raise InsufficientDepth(f"order {order} reaches no coefficient q^1")
    t = shadow_kernel(lam.eta, lam.m, (n_max + 1) ** 2)
    lift = sz_lift(t, 1, 1, 2, n_max)
    dl = eta_dlog(lam.eta, n_max)
    c = Fraction(lift.coeff(1), dl.coeff(1))
    for n in range(1, n_max):
        if lift.coeff(n) != c * dl.coeff(n):
            return {"status": "fail", "detail": f"n={n}"}
    t50 = shadow_kernel(lam.eta, lam.m, 50)
    for a in lam.K:
        u = ez_apply(t50, a)
        for key, v in t50.entries.items():
            if u.entries.get(key, 0) != v:
                return {"status": "fail",
                        "detail": f"ez_apply({a}) moved C{key}"}
    return {"status": "pass", "depth": n_max, "c": str(c)}


def _case_fixture(symbol, _order, _hdata):
    lam = get_lambency(symbol)
    f = lam.fixture
    if f is None:
        return {"status": "skipped", "detail": "no printed table"}
    if f.get(1, 1) != -2:
        return {"status": "fail", "detail": "C(1,1) != -2"}
    m2 = 2 * lam.m
    K = set(lam.K) | {(-a) % m2 for a in lam.K}
    for r in range(m2):
        if f.known(1, r) and (f.get(1, r) != 0) != (r in K):
            return {"status": "fail", "detail": f"support at r={r}"}
    for a in lam.K:
        g = ez_apply(f, a)
        for key, v in f.entries.items():
            if g.known(*key) and g.get(*key) != v:
                return {"status": "fail",
                        "detail": f"ez_apply({a}) moved C{key}"}
    return {"status": "pass", "depth": 15}


def _case_mocktheta(name, order, hdata):
    if name == "watson":
        reps = verify_watson(order)
    elif name == "andrews-hickerson":
        reps = verify_andrews_hickerson(order)
    else:
        source = None
        try:
            if hdata is not None:
                from .mocktheta import ROWS
                sym = ROWS[name].lambency
                if get_lambency(sym).fixture is None:
                    source = hdata.get(sym)
        except MissingSource:
            source = None
        try:
            rep = verify_table14_15(name, source=source, order=order)
        except MissingSource as e:
            return {"status": "skipped", "detail": str(e)}
        if rep["status"] != "verified":
            return {"status": "fail", "detail": f"at q^{rep['exponent']}"}
        return {"status": "pass", "depth": str(rep["depth"])}
    bad = [r for r in reps if r["status"] != "verified"]
    if bad:
        return {"status": "fail", "detail": bad[0]["identity"]}
    return {"status": "pass", "depth": order}


def _case_positivity(symbol, _order, hdata):
    lam = get_lambency(symbol)
    ok_sigma = check_positivity_sigma(lam) == lam.in_L1_plus
    if not ok_sigma:
        return {"status": "fail", "detail": "sigma partition"}
    if lam.fixture is not None:
        if check_positivity_phi(lam):
            return {"status": "fail", "detail": "phi passed outside L1+"}
    elif hdata is not None:
        try:
            table = hdata.get(lam.symbol)
        except MissingSource:
            return {"status": "pass", "detail": "sigma only (no phi data)"}
        if not check_positivity_phi(lam, table):
            return {"status": "fail", "detail": "phi failed on L1+ data"}
    return {"status": "pass"}


def _case_mult(row_id, order, hdata):
    if hdata is None:
        return {"status": "skipped", "detail": "no --data"}
    try:
        rep = verify_mult_relation(row_id, hdata, order=order)
    except MissingSource as e:
        return {"status": "skipped", "detail": str(e)}
    if rep["status"] != "verified":
        return {"status": "fail", "detail": f"at q^{rep['exponent']}"}
    return {"status": "pass", "depth": str(rep["depth"])}


_CASE_FNS = {
    "fricke": _case_fricke,
    "shadow-lift": _case_shadow,
    "fixtures": _case_fixture,
    "mocktheta": _case_mocktheta,
    "positivity": _case_positivity,
    "mult-relations": _case_mult,
}

_DEFAULT_ORDERS = {
    "fricke": 100, "shadow-lift": 200, "fixtures": 15, "mocktheta": 8,
    "positivity": 15, "mult-relations": None,
}


def _suite_cases(suite, order, hdata):
    symbols = [lam.symbol for lam in load_catalog()]
    if suite in ("fricke", "shadow-lift", "positivity"):
        keys = symbols
    elif suite == "fixtures":
        keys = [s for s in symbols if get_lambency(s).fixture is not None]
    elif suite == "mocktheta":
        keys = row_names() + ["watson", "andrews-hickerson"]
    else:
        keys = sorted(MULT_RELATIONS)
    o = order if order is not None else _DEFAULT_ORDERS[suite]
    return [(suite, k, o, hdata) for k in keys]


def _run_case(task):
    suite, key, order, hdata = task
    try:
        rep = _CASE_FNS[suite](key, order, hdata)
    except MJTError as e:
        rep = {"status": "fail", "detail": f"{type(e).__name__}: {e}"}
    rep.update(suite=suite, case=key)
    return rep


def cmd_verify(args, out=None):
    out = out or sys.stdout
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    hdata = ingest_hdata(args.data) if args.data else None
    tasks = []
    for s in suites:
        tasks.extend(_suite_cases(s, args.order, hdata))
    t0 = time.time()
    if args.jobs and args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(_run_case, tasks))
    else:
        reports = [_run_case(t) for t in tasks]
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
                  f"({time.time() - t0:.1f}s)\n")
    return 1 if failed else 0


def cmd_fit(args, out=None):
    out = out or sys.stdout
    from .borcherds import fit_case
    table = None
    if args.data and get_lambency(args.lambency).fixture is None:
        table = ingest_hdata(args.data).get(args.lambency)
    rep = fit_case(args.lambency, args.D, args.r, max_deg=args.max_deg,
                   table=table)
    if args.format == "records":
        out.write(json.dumps(
            {k: [_fmt_coeff(c) for c in v] if k in ("P", "Q") else str(v)
             for k, v in rep.items()}, sort_keys=True) + "\n")
    else:
        out.write(f"{rep['lambency']}  D={rep['D']} r={rep['r']}  "
                  f"window={rep['window']}  max_deg={rep['max_deg']}\n")
        out.write("P: " + ", ".join(_fmt_coeff(c) for c in rep["P"]) + "\n")
        out.write("Q: " + ", ".join(_fmt_coeff(c) for c in rep["Q"]) + "\n")
        out.write("residual: 0 on all surplus coefficients\n")
    return 0


def _eta_arg(text):
    try:
        return parse_eta(text)
    except MJTError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _order_arg(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser():
    p = argparse.ArgumentParser(
        prog="mjtheta",
        description="exact expansions and verifications for optimal mock "
                    "Jacobi theta functions")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--order", type=_order_arg, default=None)
        sp.add_argument("--data", default=os.environ.get(DATA_ENV))
        sp.add_argument("--format", choices=("human", "records"),
                        default="human")
        sp.add_argument("--jobs", type=int, default=None)

    pe = sub.add_parser("expand", help="print a q-expansion")
    tgt = pe.add_mutually_exclusive_group(required=True)
    tgt.add_argument("--eta", type=_eta_arg,
                     help="eta quotient, e.g. '1^24/2^24'")
    tgt.add_argument("--lambency", help="catalog symbol, e.g. '6+2'")
    tgt.add_argument("--eulerian", help="mock theta name, e.g. '3:psi'")
    common(pe)
    pe.set_defaults(fn=cmd_expand)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=SUITES + ("all",))
    common(pv)
    pv.set_defaults(fn=cmd_verify)

    pf = sub.add_parser("fit", help="fit a Borcherds product against T")
    pf.add_argument("--lambency", required=True)
    pf.add_argument("--D", type=int, required=True)
    pf.add_argument("--r", type=int, required=True)
    pf.add_argument("--max-deg", type=int, default=None)
    common(pf)
    pf.set_defaults(fn=cmd_fit)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MJTError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: MemoryError: out of memory; try a smaller --order",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
