"""The four workloads: their cases, one operation per case, and the checks.

Each workload is a fixed list of exact verifications at a stated depth.
`setup` imports what the workload uses, loads the catalog and builds the
case list; that is what `setup_s` measures.  `run` makes one call into the
program and returns its output; `check` compares the output with the
reference computations in reference.py and returns None, or a message
saying what is wrong.  `run` reaches the package through module attributes
at call time, so that the traced run sees the wrapped functions.  Depths
are fixed here; SMOKE shrinks them so that the benchmark's own tests run
every check in seconds.
"""

import json
import subprocess
import sys
from fractions import Fraction

import reference as ref

# (lambency, D, r) cases whose fits succeed: the five textbook cases of
# acceptance criterion 8 and four more with larger windows or conductors.
FIT_CASES = [("10+2", -4, 6), ("6+2", -8, 4), ("18+2", -8, 8),
             ("33+11", -8, 28), ("15+5", -11, 7), ("15+5", -11, 13),
             ("28+7", -7, 21), ("33+11", -8, 16), ("33+11", -11, 11)]

DEPTHS = {
    "moduli": {"order": 400, "prefix": 100},
    "mock-theta": {"order": 100, "identities": 150},
    "borcherds-fit": {"cases": len(FIT_CASES)},
    "verify-cli": {"args": []},
}
SMOKE = {
    "moduli": {"order": 30, "prefix": 31},
    "mock-theta": {"order": 25, "identities": 30},
    "borcherds-fit": {"cases": 2},
    "verify-cli": {"args": ["--order", "10"]},
}

# Operations that fail on every run because of a fault in the program; they
# count as failed, and any other failure makes the run incorrect.
KNOWN_FAULTS = {
    # mocktheta.EULERIAN_DEFS has (-q^2; q^4)_n where Gordon-McIntosh's
    # U1 = sum q^((n+1)^2) (-q; q^2)_n / (-q^2; q^4)_(n+1) has n + 1.
    ("mock-theta", "eulerian:8:U1"),
}


class Moduli:
    """Each principal modulus T and its Fricke image, expanded deep, with
    the check that T * (T | W_m) is constant."""

    def setup(self, depth):
        from mjtheta import eta
        from mjtheta.catalog import load_catalog
        self.eta = eta
        self.order, self.prefix = depth["order"], depth["prefix"]
        self.lams = {lam.symbol: lam for lam in load_catalog()}
        self.refs = {}
        return sorted(self.lams)

    def run(self, symbol):
        lam = self.lams[symbol]
        return (self.eta.eta_expand(lam.eta, self.order),
                self.eta.verify_fricke_constant(lam.eta, lam.m, self.order))

    def check(self, symbol, out):
        lam = self.lams[symbol]
        if symbol not in self.refs:
            self.refs[symbol] = (
                ref.eta_unit_part(lam.eta.factors, self.prefix),
                ref.fricke_constant(lam.eta.factors, lam.m))
        return check_modulus(out, self.order, *self.refs[symbol])


def check_modulus(out, order, unit, constant):
    f, c = out
    if f.order != order:
        return f"window {f.order}, requested {order}"
    if f.lo != -1 or f.coeff(-1) != 1:
        return f"leading term {f.lo}, not q^-1 with coefficient 1"
    if constant is None or c != constant:
        return f"Fricke constant {c}, closed form {constant}"
    for i, want in enumerate(unit):
        if f.coeff(i - 1) != want:
            return f"coefficient of q^{i - 1} is {f.coeff(i - 1)}, " \
                   f"the eta product gives {want}"
    return None


class MockTheta:
    """Every registered Eulerian series, Watson's and Andrews-Hickerson's
    identities, and the table rows whose streams ship with the catalog."""

    def setup(self, depth):
        from mjtheta import mocktheta
        from mjtheta.catalog import get_lambency
        self.mt = mocktheta
        self.order, self.id_order = depth["order"], depth["identities"]
        rows = [n for n in mocktheta.row_names()
                if get_lambency(mocktheta.ROWS[n].lambency).fixture
                is not None]
        self.refs = {}
        return ([f"eulerian:{n}" for n in mocktheta.EULERIAN_NAMES]
                + ["watson", "andrews-hickerson"]
                + [f"row:{n}" for n in rows])

    def run(self, case):
        kind, _, name = case.partition(":")
        if kind == "eulerian":
            return self.mt.eulerian(name, self.order)
        if kind == "row":
            return self.mt.verify_table14_15(name, order=self.order)
        if kind == "watson":
            return self.mt.verify_watson(self.id_order)
        return self.mt.verify_andrews_hickerson(self.id_order)

    def check(self, case, out):
        kind, _, name = case.partition(":")
        if kind == "eulerian":
            if name not in self.refs:
                self.refs[name] = ref.mock_theta(name, self.order)
            return check_eulerian(name, out, self.order, self.refs[name])
        if kind == "row":
            if out["status"] != "verified":
                return f"row {name}: {out}"
            return None
        want = 2 if kind == "watson" else 4
        return check_identities(out, want, self.id_order)


def check_eulerian(name, f, order, coeffs):
    if f.order != order:
        return f"window {f.order}, requested {order}"
    if any(k < 0 or k >= order * f.den for k in f.coeffs):
        return "term outside [0, order)"
    if name == "3:f" and coeffs[:12] != ref.THIRD_ORDER_F:
        return "defining sum of 3:f disagrees with OEIS A000025"
    for i, want in enumerate(coeffs):
        got = f.coeff(i)
        if got != want:
            return f"coefficient of q^{i} is {got}, the defining sum " \
                   f"gives {want}"
    return None


def check_identities(reports, want, order):
    if len(reports) != want:
        return f"{len(reports)} identities, expected {want}"
    for rep in reports:
        if rep["status"] != "verified" or rep["depth"] != order:
            return f"{rep['identity']}: {rep['status']} to {rep['depth']}"
    return None


class BorcherdsFit:
    """borcherds.fit_case on (lambency, D, r) cases whose fits succeed."""

    def setup(self, depth):
        from mjtheta import borcherds
        from mjtheta.catalog import get_lambency
        from mjtheta.errors import InsufficientDepth
        self.borcherds, self.depth_error = borcherds, InsufficientDepth
        self.lams = {s: get_lambency(s) for s, _D, _r in FIT_CASES}
        self.refs = {}
        return [f"{s} {D} {r}" for s, D, r in FIT_CASES[:depth["cases"]]]

    def run(self, case):
        s, D, r = case.split()
        return self.borcherds.fit_case(s, int(D), int(r))

    def check(self, case, out):
        s, D, r = case.split()
        D, r = int(D), int(r)
        N = ref.ring_size(D, out["P"] + out["Q"])
        if (case, N) not in self.refs:
            table = self.lams[s].fixture

            def get(Dn, rn):
                try:
                    return table.get(Dn, rn)
                except self.depth_error:
                    raise LookupError from None
            psi, window = ref.borcherds_psi(D, r, get, N)
            unit = ref.eta_unit_part(self.lams[s].eta.factors,
                                     window + 2 * out["max_deg"] + 2)
            self.refs[case, N] = (psi, window, unit)
        return check_fit(out, *self.refs[case, N])


def check_fit(out, psi, window, unit):
    P, Q, d = out["P"], out["Q"], out["max_deg"]
    if Q[-1] != 1:
        return f"Q is not monic: leading coefficient {Q[-1]}"
    if len(P) - 1 > d or len(Q) - 1 > d:
        return f"deg P = {len(P) - 1}, deg Q = {len(Q) - 1} > {d}"
    if out["window"] != window:
        return f"window {out['window']}, the table allows {window}"
    x = ref.fit_residual(P, Q, psi, window, unit)
    if x is not None:
        return f"Q(T) Psi - P(T) does not vanish at q^{x}"
    return None


class VerifyCli:
    """The user's command `mjtheta verify all --format records`, cold, in a
    fresh child process per operation."""

    def setup(self, depth):
        from mjtheta import cli
        from mjtheta.catalog import MULT_RELATIONS, load_catalog
        from mjtheta.mocktheta import ROWS
        lams = load_catalog()
        self.constants = {lam.symbol: ref.fricke_constant(lam.eta.factors,
                                                          lam.m)
                          for lam in lams}
        self.rows = ROWS
        symbols = [lam.symbol for lam in lams]
        self.expected = (
            {(s, k) for s in ("fricke", "shadow-lift", "positivity")
             for k in symbols}
            | {("fixtures", lam.symbol) for lam in lams if lam.fixture}
            | {("mocktheta", k) for k in list(ROWS)
               + ["watson", "andrews-hickerson"]}
            | {("mult-relations", k) for k in MULT_RELATIONS})
        self.argv = ["verify", "all", "--format", "records"] + depth["args"]
        self.command = [sys.executable, "-m", cli.__name__] + self.argv
        return ["verify all"]

    def run(self, _case, command=None):
        proc = subprocess.run(command or self.command, capture_output=True,
                              text=True, timeout=150)
        return proc.returncode, proc.stdout

    def check(self, _case, out):
        code, stdout = out
        return check_records(code, stdout, self.expected, self.constants,
                             self.rows)


def check_records(code, stdout, expected, constants, rows):
    if code != 0:
        return f"exit code {code}"
    recs = [json.loads(line) for line in stdout.splitlines() if line]
    seen = [(r["suite"], r["case"]) for r in recs]
    if len(seen) != len(set(seen)) or set(seen) != expected:
        return f"records cover {len(set(seen))} pairs ({len(seen)} " \
               f"records), expected {len(expected)}"
    for r in recs:
        suite, case, status = r["suite"], r["case"], r["status"]
        if status == "fail":
            return f"{suite}:{case} failed: {r.get('detail')}"
        if status == "skipped":
            if not _names_missing_input(r, rows):
                return f"{suite}:{case} skipped without naming its input"
        elif status != "pass":
            return f"{suite}:{case} has status {status!r}"
        elif suite == "fricke" and Fraction(r["constant"]) != \
                constants[case]:
            return f"fricke:{case} constant {r['constant']}, closed form " \
                   f"{constants[case]}"
        elif suite == "shadow-lift" and Fraction(r["c"]) != -2:
            return f"shadow-lift:{case} c = {r['c']}, not -2"
    return None


def _names_missing_input(rec, rows):
    detail = rec.get("detail", "")
    if rec["suite"] == "mocktheta":
        return rows[rec["case"]].lambency in detail and rec["case"] in detail
    if rec["suite"] == "mult-relations":
        return "--data" in detail
    return False


WORKLOADS = {"moduli": Moduli, "mock-theta": MockTheta,
             "borcherds-fit": BorcherdsFit, "verify-cli": VerifyCli}
