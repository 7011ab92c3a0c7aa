"""Per-module tracing of the mjtheta package, installed from outside.

A Tracer wraps the public functions of each module and rebinds the wrapper
wherever a module of the package binds the original, so both calls across
modules and calls inside a module go through it.  No file of the package
changes.  Three kinds of wrapper:

* spans: a record (id, parent, name, start, end) kept in memory, plus calls
  and self time (duration minus the time covered by child spans).  Only the
  first SPANS_PER_NAME calls of a function keep their record, so that
  per-coefficient helpers do not fill memory; all calls count in the totals;
* timed: calls and self time without a stored span, for `Cyc.make`, which
  runs too often for a span per call;
* counted: calls only, for the scalar helpers of `cyclo`, `arith` and
  `CoeffTable.get`.

The layer metrics are named <module>.<function>.<quantity>; LAYER_METRICS
lists the ones the benchmark reports.
"""

import json
import time

PACKAGE_MODULES = ("arith", "cyclo", "series", "eta", "jacobi", "catalog",
                   "mocktheta", "borcherds", "cli")
TRANSFORMS = ("series_slice", "series_shift", "series_rescale",
              "series_half_shift")
SCALARS = {"cadd": 2, "cmul": 2, "cneg": 1, "ciszero": 1}  # name: arity
SPANS_PER_NAME = 2000
COUNTED = {"arith": ("kronecker", "divisors")}

# (name, unit); values are per round of the workload's case list
LAYER_METRICS = [
    ("cyclo.rational.calls", "count"), ("cyclo.cyc.calls", "count"),
    ("cyclo.make.calls", "count"), ("cyclo.make.self_s", "s"),
    ("cyclo.make.demoted", "count"), ("cyclo.make.demoted_share", "ratio"),
    ("cyclo.cinv.calls", "count"), ("cyclo.cinv.self_s", "s"),
    ("series.series_mul.calls", "count"), ("series.series_mul.self_s", "s"),
    ("series.series_mul.term_pairs", "count"),
    ("series.series_mul.out_terms", "count"),
    ("series.series_pow.self_s", "s"), ("series.series_add.self_s", "s"),
    ("series.series_eq.self_s", "s"), ("series.transform.self_s", "s"),
    ("eta.eta_expand.calls", "count"), ("eta.eta_expand.self_s", "s"),
    ("eta.eta_expand.coeffs", "count"),
    ("eta.verify_fricke_constant.self_s", "s"), ("eta.eta_dlog.self_s", "s"),
    ("mocktheta.eulerian.calls", "count"), ("mocktheta.eulerian.self_s", "s"),
    ("mocktheta.verify_watson.self_s", "s"),
    ("mocktheta.verify_andrews_hickerson.self_s", "s"),
    ("mocktheta.verify_table14_15.self_s", "s"),
    ("jacobi.shadow_kernel.self_s", "s"), ("jacobi.sz_lift.self_s", "s"),
    ("jacobi.ez_apply.self_s", "s"), ("jacobi.h_stream.self_s", "s"),
    ("jacobi.table_get.calls", "count"),
    ("borcherds.enumerate_heegner.calls", "count"),
    ("borcherds.enumerate_heegner.self_s", "s"),
    ("borcherds.genus_char.calls", "count"),
    ("borcherds.genus_char.self_s", "s"),
    ("borcherds.psi_expand.self_s", "s"),
    ("borcherds.fit_rational.self_s", "s"),
    ("catalog.load_catalog.self_s", "s"), ("arith.kronecker.calls", "count"),
    ("arith.divisors.calls", "count"), ("cli.main.self_s", "s"),
    ("trace.untraced_run_s", "s"), ("trace.traced_run_s", "s"),
    ("trace.overhead_pct", "%"), ("trace.attributed_share", "ratio"),
]


class Tracer:
    def __init__(self):
        self.spans = []    # (id, parent id or 0, name, start, end)
        self.stack = []    # open spans: [id, start, child seconds]
        self.calls = {}
        self.self_s = {}
        self.work = {}     # "<module>.<function>.<quantity>" -> count
        self._next_id = 1
        self._undo = []
        self._own = {}

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, store, after=None):
        stack, spans = self.stack, self.spans
        calls, self_s = self.calls, self.self_s
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self_s[name] += dur - frame[2]
                calls[name] += 1
                if stack:
                    stack[-1][2] += dur
                if store and calls[name] <= SPANS_PER_NAME:
                    spans.append((sid, parent, name, frame[1], end))
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _scalar(self, fn, cyc, arity):
        """Counts split by operand type: any Cyc operand, or none."""
        calls = self.calls
        calls.setdefault("cyclo.rational", 0)
        calls.setdefault("cyclo.cyc", 0)

        def unary(a):
            calls["cyclo.cyc" if type(a) is cyc else "cyclo.rational"] += 1
            return fn(a)

        def binary(a, b):
            calls["cyclo.cyc" if type(a) is cyc or type(b) is cyc
                  else "cyclo.rational"] += 1
            return fn(a, b)
        return unary if arity == 1 else binary

    def _add_work(self, key, amount):
        self.work[key] = self.work.get(key, 0) + amount

    def call(self, name, fn, *args):
        """fn(*args) inside a span of the benchmark's own, such as one
        operation of a workload."""
        wrapper = self._own.get(name)
        if wrapper is None:
            wrapper = self._own[name] = self._timed(
                name, lambda f, *a: f(*a), store=True)
        return wrapper(fn, *args)

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap the public functions of the package's modules."""
        import importlib
        mods = [importlib.import_module(f"{package}.{m}")
                for m in PACKAGE_MODULES]
        everywhere = [importlib.import_module(package)] + mods
        cyclo = mods[PACKAGE_MODULES.index("cyclo")]
        for modname, mod in zip(PACKAGE_MODULES, mods):
            for fname in _public_functions(mod):
                fn = getattr(mod, fname)
                name = f"{modname}.{fname}"
                if modname == "cyclo":
                    if fname in SCALARS:
                        wrapper = self._scalar(fn, cyclo.Cyc, SCALARS[fname])
                    elif fname == "cinv":
                        wrapper = self._timed(name, fn, store=True)
                    else:
                        continue
                elif modname in COUNTED:
                    if fname not in COUNTED[modname]:
                        continue
                    wrapper = self._counted(name, fn)
                else:
                    wrapper = self._timed(name, fn, store=True,
                                          after=self._after(name))
                self._rebind(everywhere, fn, wrapper)
        make = cyclo.Cyc.make

        def demoted(args, out):
            if not isinstance(out, cyclo.Cyc) or out.n < args[0]:
                self._add_work("cyclo.make.demoted", 1)
        self._set_attr(cyclo.Cyc, "make", staticmethod(
            self._timed("cyclo.make", make, store=False, after=demoted)))
        jacobi = mods[PACKAGE_MODULES.index("jacobi")]
        self._set_attr(jacobi.CoeffTable, "get", self._counted(
            "jacobi.table_get", jacobi.CoeffTable.get))

    def _after(self, name):
        if name == "series.series_mul":
            def count(args, out):
                self._add_work("series.series_mul.term_pairs",
                               len(args[0].coeffs) * len(args[1].coeffs))
                self._add_work("series.series_mul.out_terms", len(out.coeffs))
            return count
        if name == "eta.eta_expand":
            return lambda args, out: self._add_work("eta.eta_expand.coeffs",
                                                    len(out.coeffs))
        return None

    def _rebind(self, modules, fn, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set_attr(mod, attr, wrapper)

    def _set_attr(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def totals(self):
        """calls, self_s and work counts as one JSON-ready dict."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "work": dict(self.work)}

    def write_spans(self, fh):
        for sid, parent, name, start, end in self.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": start, "end": end}) + "\n")


def _public_functions(mod):
    names = getattr(mod, "__all__", None) or \
        [n for n in vars(mod) if not n.startswith("_")]
    out = []
    for n in names:
        obj = getattr(mod, n)
        if callable(obj) and not isinstance(obj, type) and \
                getattr(obj, "__module__", None) == mod.__name__:
            out.append(n)
    return out


def merge_totals(parts):
    out = {"calls": {}, "self_s": {}, "work": {}}
    for part in parts:
        for kind in out:
            for k, v in part[kind].items():
                out[kind][k] = out[kind].get(k, 0) + v
    return out


def program_self_s(totals):
    """Self time attributed to the package's modules."""
    return sum(v for k, v in totals["self_s"].items()
               if k.split(".")[0] in PACKAGE_MODULES)


def layer_values(totals, rounds):
    """The layer metrics from summed totals, per round."""
    calls, self_s, work = totals["calls"], totals["self_s"], totals["work"]
    made = calls.get("cyclo.make", 0)
    out = {"cyclo.make.demoted_share":
           work.get("cyclo.make.demoted", 0) / made if made else 0.0}
    for name, _unit in LAYER_METRICS:
        base, _, qty = name.rpartition(".")
        if name in out or name.startswith("trace."):
            continue
        if name == "series.transform.self_s":
            v = sum(self_s.get(f"series.{f}", 0.0) for f in TRANSFORMS)
        elif qty == "calls":
            v = calls.get(base, 0)
        elif qty == "self_s":
            v = self_s.get(base, 0.0)
        else:
            v = work.get(name, 0)
        out[name] = v / rounds
    return out
