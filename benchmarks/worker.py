"""One workload in a fresh process: python3 benchmarks/worker.py ...

--mode setup builds the workload's case list, prints "ready <cases>" and
exits; run.py times that from spawn to the ready line.  --mode run measures
whole rounds of the case list, in an order shuffled by the seed, until
--seconds have passed, checks every output outside the timed region, and
prints one JSON object.  A fixed calibration block runs before the first
operation and after each one; its time tracks the speed of the machine,
which on a shared host drifts by tens of percent within a minute, and
run.py scales each operation's time by it.  With --trace 1 the package is
traced (tracing.py) and the spans are written to --spans.
"""

import argparse
import gc
import json
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction

import workloads

CALIBRATION_BLOCKS = 40  # per round, spread over its operations, >= 1 each


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    depths = workloads.SMOKE if args.smoke else workloads.DEPTHS
    wl = workloads.WORKLOADS[args.workload]()
    cases = wl.setup(depths[args.workload])
    if args.mode == "setup":
        print(f"ready {len(cases)}", flush=True)
        return 0
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    result = measure(args.workload, wl, cases, args.seconds,
                     random.Random(args.seed), tracer, args.spans)
    print(json.dumps(result), flush=True)
    return 0


def measure(name, wl, cases, seconds, rng, tracer, spans_path):
    traced_cli = tracer is not None and name == "verify-cli"
    blocks = max(1, CALIBRATION_BLOCKS // len(cases))
    child_traces = []
    op_times, speeds = [], [calibrate(blocks)]
    attempted = failed = 0
    incorrect = []
    if traced_cli:
        open(spans_path, "w").close()
    start = time.perf_counter()
    while True:
        order = list(cases)
        rng.shuffle(order)
        outs, times = [], []
        if tracer is not None and not traced_cli:
            tracer.install("mjtheta")
        for case in order:
            a = time.perf_counter()
            try:
                if traced_cli:
                    part = f"{spans_path}.{len(child_traces)}"
                    out = wl.run(case, _traced_command(wl, part))
                    child_traces.append(_read_child_trace(spans_path, part))
                elif tracer is not None:
                    out = tracer.call("bench.op", wl.run, case)
                else:
                    out = wl.run(case)
                err = None
            except Exception:  # a raising operation is a failed operation
                out, err = None, traceback.format_exc(limit=3)
            times.append(time.perf_counter() - a)
            outs.append((case, out, err))
            speeds.append(calibrate(blocks))
        op_times.append(times)
        if tracer is not None and not traced_cli:
            tracer.uninstall()
        for case, out, err in outs:
            msg = err or wl.check(case, out)
            attempted += 1
            if msg:
                failed += 1
                if (name, case) not in workloads.KNOWN_FAULTS:
                    incorrect.append(case)
                if len(op_times) == 1:
                    print(f"{name}: {case}: {msg}", file=sys.stderr)
        if time.perf_counter() - start >= seconds:
            break
    usage = resource.RUSAGE_CHILDREN if name == "verify-cli" else \
        resource.RUSAGE_SELF
    result = {"correct": not incorrect, "attempted": attempted,
              "failed": failed, "incorrect": sorted(set(incorrect)),
              "op_times": op_times, "speeds": speeds,
              "peak_rss_kb": resource.getrusage(usage).ru_maxrss}
    if tracer is not None:
        import tracing
        if traced_cli:
            totals = tracing.merge_totals(child_traces)
        else:
            totals = tracer.totals()
            with open(spans_path, "w") as fh:
                tracer.write_spans(fh)
        result["totals"] = totals
    return result


def calibrate(blocks):
    """Seconds per fixed block of pure-Python work like the package's hot
    loops (dict convolution, big integers, Fractions), with the collector
    off so that the program's heap cannot slow it."""
    gc.disable()
    try:
        t = time.perf_counter()
        for _ in range(blocks):
            _calibration_block()
        return (time.perf_counter() - t) / blocks
    finally:
        gc.enable()


def _calibration_block():
    a = {i: (i * 7919) % 1000 - 500 for i in range(160)}
    out = {}
    for i, x in a.items():
        for j, y in a.items():
            k = i + j
            if k < 240:
                out[k] = out.get(k, 0) + x * y
    big, acc = 3 ** 1000, 0
    for i in range(1, 700):
        acc += big * i // (i + 7)
    f = Fraction(0)
    for i in range(1, 1000):
        f += Fraction(i % 7, i % 11 + 1)
    return out, acc, f


def _traced_command(wl, part):
    here = os.path.dirname(os.path.abspath(__file__))
    return [sys.executable, os.path.join(here, "traced_cli.py"), part] \
        + wl.argv


def _read_child_trace(spans_path, part):
    """Totals of one traced child; its spans join the run's span file,
    marked with the operation's index, since each child numbers its own."""
    op = int(part.rpartition(".")[2])
    with open(part) as fh:
        head = json.loads(fh.readline())
        spans = [dict(json.loads(line), op=op) for line in fh]
    with open(spans_path, "a") as fh:
        fh.writelines(json.dumps(span) + "\n" for span in spans)
    os.remove(part)
    return head


if __name__ == "__main__":
    sys.exit(main())
