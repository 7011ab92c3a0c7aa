"""The benchmark of the mjtheta exact engine.

    python3 benchmarks/run.py --workload moduli --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Every measurement runs in a fresh,
single-threaded child process (worker.py) on the package under src/.

--trace 0 prints the end-to-end metrics: setup_s, the median of SETUPS
fresh interpreters from spawn to ready; run_s, the median wall time of one
round of the workload's case list; op_p50_s, the median time of one
operation; peak_rss_mb, the peak resident memory of the process doing the
work (for verify-cli the largest child).  The three times are calibrated:
each wall time is scaled by the speed of the machine measured next to it
(see calibrated()), because on a shared host that speed drifts by tens of
percent between runs.

--trace 1 prints the per-layer metrics of tracing.LAYER_METRICS: half the
time runs untraced and half traced, in two fresh processes, so the tracing
overhead is measured in the same run.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The exit code is 0 only when a result is printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import calibrate  # noqa: E402

SETUPS = 7
# Seconds of one calibration block (worker.calibrate) between operations on
# the 2-core VM where the bounds were set; times are reported at that speed.
CALIBRATION_REF_S = 0.0085
SETUP_CALIBRATION_BLOCKS = 10
TIME_LIMIT = 170  # seconds for the whole run, with its set-up probes
OUT_DIR = ".bench_out"


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_cmd(workload, mode, *extra):
    return [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--mode", mode, *extra]


def time_setups(workload, env, smoke, deadline):
    """Calibrated seconds from spawning a fresh interpreter to its ready
    line, for SETUPS interpreters one after the other."""
    speeds = [calibrate(SETUP_CALIBRATION_BLOCKS)]
    out = []
    for _ in range(SETUPS):
        dt = time_setup(workload, env, smoke, deadline)
        speeds.append(calibrate(SETUP_CALIBRATION_BLOCKS))
        out.append(dt * 2 * CALIBRATION_REF_S / (speeds[-2] + speeds[-1]))
    return out


def time_setup(workload, env, smoke, deadline):
    """Seconds from spawning a fresh interpreter to its ready line."""
    cmd = worker_cmd(workload, "setup", *(["--smoke"] if smoke else []))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.close()
        proc.wait(timeout=max(1, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line.startswith("ready"):
        raise RuntimeError(f"set-up of {workload} failed")
    return dt


def run_worker(workload, env, args, seconds, trace, deadline, spans=None):
    extra = ["--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", str(trace)]
    if spans:
        extra += ["--spans", spans]
    if args.smoke:
        extra.append("--smoke")
    proc = subprocess.run(worker_cmd(workload, "run", *extra), env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibrated(res):
    """Each round's operation times at the reference machine speed: an
    operation's wall time times CALIBRATION_REF_S over the mean of the
    calibration blocks timed just before and just after it."""
    speeds, k, out = res["speeds"], 0, []
    for times in res["op_times"]:
        out.append([])
        for t in times:
            out[-1].append(t * 2 * CALIBRATION_REF_S
                           / (speeds[k] + speeds[k + 1]))
            k += 1
    return out


def end_to_end(res, setups):
    ops = calibrated(res)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(sum(r) for r in ops), "s"),
        "op_p50_s": (statistics.median(t for r in ops for t in r), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(plain, traced):
    rounds = len(traced["op_times"])
    values = tracing.layer_values(traced["totals"], rounds)
    base = statistics.median(sum(r) for r in calibrated(plain))
    with_trace = statistics.median(sum(r) for r in calibrated(traced))
    values["trace.untraced_run_s"] = base
    values["trace.traced_run_s"] = with_trace
    values["trace.overhead_pct"] = 100 * (with_trace / base - 1)
    values["trace.attributed_share"] = \
        tracing.program_self_s(traced["totals"]) \
        / sum(t for r in traced["op_times"] for t in r)
    return {name: (values[name], unit) for name, unit in tracing.LAYER_METRICS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny depths and one round, for the self-tests")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mjtheta",
                                       "__init__.py")):
        print("error: run from the root of an mjtheta checkout "
              "(src/mjtheta not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    env = child_env(root)
    seconds = 0 if args.smoke else args.seconds
    try:
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            spans = os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            plain = run_worker(args.workload, env, args, seconds / 2, 0,
                               deadline)
            res = run_worker(args.workload, env, args, seconds / 2, 1,
                             deadline, spans)
            metrics = per_layer(plain, res)
            for key in ("attempted", "failed", "incorrect"):
                res[key] += plain[key]
            res["correct"] = plain["correct"] and res["correct"]
        else:
            setups = time_setups(args.workload, env, args.smoke, deadline)
            res = run_worker(args.workload, env, args, seconds, 0, deadline)
            metrics = end_to_end(res, setups)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if res["incorrect"]:
        print(f"incorrect outputs: {', '.join(res['incorrect'])}",
              file=sys.stderr)
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
