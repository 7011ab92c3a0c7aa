"""Run one workload N times, on seeds 1..N, and summarise each metric:

    python3 benchmarks/repeat.py --workload moduli --runs 10 --seconds 20

prints, per metric, the median, the first and third quartiles and the
spread (Q3 - Q1) / median, with statistics.quantiles(values, n=4); then
the failed share of every run.  --first-seed shifts the seeds, so that two
sets of runs on different seeds can be compared; --json writes the raw
results.  The bounds in BENCHMARK.json are set from this output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", default=None)
    args = ap.parse_args(argv)
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']}", flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=1)
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s}")
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.3f}  {m['unit']}")
    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    print("failed share:", ", ".join(str(s) for s in sorted(shares)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
