"""The benchmark's own tests:

    python3 -m pytest -q benchmarks/test_bench.py

Smoke runs of every workload at a tiny depth with all checks on, and
negative controls: each check is fed a corrupted output and must reject it.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _setup(name, depth=None):
    w = wl.WORKLOADS[name]()
    return w, w.setup(depth or wl.SMOKE[name])


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    known = sum(1 for w, _c in wl.KNOWN_FAULTS if w == workload)
    runs = 2 if trace == "1" else 1  # a traced run also runs untraced
    assert res["failed"] == known * runs
    assert res["attempted"] % runs == 0
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if trace == "0":
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_layer_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        tracing.LAYER_METRICS
    assert sorted(w["name"] for w in SPEC["workloads"]) == \
        sorted(wl.WORKLOADS)


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "moduli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_the_package():
    from mjtheta import cyclo, jacobi, series
    before = (series.series_mul, cyclo.cadd, cyclo.Cyc.__dict__["make"],
              jacobi.CoeffTable.get, series.cadd)
    t = tracing.Tracer()
    t.install("mjtheta")
    assert series.series_mul is not before[0]
    assert series.cadd is not before[4]
    series.series_mul(series.QSeries({0: 1, 1: 1}, 5),
                      series.QSeries({0: 1, 2: 3}, 5))
    assert t.calls["series.series_mul"] == 1
    assert t.work["series.series_mul.term_pairs"] == 4
    t.uninstall()
    assert (series.series_mul, cyclo.cadd, cyclo.Cyc.__dict__["make"],
            jacobi.CoeffTable.get, series.cadd) == before


# -- negative controls -----------------------------------------------------

def test_wrong_fricke_constant_is_rejected():
    w, cases = _setup("moduli")
    out = w.run("6+2")
    assert w.check("6+2", out) is None
    f, c = out
    assert w.check("6+2", (f, c + 1)) is not None
    assert w.check("6+2", (f, -c)) is not None


def test_wrong_expansion_of_modulus_is_rejected():
    w, _cases = _setup("moduli")
    f, c = w.run("10")
    f.coeffs[3] = f.coeffs.get(3, 0) + 1  # q^(3/1), within the prefix
    assert "coefficient" in w.check("10", (f, c))


def test_flipped_eulerian_coefficient_is_rejected():
    w, _cases = _setup("mock-theta")
    for name in ("3:f", "5:chi0", "6:2mu"):
        f = w.run(f"eulerian:{name}")
        assert w.check(f"eulerian:{name}", f) is None
        k = max(k for k, v in f.coeffs.items() if v)
        f.coeffs[k] = -f.coeffs[k]
        assert w.check(f"eulerian:{name}", f) is not None


def test_third_order_f_matches_oeis():
    assert ref.mock_theta("3:f", 12) == ref.THIRD_ORDER_F


def test_unverified_identity_is_rejected():
    w, _cases = _setup("mock-theta")
    reps = w.run("watson")
    assert w.check("watson", reps) is None
    bad = [dict(r) for r in reps]
    bad[1]["status"] = "mismatch"
    assert w.check("watson", bad) is not None
    short = [dict(r, depth=r["depth"] - 1) for r in reps]
    assert w.check("watson", short) is not None
    assert w.check("watson", reps[:1]) is not None
    assert w.check("row:3:psi", {"row": "3:psi", "status": "mismatch"})


def test_perturbed_fit_is_rejected():
    w, cases = _setup("borcherds-fit")
    for case in cases:
        out = w.run(case)
        assert w.check(case, out) is None
        P = list(out["P"])
        P[0] = P[0] + 1
        assert "vanish" in w.check(case, dict(out, P=P))
        Q = list(out["Q"])
        Q[0] = Q[0] + Fraction(1, 2)
        assert "vanish" in w.check(case, dict(out, Q=Q))
        assert "monic" in w.check(case, dict(out, Q=Q[:-1] + [2]))


def test_bad_records_are_rejected():
    w, cases = _setup("verify-cli")
    code, stdout = w.run(cases[0])
    assert w.check(cases[0], (code, stdout)) is None
    recs = [json.loads(line) for line in stdout.splitlines()]

    def text(rs):
        return "".join(json.dumps(r) + "\n" for r in rs)

    i = next(i for i, r in enumerate(recs) if r["status"] == "pass")
    failed = [dict(r) for r in recs]
    failed[i]["status"] = "fail"
    assert "failed" in w.check(cases[0], (0, text(failed)))
    assert w.check(cases[0], (1, stdout)) == "exit code 1"
    assert "records cover" in w.check(cases[0], (0, text(recs[1:])))
    assert "records cover" in w.check(cases[0], (0, text(recs + recs[:1])))
    fr = [dict(r) for r in recs]
    j = next(i for i, r in enumerate(fr) if r["suite"] == "fricke")
    fr[j]["constant"] = str(Fraction(fr[j]["constant"]) * 2)
    assert "closed form" in w.check(cases[0], (0, text(fr)))
    sl = [dict(r) for r in recs]
    j = next(i for i, r in enumerate(sl) if r["suite"] == "shadow-lift")
    sl[j]["c"] = "2"
    assert "not -2" in w.check(cases[0], (0, text(sl)))
    sk = [dict(r) for r in recs]
    j = next(i for i, r in enumerate(sk) if r["status"] == "skipped")
    sk[j]["detail"] = "skipped"
    assert "without naming" in w.check(cases[0], (0, text(sk)))
