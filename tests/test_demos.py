"""The narrative demos: each runs to completion in a fresh interpreter,
exits 0, writes nothing to stderr, and prints exactly its pinned output
in tests/data/demos/<demo>.txt (all five are deterministic)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = ROOT / "tests" / "data" / "demos"


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(demo):
    path = os.pathsep.join(
        p for p in [str(ROOT / "src"), os.environ.get("PYTHONPATH")] if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == (PINNED / f"{demo.stem}.txt").read_bytes()
