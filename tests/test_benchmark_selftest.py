"""The benchmark's self-test passes on this checkout: a library change that
breaks what the benchmark reads (design.a.re, design.t, baselines._waterfill,
...) fails here, not first in a benchmark run."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "selftest: ok"


@pytest.mark.parametrize("workload", ["k2-sweep", "k4-search", "k2-link"])
def test_perfbench_setup_probe_runs(workload):
    """The set-up probe each benchmark run starts with (it calls, among others,
    difprec.clll_reduce) exits 0 and prints its seconds."""
    done = subprocess.run(
        [sys.executable, "perfbench/setup_probe.py", workload, "1", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    float(done.stdout.splitlines()[-1])
