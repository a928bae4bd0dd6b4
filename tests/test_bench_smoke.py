"""The benchmark runs end to end: one short round set per workload, every
operation correct.  `check` is the one workload that drives the parser
and the node constructors through `cli.main`."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["check", "countermodel", "saturate"])
def test_benchmark_runs_correct(workload):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), last
