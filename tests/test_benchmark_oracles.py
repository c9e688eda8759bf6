"""Every benchmark op passes its closed-form oracle on one pass.

The benchmark (``benchmarks/run.py``) counts an op that fails its oracle
as failed; this runs one pass of each workload batch at seeds 1-3, so
that such a failure shows in the test suite first.
"""

import sys
from pathlib import Path

import pytest

import sturmosc.cli  # noqa: F401  (the entry point the runner calls)

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["oscillatory_solve", "criteria_grid"])
def test_one_pass_without_failures(workload, seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ as it is
    from run import Runner
    from workloads import build

    runner = Runner(build(workload, seed), tmp_path)
    runner.run_pass()
    assert runner.attempted == len(runner.ops)
    assert runner.failed == 0
