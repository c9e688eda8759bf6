"""Every benchmark op passes its closed-form oracle on one pass.

The benchmark (``benchmarks/run.py``) counts an op that fails its oracle
as failed; this runs one pass of each workload batch at seeds 1-3, so
that such a failure shows in the test suite first.  The solver batch also
runs at seeds 4-13, which spread its c over [0.5, 2] against the
closed-form zeros k*pi/sqrt(c), and so do the comparison-family ops of
``criteria_grid`` (label ``riccati``), which spread their anchors and poles.
"""

import sys
from pathlib import Path

import pytest

import sturmosc.cli  # noqa: F401  (the entry point the runner calls)

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


SEEDS = {"oscillatory_solve": range(1, 14), "criteria_grid": range(1, 4)}


def run_pass(workload, seed, tmp_path, monkeypatch, label=""):
    """One pass of the batch's ops whose label starts with ``label``."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ as it is
    from run import Runner
    from workloads import build

    runner = Runner([op for op in build(workload, seed) if op.label.startswith(label)],
                    tmp_path)
    runner.run_pass()
    assert runner.ops and runner.attempted == len(runner.ops)
    assert runner.failed == 0


@pytest.mark.parametrize("workload, seed",
                         [(workload, seed) for workload, seeds in SEEDS.items()
                          for seed in seeds])
def test_one_pass_without_failures(workload, seed, tmp_path, monkeypatch):
    run_pass(workload, seed, tmp_path, monkeypatch)


@pytest.mark.parametrize("seed", range(4, 14))
def test_riccati_ops_at_more_seeds(seed, tmp_path, monkeypatch):
    run_pass("criteria_grid", seed, tmp_path, monkeypatch, label="riccati")
