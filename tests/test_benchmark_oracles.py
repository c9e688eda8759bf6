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
from conftest import recorded_solves

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


def test_solver_work_of_one_oscillatory_pass_is_pinned(tmp_path, monkeypatch):
    # the work counts of the benchmark's traced pass at seed 1: a change to
    # the solver that moves the steps, the RHS evaluations or the zeros shows here
    with recorded_solves() as passes, recorded_solves("_drive") as trajectories:
        run_pass("oscillatory_solve", 1, tmp_path, monkeypatch)
    assert len(passes) == len(trajectories) == 2
    assert sum(len(sol.t) - 1 for sol in passes) == 212
    assert sum(sol.nfev for sol in passes) == 3244
    assert sum(len(traj.zeros) for traj in trajectories) == 19
