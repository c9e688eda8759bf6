"""Closed-loop benchmark of sturmosc, driven from outside through its public entry points.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload oscillatory_solve --seed 1 --seconds 50 --trace 0

One client, one thread: each op starts when the previous one returned.  A
run builds the workload's fixed batch of ops from ``--seed``, warms up on a
small copy of the batch, then repeats the batch until ``--seconds`` have
passed (at least twice).  Between passes, spread over the run, it times
fresh interpreters that import sturmosc and build the inputs (setup_s).
The first execution of every op is checked by its closed-form oracle;
each repeat must reproduce the first execution's artifacts byte for byte.
An op fails when it raises, exits non-zero, fails its oracle or breaks
byte identity.

``--trace 0`` reports the end-to-end metrics (setup_s, wall_s, op_p50_s,
peak_rss_mb).  ``--trace 1`` alternates untraced and traced batches and
reports the per-layer metrics of the traced ones (see tracing.py).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
# A fresh interpreter pays this before any op: import, then build the inputs.
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import sturmosc, sturmosc.cli, "
              "workloads; workloads.build(sys.argv[3], int(sys.argv[4]))")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_sample(src, workload, seed):
    """Wall time of one fresh interpreter importing sturmosc and building the inputs."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(src), str(BENCH_DIR), workload, str(seed)]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=120)
    return time.perf_counter() - start


class Runner:
    """Executes ops in per-op slots under a scratch directory and keeps the guards."""

    def __init__(self, ops, scratch, corrupt=None):
        self.ops = ops
        self.slots = []
        self.first = [None] * len(ops)   # (artifact hash, oracle ok) of the first run
        self.attempted = self.failed = 0
        self.corrupt = corrupt           # self-test hook: damage artifacts before checks
        for i, op in enumerate(ops):
            slot = Path(scratch) / f"op{i:02d}"
            slot.mkdir(parents=True)
            if op.command:
                (slot / "config.ini").write_text(op.config)
            self.slots.append(slot)

    def _execute(self, op, slot):
        """Run one op; returns (seconds, artifacts or None, error text or None)."""
        out = slot / "out"
        shutil.rmtree(out, ignore_errors=True)
        cli = sys.modules["sturmosc.cli"]
        data = None
        start = time.perf_counter()
        try:
            if op.command:
                rc = cli.main([op.command, "--config", str(slot / "config.ini"),
                               "--out", str(out)])
            else:
                data = op.call()
        except Exception:
            return time.perf_counter() - start, None, traceback.format_exc()
        elapsed = time.perf_counter() - start
        if op.command and rc != 0:
            return elapsed, None, f"exit code {rc}"
        if op.command:
            files = sorted(out.iterdir()) if out.is_dir() else []
            data = {p.name: p.read_bytes() for p in files}
        else:
            data = {"result": data}
        return elapsed, data, None

    def run_pass(self, count=True):
        """One pass over the batch; returns the per-op seconds."""
        times = []
        for i, (op, slot) in enumerate(zip(self.ops, self.slots)):
            elapsed, artifacts, error = self._execute(op, slot)
            times.append(elapsed)
            if not count:
                continue
            self.attempted += 1
            if error is None and self.corrupt is not None:
                self.corrupt(op, artifacts)
            if error is None:
                error = self._guard(i, op, artifacts)
            if error is not None:
                self.failed += 1
                print(f"FAILED {op.label}: {error.strip()}", file=sys.stderr)
        return times

    def _guard(self, i, op, artifacts):
        digest = hashlib.sha256()
        for name, blob in sorted(artifacts.items()):
            digest.update(name.encode() + b"\0" + blob + b"\0")
        digest = digest.hexdigest()
        if self.first[i] is None:
            try:
                problems = op.check(artifacts)
            except Exception:
                problems = ["oracle could not read the artifacts:\n" + traceback.format_exc()]
            self.first[i] = (digest, not problems)
            return "; ".join(problems) if problems else None
        first_digest, first_ok = self.first[i]
        if digest != first_digest:
            return "artifacts differ from the first execution of this op"
        return None if first_ok else "repeat of an op that failed its oracle"


def measure(workload, seed, seconds, trace, scratch, size="full", corrupt=None, setup=None):
    """Warm up, then repeat the batch for ``seconds``; returns (runner, report).

    ``setup``, when given, is called SETUP_SAMPLES times between passes,
    evenly over the run, so that one slow phase of the host does not set
    setup_s; its time is not counted in the ``seconds``.
    """
    warm = Runner(workloads.build(workload, seed, size="smoke"), Path(scratch) / "warm")
    warm.run_pass(count=False)
    runner = Runner(workloads.build(workload, seed, size=size), Path(scratch) / "ops",
                    corrupt=corrupt)
    tracer = tracing.Tracer() if trace else None
    plain, traced, layers, setups = [], [], [], []
    start = time.perf_counter()
    while True:
        tracing_now = trace and len(plain) > len(traced)
        if tracing_now:
            tracer.reset()
            tracer.install()
        try:
            times = runner.run_pass()
        finally:
            if tracing_now:
                tracer.uninstall()
        if tracing_now:
            traced.append(sum(times))
            layers.append(tracer.pass_metrics())
        else:
            plain.append(times)
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        if setup is not None and len(setups) < SETUP_SAMPLES \
                and elapsed >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append(setup())
            start += setups[-1]
        if done >= 2 and elapsed >= seconds:
            break
    while setup is not None and len(setups) < SETUP_SAMPLES:
        setups.append(setup())
    report = {"passes": done, "ops_per_pass": len(runner.ops)}
    if setup is not None:
        report["setup_s"] = statistics.median(setups)
    if trace:
        report["layers"], report["unsteady"] = tracing.summarize(
            layers, traced, [sum(t) for t in plain], tracer.missing)
        report["missing"] = tracer.missing
    else:
        # each op's best time over the passes: slow phases of a shared host
        # only ever add time, so the minimum is the steadiest estimate
        best = [min(times) for times in zip(*plain)]
        report["wall_s"] = sum(best)
        report["op_p50_s"] = statistics.median(best)
    return runner, report


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_benchmark(root, workload, seed, seconds, trace, size="full", corrupt=None):
    """One benchmark run from a checkout root; returns (summary lines, result object)."""
    src = root / "src"
    if Path(sys.modules["sturmosc"].__file__).resolve().parent != (src / "sturmosc").resolve():
        raise RuntimeError(f"sturmosc was imported from {sys.modules['sturmosc'].__file__}, "
                           f"not from {src}")
    setup = None if trace else (lambda: setup_sample(src, workload, seed))
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=root) as scratch:
        runner, report = measure(workload, seed, seconds, trace, scratch, size, corrupt, setup)

    lines = [f"workload {workload}  seed {seed}  passes {report['passes']}  "
             f"ops/pass {report['ops_per_pass']}  attempted {runner.attempted}"]
    if trace:
        counts = set(tracing.COUNT_METRICS)
        metrics = {name: _metric(value, "count" if name in counts else "s")
                   for name, value in report["layers"].items()}
        lines += [f"missing {name} (its hook target is gone)" for name in report["missing"]]
        lines += [f"warning: {name} differs between traced passes"
                  for name in report["unsteady"]]
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": _metric(report["setup_s"], "s"),
                   "wall_s": _metric(report["wall_s"], "s"),
                   "op_p50_s": _metric(report["op_p50_s"], "s"),
                   "peak_rss_mb": _metric(peak, "MB")}
        lines.append(f"fail_ratio {runner.failed / runner.attempted:.6g} ratio "
                     f"({runner.failed}/{runner.attempted} ops)")
    lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    return lines, result


def main(argv=None):
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "sturmosc" / "__init__.py").is_file():
        print(f"error: no sturmosc sources under {root / 'src'}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import sturmosc.cli  # noqa: F401  (the entry point the ops call)
    lines, result = run_benchmark(root, args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
