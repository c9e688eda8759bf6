"""Digest of the deterministic artifacts of a fixed set of sturmosc runs.

Usage, from the root of a source checkout:

    python3 tools/artifact_digest.py [--root CHECKOUT]

It makes the 81 runs of the byte-identity rule in ROADMAP.md, in one
process and a fixed order:

- the 66 benchmark ops of both workloads at seeds 1-3, as
  ``benchmarks/workloads.py`` builds them;
- ``BASE_CONFIG`` of ``tests/test_cli.py``, its radial variant (the one
  ``test_radial_solve`` writes) and ``POLE_PAIR_CONFIG`` with the command
  sections below, each through solve, check, sweep, spectral and geometry.

A run's digest is the SHA-256 of its exit code, standard output, standard
error and every artifact (file name and bytes), or of a library op's result
or exception.  It prints one line per run (digest prefix, exit code or
``raised``, label), then the total over all of them.
Two checkouts whose totals agree wrote the same bytes on every run; compare
per-run lines to find the run that moved.

``--root`` names the checkout whose ``src``, ``tests/test_cli.py`` and
``benchmarks/workloads.py`` are used (default: the one holding this file).
The workloads module is imported without writing bytecode, and nothing in
the checkout is written.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import sys
import tempfile
import traceback
from pathlib import Path

SEEDS = (1, 2, 3)
COMMANDS = ("solve", "check", "sweep", "spectral", "geometry")

# POLE_PAIR_CONFIG (v = 1, W = 1/(t - 2)^2 from t = 1) declares only the
# pair; these sections drive it through every command, across the pole
POLE_PAIR_SECTIONS = (
    "[solve]\nproblem = radial\npair = p\nhorizon = 5.0\n"
    "[check]\ncriteria = first_zero oscillation\npair = p\na = 1.2\nb = 1.8\n"
    "[sweep]\nvary = profile:one.c\nvalues = 1 2\ncriteria = first_zero\npair = p\n"
    "a = 1.2\nb = 1.8\ncount_zeros = true\ncount_horizon = 5\n"
    "[spectral]\npair = p\na = 1.2\nb = 1.8\nradii = 3\nhorizon = 5\n"
    "[model:flat]\nkind = space_form\nm = 2\nkappa = 0.0\n"
    "[geometry]\nmodel = flat\nr_start = 0.1\nr_stop = 3.0\nn = 6\n")


def _test_configs(path):
    """The string constants BASE_CONFIG and POLE_PAIR_CONFIG of a test module,
    read without importing it."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("BASE_CONFIG", "POLE_PAIR_CONFIG"):
                found[name] = ast.literal_eval(node.value)
    return found["BASE_CONFIG"], found["POLE_PAIR_CONFIG"]


def _cli_run(command, config, scratch):
    """(exit code or exception, stdout, stderr, {file name: bytes}) of one CLI call."""
    from sturmosc import cli
    cfg, out = scratch / "config.ini", scratch / "out"
    cfg.write_text(config)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        except Exception:
            code = traceback.format_exc(limit=0)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return code, stdout.getvalue(), stderr.getvalue(), files


def _library_run(call):
    try:
        return 0, "", "", {"result": call()}
    except Exception:
        return traceback.format_exc(limit=0), "", "", {}


def _digest(code, stdout, stderr, files):
    h = hashlib.sha256()
    for part in (str(code), stdout, stderr):
        h.update(part.encode() + b"\0")
    for name, blob in files.items():
        h.update(name.encode() + b"\0" + blob + b"\0")
    return h.hexdigest()


def runs(root, workloads):
    """Yield (label, run) for the 81 runs; each run takes a scratch directory."""
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for op in workloads.build(workload, seed):
                label = f"{workload}:{seed}:{op.label}"
                if op.command:
                    yield label, (lambda d, op=op: _cli_run(op.command, op.config, d))
                else:
                    yield label, (lambda d, op=op: _library_run(op.call))
    base, pole = _test_configs(root / "tests" / "test_cli.py")
    radial = base.replace("problem = jacobi", "problem = radial").replace(
        "curvature = unit\nhorizon = 4.0", "pair = euler\nhorizon = 10.0")
    for name, config in (("base", base), ("radial", radial),
                         ("pole_pair", pole + POLE_PAIR_SECTIONS)):
        for command in COMMANDS:
            yield f"{name}:{command}", (lambda d, c=command, t=config: _cli_run(c, t, d))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout to run (default: this one)")
    root = parser.parse_args(argv).root.resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
    import sturmosc
    import workloads
    if Path(sturmosc.__file__).resolve().parent != root / "src" / "sturmosc":
        parser.error(f"sturmosc was imported from {sturmosc.__file__}, not {root / 'src'}")
    total = hashlib.sha256()
    count = 0
    for label, run in runs(root, workloads):
        with tempfile.TemporaryDirectory() as scratch:
            result = run(Path(scratch))
        digest, code = _digest(*result), result[0]
        print(f"{digest[:16]}  {code if isinstance(code, int) else 'raised'}  {label}")
        total.update(digest.encode() + b"\n")
        count += 1
    print(f"{total.hexdigest()}  total of {count} runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
