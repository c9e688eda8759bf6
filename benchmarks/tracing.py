"""Outside-in layer trace for the sturmosc benchmark.

The tracer wraps public names of the library from the outside: every
module that bound a target at import time gets the wrapper, so a call is
seen whichever module makes it.  Each wrapped call records one span
(name, start, end, parent); self time is a span's duration minus the
durations of its direct children.  Work counts come from return values
(``solve_ivp`` results, trajectories) and from one counting wrapper around
the integrand handed to ``integrate_err``.  Right-hand sides and profile
evaluators are never wrapped: they run thousands of times per solve, and the
solver's own ``nfev`` already counts them.

A target that no longer exists is reported as missing, never as 0.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import statistics
import sys
import time

# Span groups: the name used in the metrics, and the targets it covers as
# (module, attribute).  The layer modules listed in GROUP_MODULES add every
# public function they define.
TARGETS = {
    "cli.main": [("sturmosc.cli", "main")],
    "ode.solve": [("sturmosc.ode", "solve_jacobi"), ("sturmosc.ode", "solve_radial")],
    "ode.solve_ivp": [("sturmosc.ode", "solve_ivp")],
    "profiles.integrate_err": [("sturmosc.profiles", "integrate_err")],
    "profiles.tail_integral": [("sturmosc.profiles", "tail_integral")],
    "geometry.model_profiles": [("sturmosc.geometry", "model_profiles")],
}
GROUP_MODULES = ("riccati", "criteria", "spectral")

# Metric name -> span groups it needs.  Listed in output order.
METRIC_NEEDS = {
    "ode.solve_ivp.calls": ["ode.solve_ivp"],
    "ode.solve_ivp.s": ["ode.solve_ivp"],
    "ode.nfev": ["ode.solve_ivp"],
    "ode.steps": ["ode.solve_ivp"],
    "ode.solve.calls": ["ode.solve"],
    "ode.solve.s": ["ode.solve"],
    "ode.self_s": ["ode.solve"],
    "ode.nodes": ["ode.solve"],
    "ode.zeros": ["ode.solve"],
    "profiles.integrate_err.calls": ["profiles.integrate_err"],
    "profiles.gk_panels": ["profiles.integrate_err"],
    "profiles.integrate_err.s": ["profiles.integrate_err"],
    "profiles.tail_integral.calls": ["profiles.tail_integral"],
    "profiles.tail_integral.s": ["profiles.tail_integral"],
    "profiles.s": ["profiles.integrate_err", "profiles.tail_integral"],
    "riccati.calls": ["riccati"],
    "riccati.s": ["riccati"],
    "riccati.self_s": ["riccati"],
    "criteria.calls": ["criteria"],
    "criteria.s": ["criteria"],
    "criteria.self_s": ["criteria"],
    "spectral.calls": ["spectral"],
    "spectral.s": ["spectral"],
    "spectral.self_s": ["spectral"],
    "cli.main.s": ["cli.main"],
    "cli.self_s": ["cli.main"],
    "geometry.model_profiles.calls": ["geometry.model_profiles"],
    "geometry.model_profiles.s": ["geometry.model_profiles"],
    "trace.wall_s": [],
    "trace.overhead_s": [],
}
COUNT_METRICS = ("ode.solve_ivp.calls", "ode.nfev", "ode.steps", "ode.solve.calls",
                 "ode.nodes", "ode.zeros", "profiles.integrate_err.calls",
                 "profiles.gk_panels", "profiles.tail_integral.calls",
                 "riccati.calls", "criteria.calls", "spectral.calls",
                 "geometry.model_profiles.calls")


def _targets():
    """Span group -> list of live function objects (empty when gone)."""
    found = {}
    for group, pairs in TARGETS.items():
        fns = []
        for mod_name, attr in pairs:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if callable(fn):
                fns.append(fn)
        found[group] = fns
    for short in GROUP_MODULES:
        mod = sys.modules.get(f"sturmosc.{short}")
        names = getattr(mod, "__all__", ())
        found[short] = [getattr(mod, n) for n in names
                        if inspect.isfunction(getattr(mod, n, None))
                        and getattr(mod, n).__module__ == mod.__name__]
    return found


class Tracer:
    """Spans and counters for one traced pass; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []     # [group, start, end, parent index]
        self.counts = dict.fromkeys(("ode.nfev", "ode.steps", "ode.nodes",
                                     "ode.zeros", "profiles.gk_panels"), 0)
        self._stack = []
        self._patched = []  # (module, attribute, original)
        self.missing = []   # metric names whose target is gone

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        for key in self.counts:
            self.counts[key] = 0

    def _wrap(self, group, fn, after=None, prepare=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            record = [group, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return wrapper

    def _after_solve_ivp(self, sol):
        self.counts["ode.nfev"] += int(sol.nfev)
        self.counts["ode.steps"] += len(sol.t) - 1

    def _after_solve(self, traj):
        self.counts["ode.nodes"] += len(traj.ts)
        self.counts["ode.zeros"] += len(traj.zeros)

    def _count_panels(self, args):
        """Replace the integrand (first argument) by a counting twin."""
        if not args:
            return args
        p, rest = args[0], args[1:]
        inner = getattr(p, "evaluator", p)
        counts = self.counts

        def counted(x):
            counts["profiles.gk_panels"] += 1
            return inner(x)

        if dataclasses.is_dataclass(p) and hasattr(p, "evaluator"):
            return (dataclasses.replace(p, evaluator=counted),) + rest
        return (counted,) + rest

    def install(self):
        """Patch every binding of every target in the loaded sturmosc modules."""
        hooks = {"ode.solve_ivp": {"after": self._after_solve_ivp},
                 "ode.solve": {"after": self._after_solve},
                 "profiles.integrate_err": {"prepare": self._count_panels}}
        targets = _targets()
        self.missing = [m for m, needs in METRIC_NEEDS.items()
                        if any(not targets[g] for g in needs)]
        wrappers = {}
        for group, fns in targets.items():
            for fn in fns:
                wrappers[id(fn)] = (fn, self._wrap(group, fn, **hooks.get(group, {})))
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "sturmosc" or name.startswith("sturmosc."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def pass_metrics(self):
        """Per-layer numbers for the spans recorded since the last reset."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for group, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start

        def inside(i, groups):
            parent = spans[i][3]
            while parent >= 0:
                if spans[parent][0] in groups:
                    return True
                parent = spans[parent][3]
            return False

        def totals(groups):
            calls = outer = own = 0.0
            for i, (group, start, end, _) in enumerate(spans):
                if group not in groups:
                    continue
                calls += 1
                own += (end - start) - child_time[i]
                if not inside(i, groups):
                    outer += end - start
            return int(calls), outer, own

        out = dict(self.counts)
        for group in list(TARGETS) + list(GROUP_MODULES):
            calls, outer, own = totals((group,))
            out[f"{group}.calls"] = calls
            out[f"{group}.s"] = outer
            out[f"{group}.self_s"] = own
        out["profiles.s"] = totals(("profiles.integrate_err", "profiles.tail_integral"))[1]
        out["ode.self_s"] = out["ode.solve.self_s"]
        out["cli.self_s"] = out["cli.main.self_s"]
        return out


def summarize(passes, traced_walls, untraced_walls, missing):
    """Median per-layer metrics over traced passes; counts must not vary."""
    metrics = {}
    for name in METRIC_NEEDS:
        if name in missing or name.startswith("trace."):
            continue
        values = [p[name] for p in passes]
        metrics[name] = values[0] if name in COUNT_METRICS else statistics.median(values)
    traced = statistics.median(traced_walls)
    metrics["trace.wall_s"] = traced
    metrics["trace.overhead_s"] = traced - statistics.median(untraced_walls)
    unsteady = [n for n in COUNT_METRICS
                if n in metrics and len({p[n] for p in passes}) > 1]
    return metrics, unsteady
