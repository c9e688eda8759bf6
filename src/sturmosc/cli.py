"""Command-line front end: configured solves, criterion checks, and sweeps.

Experiment configurations are flat INI files: one ``[profile:NAME]``,
``[pair:NAME]``, ``[curvature:NAME]`` or ``[model:NAME]`` section per
declared object, plus one section per command (``[solve]``, ``[check]``,
``[sweep]``, ``[spectral]``, ``[geometry]``).  All floating-point output
is printed with 12 significant digits and grids are iterated in fixed
order, so identical configurations produce byte-identical artifacts.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 hypothesis violation.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import json
import math
import sys
from pathlib import Path

from . import criteria, geometry, profiles, spectral
from .errors import (CatalogDerivativeMissing, ConfigError, HypothesisViolated,
                     InvalidParams, SturmoscError)
from .ode import solve_radial, solve_jacobi

__all__ = ["main", "console_main", "load_config", "run"]


def _fmt(x):
    """12-significant-digit rendering shared by every writer."""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.12g}"
    return str(x)


def _json_ready(obj):
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return _fmt(obj)
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _write_json(path, payload):
    path.write_text(json.dumps(_json_ready(payload), indent=2, sort_keys=True)
                    + "\n")


# ---------------------------------------------------------------------------
# Configuration loading and object resolution
# ---------------------------------------------------------------------------

def load_config(path):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        text = Path(path).read_text()
        parser.read_string(text)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration {path}: {exc}") from exc
    cfg = {section: dict(parser.items(section)) for section in parser.sections()}
    cfg["__text__"] = text
    return cfg


class _Section:
    """Typed access to one configuration section with field diagnostics."""

    def __init__(self, name, data):
        self.name = name
        self.data = data

    def _raw(self, key, default, required):
        if key in self.data:
            return self.data[key]
        if required:
            raise ConfigError(f"[{self.name}] is missing required field {key!r}")
        return default

    def str(self, key, default=None, required=False):
        return self._raw(key, default, required)

    def _parse(self, key, default, required, typ, convert, what):
        raw = self._raw(key, default, required)
        if raw is None or isinstance(raw, typ):
            return raw
        try:
            return convert(raw)
        except ValueError:
            raise ConfigError(
                f"[{self.name}] field {key!r}: {raw!r} is not {what}") from None

    def float(self, key, default=None, required=False):
        return self._parse(key, default, required, float, float, "a number")

    def int(self, key, default=None, required=False):
        return self._parse(key, default, required, int, int, "an integer")

    def bool(self, key, default=None):
        raw = self._raw(key, default, False)
        if raw is None or isinstance(raw, bool):
            return raw
        low = raw.strip().lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"[{self.name}] field {key!r}: {raw!r} is not a boolean")

    def floats(self, key, default=None, required=False):
        def split(raw):
            return [float(tok) for tok in raw.replace(",", " ").split()]
        return self._parse(key, default, required, list, split, "a number list")

    def strs(self, key, default=None, required=False):
        raw = self._raw(key, default, required)
        if raw is None or isinstance(raw, list):
            return raw
        return raw.replace(",", " ").split()


# profile kinds built from numeric fields: kind -> (constructor, fields in order)
_LEAF_KINDS = {
    "constant": (profiles.constant, ("c",)),
    "power": (profiles.power, ("c", "p")),
    "exponential": (profiles.exponential, ("c", "rate")),
}
# profile kinds folded over >= 2 named profiles: kind -> (binary op, list field)
_FOLD_KINDS = {
    "product": (profiles.multiply, "factors"),
    "sum": (profiles.add, "terms"),
}


class _Resolver:
    """Builds profiles, pairs, curvatures, and models from a config dict."""

    def __init__(self, cfg):
        self.cfg = cfg
        self._profiles = {}
        self._models = {}
        self._building = set()

    def _section(self, name):
        if name not in self.cfg:
            raise ConfigError(f"configuration has no section [{name}]")
        return _Section(name, self.cfg[name])

    def model(self, name):
        if name in self._models:
            return self._models[name]
        sec = self._section(f"model:{name}")
        kind = sec.str("kind", default="space_form")
        m = sec.int("m", required=True)
        if kind == "space_form":
            model = geometry.space_form(m, sec.float("kappa", required=True))
        elif kind == "warped":
            warping = sec.str("warping", required=True)
            params = {}
            if warping in ("sin", "sinh"):
                params["kappa"] = sec.float("kappa", required=True)
            elif warping == "cubic":
                params["alpha"] = sec.float("alpha", required=True)
            model = geometry.warped_model(m, warping, **params)
        else:
            raise ConfigError(f"[model:{name}] unknown kind {kind!r}")
        self._models[name] = model
        return model

    def profile(self, ref):
        if ref.startswith("model:"):
            target, _, component = ref.partition(".")
            model = self.model(target.split(":", 1)[1])
            k, v = geometry.model_profiles(model)
            if component == "k":
                return k.k
            if component == "v":
                return v
            raise ConfigError(f"model reference {ref!r} must end in .k or .v")
        if ref in self._profiles:
            return self._profiles[ref]
        if ref in self._building:
            raise ConfigError(f"profile {ref!r} references itself")
        self._building.add(ref)
        try:
            sec = self._section(f"profile:{ref}")
            kind = sec.str("kind", required=True)
            if kind in _LEAF_KINDS:
                make, fields = _LEAF_KINDS[kind]
                prof = make(*(sec.float(f, required=True) for f in fields), label=ref)
            elif kind in _FOLD_KINDS:
                combine, key = _FOLD_KINDS[kind]
                names = sec.strs(key, required=True)
                if len(names) < 2:
                    raise ConfigError(f"[profile:{ref}] needs >= 2 {key}")
                prof = functools.reduce(combine, map(self.profile, names))
            elif kind == "reciprocal":
                prof = profiles.reciprocal(self.profile(sec.str("of", required=True)))
            elif kind == "scaled":
                prof = profiles.scaled(self.profile(sec.str("of", required=True)),
                                       sec.float("factor", required=True))
            elif kind == "sqrt":
                prof = profiles.elementwise_power(
                    self.profile(sec.str("of", required=True)), 0.5)
            else:
                raise ConfigError(f"[profile:{ref}] unknown kind {kind!r}")
        finally:
            self._building.discard(ref)
        self._profiles[ref] = prof
        return prof

    def pair(self, name):
        sec = self._section(f"pair:{name}")
        kwargs = {}
        if "v_inv_l1_at_infinity" in sec.data:
            kwargs["v_inv_l1_at_infinity"] = sec.bool("v_inv_l1_at_infinity")
        return profiles.CoefficientPair(
            v=self.profile(sec.str("v", required=True)),
            w=self.profile(sec.str("w", required=True)),
            b_const=sec.float("b_const", default=0.0),
            t_start=sec.float("t_start", default=0.0),
            validate=sec.bool("validate", default=True),
            label=name, **kwargs)

    def curvature(self, name):
        sec = self._section(f"curvature:{name}")
        ref = sec.str("k", required=True)
        if ref.startswith("model:"):
            model = self.model(ref.split(":", 1)[1].split(".")[0])
            k, _ = geometry.model_profiles(model)
            return k
        return profiles.CurvatureProfile(
            k=self.profile(ref),
            b_const=sec.float("b_const", default=0.0),
            m=sec.int("m", default=2))


# ---------------------------------------------------------------------------
# Criterion dispatch
# ---------------------------------------------------------------------------

def _run_criterion(name, resolver, sec, tol, horizon):
    if name == "myers_galloway":
        return criteria.check_myers_galloway(
            sec.float("c", required=True), sec.float("f_const", default=0.0),
            sec.int("m", default=2))
    if name == "diameter_remark":
        return criteria.check_diameter_remark(
            resolver.curvature(sec.str("curvature", required=True)),
            sec.float("d_bound", required=True), tol=tol)
    if name in ("ambrose_moore", "nehari", "calabi", "main_b2", "main_b2_search"):
        k = resolver.curvature(sec.str("curvature", required=True))
        if name == "ambrose_moore":
            return criteria.check_ambrose_moore(
                k, sec.float("lambda", default=0.0), horizon=horizon, tol=tol)
        if name == "nehari":
            return criteria.check_nehari(
                k, sec.float("lambda", default=0.0),
                sec.float("t0", required=True), horizon=horizon, tol=tol)
        if name == "calabi":
            return criteria.check_calabi(k, horizon=horizon, tol=tol)
        if name == "main_b2":
            return criteria.check_main_B2(
                k, sec.float("a", required=True), sec.float("b", required=True),
                sec.float("lambda", default=0.0), tol=tol)
        return criteria.search_main_B2(k, tol=tol)
    pair = resolver.pair(sec.str("pair", required=True))
    if name == "first_zero":
        return criteria.check_first_zero(
            pair, sec.float("a", required=True), sec.float("b", required=True),
            tol=tol)
    if name == "oscillation":
        return criteria.check_oscillation(
            pair, sec.float("r_start", default=1.0), horizon=horizon, tol=tol)
    if name == "moore_liminf":
        return criteria.check_moore_liminf(
            pair, sec.float("r_start", default=1.0),
            sec.float("c_thresh", required=True), horizon=horizon, tol=tol)
    if name == "leighton":
        return criteria.check_leighton(pair, tol=tol)
    if name == "bmr":
        return criteria.check_bmr(pair, sec.float("t_lower", default=1.0),
                                  horizon=horizon, tol=tol)
    if name == "lambda1_negative":
        return spectral.lambda1_negative(
            pair, sec.float("a", required=True), sec.float("b", required=True),
            tol=tol)
    if name == "instability":
        return spectral.instability_at_infinity(
            pair, sec.float("r_start", default=1.0), horizon=horizon, tol=tol)
    if name == "yamabe":
        return spectral.check_yamabe(
            resolver.profile(sec.str("s_mean", required=True)),
            sec.int("m", required=True),
            resolver.profile(sec.str("v", required=True)),
            sec.float("b_const", default=0.0),
            sec.float("a", required=True), sec.float("b", required=True),
            tol=tol)
    raise ConfigError(f"unknown criterion {name!r}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _config_header(cfg):
    return ["# cfg: " + line for line in cfg["__text__"].splitlines()]


def _write_trajectory(path, traj, cfg):
    lines = _config_header(cfg)
    lines.append("# columns: t\tz\tdz")
    for t, z, dz in traj.nodes:
        lines.append(f"{_fmt(float(t))}\t{_fmt(float(z))}\t{_fmt(float(dz))}")
    for cert in traj.zeros:
        lines.append(f"# zero {_fmt(cert.t_lo)} {_fmt(cert.t_hi)}")
    if traj.terminated_reason == "step_underflow":
        lines.append(f"# terminated step_underflow at {_fmt(traj.t_end)}")
    path.write_text("\n".join(lines) + "\n")


def cmd_solve(cfg, out_dir, tol, horizon):
    if "solve" not in cfg:
        raise ConfigError("configuration has no [solve] section")
    resolver = _Resolver(cfg)
    sec = _Section("solve", cfg["solve"])
    problem = sec.str("problem", required=True)
    h = horizon if horizon is not None else sec.float("horizon", required=True)
    t = tol if tol is not None else sec.float("tol", default=profiles.DEFAULT_TOL)
    zero_tol = sec.float("zero_tol", default=1e-8)
    if problem == "radial":
        pair = resolver.pair(sec.str("pair", required=True))
        traj = solve_radial(pair, sec.float("z0", default=1.0), horizon=h,
                            tol=t, zero_tol=zero_tol)
    elif problem == "jacobi":
        k = resolver.curvature(sec.str("curvature", required=True))
        traj = solve_jacobi(k, horizon=h, tol=t, zero_tol=zero_tol)
    else:
        raise ConfigError(f"[solve] unknown problem {problem!r}")
    _write_trajectory(out_dir / "trajectory.tsv", traj, cfg)
    if traj.terminated_reason == "step_underflow":
        raise SturmoscError(
            f"solver broke down (step_underflow) at t = {_fmt(traj.t_end)}")
    return 0


def cmd_check(cfg, out_dir, tol, horizon):
    resolver = _Resolver(cfg)
    if "check" not in cfg:
        raise ConfigError("configuration has no [check] section")
    sec = _Section("check", cfg["check"])
    names = sec.strs("criteria", required=True)
    t = tol if tol is not None else sec.float("tol", default=profiles.DEFAULT_TOL)
    h = horizon if horizon is not None else sec.float("horizon", default=1e4)
    verdicts = [_run_criterion(name, resolver, sec, t, h).to_dict()
                for name in names]
    _write_json(out_dir / "verdicts.json",
                {"config": cfg["__text__"], "verdicts": verdicts})
    return 0


def _sweep_row(cfg, vary_section, vary_key, value, names, tol, horizon,
               count_zeros, count_horizon):
    local = {k: (dict(v) if isinstance(v, dict) else v) for k, v in cfg.items()}
    local[vary_section][vary_key] = _fmt(float(value))
    resolver = _Resolver(local)
    sec = _Section("sweep", local["sweep"])
    row = {"value": _fmt(float(value))}
    for name in names:
        try:
            verdict = _run_criterion(name, resolver, sec, tol, horizon)
            row[name] = verdict.status.value
        except HypothesisViolated:
            raise
        except SturmoscError:
            row[name] = "error"
    if count_zeros:
        pair = resolver.pair(sec.str("pair", required=True))
        traj = solve_radial(pair, 1.0, horizon=count_horizon, tol=tol)
        # a count cut short by a breakdown is no count up to count_horizon
        row["zeros"] = ("error" if traj.terminated_reason == "step_underflow"
                        else str(len(traj.zeros)))
    return row


def cmd_sweep(cfg, out_dir, tol, horizon):
    if "sweep" not in cfg:
        raise ConfigError("configuration has no [sweep] section")
    sec = _Section("sweep", cfg["sweep"])
    vary = sec.str("vary", required=True)
    vary_section, _, vary_key = vary.rpartition(".")
    if not vary_section or vary_section not in cfg:
        raise ConfigError(f"[sweep] vary target {vary!r} not found")
    values = sec.floats("values", required=True)
    if not values:
        raise ConfigError("[sweep] needs a non-empty value grid")
    names = sec.strs("criteria", required=True)
    t = tol if tol is not None else sec.float("tol", default=profiles.DEFAULT_TOL)
    h = horizon if horizon is not None else sec.float("horizon", default=1e4)
    count_zeros = sec.bool("count_zeros", default=False)
    count_horizon = sec.float("count_horizon", default=h)
    rows = [_sweep_row(cfg, vary_section, vary_key, value, names, t, h,
                       count_zeros, count_horizon) for value in values]

    fields = ["value"] + names + (["zeros"] if count_zeros else [])
    out_path = out_dir / "sweep.csv"
    with out_path.open("w", newline="") as fh:
        for line in _config_header(cfg):
            fh.write(line + "\n")
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return 0


def cmd_spectral(cfg, out_dir, tol, horizon):
    if "spectral" not in cfg:
        raise ConfigError("configuration has no [spectral] section")
    sec = _Section("spectral", cfg["spectral"])
    resolver = _Resolver(cfg)
    pair = resolver.pair(sec.str("pair", required=True))
    t = tol if tol is not None else sec.float("tol", default=profiles.DEFAULT_TOL)
    h = horizon if horizon is not None else sec.float("horizon", default=1e4)
    report = spectral.spectral_report(
        pair, sec.float("a", required=True), sec.float("b", required=True),
        radii=tuple(sec.floats("radii", default=[1.0, 10.0, 100.0])),
        horizon=h, tol=t)
    _write_json(out_dir / "spectral.json",
                {"config": cfg["__text__"], "report": report.to_dict()})
    lines = _config_header(cfg) + ["# columns: t2\tquotient"]
    for t2, q in report.rayleigh_values:
        lines.append(f"{_fmt(float(t2))}\t{_fmt(float(q))}")
    (out_dir / "rayleigh.tsv").write_text("\n".join(lines) + "\n")
    if report.breakdown_at is not None:
        raise SturmoscError(
            f"solver broke down (step_underflow) at t = {_fmt(report.breakdown_at)}")
    return 0


def cmd_geometry(cfg, out_dir, tol, horizon):
    if "geometry" not in cfg:
        raise ConfigError("configuration has no [geometry] section")
    sec = _Section("geometry", cfg["geometry"])
    resolver = _Resolver(cfg)
    model = resolver.model(sec.str("model", required=True))
    k, v = geometry.model_profiles(model)
    r0 = sec.float("r_start", default=0.1)
    r1 = sec.float("r_stop", required=True)
    n = sec.int("n", default=50)
    if n < 2 or r0 <= 0 or r1 <= r0:
        raise ConfigError("[geometry] needs 0 < r_start < r_stop and n >= 2")
    lines = _config_header(cfg)
    lines.append(f"# model m={model.m} warping={model.warping.name} "
                 f"b_const={_fmt(k.b_const)}")
    lines.append("# columns: r\tK\tv")
    for i in range(n):
        r = r0 + (r1 - r0) * i / (n - 1)
        lines.append(f"{_fmt(r)}\t{_fmt(k.k(r))}\t{_fmt(v(r))}")
    (out_dir / "profiles.tsv").write_text("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "solve": cmd_solve,
    "check": cmd_check,
    "sweep": cmd_sweep,
    "spectral": cmd_spectral,
    "geometry": cmd_geometry,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sturmosc",
        description="Zero localization, oscillation and compactness criteria "
                    "for radial second-order problems.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment INI file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tol", type=float, default=None,
                       help="override the quadrature/solver tolerance")
        p.add_argument("--horizon", type=float, default=None,
                       help="override the integration/search horizon")
    return parser


def run(command, config_path, out_dir, tol=None, horizon=None):
    cfg = load_config(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[command](cfg, out, tol, horizon)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return run(args.command, args.config, args.out, tol=args.tol,
                   horizon=args.horizon)
    except (ConfigError, InvalidParams, CatalogDerivativeMissing) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 3
    except SturmoscError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
