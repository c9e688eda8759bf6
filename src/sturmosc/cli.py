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
import inspect
import json
import math
import sys
from pathlib import Path

from . import criteria, geometry, profiles, spectral
from .errors import ConfigError, HypothesisViolated, InvalidParams, SturmoscError
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
    cfg["__text__"], cfg["__defaults__"] = text, parser.defaults()
    return cfg


_BOOLEANS = {**dict.fromkeys(("true", "yes", "1", "on"), True),
             **dict.fromkeys(("false", "no", "0", "off"), False)}


def _finite(raw):
    x = float(raw)
    if not math.isfinite(x):
        raise ValueError(raw)
    return x


class _Section:
    """Typed access to one configuration section with field diagnostics."""

    def __init__(self, name, data, unread):
        self.name = name
        self.data = data
        # unread: each section the run opened -> its keys that no read asked for
        self.unread = unread.setdefault(name, set(data))

    def str(self, key, default=None, required=False):
        self.unread.discard(key)
        if key in self.data:
            return self.data[key]
        if required:
            raise ConfigError(f"[{self.name}] is missing required field {key!r}")
        return default

    def _parse(self, key, default, required, typ, convert, what):
        raw = self.str(key, default, required)
        if raw is None or isinstance(raw, typ):
            return raw
        try:
            return convert(raw)
        except (ValueError, KeyError):
            raise ConfigError(
                f"[{self.name}] field {key!r}: {raw!r} is not {what}") from None

    def float(self, key, default=None, required=False):
        return self._parse(key, default, required, float, _finite,
                           "a finite number")

    def int(self, key, default=None, required=False):
        return self._parse(key, default, required, int, int, "an integer")

    def bool(self, key, default=None):
        return self._parse(key, default, False, bool,
                           lambda raw: _BOOLEANS[raw.strip().lower()], "a boolean")

    def floats(self, key, default=None, required=False):
        def split(raw):
            return [_finite(tok) for tok in raw.replace(",", " ").split()]
        return self._parse(key, default, required, list, split,
                           "a finite number list")

    def strs(self, key, default=None, required=False):
        return self._parse(key, default, required, list,
                           lambda raw: raw.replace(",", " ").split(), "a list")


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
# profile kinds over the one named profile `of`: kind -> (op, numeric fields)
_UNARY_KINDS = {
    "reciprocal": (profiles.reciprocal, ()),
    "scaled": (profiles.scaled, ("factor",)),
    "sqrt": (lambda p: profiles.elementwise_power(p, 0.5), ()),
}

_BUILDING = object()  # memo mark of a section whose object is being built


class _Resolver:
    """Builds each declared profile, pair, curvature and model of a config once."""

    def __init__(self, cfg, unread=None):
        self.cfg = cfg
        self.unread = {} if unread is None else unread
        self._memo = {}  # section name -> its object, or _BUILDING

    def section(self, name):
        if name not in self.cfg:
            raise ConfigError(f"configuration has no [{name}] section")
        return _Section(name, self.cfg[name], self.unread)

    def reject_unread(self):
        """Refuse a run that left a key of an opened section unread."""
        shared = self.cfg.get("__defaults__", {}).keys()  # [DEFAULT]: in every section
        keys = ", ".join(f"[{name}] {key}" for name, left in self.unread.items()
                         for key in sorted(left - shared))
        if keys:
            raise ConfigError("unknown keys: " + keys)

    def _build(self, kind, name, make):
        """The object of [kind:name] from make(section, name), made on first
        use; a failed build is not kept."""
        key = f"{kind}:{name}"
        built = self._memo.get(key)
        if built is _BUILDING:
            raise ConfigError(f"{kind} {name!r} references itself")
        if built is None:
            self._memo[key] = _BUILDING
            try:
                built = make(self.section(key), name)
            finally:
                del self._memo[key]
            self._memo[key] = built
        return built

    def model(self, name):
        """(model, curvature profile, volume profile) of [model:name]."""
        return self._build("model", name, self._make_model)

    def _make_model(self, sec, name):
        kind = sec.str("kind", default="space_form")
        m = sec.int("m", required=True)
        if kind == "space_form":
            model = geometry.space_form(m, sec.float("kappa", required=True))
        elif kind == "warped":
            warping = sec.str("warping", required=True)
            factory = geometry.WARPING_CATALOG.get(warping)
            params = inspect.signature(factory).parameters if factory else ()
            model = geometry.warped_model(
                m, warping, **{p: sec.float(p, required=True) for p in params})
        else:
            raise ConfigError(f"[model:{name}] unknown kind {kind!r}")
        return (model, *geometry.model_profiles(model))

    def _model_ref(self, ref, parts):
        """Split `model:NAME.PART` (PART in parts) into PART, NAME's k and v."""
        name, _, part = ref.removeprefix("model:").partition(".")
        if part not in parts:
            raise ConfigError(f"model reference {ref!r} must end in "
                              + " or ".join("." + p for p in parts))
        return (part, *self.model(name)[1:])

    def profile(self, ref):
        if ref.startswith("model:"):
            part, k, v = self._model_ref(ref, ("k", "v"))
            return k.k if part == "k" else v
        return self._build("profile", ref, self._make_profile)

    def _make_profile(self, sec, ref):
        kind = sec.str("kind", required=True)
        if kind in _LEAF_KINDS:
            make, fields = _LEAF_KINDS[kind]
            return make(*(sec.float(f, required=True) for f in fields), label=ref)
        if kind in _FOLD_KINDS:
            combine, key = _FOLD_KINDS[kind]
            names = sec.strs(key, required=True)
            if len(names) < 2:
                raise ConfigError(f"[profile:{ref}] needs >= 2 {key}")
            return functools.reduce(combine, map(self.profile, names))
        if kind in _UNARY_KINDS:
            make, fields = _UNARY_KINDS[kind]
            return make(self.profile(sec.str("of", required=True)),
                        *(sec.float(f, required=True) for f in fields))
        raise ConfigError(f"[profile:{ref}] unknown kind {kind!r}")

    def pair(self, name):
        return self._build("pair", name, self._make_pair)

    def _make_pair(self, sec, name):
        return profiles.CoefficientPair(
            v=self.profile(sec.str("v", required=True)),
            w=self.profile(sec.str("w", required=True)),
            b_const=sec.float("b_const", default=0.0),
            t_start=sec.float("t_start", default=0.0),
            v_inv_l1_at_infinity=sec.bool("v_inv_l1_at_infinity"),
            validate=sec.bool("validate", default=True),
            label=name)

    def curvature(self, name):
        return self._build("curvature", name, self._make_curvature)

    def _make_curvature(self, sec, name):
        ref = sec.str("k", required=True)
        if ref.startswith("model:"):
            return self._model_ref(ref, ("k",))[1]
        return profiles.CurvatureProfile(
            k=self.profile(ref),
            b_const=sec.float("b_const", default=0.0),
            m=sec.int("m", default=2))


# ---------------------------------------------------------------------------
# Criterion table
# ---------------------------------------------------------------------------

# A field is (key, read) or (key, read, default): read is a typed _Section
# read ("float", "int") or the declared object the key names (_OBJECTS).
_OBJECTS = ("profile", "curvature", "pair")
_K, _PAIR = ("curvature", "curvature"), ("pair", "pair")
_A, _B = ("a", "float"), ("b", "float")
_LAMBDA, _R_START = ("lambda", "float", 0.0), ("r_start", "float", 1.0)
_TOL, _TOL_HORIZON = ("tol",), ("tol", "horizon")

# criterion -> (checker, fields in call order, run settings it takes)
_CRITERIA = {
    "myers_galloway": (criteria.check_myers_galloway,
                       (("c", "float"), ("f_const", "float", 0.0), ("m", "int", 2)), ()),
    "diameter_remark": (criteria.check_diameter_remark,
                        (_K, ("d_bound", "float")), _TOL),
    "ambrose_moore": (criteria.check_ambrose_moore, (_K, _LAMBDA), _TOL_HORIZON),
    "nehari": (criteria.check_nehari, (_K, _LAMBDA, ("t0", "float")), _TOL_HORIZON),
    "calabi": (criteria.check_calabi, (_K,), _TOL_HORIZON),
    "main_b2": (criteria.check_main_B2, (_K, _A, _B, _LAMBDA), _TOL),
    "main_b2_search": (criteria.search_main_B2, (_K,), _TOL),
    "first_zero": (criteria.check_first_zero, (_PAIR, _A, _B), _TOL),
    "oscillation": (criteria.check_oscillation, (_PAIR, _R_START), _TOL_HORIZON),
    "moore_liminf": (criteria.check_moore_liminf,
                     (_PAIR, _R_START, ("c_thresh", "float")), _TOL_HORIZON),
    "leighton": (criteria.check_leighton, (_PAIR,), _TOL),
    "bmr": (criteria.check_bmr, (_PAIR, ("t_lower", "float", 1.0)), _TOL_HORIZON),
    "lambda1_negative": (spectral.lambda1_negative, (_PAIR, _A, _B), _TOL),
    "instability": (spectral.instability_at_infinity, (_PAIR, _R_START), _TOL_HORIZON),
    "yamabe": (spectral.check_yamabe,
               (("s_mean", "profile"), ("m", "int"), ("v", "profile"),
                ("b_const", "float", 0.0), _A, _B), _TOL),
}


def _read_field(resolver, sec, key, read, *default):
    if read in _OBJECTS:
        return getattr(resolver, read)(sec.str(key, required=True))
    return getattr(sec, read)(key, *default, required=not default)


def _run_criterion(name, resolver, sec, tol, horizon):
    if name not in _CRITERIA:
        raise ConfigError(f"unknown criterion {name!r}")
    check, fields, settings = _CRITERIA[name]
    run = {"tol": tol, "horizon": horizon}
    return check(*(_read_field(resolver, sec, *field) for field in fields),
                 **{s: run[s] for s in settings})


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _positive(what, value):
    if value <= 0:
        raise ConfigError(f"{what} {value!r} is not positive")
    return value


def _tol_horizon(sec, tol, horizon, default_horizon=1e4):
    """The run's positive (tol, horizon): a flag wins over its key, which then
    counts as read, unparsed."""
    def resolve(key, flag, default):
        if flag is not None:
            sec.unread.discard(key)
            return _positive(f"--{key}", flag)
        value = sec.float(key, default=default, required=default is None)
        return _positive(f"[{sec.name}] field {key!r}:", value)
    return (resolve("tol", tol, profiles.DEFAULT_TOL),
            resolve("horizon", horizon, default_horizon))


def _config_header(cfg):
    return ["# cfg: " + line for line in cfg["__text__"].splitlines()]


def _write_tsv(path, cfg, columns, rows, notes=(), trailer=()):
    """A TSV artifact: the `# cfg:` header, `#` note lines, the `# columns:`
    line, one tab-separated row of numbers per row, then `#` trailer lines."""
    lines = (_config_header(cfg) + [f"# {note}" for note in notes]
             + ["# columns: " + "\t".join(columns)]
             + ["\t".join(_fmt(float(x)) for x in row) for row in rows]
             + [f"# {line}" for line in trailer])
    path.write_text("\n".join(lines) + "\n")


def cmd_solve(resolver, sec, out_dir, tol, horizon):
    problem = sec.str("problem", required=True)
    t, h = _tol_horizon(sec, tol, horizon, default_horizon=None)
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
    resolver.reject_unread()
    trailer = [f"zero {_fmt(cert.t_lo)} {_fmt(cert.t_hi)}" for cert in traj.zeros]
    if traj.terminated_reason == "step_underflow":
        trailer.append(f"terminated step_underflow at {_fmt(traj.t_end)}")
    _write_tsv(out_dir / "trajectory.tsv", resolver.cfg, ("t", "z", "dz"),
               traj.nodes, trailer=trailer)
    if traj.terminated_reason == "step_underflow":
        raise SturmoscError(
            f"solver broke down (step_underflow) at t = {_fmt(traj.t_end)}")
    return 0


def cmd_check(resolver, sec, out_dir, tol, horizon):
    names = sec.strs("criteria", required=True)
    t, h = _tol_horizon(sec, tol, horizon)
    verdicts = [_run_criterion(name, resolver, sec, t, h).to_dict()
                for name in names]
    resolver.reject_unread()
    _write_json(out_dir / "verdicts.json",
                {"config": resolver.cfg["__text__"], "verdicts": verdicts})
    return 0


def _sweep_row(parent, vary_section, vary_key, value, names, tol, horizon,
               count_zeros, count_horizon):
    local = {k: (dict(v) if isinstance(v, dict) else v) for k, v in parent.cfg.items()}
    local[vary_section][vary_key] = _fmt(float(value))
    resolver = _Resolver(local, parent.unread)
    sec = resolver.section("sweep")
    row = {"value": _fmt(float(value))}
    for name in names:
        try:
            verdict = _run_criterion(name, resolver, sec, tol, horizon)
            row[name] = verdict.status.value
        except (ConfigError, HypothesisViolated):
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


def cmd_sweep(resolver, sec, out_dir, tol, horizon):
    vary = sec.str("vary", required=True)
    vary_section, _, vary_key = vary.rpartition(".")
    if not vary_section or vary_section not in resolver.cfg:
        raise ConfigError(f"[sweep] vary target {vary!r} not found")
    values = sec.floats("values", required=True)
    if not values:
        raise ConfigError("[sweep] needs a non-empty value grid")
    names = sec.strs("criteria", required=True)
    t, h = _tol_horizon(sec, tol, horizon)
    # every row would write a refused tol as a numerical error
    profiles._check_tol(t)
    count_zeros = sec.bool("count_zeros", default=False)
    count_horizon = _positive("[sweep] field 'count_horizon':",
                              sec.float("count_horizon", default=h))
    rows = [_sweep_row(resolver, vary_section, vary_key, value, names, t, h,
                       count_zeros, count_horizon) for value in values]
    # every row reads the same keys, unless a numerical error cut it short
    if any(all(row[name] != "error" for name in names) for row in rows):
        if vary_section not in resolver.unread:
            raise ConfigError(f"[sweep] vary target {vary!r} is in a section "
                              "that the sweep never opens")
        resolver.reject_unread()

    fields = ["value"] + names + (["zeros"] if count_zeros else [])
    out_path = out_dir / "sweep.csv"
    with out_path.open("w", newline="") as fh:
        for line in _config_header(resolver.cfg):
            fh.write(line + "\n")
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return 0


def cmd_spectral(resolver, sec, out_dir, tol, horizon):
    pair = resolver.pair(sec.str("pair", required=True))
    t, h = _tol_horizon(sec, tol, horizon)
    report = spectral.spectral_report(
        pair, sec.float("a", required=True), sec.float("b", required=True),
        radii=tuple(sec.floats("radii", default=[1.0, 10.0, 100.0])),
        horizon=h, tol=t)
    resolver.reject_unread()
    _write_json(out_dir / "spectral.json",
                {"config": resolver.cfg["__text__"], "report": report.to_dict()})
    _write_tsv(out_dir / "rayleigh.tsv", resolver.cfg, ("t2", "quotient"),
               report.rayleigh_values)
    if report.breakdown_at is not None:
        raise SturmoscError(
            f"solver broke down (step_underflow) at t = {_fmt(report.breakdown_at)}")
    return 0


def cmd_geometry(resolver, sec, out_dir, tol, horizon):
    model, k, v = resolver.model(sec.str("model", required=True))
    r0 = sec.float("r_start", default=0.1)
    r1 = sec.float("r_stop", required=True)
    n = sec.int("n", default=50)
    if n < 2 or r0 <= 0 or r1 <= r0:
        raise ConfigError("[geometry] needs 0 < r_start < r_stop and n >= 2")
    if r1 > model.r_max:
        raise ConfigError(f"[geometry] r_stop = {_fmt(r1)} lies past the model's "
                          f"r_max = {_fmt(model.r_max)}")
    resolver.reject_unread()
    rs = [r0 + (r1 - r0) * i / (n - 1) for i in range(n)]
    _write_tsv(out_dir / "profiles.tsv", resolver.cfg, ("r", "K", "v"),
               [(r, k.k(r), v(r)) for r in rs],
               notes=[f"model m={model.m} warping={model.warping.name} "
                      f"b_const={_fmt(k.b_const)}"])
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


@functools.cache
def _build_parser():
    """The argument parser, built on first use and reused by every call."""
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
    for flag, value in (("--tol", tol), ("--horizon", horizon)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{flag} {value!r} is not a finite number")
    cfg = load_config(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolver = _Resolver(cfg)
    return _COMMANDS[command](resolver, resolver.section(command), out, tol, horizon)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return run(args.command, args.config, args.out, tol=args.tol,
                   horizon=args.horizon)
    except (ConfigError, InvalidParams) as exc:
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
