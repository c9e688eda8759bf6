"""Seeded workloads for the sturmosc benchmark, each op with a closed-form oracle.

An op is one call through a public entry point: ``sturmosc.cli.main`` on a
generated INI file, or a short sequence of ``sturmosc.riccati`` calls.  The
program sees only the generated inputs.  Every op carries an oracle that
checks its artifacts against exact references (zeros of sin,
closed-form integrals, tail-certified statuses); exit codes alone are not
trusted.

Draws are stratified (and, for the oscillatory pair, antithetic in sqrt(c))
so that the work in one batch hardly depends on the seed: the run-to-run
spread of the benchmark then measures the program, not the draw.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

OSC_HORIZON = {"full": 30.0, "smoke": 10.0}
CRITERIA_HORIZON = 1e4
CRITERIA_PER_KIND = {"full": 4, "smoke": 1}

ZERO_ATOL = 1e-6        # certified zeros vs k*pi/sqrt(c); observed error <= 5e-9
RAYLEIGH_ATOL = 1e-6    # Rayleigh quotient at a certified zero is 0 up to quadrature
WITNESS_RTOL = 1e-8     # quadrature witnesses (tol 1e-10) printed with 12 digits
TIE_RTOL = 1e-7         # a decision this close to its threshold may go either way


@dataclass
class Op:
    """One benchmark operation: a CLI run (``command`` + ``config``) or a library call."""

    label: str
    check: Callable[[dict], list]   # artifacts -> list of problems
    command: Optional[str] = None
    config: str = ""
    call: Optional[Callable[[], bytes]] = None


def _num(x):
    """Round a draw so its INI text, the CLI's 12-digit echo and the oracle agree."""
    return float(f"{x:.9g}")


def _ini(sections):
    lines = []
    for name, fields in sections.items():
        lines.append(f"[{name}]")
        for key, value in fields.items():
            if isinstance(value, (list, tuple)):
                value = " ".join(repr(float(v)) for v in value)
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _close(got, want, rtol=WITNESS_RTOL, atol=1e-12):
    return abs(got - want) <= atol + rtol * abs(want)


def _tie(lhs, rhs):
    return abs(lhs - rhs) <= TIE_RTOL * (1.0 + max(abs(lhs), abs(rhs)))


def _status_problem(what, got, lhs, rhs, strict=True):
    """Expected 'satisfied' iff lhs > rhs (lhs >= rhs when not strict)."""
    if _tie(lhs, rhs):
        return []
    want = "satisfied" if (lhs > rhs if strict else lhs >= rhs) else "inconclusive"
    return [] if got == want else [f"{what}: status {got}, expected {want}"]


def _witness_problems(what, witness, expected):
    out = []
    for key, want in expected.items():
        got = witness.get(key)
        if not isinstance(got, (int, float)) or not _close(float(got), want):
            out.append(f"{what}: witness {key} = {got!r}, expected {want:.12g}")
    return out


def _stratified(rng, lo, hi, n):
    """One uniform draw in each of n equal strata of [lo, hi), in stratum order."""
    width = (hi - lo) / n
    return [_num(lo + (i + rng.random()) * width) for i in range(n)]


# ---------------------------------------------------------------------------
# oscillatory_solve: Jacobi solve on a space form, spectral report on v=t^2, W=c
# ---------------------------------------------------------------------------

def _zero_count(c, horizon):
    """Zeros k*pi/sqrt(c) in (0, horizon]; a set of accepted counts near a tie."""
    x = horizon * math.sqrt(c) / math.pi
    n = math.floor(x)
    if x - n < TIE_RTOL * x:
        return {n - 1, n}
    return {n}


def _check_zeros(what, locations, c, horizon):
    problems = []
    allowed = _zero_count(c, horizon)
    if len(locations) not in allowed:
        problems.append(f"{what}: {len(locations)} zeros, expected {sorted(allowed)}")
    step = math.pi / math.sqrt(c)
    for k, loc in enumerate(locations, start=1):
        if abs(loc - k * step) > ZERO_ATOL:
            problems.append(f"{what}: zero {k} at {loc!r}, expected {k * step!r}")
            break
    return problems


def _jacobi_op(c, horizon):
    config = _ini({
        "model:sf": {"kind": "space_form", "m": 2, "kappa": c},
        "curvature:k": {"k": "model:sf.k"},
        "solve": {"problem": "jacobi", "curvature": "k", "horizon": horizon},
    })

    def check(artifacts):
        text = artifacts["trajectory.tsv"].decode()
        zeros, last_t = [], None
        for line in text.splitlines():
            if line.startswith("# zero "):
                lo, hi = map(float, line.split()[2:4])
                zeros.append(0.5 * (lo + hi))
            elif line and not line.startswith("#"):
                last_t = line.split("\t", 1)[0]
        problems = _check_zeros("jacobi", zeros, c, horizon)
        if last_t is None or not _close(float(last_t), horizon, rtol=1e-12):
            problems.append(f"jacobi: trajectory ends at {last_t}, not at the horizon")
        return problems

    return Op(f"solve jacobi K={c!r}", check, "solve", config)


def _spectral_op(c, horizon):
    a, b = 0.5, 3.0
    config = _ini({
        "profile:v": {"kind": "power", "c": 1.0, "p": 2.0},
        "profile:w": {"kind": "constant", "c": c},
        "pair:p": {"v": "v", "w": "w"},
        "spectral": {"pair": "p", "a": a, "b": b, "horizon": horizon},
    })

    def check(artifacts):
        report = json.loads(artifacts["spectral.json"])["report"]
        problems = []
        allowed = _zero_count(c, horizon)
        if report["index_lower_bound"] not in allowed:
            problems.append(f"spectral: index bound {report['index_lower_bound']}, "
                            f"expected {sorted(allowed)}")
        if report["lambda1_sign"] != "certified_negative":
            problems.append(f"spectral: lambda1_sign {report['lambda1_sign']}")
        rayleigh = report["rayleigh_values"]
        if len(rayleigh) != min(4, max(allowed)):
            problems.append(f"spectral: {len(rayleigh)} Rayleigh quotients")
        step = math.pi / math.sqrt(c)
        for k, (t2, q) in enumerate(rayleigh, start=1):
            if abs(t2 - k * step) > ZERO_ATOL or abs(q) > RAYLEIGH_ATOL:
                problems.append(f"spectral: Rayleigh ({t2!r}, {q!r}) at zero {k}")
        radii = [r for r in (1.0, 10.0, 100.0) if r < max(allowed) * step]
        if report["unstable_radii"] != radii:
            problems.append(f"spectral: unstable radii {report['unstable_radii']}")
        return problems

    return Op(f"spectral v=t^2 W={c!r}", check, "spectral", config)


def _oscillatory(rng, size):
    horizon = OSC_HORIZON[size]
    s_lo, s_hi = math.sqrt(0.5), math.sqrt(2.0)
    s1 = s_lo + (s_hi - s_lo) * rng.random()
    # steps and zeros grow like sqrt(c): the antithetic partner keeps the
    # batch's work fixed while c itself still spans [0.5, 2]
    c1, c2 = _num(s1 * s1), _num((s_lo + s_hi - s1) ** 2)
    return [_jacobi_op(c1, horizon), _spectral_op(c2, horizon)]


# ---------------------------------------------------------------------------
# criteria_grid: checkers on catalog curvatures and pairs, Riccati families
# ---------------------------------------------------------------------------

def _csv_rows(data):
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _verdicts(artifacts):
    return json.loads(artifacts["verdicts.json"])["verdicts"]


def _b2_rhs(a, b, lam, B):
    """Comparison value of the main criterion (closed form, B = 0 as the limit)."""
    if lam == 1.0:
        if B == 0.0:
            return 1.0 + 0.25 * math.log(b / a)
        return B * (b + a / math.tanh(B * a)) + 0.25 * math.log(b / a)
    if B == 0.0:
        return ((2.0 - lam) ** 2 / (4.0 * (1.0 - lam) * a ** (1.0 - lam))
                - lam ** 2 / (4.0 * (1.0 - lam) * b ** (1.0 - lam)))
    return (B * (b ** lam + a ** lam / math.tanh(B * a))
            + lam ** 2 / (4.0 * (1.0 - lam)) * (a ** (lam - 1.0) - b ** (lam - 1.0)))


def _power_moment(c, e, a, b):
    """Integral of c * t**(e - 1) over [a, b]."""
    return c * (b ** e - a ** e) / e


def _curvature_op(rng, s):
    c1, m = _num(rng.uniform(0.5, 2.0)), rng.choice((2, 3))
    lam, t0 = _num(rng.uniform(0.0, 0.9)), _num(rng.uniform(0.5, 2.0))
    # diameter bound on either side of the closed-form flip point
    d_star = ((s + 3.0) * 4.0 ** (s + 3.0) / (2.0 * c1)) ** (1.0 / (s + 2.0))
    d = _num(d_star * rng.choice((rng.uniform(0.6, 0.95), rng.uniform(1.05, 1.5))))
    h = CRITERIA_HORIZON
    config = _ini({
        "profile:k": {"kind": "power", "c": c1, "p": float(s)},
        "curvature:k": {"k": "k", "b_const": 0.0, "m": m},
        "check": {"criteria": "main_b2_search calabi nehari ambrose_moore diameter_remark",
                  "curvature": "k", "lambda": lam, "t0": t0, "d_bound": d, "horizon": h},
    })

    def check(artifacts):
        v = {x["criterion"]: x for x in _verdicts(artifacts)}
        problems = []
        w = v["main_b2"]["witness"]
        a, b, lb = w["a"], w["b"], w["lambda"]
        lhs = _power_moment(c1, lb + s + 1.0, a, b)
        problems += _witness_problems("main_b2", w, {"lhs": lhs, "rhs": _b2_rhs(a, b, lb, 0.0),
                                                     "grid_points": 245.0})
        problems += _status_problem("main_b2", v["main_b2"]["status"], lhs,
                                    _b2_rhs(a, b, lb, 0.0))
        coeff, t_min = 1.0 / (2.0 * math.sqrt(m - 1.0)), 1e-3
        grid = [10.0 ** (4.0 * i / 24.0) for i in range(25)]
        g = [_power_moment(math.sqrt(c1), s / 2.0 + 1.0, t_min, x) - coeff * math.log(x)
             for x in grid]
        problems += _witness_problems("calabi", v["calabi"]["witness"],
                                      {"g_last": g[-1], "g_max": max(g),
                                       "log_threshold": coeff})
        if v["calabi"]["status"] != "satisfied":
            problems.append("calabi: sqrt(K) ~ t^(s/2) must certify divergence")
        lhs = _power_moment(c1, lam + s + 1.0, t0, h)
        rhs = (2.0 - lam) ** 2 / (4.0 * (1.0 - lam)) / t0 ** (1.0 - lam)
        problems += _witness_problems("nehari", v["nehari"]["witness"], {"lhs": lhs, "rhs": rhs})
        problems += _status_problem("nehari", v["nehari"]["status"], lhs, rhs)
        problems += _witness_problems("ambrose_moore", v["ambrose_moore"]["witness"],
                                      {"partial_moment": _power_moment(c1, lam + s + 1.0, t_min, h)})
        if v["ambrose_moore"]["status"] != "satisfied":
            problems.append("ambrose_moore: t^lam K diverges, tail must certify it")
        lhs = 2.0 * _power_moment(c1, s + 3.0, 0.0, d / 4.0)
        problems += _witness_problems("diameter_remark", v["diameter_remark"]["witness"],
                                      {"lhs": lhs})
        problems += _status_problem("diameter_remark", v["diameter_remark"]["status"], lhs, d)
        return problems

    return Op(f"check K={c1!r}*t^{s:g}", check, "check", config)


def _cubic_moment(alpha, lam, a, b):
    """Integral of t**lam * K over [a, b] for K = -6 alpha / (1 + alpha t^2)."""
    r = math.sqrt(alpha)
    if lam == 0.0:
        return -6.0 * r * (math.atan(r * b) - math.atan(r * a))
    if lam == 1.0:
        return -3.0 * math.log((1.0 + alpha * b * b) / (1.0 + alpha * a * a))
    if lam == 2.0:
        return -6.0 * ((b - a) - (math.atan(r * b) - math.atan(r * a)) / r)
    # no elementary antiderivative: QUADPACK as the independent route
    from scipy.integrate import quad
    return quad(lambda t: -6.0 * alpha * t ** lam / (1.0 + alpha * t * t), a, b,
                epsabs=0.0, epsrel=1e-13, limit=200)[0]


def _cubic_op(rng, alpha):
    d = _num(rng.uniform(2.0, 8.0))
    h = CRITERIA_HORIZON
    config = _ini({
        "model:cub": {"kind": "warped", "warping": "cubic", "alpha": alpha, "m": 2},
        "curvature:c": {"k": "model:cub.k"},
        "check": {"criteria": "main_b2_search ambrose_moore diameter_remark",
                  "curvature": "c", "lambda": 0.0, "d_bound": d, "horizon": h},
    })

    def check(artifacts):
        v = {x["criterion"]: x for x in _verdicts(artifacts)}
        problems = []
        w = v["main_b2"]["witness"]
        big_b = math.sqrt(6.0 * alpha)
        a, b, lam = w["a"], w["b"], w["lambda"]
        problems += _witness_problems("main_b2", w, {
            "B": big_b, "lhs": _cubic_moment(alpha, lam, a, b),
            "rhs": _b2_rhs(a, b, lam, big_b)})
        # K = -6 alpha / (1 + alpha r^2) <= 0 is certified: disconjugate
        if v["main_b2"]["status"] != "violated":
            problems.append(f"main_b2: status {v['main_b2']['status']}, expected violated")
        problems += _witness_problems("ambrose_moore", v["ambrose_moore"]["witness"],
                                      {"partial_moment": _cubic_moment(alpha, 0.0, 1e-3, h)})
        problems += _witness_problems("diameter_remark", v["diameter_remark"]["witness"],
                                      {"lhs": 2.0 * _cubic_moment(alpha, 2.0, 0.0, d / 4.0)})
        for name in ("ambrose_moore", "diameter_remark"):
            if v[name]["status"] != "inconclusive":
                problems.append(f"{name}: status {v[name]['status']}, expected inconclusive")
        return problems

    return Op(f"check cubic alpha={alpha!r}", check, "check", config)


def _moore_fields(rng):
    """Shared [check]/[sweep] fields for the pair v = t^2, W = mu/t^2 on [1, inf)."""
    return {"a": _num(rng.uniform(1.0, 2.0)), "b": _num(rng.uniform(3.0, 6.0)),
            "r_start": _num(rng.uniform(1.0, 2.0)), "c_thresh": _num(rng.uniform(0.3, 1.5)),
            "t_lower": _num(rng.uniform(1.0, 2.0))}


def _moore_profiles(mu):
    return {"profile:v": {"kind": "power", "c": 1.0, "p": 2.0},
            "profile:w": {"kind": "power", "c": mu, "p": -2.0},
            "pair:moore": {"v": "v", "w": "w", "t_start": 1.0}}


def _moore_status_problems(mu, f, statuses):
    """Tail-certified statuses: product limit mu, sqrt(chi) ~ 1/(2t), int Wv = mu(b-a)."""
    lhs, rhs = mu * (f["b"] - max(f["a"], 1.0)), f["b"]
    problems = []
    problems += _status_problem("first_zero", statuses["first_zero"], lhs, rhs)
    problems += _status_problem("lambda1_negative", statuses["lambda1_negative"], lhs, rhs)
    problems += _status_problem("oscillation", statuses["oscillation"], mu, 1.0)
    problems += _status_problem("moore_liminf", statuses["moore_liminf"], mu,
                                f["c_thresh"], strict=False)
    problems += _status_problem("bmr", statuses["bmr"], math.sqrt(mu), 0.5)
    return [f"mu={mu!r} {p}" for p in problems]


MOORE_CRITERIA = "first_zero oscillation moore_liminf bmr lambda1_negative"


def _pair_check_op(rng, mu):
    f = _moore_fields(rng)
    s_mean, cv = _num(rng.uniform(0.5, 3.0)), _num(rng.uniform(0.5, 2.0))
    h = CRITERIA_HORIZON
    config = _ini({
        **_moore_profiles(mu),
        "profile:s": {"kind": "constant", "c": -s_mean},
        "profile:vy": {"kind": "power", "c": cv, "p": 2.0},
        "check": {"criteria": MOORE_CRITERIA + " yamabe", "pair": "moore", **f,
                  "horizon": h, "s_mean": "s", "v": "vy", "m": 3},
    })

    def check(artifacts):
        v = {x["criterion"]: x for x in _verdicts(artifacts)}
        problems = _moore_status_problems(mu, f, {k: x["status"] for k, x in v.items()})
        fz = {"lhs": mu * (f["b"] - max(f["a"], 1.0)), "rhs": f["b"]}
        problems += _witness_problems("first_zero", v["first_zero"]["witness"], fz)
        problems += _witness_problems("lambda1_negative", v["lambda1_negative"]["witness"], fz)
        product = {"max_product": mu * (h - f["r_start"]) / h, "argmax_t": h}
        problems += _witness_problems("oscillation", v["oscillation"]["witness"],
                                      {"certified_limsup": mu, **product})
        problems += _witness_problems("moore_liminf", v["moore_liminf"]["witness"],
                                      {"certified_liminf": mu, **product})
        bmr = {"sqrt_chi_coefficient": 0.5}
        if v["bmr"]["status"] == "satisfied":
            bmr["sqrt_w_coefficient"] = math.sqrt(mu)
        problems += _witness_problems("bmr", v["bmr"]["witness"], bmr)
        # m = 3: c_m = 8; int_a^b (-S) v = s cv (b^3 - a^3)/3; 1/tail(1/v, b) = cv b
        lhs = s_mean * cv * (f["b"] ** 3 - f["a"] ** 3) / 3.0
        rhs = 8.0 * cv * f["b"]
        problems += _witness_problems("yamabe", v["yamabe"]["witness"],
                                      {"lhs": lhs, "rhs": rhs, "c_m": 8.0})
        problems += _status_problem("yamabe", v["yamabe"]["status"], lhs, rhs)
        return problems

    return Op(f"check moore mu={mu!r}", check, "check", config)


def _pair_sweep_op(rng, values):
    f = _moore_fields(rng)
    config = _ini({
        **_moore_profiles(values[0]),
        "sweep": {"vary": "profile:w.c", "values": values, "criteria": MOORE_CRITERIA,
                  "pair": "moore", **f, "horizon": CRITERIA_HORIZON},
    })

    def check(artifacts):
        rows = _csv_rows(artifacts["sweep.csv"])
        if [float(r["value"]) for r in rows] != values:
            return [f"moore sweep: rows {[r['value'] for r in rows]}"]
        problems = []
        for mu, row in zip(values, rows):
            problems += _moore_status_problems(mu, f, row)
        return problems

    return Op(f"sweep moore mu={values}", check, "sweep", config)


def _riccati_op(rng, q):
    """Radial comparison family on v = a t^q, W = -B^2/(a t^q)^2 (W v^2 = -B^2).

    With I(t) = (1 - t^(1-q)) / (a (q - 1)) the growth factor is
    V(1, t) = exp(2 B I(t)); the member anchored to blow up at t_p has
    C = V(1, t_p), value B (C + V)/(C - V), and the tail envelope is
    B (e + 2)/e with e = expm1(2 B t^(1-q) / (a (q - 1))).
    """
    a, big_b = _num(rng.uniform(0.5, 2.0)), _num(rng.uniform(0.2, 1.0))
    t_bar = _num(rng.uniform(1.2, 2.0))
    t_pole = _num(t_bar * rng.uniform(1.5, 3.0))

    def growth(t):
        return math.exp(2.0 * big_b * (1.0 - t ** (1.0 - q)) / (a * (q - 1.0)))

    c_ref, g_bar = growth(t_pole), growth(t_bar)
    q_value = big_b * (c_ref + g_bar) / (c_ref - g_bar)
    ts = [0.6 + (0.9 * t_pole - 0.6) * i / 11.0 for i in range(12)]
    env_ts = [0.5, 2.0, 5.0, 20.0]

    def call():
        from sturmosc import profiles, riccati
        pair = profiles.CoefficientPair(profiles.power(a, q),
                                        profiles.power(-(big_b / a) ** 2, -2.0 * q),
                                        b_const=big_b)
        fam = riccati.anchored_family("radial", big_b, t_bar, q_value, pair=pair)
        pole = riccati.blow_up_time(fam)
        traj = riccati.family_riccati(fam, ts)
        env = [riccati.envelope(riccati.EnvelopeKind.RADIAL_TAIL, t, big_b, pair=pair)
               for t in env_ts]
        result = {"c": fam.c_param, "pole": pole, "ys": [float(y) for y in traj.ys],
                  "poles": list(traj.poles), "envelope": env}
        return json.dumps(result).encode()

    def check(artifacts):
        r = json.loads(artifacts["result"])
        problems = []
        if not _close(r["c"], c_ref):
            problems.append(f"anchored_family: C = {r['c']!r}, expected {c_ref!r}")
        if not _close(r["pole"], t_pole) or len(r["poles"]) != 1 \
                or not _close(r["poles"][0], t_pole):
            problems.append(f"blow_up_time: {r['pole']!r} / {r['poles']}, expected {t_pole!r}")
        for t, y in zip(ts, r["ys"]):
            g = growth(t)
            if not _close(y, big_b * (c_ref + g) / (c_ref - g), rtol=1e-7):
                problems.append(f"family_riccati: y({t!r}) = {y!r}")
                break
        for t, (lo, hi) in zip(env_ts, r["envelope"]):
            e = math.expm1(2.0 * big_b * t ** (1.0 - q) / (a * (q - 1.0)))
            if lo != -big_b or not _close(hi, big_b * (e + 2.0) / e):
                problems.append(f"envelope: ({lo!r}, {hi!r}) at t = {t!r}")
        return problems

    return Op(f"riccati v={a!r}*t^{q:g} B={big_b!r}", check, call=call)


def _criteria(rng, size):
    n = CRITERIA_PER_KIND[size]
    powers = (0.0, 0.5, 1.0, 2.0)
    ops = [_curvature_op(rng, powers[i % 4]) for i in range(n)]
    ops += [_cubic_op(rng, alpha) for alpha in _stratified(rng, 0.1, 1.0, n)]
    ops += [_pair_check_op(rng, mu) for mu in _stratified(rng, 0.1, 2.0, n)]
    ops += [_pair_sweep_op(rng, _stratified(rng, 0.1, 2.0, 5)) for _ in range(n)]
    ops += [_riccati_op(rng, (1.5, 2.0, 3.0, 4.0)[i % 4]) for i in range(n)]
    return ops


_BATCHES = {"oscillatory_solve": _oscillatory, "criteria_grid": _criteria}
WORKLOADS = tuple(_BATCHES)


def build(workload, seed, size="full"):
    """The fixed batch of ops for one workload and seed (``size='smoke'`` for self-tests)."""
    return _BATCHES[workload](random.Random(f"{workload}:{seed}"), size)
