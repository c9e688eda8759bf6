"""Acceptance suite: one test per acceptance criterion, printing a
PASS/FAIL line each.  Criterion 5 has two tests: on [1, 1e4] the certified
Euler zeros and values are checked against the closed-form solution, and
the ">= 3 zeros exactly for mu > 1/4" dichotomy is checked at horizon 1e40,
long enough for the log-periodic oscillation to show.
"""

import math

import numpy as np
import pytest

from sturmosc import (CoefficientPair, ComparisonFamily, CurvatureProfile,
                      HypothesisViolated, Status,
                      anchored_family, blow_up_time, check_calabi,
                      check_ambrose_moore, check_diameter_remark,
                      check_first_zero, check_main_B2, check_moore_liminf,
                      check_myers_galloway, check_nehari, comparison_value,
                      conjugate_radius, constant, extend_until_zero,
                      family_riccati, power, rayleigh_quotient,
                      riccati_from_solution, search_main_B2, solve_jacobi,
                      solve_radial, space_form, verify_comparison)
from sturmosc.cli import main as cli_main
from conftest import (big_v, euler_pair, euler_solution, euler_zeros, moore_pair,
                      random_admissible_pair, random_curvature)

SAT = Status.SATISFIED


def _report(num, desc, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    return ok


def test_criterion_1_sphere_conjugate_point():
    k = CurvatureProfile(constant(1.0), b_const=0.0, m=2)
    traj = solve_jacobi(k, horizon=4.0)
    zero_ok = (len(traj.zeros) == 1
               and abs(traj.zeros[0].location - math.pi) <= 1e-6)
    conj_ok = all(abs(conjugate_radius(space_form(m, 1.0)) - math.pi) <= 1e-6
                  for m in (2, 3))
    myers_ok = all(
        abs(check_myers_galloway(m - 1.0, 0.0, m).witness["diameter_bound"]
            - math.pi) <= 1e-12 for m in (2, 3, 5))
    ok = zero_ok and conj_ok and myers_ok
    assert _report(1, "sphere conjugate point at pi; diameter bound pi", ok)


def test_criterion_2_hyperbolic_saturation():
    k = CurvatureProfile(constant(-1.0), b_const=1.0, m=2)
    traj = solve_jacobi(k, horizon=21.0)
    h = riccati_from_solution(traj)
    ts = np.linspace(0.1, 20.0, 240)
    sat_ok = bool(np.max(np.abs(np.array([h(t) for t in ts])
                                + 1.0 / np.tanh(ts))) <= 1e-8)

    none_fire = search_main_B2(k).status is not SAT
    for lam in (0.0, 0.25, 0.5, 0.75):
        none_fire &= check_ambrose_moore(k, lam).status is not SAT
    for d in np.geomspace(0.5, 50.0, 9):
        none_fire &= check_diameter_remark(k, float(d)).status is not SAT
    for checker in (lambda: check_nehari(k, 0.0, 1.0),
                    lambda: check_calabi(k)):
        with pytest.raises(HypothesisViolated):
            checker()
    ok = sat_ok and none_fire
    assert _report(2, "hyperbolic profile saturates the lower envelope; "
                      "no compactness checker fires", ok)


def test_criterion_3_weighted_moment_threshold():
    b_star = 1.0 + 2.0 / (1.0 - math.exp(-2.0))
    k = CurvatureProfile(constant(1.0), b_const=1.0, m=2, validate=False)
    grid = np.arange(3.310, 3.3165, 1e-3)
    statuses = [check_main_B2(k, 1.0, float(b), 0.0).status is SAT
                for b in grid]
    flips = [i for i in range(1, len(grid)) if statuses[i] != statuses[i - 1]]
    flip_ok = (len(flips) == 1 and not statuses[0] and statuses[-1]
               and abs(float(grid[flips[0]]) - b_star) <= 1e-3)
    confirmed = True
    if any(statuses):
        traj = solve_jacobi(k, horizon=1e2, zero_cap=1)
        confirmed = bool(traj.zeros) and traj.zeros[0].location < 1e2
    ok = flip_ok and confirmed
    assert _report(3, f"moment criterion flips at b = {b_star:.5f}; "
                      "confirmed by a certified conjugate point", ok)


def test_criterion_4_first_zero_soundness_random_family():
    rng = np.random.default_rng(7041)
    fired = 0
    counterexamples = []
    for i in range(50):
        pair = random_admissible_pair(rng)
        a = float(rng.uniform(0.2, 2.0))
        b = a + float(rng.uniform(0.5, 4.0))
        verdict = check_first_zero(pair, a, b)
        if verdict.status is SAT:
            fired += 1
            search = extend_until_zero(pair, 1.0, horizon_cap=1e4)
            if not search.found:
                counterexamples.append((i, pair.label, a, b))
    ok = fired >= 5 and not counterexamples
    assert _report(4, f"first-zero verdicts sound on 50 random pairs "
                      f"({fired} fired, {len(counterexamples)} unconfirmed)",
                   ok), counterexamples


EULER_GRID = (0.20, 0.24, 0.26, 0.30)


def test_criterion_5_euler_threshold_as_stated():
    # On [1, 1e4] the threshold shows in the shape of the solution, not in a
    # zero count: consecutive Euler zeros are a factor exp(pi / sqrt(mu - 1/4))
    # apart (1.3e6 at mu = 0.3), so every grid value, 1/4 included, has
    # exactly one zero there and ">= 3 zeros" is unreachable at any fixed
    # horizon for mu just above 1/4 (that form is checked at 1e40 below).
    # Here the certified zeros must match the closed form one to one, and
    # the solution must follow t^{1/2 +- kappa} below 1/4 and the
    # log-periodic form above it.
    ts = np.geomspace(1.0, 1e4, 200)
    counts, mismatches = {}, []
    for mu in sorted(EULER_GRID + (0.25,)):
        traj = solve_radial(euler_pair(mu), 1.0, horizon=1e4)
        found = [z.location for z in traj.zeros]
        exact = list(euler_zeros(mu, 1e4))
        counts[mu] = (len(found), len(exact))
        if found != pytest.approx(exact, rel=1e-7):
            mismatches.append((mu, "zeros", found, exact))
        z = euler_solution(mu, ts)
        err = float(np.max(np.abs(traj.value(ts) - z)
                           / np.maximum(1.0, np.abs(z))))
        if err > 1e-8:
            mismatches.append((mu, "value", err))
    ok = not mismatches
    assert _report(5, "Euler zeros and values on [1, 1e4] match the closed "
                      f"form (certified, exact counts {counts})",
                   ok), mismatches


def test_criterion_5_threshold_demonstrated_at_extended_horizon():
    counts = {}
    for mu in EULER_GRID:
        traj = solve_radial(euler_pair(mu), 1.0, horizon=1e40)
        counts[mu] = len(traj.zeros)
    dichotomy = all((counts[mu] >= 3) == (mu > 0.25) for mu in EULER_GRID)
    moore_high = check_moore_liminf(moore_pair(0.30), 1.0, 0.26).status is SAT
    moore_low = check_moore_liminf(moore_pair(0.20), 1.0, 0.26).status is not SAT
    ok = dichotomy and moore_high and moore_low
    assert _report(5, f"Euler dichotomy at horizon 1e40 (counts {counts}); "
                      "liminf test agrees at 0.3 vs 0.2", ok)


def test_criterion_6_riccati_comparison_random_family():
    rng = np.random.default_rng(60310)
    violations = []
    for i in range(20):
        k = random_curvature(rng)
        traj = solve_jacobi(k, horizon=6.0)
        q1 = riccati_from_solution(traj)
        upper = min([z.location for z in traj.zeros], default=3.0)
        b_eff = max(k.b_const, 0.5)
        t_bar = q_val = None
        for _ in range(32):
            cand = float(rng.uniform(0.15, 0.8 * upper))
            val = float(q1(cand))
            if abs(val - b_eff) > 1e-3 and abs(val + b_eff) > 1e-3:
                t_bar, q_val = cand, val
                break
        fam = anchored_family("jacobi", b_eff, t_bar, q_val)
        q2 = family_riccati(fam, q1.ts)
        report = verify_comparison(q1, q2, t_bar, "forward", tol=1e-6)
        if not report.ok:
            violations.append((i, t_bar, report.first_violation))
    ok = not violations
    assert _report(6, "comparison ordering holds on 20 anchored random "
                      f"pairs ({len(violations)} violations)", ok), violations


def test_criterion_7_rayleigh_identity(sinc_pair):
    traj = solve_radial(sinc_pair, 1.0, horizon=10.0)
    q = rayleigh_quotient(sinc_pair, traj, math.pi)
    ok = abs(q) <= 1e-6
    assert _report(7, f"Rayleigh quotient at the first zero = {q:.3g}", ok)


def test_criterion_8_algebraic_identities():
    rng = np.random.default_rng(8121)
    pair = CoefficientPair(power(1.2, 1.7), constant(1.0), b_const=0.8)
    mult_ok = True
    for _ in range(100):
        t1, d1, d2 = rng.uniform(0.1, 6.0, size=3)
        lhs = big_v(pair, t1, t1 + d1) * big_v(pair, t1 + d1, t1 + d1 + d2)
        rhs = big_v(pair, t1, t1 + d1 + d2)
        mult_ok &= abs(lhs - rhs) <= 1e-8 * abs(rhs)

    resid_ok = True
    for b, s in ((1.0, 2.0), (0.7, 0.65), (1.5, 0.73)):
        fam = ComparisonFamily(b, s, "jacobi")
        pole = blow_up_time(fam)
        delta = 1e-5
        for t in np.linspace(0.05, pole + 1.5, 48):
            if t - delta <= 0 or abs(t - pole) < 0.15:
                continue
            d = (comparison_value(fam, t + delta)
                 - comparison_value(fam, t - delta)) / (2 * delta)
            target = comparison_value(fam, t) ** 2 - b * b
            resid_ok &= abs(d - target) <= 1e-6 * (1.0 + abs(target))

    k = CurvatureProfile(constant(1.0), b_const=0.0, m=2)
    t1 = solve_jacobi(k, horizon=6.0)
    t2 = solve_jacobi(k, horizon=6.0, t_start=1e-8, u0=1.0, du0=0.0)
    ts = np.linspace(0.5, 6.0, 60)
    w = t1.value(ts) * t2.flux(ts) - t2.value(ts) * t1.flux(ts)
    wronsk_ok = bool(np.max(np.abs(w - w[0])) <= 1e-8 * abs(w[0]))

    ok = mult_ok and resid_ok and wronsk_ok
    assert _report(8, "product rule for the growth factor, comparison-flow "
                      "residuals, Wronskian constancy", ok)


def test_criterion_9_diameter_remark_flip():
    d_star = 4.0 * math.sqrt(6.0)
    k = CurvatureProfile(constant(1.0), b_const=0.0, m=2)
    grid = np.arange(9.794, 9.8025, 1e-3)
    statuses = [check_diameter_remark(k, float(d)).status is SAT for d in grid]
    flips = [i for i in range(1, len(grid)) if statuses[i] != statuses[i - 1]]
    ok = (len(flips) == 1 and not statuses[0] and statuses[-1]
          and abs(float(grid[flips[0]]) - d_star) <= 1e-3)
    assert _report(9, f"diameter remark flips at D = {d_star:.5f}", ok)


SWEEP_CONFIG = """\
[profile:v_sq]
kind = power
c = 1.0
p = 2.0

[profile:W_mu]
kind = power
c = 0.3
p = -2.0

[pair:euler]
v = v_sq
w = W_mu
b_const = 0.0
t_start = 1.0

[curvature:unit]
k = K1
b_const = 1.0
m = 2

[profile:K1]
kind = constant
c = 1.0

[check]
criteria = main_b2 moore_liminf
curvature = unit
pair = euler
a = 1.0
b = 3.5
lambda = 0.0
r_start = 1.0
c_thresh = 0.26

[sweep]
vary = profile:W_mu.c
values = 0.1 0.2 0.25 0.3 0.4 0.5
criteria = moore_liminf oscillation leighton_guarded
pair = euler
r_start = 1.0
c_thresh = 0.251
count_zeros = true
count_horizon = 1e3
"""


def test_criterion_10_deterministic_outputs(tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text(SWEEP_CONFIG.replace("leighton_guarded", "bmr"))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli_main(["sweep", "--config", str(config),
                         "--out", str(out)]) == 0
        assert cli_main(["check", "--config", str(config),
                         "--out", str(out)]) == 0
    same_csv = ((outs[0] / "sweep.csv").read_bytes()
                == (outs[1] / "sweep.csv").read_bytes())
    same_json = ((outs[0] / "verdicts.json").read_bytes()
                 == (outs[1] / "verdicts.json").read_bytes())
    ok = same_csv and same_json
    assert _report(10, "two full sweep runs are byte-identical", ok)
