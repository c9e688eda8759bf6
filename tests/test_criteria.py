import math

import numpy as np
import pytest

from sturmosc import (CoefficientPair, CurvatureProfile, HypothesisViolated,
                      InvalidParams, Status, TailInfoMissing,
                      check_ambrose_moore, check_bmr, check_calabi,
                      check_diameter_remark, check_first_zero, check_leighton,
                      check_main_B2, check_moore_liminf, check_myers_galloway,
                      check_nehari, check_oscillation, constant,
                      first_zero_threshold, power, search_main_B2)
from conftest import moore_pair

SAT = Status.SATISFIED
INC = Status.INCONCLUSIVE
VIO = Status.VIOLATED


def curvature(profile, b=0.0, m=2, validate=True):
    return CurvatureProfile(profile, b_const=b, m=m, validate=validate)


class TestMyersGalloway:
    def test_reduces_to_pi(self):
        for m in (2, 3, 5):
            v = check_myers_galloway(m - 1.0, 0.0, m)
            assert v.satisfied
            assert v.witness["diameter_bound"] == pytest.approx(math.pi,
                                                                abs=1e-12)

    def test_unit_constants(self):
        v = check_myers_galloway(1.0, 0.0, 2)
        assert v.witness["diameter_bound"] == pytest.approx(math.pi, abs=1e-12)

    def test_with_oscillating_part(self):
        v = check_myers_galloway(1.0, 1.0, 2)
        assert v.witness["diameter_bound"] == pytest.approx(
            2.0 + math.sqrt(4.0 + math.pi ** 2), rel=1e-12)

    def test_invalid_constant(self):
        with pytest.raises(InvalidParams):
            check_myers_galloway(0.0, 1.0, 2)


class TestAmbroseMoore:
    def test_constant_curvature_fires(self):
        assert check_ambrose_moore(curvature(constant(1.0)), 0.0).status is SAT

    def test_convergent_moment_inconclusive(self):
        v = check_ambrose_moore(curvature(power(1.0, -2.0)), 0.5)
        assert v.status is INC
        assert math.isfinite(v.witness["partial_moment"])

    def test_harmonic_curvature_fires(self):
        assert check_ambrose_moore(curvature(power(1.0, -1.0)), 0.0).status is SAT

    def test_negative_curvature_violated(self):
        v = check_ambrose_moore(curvature(constant(-1.0), b=1.0), 0.0)
        assert v.status is VIO

    def test_lambda_range(self):
        with pytest.raises(InvalidParams):
            check_ambrose_moore(curvature(constant(1.0)), 1.0)


class TestNehari:
    def test_threshold_cleared(self):
        v = check_nehari(curvature(power(1.0, -1.5)), 0.0, 1.0)
        assert v.status is SAT
        assert v.witness["rhs"] == pytest.approx(1.0)
        assert v.witness["certified_total"] == pytest.approx(2.0, rel=1e-8)

    def test_threshold_out_of_reach(self):
        v = check_nehari(curvature(power(1.0, -1.5)), 0.0, 1.0 / 9.0)
        assert v.status is INC
        assert v.witness["rhs"] == pytest.approx(9.0)
        assert v.witness["certified_total"] == pytest.approx(6.0, rel=1e-8)

    def test_flat_inconclusive(self):
        assert check_nehari(curvature(constant(0.0)), 0.0, 1.0).status is INC

    def test_negative_curvature_rejected(self):
        with pytest.raises(HypothesisViolated):
            check_nehari(curvature(constant(-1.0), b=1.0), 0.0, 1.0)


class TestCalabi:
    def test_linear_growth(self):
        assert check_calabi(curvature(constant(1.0))).status is SAT

    def test_log_coefficient_above_threshold(self):
        # sqrt(K) = 1/t beats the 1/2 log coefficient in dimension 2
        assert check_calabi(curvature(power(1.0, -2.0))).status is SAT

    def test_log_coefficient_below_threshold(self):
        v = check_calabi(curvature(power(1.0 / 16.0, -2.0)))
        assert v.status is INC
        assert v.witness["log_coefficient"] == pytest.approx(0.25)


class TestMainB2:
    def test_compact_form_threshold(self):
        # B = 1, K = 1, lambda = 0, a = 1: fires iff b > 1 + 2/(1 - e^-2)
        k = curvature(constant(1.0), b=1.0, validate=False)
        assert check_main_B2(k, 1.0, 3.5, 0.0).status is SAT
        assert check_main_B2(k, 1.0, 3.0, 0.0).status is INC
        v = check_main_B2(k, 1.0, 3.5, 0.0)
        assert v.witness["rhs_compact"] == 2.0
        assert v.witness["lhs_compact"] == pytest.approx(
            (1.0 - math.exp(-2.0)) * 2.5, rel=1e-9)

    def test_compact_form_equivalent_to_general(self):
        # (1 - e^{-2Ba}) lhs > 2B  <=>  lhs > rhs with the general formula
        k = curvature(constant(1.0), b=1.0, validate=False)
        v = check_main_B2(k, 1.0, 3.5, 0.0)
        assert 2.0 / (1.0 - math.exp(-2.0)) == pytest.approx(v.witness["rhs"],
                                                             rel=1e-12)

    def test_limit_form_lambda_one(self):
        # B = 0, lambda = 1: threshold 1 + (1/4) log(b/a)
        k = curvature(constant(1.0))
        v = check_main_B2(k, 1.0, 2.0, 1.0)
        assert v.status is SAT
        assert v.witness["lhs"] == pytest.approx(1.5, rel=1e-10)
        assert v.witness["rhs"] == pytest.approx(1.0 + 0.25 * math.log(2.0))

    def test_limit_form_matches_nehari_shape(self):
        # B = 0, lambda != 1 limit: (2-l)^2/(4(1-l) a^(1-l)) - l^2/(4(1-l) b^(1-l))
        k = curvature(constant(1.0))
        v = check_main_B2(k, 1.0, 2.0, 0.5)
        expected = (1.5 ** 2 / (4.0 * 0.5) - 0.25 / (4.0 * 0.5 * 2.0 ** 0.5))
        assert v.witness["rhs"] == pytest.approx(expected, rel=1e-12)

    def test_hyperbolic_violated_over_grid(self):
        k = curvature(constant(-1.0), b=1.0)
        assert search_main_B2(k).status is VIO

    def test_search_counts_evaluated_instances(self):
        k = curvature(constant(1.0), b=1.0, validate=False)
        # (a, b) pairs with b <= a are skipped: (1, 1.5), (1, 3), (2, 3)
        v = search_main_B2(k, a_grid=[1.0, 2.0], b_grid=[1.5, 3.0])
        assert v.witness["grid_points"] == 3 * 7
        assert search_main_B2(k).witness["grid_points"] == 5 * 7 * 7

    def test_search_without_b_above_a_raises(self):
        # also an a <= 0 anywhere in the grid, not only in first place
        for a_grid, b_grid in (([2.0], [1.0]), ([1.0, 0.0], [2.0])):
            with pytest.raises(InvalidParams):
                search_main_B2(CurvatureProfile(constant(1.0)), a_grid=a_grid,
                               b_grid=b_grid)

    @pytest.mark.parametrize("c", [0.5, 1.0])
    def test_search_ties_go_to_first_instance(self, c):
        # for K = c t^-2 at lambda = 1 both sides depend on b/a only, so the
        # five a values tie; the first instance in scan order is reported
        v = search_main_B2(curvature(power(c, -2.0)))
        assert (v.witness["a"], v.witness["b"], v.witness["lambda"]) == (0.25, 7.5, 1.0)

    def test_margin_monotone_in_b(self):
        k = curvature(constant(1.0), b=1.0, validate=False)
        for lam in (0.0, 0.5, 1.0):
            margins = [check_main_B2(k, 1.0, b, lam).witness["lhs"]
                       - check_main_B2(k, 1.0, b, lam).witness["rhs"]
                       for b in np.linspace(1.5, 12.0, 12)]
            assert all(m2 >= m1 - 1e-12 for m1, m2 in zip(margins, margins[1:]))

    def test_invalid_interval(self):
        with pytest.raises(InvalidParams):
            check_main_B2(curvature(constant(1.0)), 2.0, 1.0, 0.0)


class TestFirstZero:
    def test_flat_volume_with_negative_bound(self):
        pair = CoefficientPair(constant(1.0), constant(1.0), b_const=1.0,
                               validate=False)
        v = check_first_zero(pair, 0.0, 3.0)
        assert v.status is SAT
        assert v.witness["lhs"] == pytest.approx(3.0, rel=1e-10)
        assert v.witness["rhs"] == 2.0

    def test_b_zero_limit_threshold(self):
        # v = s^2, W = 1/s^2: threshold is the analytic limit 1/(tail of 1/v) = b
        pair = CoefficientPair(power(1.0, 2.0), power(1.0, -2.0), b_const=0.0,
                               t_start=1.0, validate=False)
        v = check_first_zero(pair, 1.0, 3.0)
        assert v.status is INC
        assert v.witness["lhs"] == pytest.approx(2.0, rel=1e-10)
        assert v.witness["rhs"] == pytest.approx(3.0, rel=1e-10)

    def test_zero_potential_never_fires(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=0.0)
        assert check_first_zero(pair, 1.0, 3.0).status is INC

    def test_threshold_case_split(self):
        non_l1 = CoefficientPair(power(1.0, 1.0), constant(0.0), b_const=1.0)
        assert first_zero_threshold(non_l1, 2.0) == 2.0
        l1 = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=1.0)
        vb = math.exp(2.0 * 0.5)  # V(2, inf) with int = 1/2
        assert first_zero_threshold(l1, 2.0) == pytest.approx(
            2.0 * vb / (vb - 1.0), rel=1e-9)

    def test_missing_tail_raises(self):
        from sturmosc import Profile
        bare_v = Profile(lambda t: np.asarray(t) ** 2, sign="nonnegative")
        pair = CoefficientPair(bare_v, constant(1.0), b_const=0.0,
                               validate=False)
        with pytest.raises(TailInfoMissing):
            check_first_zero(pair, 1.0, 2.0)


class TestOscillation:
    def test_products_to_constant_above_one(self):
        pair = CoefficientPair(power(1.0, 2.0), power(2.0, -2.0), b_const=0.0,
                               t_start=1.0, validate=False)
        v = check_oscillation(pair, 1.0)
        assert v.status is SAT
        assert v.witness["certified_limsup"] == pytest.approx(2.0)

    def test_products_to_constant_below_one(self):
        pair = CoefficientPair(power(1.0, 2.0), power(0.5, -2.0), b_const=0.0,
                               t_start=1.0, validate=False)
        assert check_oscillation(pair, 1.0).status is INC

    def test_product_vanishing_inconclusive(self):
        # Wv = 2/s^2 has a convergent integral: the product limit is 0
        pair = CoefficientPair(power(1.0, 2.0), power(2.0, -4.0), b_const=0.0,
                               t_start=1.0, validate=False)
        v = check_oscillation(pair, 1.0)
        assert v.status is INC
        assert v.witness["certified_limsup"] == 0.0

    def test_window_branch_divergent(self):
        pair = CoefficientPair(constant(1.0), constant(1.0), b_const=1.0,
                               t_start=1.0, validate=False)
        v = check_oscillation(pair, 1.0)
        assert v.status is SAT
        assert v.witness["certified_limit"] == math.inf

    def test_window_branch_decreasing(self):
        pair = CoefficientPair(constant(1.0), constant(-1.0), b_const=1.0,
                               t_start=1.0, validate=False)
        v = check_oscillation(pair, 1.0)
        assert v.status is INC
        assert v.witness["window_sup"] == pytest.approx(0.0, abs=1e-9)


class TestMooreLiminf:
    def test_euler_in_disguise(self):
        assert check_moore_liminf(moore_pair(0.3), 1.0, 0.26).status is SAT

    def test_below_threshold(self):
        v = check_moore_liminf(moore_pair(0.2), 1.0, 0.26)
        assert v.status is INC
        assert v.witness["certified_liminf"] == pytest.approx(0.2)

    def test_zero_potential(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=0.0)
        assert check_moore_liminf(pair, 1.0, 0.26).status is INC

    def test_threshold_must_beat_quarter(self):
        with pytest.raises(InvalidParams):
            check_moore_liminf(moore_pair(0.3), 1.0, 0.25)

    def test_needs_integrable_volume_reciprocal(self):
        pair = CoefficientPair(constant(1.0), constant(1.0), b_const=1.0,
                               t_start=1.0, validate=False)
        with pytest.raises(InvalidParams):
            check_moore_liminf(pair, 1.0, 0.3)


class TestLeighton:
    @pytest.mark.parametrize("exponent,expected", [
        (0.0, SAT), (-1.0, SAT), (-2.0, INC)])
    def test_divergence_classes(self, exponent, expected):
        pair = CoefficientPair(constant(1.0), power(1.0, exponent),
                               b_const=1.0, t_start=1.0, validate=False)
        assert check_leighton(pair).status is expected

    def test_wrong_branch_rejected(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(1.0), b_const=0.0)
        with pytest.raises(InvalidParams):
            check_leighton(pair)


class TestBmr:
    def test_unit_potential_fires(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(1.0), b_const=0.0)
        v = check_bmr(pair, 1.0)
        assert v.status is SAT
        assert v.witness["sqrt_chi_coefficient"] == pytest.approx(0.5)

    def test_zero_potential_inconclusive(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=0.0)
        assert check_bmr(pair, 1.0).status is INC

    def test_critical_potential_inconclusive(self):
        # W = chi = 1/(4 t^2) exactly: the integrand vanishes to leading order
        pair = CoefficientPair(power(1.0, 2.0), power(0.25, -2.0), b_const=0.0,
                               t_start=1.0, validate=False)
        assert check_bmr(pair, 1.0).status is INC

    def test_negative_potential_rejected(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(-0.1), b_const=1.0,
                               validate=False)
        with pytest.raises(HypothesisViolated):
            check_bmr(pair, 1.0)


class TestDiameterRemark:
    def test_unit_curvature_flip(self):
        k = curvature(constant(1.0))
        assert check_diameter_remark(k, 10.0).status is SAT
        assert check_diameter_remark(k, 9.0).status is INC

    def test_flat_never_fires(self):
        k = curvature(constant(0.0))
        for d in (1.0, 10.0, 100.0):
            assert check_diameter_remark(k, d).status is INC

    def test_satisfied_margin_invariant(self):
        v = check_diameter_remark(curvature(constant(1.0)), 10.0)
        tol = 1e-10
        assert v.witness["lhs"] - v.witness["rhs"] > 10 * tol * (
            1.0 + max(abs(v.witness["lhs"]), abs(v.witness["rhs"])))


class TestVerdictSerialization:
    def test_round_trip_dict(self):
        v = check_myers_galloway(1.0, 0.0, 2)
        d = v.to_dict()
        assert d["criterion"] == "myers_galloway"
        assert d["status"] == "satisfied"
        assert d["conclusion"] == "diameter_bound"
        assert set(d) == {"criterion", "status", "conclusion", "witness",
                          "notes"}


class TestSolverSoundness:
    def test_moment_criterion_confirmed_by_conjugate_points(self):
        # a firing weighted-moment verdict must be backed by an actual
        # conjugate point of the normalized solution
        from sturmosc import solve_jacobi
        from conftest import random_curvature
        rng = np.random.default_rng(31415)
        fired = 0
        for _ in range(12):
            k = random_curvature(rng)
            if search_main_B2(k).status is SAT:
                fired += 1
                traj = solve_jacobi(k, horizon=1e2, zero_cap=1)
                assert traj.zeros, f"no conjugate point for {k.k.label}"
        assert fired >= 4

    def test_oscillation_soundness_fast_oscillators(self):
        # satisfied oscillation verdicts backed by >= 3 certified zeros;
        # members chosen with zero spacing well inside the horizon (slowly
        # oscillating threshold cases are covered by the acceptance notes)
        from sturmosc import solve_radial
        window_pair = CoefficientPair(constant(1.0), constant(1.0),
                                      b_const=1.0, t_start=1.0, validate=False)
        product_pair = CoefficientPair(power(1.0, 2.0), power(2.0, -2.0),
                                       b_const=0.0, t_start=1.0,
                                       validate=False)
        for pair in (window_pair, product_pair):
            verdict = check_oscillation(pair, 1.0)
            assert verdict.status is SAT
            traj = solve_radial(pair, 1.0, horizon=1e4, zero_cap=3)
            assert len(traj.zeros) >= 3
        moore = check_moore_liminf(moore_pair(2.0), 1.0, 0.26)
        assert moore.status is SAT
        traj = solve_radial(moore_pair(2.0), 1.0, horizon=1e4, zero_cap=3)
        assert len(traj.zeros) >= 3
