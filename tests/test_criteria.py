import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sturmosc import (AsymptoticTail, CoefficientPair, CurvatureProfile,
                      HypothesisViolated, InvalidParams, NonFiniteSample, Profile, Status, TailInfoMissing,
                      add, check_ambrose_moore, check_bmr, check_calabi,
                      check_diameter_remark, check_first_zero, check_leighton,
                      check_main_B2, check_moore_liminf, check_myers_galloway,
                      check_nehari, check_oscillation, constant,
                      exponential, first_zero_threshold, multiply, power,
                      search_main_B2)
from sturmosc import cli, criteria, profiles
from sturmosc.criteria import (_CONCLUSIONS, LAMBDA_GRID, Conclusion, Verdict,
                               _main_b2_rhs, _main_b2_verdict, _sample_nonnegative,
                               _strict_margin)
from sturmosc.profiles import DEFAULT_TOL, cumulative
from conftest import EMITTED_NAMES, big_v, moore_pair

SAT = Status.SATISFIED
INC = Status.INCONCLUSIVE
VIO = Status.VIOLATED

# _main_b2_rhs against 50 digits: every term is positive, so the sum is good
# to a few roundings; four ulps of 1 bound it
RHS_ULPS = 4 * 2.0 ** -52


def main_b2_rhs_mp(a, b, lam, b_const, coth_a=None):
    """B b^lam + a^lam B coth(B a) + the lambda term, at 50 digits."""
    with mpmath.workdps(50):
        a, b, lam, B = (mpmath.mpf(x) for x in (a, b, lam, b_const))
        if coth_a is None:
            band = 1 / a if B == 0 else B * mpmath.coth(B * a)
        else:
            band = B * coth_a
        tail = (mpmath.log(b / a) / 4 if lam == 1 else
                lam ** 2 / (4 * (1 - lam)) * (a ** (lam - 1) - b ** (lam - 1)))
        return B * b ** lam + a ** lam * band + tail


def _rel_error(value, exact):
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(value) / exact - 1))


@st.composite
def main_b2_instances(draw):
    """(a, b, lambda, B): B = 0 or log-uniform in [1e-300, 1e2], a
    log-uniform in [1e-3, 1e3] with 2 B a <= 800, and b/a in (1, 1e3]."""
    lam = draw(st.sampled_from(LAMBDA_GRID))
    b_const = draw(st.just(0.0) | st.floats(-300.0, 2.0).map(lambda e: 10.0 ** e))
    a_max = 3.0 if b_const == 0.0 else min(3.0, math.log10(400.0 / b_const))
    a = 10.0 ** draw(st.floats(-3.0, a_max))
    b = a * 10.0 ** draw(st.floats(1e-6, 3.0))
    return a, b, lam, b_const


def curvature(profile, b=0.0, m=2, validate=True):
    return CurvatureProfile(profile, b_const=b, m=m, validate=validate)


class TestSampledSign:
    @staticmethod
    def past_100(far, near):
        return Profile(lambda t: np.where(t > 100.0, far, near))

    def test_nan_sample_raises(self):
        with pytest.raises(NonFiniteSample, match="K is NaN near t = 1"):
            _sample_nonnegative(self.past_100(np.nan, 1.0), 1.0, 1e4, "K")

    def test_minus_inf_sample_fails(self):
        with pytest.raises(HypothesisViolated, match="min -inf"):
            _sample_nonnegative(self.past_100(-np.inf, 1.0), 1.0, 1e4, "K")

    def test_plus_inf_sample_does_not_widen_the_slack(self):
        # the slack scales with the finite samples only, so -0.5 still fails
        with pytest.raises(HypothesisViolated, match="min -0.5"):
            _sample_nonnegative(self.past_100(np.inf, -0.5), 1.0, 1e4, "K")

    def test_overflow_of_a_growing_profile_passes(self):
        _sample_nonnegative(Profile(lambda t: np.where(t > 100.0, np.inf, t)), 1.0, 1e4, "K")

    def test_negative_stretch_of_a_growing_profile_fails(self):
        # K = e^t - 2 is -0.999 at t = 1e-3; a slack relative to the largest
        # sample, 1e-12 (1 + e^30) = 10.7, would let it pass as K >= 0
        k = curvature(add(exponential(1.0, 1.0), constant(-2.0)), b=2.0, validate=False)
        with pytest.raises(HypothesisViolated, match=r"K >= 0 fails on samples \(min -0.998999\)"):
            check_nehari(k, 0, 1e-3, horizon=30)
        with pytest.raises(HypothesisViolated, match=r"min -0.998999\)"):
            check_calabi(k, horizon=30)

    def test_bmr_with_nan_samples_of_w_raises(self):
        # W declares the tail 0.3/t, but its samples past t = 2e3 are NaN
        w = Profile(lambda t: np.where(t > 2e3, np.nan, 0.3 / t),
                    tail=AsymptoticTail(0.3, -1.0, exact=False))
        pair = CoefficientPair(power(1.0, 2.0), w, b_const=0.0, validate=False)
        with pytest.raises(NonFiniteSample, match="W is NaN"):
            check_bmr(pair, 1.0)


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


def search_main_B2_loop(k, tol=DEFAULT_TOL):
    """Per-instance reference for :func:`search_main_B2` on its default grid:
    one verdict per instance, the best scaled margin winning by more than
    the tolerance."""
    intervals = [(float(a), float(b)) for a in np.geomspace(0.25, 4.0, 5)
                 for b in np.geomspace(1.5 * a, 30.0 * a, 7)]
    ends = sorted({t for ab in intervals for t in ab})
    at = {t: i for i, t in enumerate(ends)}
    moments = {lam: cumulative(multiply(power(1.0, lam), k.k), ends, tol=tol)
               for lam in LAMBDA_GRID}
    best = best_margin = None
    for a, b in intervals:
        for lam in LAMBDA_GRID:
            lhs = float(moments[lam][at[b]] - moments[lam][at[a]])
            v = _main_b2_verdict(k, a, b, float(lam), lhs, tol)
            margin = ((v.witness["lhs"] - v.witness["rhs"])
                      / (1.0 + abs(v.witness["rhs"])))
            if best is None or _strict_margin(margin, best_margin, tol):
                best, best_margin = v, margin
    witness = dict(best.witness)
    witness["grid_points"] = float(len(intervals) * len(LAMBDA_GRID))
    return Verdict("main_b2", best.status, witness, best.notes)


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

    @pytest.mark.parametrize("k", [
        curvature(power(0.5, -2.0)), curvature(power(1.0, -2.0)),
        curvature(constant(1.0), b=1.0, validate=False),
        curvature(constant(-1.0), b=1.0)],
        ids=["tie_half", "tie_one", "unit", "hyperbolic"])
    def test_search_matches_per_instance_loop(self, k, monkeypatch):
        expected = search_main_B2_loop(k).to_dict()
        calls = []

        def counted(*args):
            calls.append(args)
            return _main_b2_verdict(*args)

        monkeypatch.setattr(criteria, "_main_b2_verdict", counted)
        assert search_main_B2(k).to_dict() == expected
        assert len(calls) == 1

    @given(st.floats(-2.0, 2.0),
           st.sampled_from([-2.5, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
           st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_search_matches_per_instance_loop_on_powers(self, c, p, b):
        k = curvature(power(c, p), b=b, validate=False)
        assert search_main_B2(k).to_dict() == search_main_B2_loop(k).to_dict()

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

    def test_large_b_a_does_not_overflow(self):
        # 2 B a = 800: exp(2 B a) overflows, coth(B a) is 1.0
        v = check_main_B2(curvature(constant(-1e4), b=100.0), 4.0, 8.0, 0.0)
        assert v.status is VIO
        assert v.witness["rhs"] == 200.0

    @pytest.mark.parametrize("b_const", [1e-17, 1e-300, 5e-324])
    def test_tiny_b_rhs_is_the_b_zero_limit(self, b_const):
        # exp(2 B a) rounds to 1.0, so coth(B a) is no ratio of exponentials
        for lam in (0.0, 0.5, 1.0):
            v = check_main_B2(curvature(constant(1.0), b=b_const), 0.5, 2.0, lam)
            flat = check_main_B2(curvature(constant(1.0)), 0.5, 2.0, lam)
            assert v.witness["rhs"] == pytest.approx(flat.witness["rhs"], rel=1e-15)
            assert v.status is flat.status

    @pytest.mark.parametrize("two_ba", [1.0, 20.0, 37.0, 37.5, 39.9, 40.0, 45.0, 700.0])
    def test_coth_matches_the_unclamped_ratio(self, two_ba):
        # coth(B a) = (e + 1)/(e - 1) with e = exp(2 B a) unclamped, at 50
        # digits: around the band's cut at 2 B a = 40 and the old clamp at 37.43
        b_const, a = 100.0, two_ba / 200.0
        with mpmath.workdps(50):
            e = mpmath.exp(2 * mpmath.mpf(b_const) * mpmath.mpf(a))
            coth_a = (e + 1) / (e - 1)
        for lam in (0.0, 0.5, 1.0):
            v = check_main_B2(curvature(constant(1.0), b=b_const, validate=False),
                              a, 6.0, lam)
            assert _rel_error(v.witness["rhs"], main_b2_rhs_mp(a, 6.0, lam, b_const,
                                                               coth_a)) <= RHS_ULPS

    @given(main_b2_instances())
    @example((0.25, 7.5, 0.0, 1e-12))          # 2 B a = 5e-13: the ratio was 9e-5 low
    @example((0.5, 3.0, 1.0, 1e-8 / 0.5))      # B a at the band's 1/x cut
    @example((1.0, 2.0, 2.0, 20.0))            # B a at the band's b cut
    @example((1e3, 2e3, 1.5, 0.4))             # 2 B a = 800
    @settings(max_examples=300, deadline=None)
    def test_rhs_matches_mpmath(self, instance):
        a, b, lam, b_const = instance
        assert _rel_error(_main_b2_rhs(a, b, lam, b_const),
                          main_b2_rhs_mp(a, b, lam, b_const)) <= RHS_ULPS

    def test_tiny_two_b_a_is_not_satisfied(self):
        # lhs 3.9999 sits 1e-4 below the true rhs 4 + 1e-12; the ratio
        # form of coth(B a) gave rhs 3.99964 and SATISFIED
        k = CurvatureProfile(constant(3.9999 / 7.25), b_const=1e-12, validate=False)
        v = check_main_B2(k, 0.25, 7.5, 0.0)
        assert v.status is INC
        assert v.witness["rhs"] == pytest.approx(4.0 + 1e-12, rel=0.0, abs=1e-15)


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

    @pytest.mark.parametrize("b", [1e20, 1e30])
    def test_tiny_b_threshold_is_the_b_zero_limit(self, b):
        # 2 B x underflows (B = 1e-300, x = 1/b): the threshold is 1/x = b,
        # not a division by an expm1 of a subnormal or of 0
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=1e-300,
                               t_start=1.0)
        assert first_zero_threshold(pair, b) == pytest.approx(b, rel=1e-15)
        v = check_first_zero(pair, 1.0, b)
        assert v.status is INC
        assert v.witness["rhs"] == pytest.approx(b, rel=1e-15)

    @given(st.floats(0.05, 5.0), st.floats(1.2, 4.0), st.floats(0.3, 3.0),
           st.floats(1.0, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_threshold_is_two_b_v_over_v_minus_one(self, B, q, a, b):
        # the growth-factor form 2B V/(V - 1), V = V(b, inf), as a second
        # route; V - 1 cancels, so it carries V/(V - 1) roundings of V
        pair = CoefficientPair(power(a, q), constant(0.0), b_const=B, t_start=1.0)
        V = big_v(pair, b, math.inf)
        assert first_zero_threshold(pair, b) == pytest.approx(
            2.0 * B * V / (V - 1.0), rel=1e-14 * V / (V - 1.0))

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

    @pytest.mark.parametrize("v,w,limit", [
        (power(1.0, 2.0), power(0.3, -2.0), 0.3),                  # pow x pow, tie
        (power(1.0, 2.0), constant(1.0), math.inf),                # pow x pow, grows
        (power(1.0, 2.0), power(1.0, -3.0), 0.0),                  # log growth
        (power(1.0, 2.0), constant(0.0), 0.0),                     # c = 0
        (exponential(1.0, 1.0), exponential(2.0, -1.0), 0.0),      # pow x exp decay
        (exponential(1.0, 1.0), constant(3.0), 3.0),               # exp x exp, tie
        (exponential(1.0, 1.0), exponential(1.0, 0.5), math.inf),  # exp x exp, grows
        (exponential(1.0, 2.0), exponential(1.0, -1.0), 0.0),      # exp x exp, vanishes
        (power(1.0, 2.0), exponential(1.0, 1.0), math.inf),        # exp x pow
        # W v ~ t^(1 + 2^-52): the float exponent sum 2 + 2^-52 rounds to 2
        (power(1.0, 3.0), power(1.0, math.nextafter(-2.0, 0.0)), math.inf),
        # v = -t^2, W = -e^t/t^2: the tail integral of 1/v is negative
        (power(-1.0, 2.0), multiply(exponential(-1.0, 1.0), power(1.0, -2.0)),
         -math.inf),
        # W v ~ t^(8.1 - 4.4e-16): the float exponent sum rounds onto the tie
        # 8.1, which would certify 166/81.81 > 1 for a product tending to 0
        (power(1.0, 10.1), power(166.0, math.nextafter(-2.0, -math.inf)), 0.0),
    ], ids=["pow_tie", "pow_grow", "log", "zero", "exp_decay", "exp_tie",
            "exp_grow", "exp_vanish", "exp_pow", "rounded_tie",
            "exp_pow_negative", "rounded_sum_below_tie"])
    def test_certified_product_limits(self, v, w, limit):
        pair = CoefficientPair(v, w, t_start=1.0, validate=False)
        verdict = check_oscillation(pair, 1.0, horizon=30.0)
        assert verdict.witness["certified_limsup"] == limit
        assert verdict.status is (SAT if limit > 1.0 else INC)

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


def bare_pair(integrable=None):
    """v = t^2 from a bare evaluator (no tail), integrability as declared."""
    bare_v = Profile(lambda t: np.asarray(t) ** 2, sign="nonnegative")
    return CoefficientPair(bare_v, power(0.3, -2.0), t_start=1.0,
                           v_inv_l1_at_infinity=integrable, validate=False)


# each checker that branches on the integrability of 1/v at +inf
INTEGRABILITY_CHECKS = {
    "first_zero_threshold": lambda pair: first_zero_threshold(pair, 2.0),
    "oscillation": lambda pair: check_oscillation(pair, 1.0, horizon=30.0),
    "leighton": check_leighton,
    "moore_liminf": lambda pair: check_moore_liminf(pair, 1.0, 0.3, horizon=30.0),
    "bmr": lambda pair: check_bmr(pair, 1.0, horizon=30.0),
}


@pytest.mark.parametrize("check", INTEGRABILITY_CHECKS.values(), ids=INTEGRABILITY_CHECKS)
def test_undecided_integrability_is_missing_tail_info(check):
    # an undecided pair lacks information: it is not a wrong parameter
    with pytest.raises(TailInfoMissing, match="integrability of 1/v at \\+inf"):
        check(bare_pair())


@pytest.mark.parametrize("check, integrable", [
    (check_leighton, True),
    (INTEGRABILITY_CHECKS["moore_liminf"], False),
    (INTEGRABILITY_CHECKS["bmr"], False)], ids=["leighton", "moore_liminf", "bmr"])
def test_declared_wrong_branch_is_invalid(check, integrable):
    with pytest.raises(InvalidParams):
        check(bare_pair(integrable))


class TestMooreLiminf:
    def test_euler_in_disguise(self):
        assert check_moore_liminf(moore_pair(0.3), 1.0, 0.26).status is SAT

    def test_rounded_exponent_sum_is_no_tie(self):
        # the exact exponent of W v is 4.4e-16 below 8.1: the product tends to 0
        pair = CoefficientPair(power(1.0, 10.1),
                               power(166.0, math.nextafter(-2.0, -math.inf)),
                               t_start=1.0, validate=False)
        v = check_moore_liminf(pair, 1.0, 1.0)
        assert v.status is INC
        assert v.witness["certified_liminf"] == 0.0

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

    def test_witness_is_the_running_integral(self):
        # sqrt(W) - sqrt(chi) = (sqrt(0.5) - 1/2)/t on v = t^2, W = 0.5/t^2
        pair = CoefficientPair(power(1.0, 2.0), power(0.5, -2.0), t_start=1.0)
        witness = check_bmr(pair, 1.0, horizon=1e4).witness
        exact = (math.sqrt(0.5) - 0.5) * math.log(1e4)
        assert witness["cumulative_last"] == pytest.approx(exact, rel=1e-8)
        assert witness["cumulative_max"] == pytest.approx(exact, rel=1e-8)

    def test_witness_past_the_float_range_is_nan(self):
        # v = e^{t/4} overflows past t ~ 2840; the status comes from the tails
        pair = CoefficientPair(exponential(1.0, 0.25), constant(1.0), t_start=0.1)
        verdict = check_bmr(pair, 1.0)
        assert verdict.status is SAT
        assert verdict.witness["sqrt_chi_coefficient"] == 0.125
        assert math.isnan(verdict.witness["cumulative_max"])
        assert math.isnan(verdict.witness["cumulative_last"])

    def test_exponential_tail_witness_takes_one_integrate_err(self, monkeypatch):
        # every first panel accepts: one integrand call, whose grid tail of
        # 1/v = e^{-2t} is one float-route tail and one running integral
        pair = CoefficientPair(exponential(1.0, 2.0), constant(2.0), t_start=1.0,
                               validate=False)
        calls = []
        real = profiles.integrate_err
        monkeypatch.setattr(profiles, "integrate_err",
                            lambda *a, **k: calls.append(a[1:3]) or real(*a, **k))
        witness = check_bmr(pair, 1.0, horizon=10.0).witness
        assert len(calls) == 1
        exact = (math.sqrt(2.0) - 1.0) * 9.0
        assert witness["cumulative_last"] == pytest.approx(exact, rel=1e-8)

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

    # (v, W) -> status, sqrt(chi) and sqrt(W) coefficients, notes; sqrt(chi)
    # is 1/(2t) for v = t^2 and the constant 1 for v = e^{2t}
    @pytest.mark.parametrize("v,w,status,c_chi,sqrt_w,notes", [
        (power(1.0, 2.0), power(1.0, -2.0), SAT, 0.5, 1.0,
         "same order, larger coefficient"),
        (power(1.0, 2.0), power(0.16, -2.0), INC, 0.5, None, ""),
        (exponential(1.0, 2.0), constant(2.0), SAT, 1.0, math.sqrt(2.0),
         "same order, larger coefficient"),
        (exponential(1.0, 2.0), constant(1.0), INC, 1.0, None, ""),
        (exponential(1.0, 2.0), power(1.0, 0.5), SAT, 1.0, None,
         "sqrt(W) dominates sqrt(chi)"),
        (power(1.0, 2.0), power(1.0, -1.0), SAT, 0.5, None,
         "sqrt(W) dominates sqrt(chi)"),
        (power(1.0, 2.0), exponential(1.0, 1.0), SAT, 0.5, None, ""),
        (exponential(1.0, 2.0), power(4.0, -2.0), INC, 1.0, None, ""),
        # 1 - 1e-17 rounds to 1: not a tie, sqrt(W) - sqrt(chi) -> -inf
        (exponential(1.0, 2.0), power(4.0, -1e-17), INC, 1.0, None, ""),
    ], ids=["pow_tie_above", "pow_tie_below", "exp_tie_above", "exp_tie_equal",
            "w_above_exp_chi", "w_above_pow_chi", "w_exp_growth", "w_below",
            "w_rounded_tie"])
    def test_closed_form_classes(self, v, w, status, c_chi, sqrt_w, notes):
        pair = CoefficientPair(v, w, t_start=1.0, validate=False)
        verdict = check_bmr(pair, 1.0, horizon=10.0)
        assert verdict.status is status
        assert verdict.notes == notes
        assert verdict.witness["sqrt_chi_coefficient"] == c_chi
        assert verdict.witness.get("sqrt_w_coefficient") == sqrt_w


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


class TestConclusions:
    def test_unknown_criterion_raises(self):
        with pytest.raises(InvalidParams, match="no conclusion"):
            Verdict("no_such_criterion", SAT)

    def test_only_satisfied_licenses_the_conclusion(self):
        got = {status: Verdict("first_zero", status).conclusion
               for status in (SAT, INC, VIO)}
        assert got == {SAT: Conclusion.FIRST_ZERO_EXISTS,
                       INC: Conclusion.NONE, VIO: Conclusion.NONE}

    def test_every_cli_criterion_has_a_conclusion(self):
        assert ({EMITTED_NAMES.get(name, name) for name in cli._CRITERIA}
                == set(_CONCLUSIONS))


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
