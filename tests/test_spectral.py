import math

import numpy as np
import pytest

from sturmosc import (CoefficientPair, HypothesisViolated, InvalidParams,
                      NonFiniteSample, NoZeroAtT2, Profile, Status, TailInfoMissing,
                      check_first_zero, check_yamabe, constant, index_lower_bound,
                      instability_at_infinity, lambda1_negative, power,
                      rayleigh_quotient, solve_radial, spectral_report,
                      yamabe_constant)
from sturmosc.criteria import Conclusion
from conftest import euler_pair, moore_pair, pole_pair


class TestRayleighQuotient:
    def test_vanishes_at_certified_zero(self, sinc_pair):
        traj = solve_radial(sinc_pair, 1.0, horizon=10.0)
        q = rayleigh_quotient(sinc_pair, traj, math.pi)
        assert abs(q) <= 1e-6

    def test_vanishes_at_second_zero_too(self, sinc_pair):
        traj = solve_radial(sinc_pair, 1.0, horizon=10.0)
        q = rayleigh_quotient(sinc_pair, traj, 2 * math.pi)
        assert abs(q) <= 1e-6

    def test_no_zero_raises(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=0.0)
        traj = solve_radial(pair, 1.0, horizon=10.0)
        with pytest.raises(NoZeroAtT2):
            rayleigh_quotient(pair, traj, 3.0)

    def test_euler_first_zero(self):
        pair = euler_pair(0.3)
        traj = solve_radial(pair, 1.0, horizon=100.0)
        t2 = traj.zeros[0].location
        assert abs(rayleigh_quotient(pair, traj, t2)) <= 1e-6


class TestLambda1Negative:
    def test_delegation_coherence(self):
        cases = [
            (CoefficientPair(constant(1.0), constant(1.0), b_const=1.0,
                             validate=False), 0.0, 3.0),
            (moore_pair(0.5), 1.0, 3.0),
            (CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=0.0),
             1.0, 2.0),
        ]
        for pair, a, b in cases:
            left = lambda1_negative(pair, a, b)
            right = check_first_zero(pair, a, b)
            assert left.status == right.status
            assert left.witness["lhs"] == right.witness["lhs"]

    def test_satisfied_relabels_conclusion(self):
        pair = CoefficientPair(constant(1.0), constant(1.0), b_const=1.0,
                               validate=False)
        v = lambda1_negative(pair, 0.0, 3.0)
        assert v.satisfied
        assert v.conclusion is Conclusion.NEGATIVE_BOTTOM_SPECTRUM

    def test_zero_potential_inconclusive(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=0.0)
        assert lambda1_negative(pair, 1.0, 2.0).status is Status.INCONCLUSIVE


class TestInstabilityAtInfinity:
    def test_delegates_and_relabels(self):
        pair = CoefficientPair(constant(1.0), constant(1.0), b_const=1.0,
                               t_start=1.0, validate=False)
        v = instability_at_infinity(pair, 1.0)
        assert v.satisfied
        assert v.conclusion is Conclusion.UNSTABLE_AT_INFINITY
        assert "infinite index" in v.notes

    def test_inconclusive_case(self):
        pair = CoefficientPair(constant(1.0), constant(-1.0), b_const=1.0,
                               t_start=1.0, validate=False)
        assert instability_at_infinity(pair, 1.0).status is Status.INCONCLUSIVE


class TestIndexLowerBound:
    def test_sinc_three_nodal_zeros(self, sinc_pair):
        # zeros of sin(t)/t at pi, 2pi, 3pi all sit inside horizon 10
        assert index_lower_bound(sinc_pair, 10.0) == 3

    def test_zero_potential(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=0.0)
        assert index_lower_bound(pair, 10.0) == 0

    def test_slow_euler_single_zero(self):
        # log-periodic zeros: exactly one certified zero up to 1e4 at mu = 0.3
        assert index_lower_bound(euler_pair(0.3), 1e4) == 1

    def test_monotone_in_horizon(self, sinc_pair):
        counts = [index_lower_bound(sinc_pair, h) for h in (2.0, 4.0, 7.0, 10.0)]
        assert counts == sorted(counts)
        assert counts[0] == 0 and counts[-1] == 3


class TestSpectralReport:
    def test_oscillatory_pair_report(self):
        pair = CoefficientPair(constant(1.0), constant(1.0), b_const=1.0,
                               t_start=1.0, validate=False)
        report = spectral_report(pair, a=1.0, b=4.0, radii=(1.0, 10.0, 100.0),
                                 horizon=400.0)
        assert report.lambda1_sign == "certified_negative"
        assert report.unstable_radii == (1.0, 10.0, 100.0)
        assert report.index_lower_bound >= 3
        for _, q in report.rayleigh_values:
            assert abs(q) <= 1e-5
        d = report.to_dict()
        assert d["lambda1_sign"] == "certified_negative"

    def test_breakdown_noted(self):
        # the solve breaks down at the pole t = 2; the radius 3 keeps the
        # oscillation check's tail integral clear of the pole
        report = spectral_report(pole_pair(), a=1.2, b=1.8, radii=(3.0,),
                                 horizon=5.0)
        note = report.notes.split("; ")[-1]
        assert note.startswith("solver broke down at t = ")
        assert float(note.split()[-1]) == pytest.approx(2.0, abs=1e-6)

    def test_quiet_pair_report(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=0.0)
        report = spectral_report(pair, a=1.0, b=2.0, horizon=50.0)
        assert report.lambda1_sign == "unknown"
        assert report.index_lower_bound == 0
        assert report.rayleigh_values == ()


class TestYamabe:
    def test_constants(self):
        assert yamabe_constant(3) == pytest.approx(8.0)
        assert yamabe_constant(4) == pytest.approx(6.0)
        with pytest.raises(InvalidParams):
            yamabe_constant(2)

    def test_zero_scalar_curvature_inconclusive(self):
        v = check_yamabe(constant(0.0), 3, power(1.0, 2.0), 1.0, 1.0, 3.0)
        assert v.status is Status.INCONCLUSIVE
        assert v.witness["c_m"] == 8.0

    def test_negative_scalar_curvature_fires(self):
        # S = -1 on v = t^2 with B = 0: lhs = (b^3 - a^3)/3 vs c_m b,
        # which crosses at b ~ 4.9
        v = check_yamabe(constant(-1.0), 3, power(1.0, 2.0), 0.0, 1.0, 6.0)
        assert v.status is Status.SATISFIED
        assert v.conclusion is Conclusion.CONFORMAL_DEFORMATION
        assert v.witness["lhs"] == pytest.approx(215.0 / 3.0, rel=1e-9)
        assert v.witness["rhs"] == pytest.approx(8.0 * 6.0, rel=1e-9)
        below = check_yamabe(constant(-1.0), 3, power(1.0, 2.0), 0.0, 1.0, 4.0)
        assert below.status is Status.INCONCLUSIVE

    def test_saturated_growth_factor_threshold(self):
        # int_1^inf 1/v = 1000, so V(b, inf) overflows and the threshold
        # is its limit 2 c_m B
        v = check_yamabe(constant(-1.0), 3, power(1e-3, 2.0), 1.0, 0.5, 1.0)
        assert v.witness["rhs"] == 16.0

    def test_hypothesis_violated(self):
        with pytest.raises(HypothesisViolated):
            check_yamabe(constant(1.0), 3, power(1.0, 2.0), 0.0, 1.0, 3.0)

    @pytest.mark.parametrize("s_mean,v", [
        (Profile(lambda t: np.where(t > 5.0, np.nan, -1.0)), power(1.0, 2.0)),
        (constant(-1.0), Profile(lambda t: np.where(t > 5.0, np.nan, t * t))),
    ], ids=["S", "v"])
    def test_nan_sample_raises(self, s_mean, v):
        # the grid reaches 10 b = 30; a NaN would pass S <= c_m B^2 / v
        with pytest.raises(NonFiniteSample, match=r"S or c_m B\^2 / v is NaN near t = "):
            check_yamabe(s_mean, 3, v, 0.0, 1.0, 3.0)

    def test_undecided_integrability_is_missing_tail_info(self):
        bare_v = Profile(lambda t: np.asarray(t) ** 2, sign="nonnegative")
        with pytest.raises(TailInfoMissing, match="integrability of 1/v"):
            check_yamabe(constant(-1.0), 3, bare_v, 1.0, 1.0, 3.0)
