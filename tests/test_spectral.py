import dataclasses
import math

import numpy as np
import pytest

from sturmosc import (CoefficientPair, CurvatureProfile, HypothesisViolated, InvalidParams,
                      NonFiniteSample, NoZeroAtT2, Profile, Status, TailInfoMissing,
                      check_first_zero, check_yamabe, constant, exponential,
                      index_lower_bound, instability_at_infinity,
                      lambda1_negative, power, rayleigh_quotient, solve_jacobi,
                      solve_radial, spectral_report, yamabe_constant)
from sturmosc import spectral
from sturmosc.profiles import cumulative
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


class CountingDense:
    """A trajectory's dense output that keeps the bytes of every abscissa array."""

    def __init__(self, dense):
        self.dense, self.calls = dense, []

    def __call__(self, t):
        self.calls.append(t.tobytes())
        return self.dense(t)


def counted(traj):
    return dataclasses.replace(traj, dense=CountingDense(traj.dense))


def independent_quotient(pair, traj, cuts, tol=1e-9):
    """The Rayleigh quotients at the cuts, from gradient, potential and mass
    running integrals whose integrands each sample the trajectory themselves."""
    v, w = pair.v, pair.w

    def grad_term(t):
        return v(t) * traj.derivative(t) ** 2

    def pot_term(t):
        return w(t) * v(t) * traj.value(t) ** 2

    def mass_term(t):
        return v(t) * traj.value(t) ** 2

    knots = [traj.t_start, *cuts]
    grad, pot, mass = (cumulative(term, knots, tol=tol)[1:]
                       for term in (grad_term, pot_term, mass_term))
    return (grad - pot) / mass


SHARED_SAMPLE_CASES = {
    "sinc": lambda: (CoefficientPair(power(1.0, 2.0), constant(1.0), b_const=0.0), None, 10.0),
    "v=t^2, W=2.5": lambda: (CoefficientPair(power(1.0, 2.0), constant(2.5), b_const=0.0),
                             None, 30.0),
    # u'' + u = 0 is the pair v = 1, W = 1; a Jacobi trajectory has no weight
    "jacobi K=1": lambda: (CoefficientPair(constant(1.0), constant(1.0), validate=False),
                           CurvatureProfile(constant(1.0)), 10.0),
}


@pytest.mark.parametrize("case", SHARED_SAMPLE_CASES)
def test_shared_samples_give_the_independent_quotient(case):
    pair, k, horizon = SHARED_SAMPLE_CASES[case]()
    traj = (solve_radial(pair, 1.0, horizon=horizon) if k is None
            else solve_jacobi(k, horizon))
    assert (traj.weight is None) == (k is not None)
    assert len(traj.zeros) >= 3
    cuts = [z.location for z in traj.zeros[:4]]
    ours, ref = counted(traj), counted(traj)
    q = rayleigh_quotient(pair, ours, cuts)
    assert [x.hex() for x in q.tolist()] == [
        x.hex() for x in independent_quotient(pair, ref, cuts).tolist()]
    # one dense evaluation per distinct panel, where each integrand sampled its own
    assert sorted(ours.dense.calls) == sorted(set(ref.dense.calls))
    assert len(ref.dense.calls) > len(ours.dense.calls)


# the seed-1 benchmark pair of oscillatory_solve
SEED1_PAIR = lambda: CoefficientPair(power(1.0, 2.0), constant(0.811129689), b_const=0.0)

AGREEMENT_CASES = {
    "sinc": lambda: (CoefficientPair(power(1.0, 2.0), constant(1.0), b_const=0.0), 20.0),
    "v=t^2, W=2.5": lambda: (CoefficientPair(power(1.0, 2.0), constant(2.5), b_const=0.0),
                             30.0),
    "seed-1 benchmark pair": lambda: (SEED1_PAIR(), 30.0),
}


@pytest.mark.parametrize("case", AGREEMENT_CASES)
def test_array_of_cuts_agrees_with_the_per_cut_calls(case):
    pair, horizon = AGREEMENT_CASES[case]()
    traj = solve_radial(pair, 1.0, horizon=horizon)
    cuts = [z.location for z in traj.zeros]
    assert len(cuts) >= 4
    quotients = rayleigh_quotient(pair, traj, cuts)
    singles = [rayleigh_quotient(pair, traj, cut) for cut in cuts]
    assert isinstance(singles[0], float) and quotients.shape == (len(cuts),)
    assert quotients[0].hex() == singles[0].hex()
    # later cuts sum the earlier segments' pieces, which were refined on other panels
    assert np.abs(quotients[1:] - singles[1:]).max() <= 1e-9
    assert np.abs(quotients).max() <= 1e-6
    with pytest.raises(NoZeroAtT2):
        rayleigh_quotient(pair, traj, [cuts[0], 0.5 * (cuts[0] + cuts[1])])
    with pytest.raises(InvalidParams):
        rayleigh_quotient(pair, traj, cuts[::-1])


def test_report_samples_the_nested_cuts_in_one_pass(monkeypatch):
    solves = []

    def solve(*args, **kwargs):
        solves.append(counted(solve_radial(*args, **kwargs)))
        return solves[-1]

    monkeypatch.setattr(spectral, "solve_radial", solve)
    report = spectral_report(SEED1_PAIR(), a=1.0, b=2.0, horizon=30.0)
    assert len(solves) == 1 and len(report.rayleigh_values) == 4
    # the running passes over [t_start, z_1, ..., z_4] share 12 G7-K15
    # panels; integrating each [t_start, z_k] afresh sampled 480 nodes
    nodes = sum(len(call) // 8 for call in solves[0].dense.calls)
    assert nodes <= 180


@pytest.mark.parametrize("scale", [1e-8, 1e8, 1e16])
def test_quotients_do_not_depend_on_the_scale_of_v(scale):
    """Gradient, potential and mass each meet tol relative to their own size,
    so a constant factor in v neither changes the quotients nor makes the
    quadrature chase a target below the integrands' rounding."""
    base = SEED1_PAIR()
    scaled_pair = CoefficientPair(power(scale, 2.0), base.w, b_const=0.0)
    traj = solve_radial(base, 1.0, horizon=30.0)
    cuts = [z.location for z in traj.zeros[:4]]
    assert np.abs(rayleigh_quotient(scaled_pair, traj, cuts)
                  - rayleigh_quotient(base, traj, cuts)).max() <= 1e-9
    report = spectral_report(scaled_pair, a=1.0, b=2.0, horizon=30.0)
    assert len(report.rayleigh_values) == 4
    assert max(abs(q) for _, q in report.rayleigh_values) <= 1e-6


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

    def test_witness_past_the_float_range_is_not_fatal(self):
        # the oscillation witness of W v = 0.3 e^t overflows past t ~ 709
        pair = CoefficientPair(exponential(1.0, 1.0), constant(0.3), b_const=0.0,
                               t_start=1.0)
        v = instability_at_infinity(pair, 1.0)
        assert v.status is Status.INCONCLUSIVE
        assert math.isnan(v.witness["max_product"])


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
