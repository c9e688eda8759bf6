import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sturmosc import profiles, riccati
from sturmosc import (AtPole, CoefficientPair, ComparisonFamily, CurvatureProfile,
                      EnvelopeKind, InvalidParams, MismatchedAnchor, OutOfValidity,
                      RiccatiTrajectory, TailInfoMissing, anchored_family,
                      blow_up_time, comparison_value, constant, envelope,
                      family_riccati, power, riccati_from_solution, solve_jacobi,
                      solve_radial, verify_comparison)

E2 = math.e ** 2
COMPARISON_RATIO = (E2 + 1.0) / (E2 - 1.0)  # ~ 1.313035285


def unit_pair(b=1.0):
    return CoefficientPair(constant(1.0), constant(1.0), b_const=b,
                           t_start=0.0, validate=False)


def old_comparison_value(fam, t, tol=profiles.DEFAULT_TOL):
    """comparison_value as it was: one signed integral of 1/v from 1 per point."""
    b, c = fam.b_const, fam.c_param
    if fam.flavor == "jacobi":
        log_growth = 2.0 * b * t
    else:
        log_growth = 2.0 * b * riccati._signed_integral(fam.pair.v_inv, 1.0, t, tol)
    try:
        growth = math.exp(log_growth)
    except OverflowError:
        return -b
    return b * (c + growth) / (c - growth)


def recorded_integrals(monkeypatch):
    """Route ``profiles.integrate_err`` through a recorder of each interval."""
    calls = []
    real = profiles.integrate_err

    def record(p, a, b, **kwargs):
        calls.append((a, b))
        return real(p, a, b, **kwargs)

    monkeypatch.setattr(profiles, "integrate_err", record)
    return calls


@st.composite
def radial_families(draw):
    """A family on v = a t^q anchored at (t_bar, y), with abscissae kept off
    its pole by 1 %."""
    a, q = draw(st.floats(0.5, 2.0)), draw(st.floats(0.0, 4.0))
    b = draw(st.floats(0.2, 2.0))
    pair = CoefficientPair(power(a, q), constant(0.0), b_const=b, validate=False)
    y = draw(st.floats(-3.0, 3.0).filter(lambda y: abs(y - b) > 1e-3))
    fam = anchored_family("radial", b, draw(st.floats(0.3, 3.0)), y, pair=pair)
    try:
        pole = blow_up_time(fam)
    except TailInfoMissing:  # a pole below 1e-12, or none where 1/v is integrable at 0
        assume(False)
    ts = draw(st.lists(st.floats(0.2, 6.0), min_size=1, max_size=12))
    return fam, [t for t in ts if abs(t - pole) > 1e-2 * pole] or [1.0]


class TestTransform:
    def test_sin_gives_minus_cot(self, unit_curvature):
        traj = solve_jacobi(unit_curvature, horizon=4.0)
        h = riccati_from_solution(traj)
        ts = np.linspace(0.3, 2.8, 25)
        assert np.allclose([h(t) for t in ts], -1.0 / np.tan(ts), atol=1e-8)
        assert len(h.poles) == 1
        assert h.poles[0] == pytest.approx(math.pi, abs=1e-6)

    def test_linear_gives_minus_one_over_t(self):
        k = CurvatureProfile(constant(0.0), m=2)
        traj = solve_jacobi(k, horizon=10.0)
        h = riccati_from_solution(traj)
        ts = np.linspace(0.5, 9.0, 20)
        assert np.allclose([h(t) for t in ts], -1.0 / ts, atol=1e-9)

    def test_sinh_gives_minus_coth(self, hyperbolic_curvature):
        traj = solve_jacobi(hyperbolic_curvature, horizon=21.0)
        h = riccati_from_solution(traj)
        ts = np.linspace(0.1, 20.0, 100)
        assert np.allclose([h(t) for t in ts], -1.0 / np.tanh(ts), atol=1e-8)

    def test_near_pole_nodes_excluded(self, unit_curvature):
        traj = solve_jacobi(unit_curvature, horizon=4.0)
        h = riccati_from_solution(traj)
        assert np.all(np.isfinite(h.ys))

    def test_weighted_transform(self, sinc_pair):
        # z = sin t / t with v = t^2: y = -v z'/z = t - t^2 cot(t)
        traj = solve_radial(sinc_pair, 1.0, horizon=3.0)
        y = riccati_from_solution(traj)
        for t in (0.5, 1.0, 2.0):
            assert y(t) == pytest.approx(t - t * t / math.tan(t), abs=1e-8)


class TestComparisonValue:
    def test_constant_flavor(self):
        fam = ComparisonFamily(1.0, math.e ** 4, "jacobi")
        assert comparison_value(fam, 1.0) == pytest.approx(COMPARISON_RATIO,
                                                           rel=1e-12)

    def test_limit_towards_minus_b(self):
        values = [comparison_value(ComparisonFamily(1.0, c, "jacobi"), 1.0)
                  for c in (math.e ** 4, math.e ** 6, math.e ** 10)]
        assert values[0] > values[1] > values[2] > -1.0

    def test_b_zero_identically_zero(self):
        fam = ComparisonFamily(0.0, 5.0, "jacobi")
        assert comparison_value(fam, 0.7) == 0.0

    def test_weighted_flavor_at_base_point(self):
        fam = ComparisonFamily(1.0, E2, "radial", unit_pair())
        assert comparison_value(fam, 1.0) == pytest.approx(COMPARISON_RATIO,
                                                           rel=1e-10)

    def test_pole_raises(self):
        fam = ComparisonFamily(1.0, E2, "jacobi")
        with pytest.raises(AtPole):
            comparison_value(fam, 1.0)

    def test_array_names_the_first_pole_point(self):
        fam = ComparisonFamily(1.0, E2, "jacobi")
        with pytest.raises(AtPole, match="at t = 1$"):
            comparison_value(fam, np.array([0.5, 1.0, 3.0]))
        with pytest.raises(InvalidParams):
            comparison_value(fam, np.array([0.5, 0.0]))

    def test_array_shapes_and_limits(self):
        fam = ComparisonFamily(1.0, 2.0, "jacobi")
        ys = comparison_value(fam, np.array([[1.0, 400.0], [1e3, 0.5]]))
        assert ys.shape == (2, 2)
        assert ys[0, 1] == ys[1, 0] == -1.0  # the growth overflows: settled at -B
        zero = comparison_value(ComparisonFamily(0.0, 2.0, "jacobi"), [0.5, 2.0])
        assert zero.tolist() == [0.0, 0.0]

    @given(radial_families())
    @settings(max_examples=60, deadline=None)
    def test_array_matches_the_per_point_loop(self, drawn):
        fam, ts = drawn
        loop = np.array([comparison_value(fam, t) for t in ts])
        assert np.allclose(comparison_value(fam, np.array(ts)), loop, rtol=1e-13, atol=0.0)
        assert np.allclose(family_riccati(fam, ts).ys, loop, rtol=1e-13, atol=0.0)

    @given(radial_families())
    @settings(max_examples=30, deadline=None)
    def test_scalar_matches_the_signed_integral_route(self, drawn):
        fam, ts = drawn
        for t in ts:
            assert comparison_value(fam, t) == old_comparison_value(fam, t)

    @pytest.mark.parametrize("ts", [np.linspace(0.6, 1.9, 12), [2.5, 0.7, 1.0, 2.5, 1.3],
                                    [1.5, 1.2], [0.8]])
    def test_family_integrates_once_per_segment(self, ts, monkeypatch):
        # v = t^2, C = e: V(1, t) = exp(2 (1 - 1/t)) reaches C at t = 2
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=1.0)
        fam = ComparisonFamily(1.0, math.e, "radial", pair)
        calls = recorded_integrals(monkeypatch)
        blow_up_time(fam)
        bracket = len(calls)
        family_riccati(fam, ts)
        knots = sorted(set(ts) | {1.0})
        assert calls[2 * bracket:] == list(zip(knots[:-1], knots[1:]))


class TestAnchoredFamily:
    def test_overflowing_growth_raises(self):
        # exp(2 B t_bar) = exp(800) overflows; comparison_value settles at -B
        with pytest.raises(InvalidParams):
            anchored_family("jacobi", 1.0, 400.0, 0.5)
        assert comparison_value(ComparisonFamily(1.0, 2.0, "jacobi"), 400.0) == -1.0

    def test_radial_anchor_below_zero_raises(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=1.0)
        with pytest.raises(InvalidParams):
            anchored_family("radial", 1.0, -1.0, 0.5, pair=pair)

    @pytest.mark.parametrize("flavor, t_bar",
                             [("jacobi", 0.0), ("jacobi", -2.0), ("radial", 0.0)])
    def test_anchor_off_the_positive_axis_raises(self, flavor, t_bar):
        # as in comparison_value; the jacobi flavor would otherwise return a
        # family (C = -3 at t_bar = 0), the radial one fail in the quadrature
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=1.0)
        with pytest.raises(InvalidParams, match="live on t > 0"):
            anchored_family(flavor, 1.0, t_bar, 0.5,
                            pair=pair if flavor == "radial" else None)

    @pytest.mark.parametrize("flavor", ["radial", "jacobbi"])
    def test_flavor_and_pair_checked_first(self, flavor):
        # checked before the growth factor, which needs the pair's 1/v
        with pytest.raises(InvalidParams, match="flavor"):
            anchored_family(flavor, 1.0, 2.0, 0.5)


class TestBlowUpTime:
    def test_constant_flavor(self):
        assert blow_up_time(ComparisonFamily(1.0, E2, "jacobi")) == pytest.approx(1.0)

    def test_weighted_unit_volume(self):
        fam = ComparisonFamily(1.0, E2, "radial", unit_pair())
        assert blow_up_time(fam) == pytest.approx(2.0, rel=1e-9)

    def test_no_pole_past_total_growth(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=1.0)
        fam = ComparisonFamily(1.0, math.e ** 4, "radial", pair)
        assert blow_up_time(fam) == math.inf  # V(1, inf) = e^2 < C

    def test_pole_below_base_point(self):
        fam = ComparisonFamily(1.0, math.exp(-2.0), "radial", unit_pair())
        # integral of 1/v from t_C to 1 equals 1: pole at t = 0 exactly;
        # for v = 1 the target is reachable only in the limit, ruled out by
        # the bracket guard
        pair2 = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=1.0)
        fam2 = ComparisonFamily(1.0, math.exp(-2.0), "radial", pair2)
        t_c = blow_up_time(fam2)  # solves int_{t}^{1} s^-2 ds = 1 -> t = 1/2
        assert t_c == pytest.approx(0.5, rel=1e-9)

    def test_target_beyond_the_float_range_raises(self):
        pair = CoefficientPair(power(1.0, 1.0), constant(0.0), b_const=1.0)
        with pytest.raises(TailInfoMissing):
            blow_up_time(ComparisonFamily(1.0, math.inf, "radial", pair))

    @pytest.mark.parametrize("b,log_c", [(0.5, -2.0), (0.5, 2.0), (0.5, 40.0),
                                         (0.5, -20.0), (1.0, 300.0)])
    def test_radial_pole_of_v_equal_t(self, b, log_c):
        # v = t: the integral of 1/v over [1, t] is log t, so the pole is
        # exp(log(C) / (2B)): below 1 when C < 1, and e^150 ~ 2^216 for
        # B = 1, C = e^300
        pair = CoefficientPair(power(1.0, 1.0), constant(0.0), b_const=b)
        pole = blow_up_time(ComparisonFamily(b, math.exp(log_c), "radial", pair))
        assert pole == pytest.approx(math.exp(log_c / (2.0 * b)), rel=1e-12, abs=0.0)

    @given(st.floats(1.1, 50.0), st.floats(1.01, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_strictly_increasing_in_c(self, c, factor):
        t1 = blow_up_time(ComparisonFamily(1.0, c, "jacobi"))
        t2 = blow_up_time(ComparisonFamily(1.0, c * factor, "jacobi"))
        assert t2 > t1


class TestEnvelope:
    def test_jacobi_band(self):
        lo, hi = envelope(EnvelopeKind.JACOBI, 1.0, 1.0)
        assert lo == pytest.approx(-COMPARISON_RATIO, rel=1e-12)
        assert hi == 1.0

    def test_radial_band_constant(self):
        assert envelope(EnvelopeKind.RADIAL, 5.0, 2.0) == (-2.0, 2.0)

    def test_diameter_band(self):
        lo, hi = envelope(EnvelopeKind.DIAMETER, 1.0, 1.0, D=4.0)
        assert hi == pytest.approx(COMPARISON_RATIO, rel=1e-12)
        assert lo == pytest.approx(-COMPARISON_RATIO, rel=1e-12)
        with pytest.raises(OutOfValidity):
            envelope(EnvelopeKind.DIAMETER, 2.5, 1.0, D=4.0)

    def test_b_zero_limits(self):
        lo, hi = envelope(EnvelopeKind.JACOBI, 2.0, 0.0)
        assert lo == pytest.approx(-0.5)
        assert hi == 0.0
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=0.0)
        lo, hi = envelope(EnvelopeKind.RADIAL_TAIL, 2.0, 0.0, pair=pair)
        assert hi == pytest.approx(2.0, rel=1e-9)  # 1 / (tail of 1/v) = t

    def test_radial_tail_with_underflowing_exponent(self):
        # 2 B * (tail of 1/v) = 2e-330 underflows: the band is 1/tail = t
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=1e-300)
        assert envelope(EnvelopeKind.RADIAL_TAIL, 1e30, 1e-300, pair=pair) == (
            -1e-300, pytest.approx(1e30, rel=1e-15))

    def test_radial_beyond_band(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=1.0)
        lo, hi = envelope(EnvelopeKind.RADIAL_BEYOND, 2.0, 1.0, pair=pair, T=1.0)
        v_t = math.exp(2.0 * 0.5)  # int_1^2 s^-2 = 1/2
        assert lo == pytest.approx(-(v_t + 1) / (v_t - 1), rel=1e-9)
        assert hi == 1.0
        with pytest.raises(OutOfValidity):
            envelope(EnvelopeKind.RADIAL_BEYOND, 0.5, 1.0, pair=pair, T=1.0)

    def test_jacobi_envelope_soundness(self, hyperbolic_curvature):
        # pole-free transforms of K >= -B^2 problems stay inside the band
        traj = solve_jacobi(hyperbolic_curvature, horizon=20.0)
        h = riccati_from_solution(traj)
        for t, y in zip(h.ts, h.ys):
            if t < 1e-4:
                continue
            lo, hi = envelope(EnvelopeKind.JACOBI, float(t), 1.0)
            assert lo - 1e-6 <= y <= hi + 1e-6

    def test_hyperbolic_saturates_lower_envelope(self, hyperbolic_curvature):
        traj = solve_jacobi(hyperbolic_curvature, horizon=20.0)
        h = riccati_from_solution(traj)
        ts = np.linspace(0.1, 19.0, 50)
        lows = np.array([envelope(EnvelopeKind.JACOBI, t, 1.0)[0] for t in ts])
        assert np.max(np.abs(np.array([h(t) for t in ts]) - lows)) < 1e-8


class TestFamilyResiduals:
    @pytest.mark.parametrize("b,c", [(1.0, math.e ** 4), (0.5, 3.0), (2.0, 1.5)])
    def test_constant_flavor_residual(self, b, c):
        fam = ComparisonFamily(b, c, "jacobi")
        pole = blow_up_time(fam)
        ts = [t for t in np.linspace(0.05, pole + 2.0, 60)
              if abs(t - pole) > 0.1]
        delta = 1e-5
        for t in ts:
            if t - delta <= 0 or abs(t - pole) < 0.15:
                continue
            d = (comparison_value(fam, t + delta)
                 - comparison_value(fam, t - delta)) / (2 * delta)
            target = comparison_value(fam, t) ** 2 - b * b
            assert abs(d - target) <= 1e-6 * (1.0 + abs(target))

    def test_weighted_flavor_residual(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=1.0)
        fam = ComparisonFamily(1.0, math.e ** 4, "radial", pair)
        delta = 1e-5
        for t in np.linspace(0.5, 6.0, 25):
            d = (comparison_value(fam, t + delta)
                 - comparison_value(fam, t - delta)) / (2 * delta)
            target = (comparison_value(fam, t) ** 2 - 1.0) / pair.v(t)
            assert abs(d - target) <= 1e-6 * (1.0 + abs(target))


class TestVerifyComparison:
    def test_forward_ordering_unit_sphere(self, rng):
        k = CurvatureProfile(constant(1.0), b_const=1.0, m=2, validate=False)
        traj = solve_jacobi(k, horizon=4.0)
        q1 = riccati_from_solution(traj)
        t_bar = 0.5
        fam = anchored_family("jacobi", 1.0, t_bar, float(q1(t_bar)))
        q2 = family_riccati(fam, q1.ts)
        report = verify_comparison(q1, q2, t_bar, "forward")
        assert report.ok
        assert report.first_violation is None

    def test_same_trajectory_equality(self, unit_curvature):
        traj = solve_jacobi(unit_curvature, horizon=3.0)
        q1 = riccati_from_solution(traj)
        report = verify_comparison(q1, q1, 1.0, "forward")
        assert report.ok and report.anchor_gap == 0.0

    def test_exact_family_member_matches(self, hyperbolic_curvature):
        # -coth t solves the comparison flow itself: anchoring recovers C = 1
        traj = solve_jacobi(hyperbolic_curvature, horizon=20.0)
        q1 = riccati_from_solution(traj)
        fam = anchored_family("jacobi", 1.0, 1.0, float(q1(1.0)))
        assert fam.c_param == pytest.approx(1.0, abs=1e-9)
        q2 = family_riccati(fam, q1.ts)
        forward = verify_comparison(q1, q2, 1.0, "forward")
        backward = verify_comparison(q1, q2, 1.0, "backward")
        assert forward.ok and backward.ok

    def test_subsolution_evaluated_in_one_array_call(self, monkeypatch):
        # past the two anchor values, q2 on the 30 checked nodes integrates
        # 1/v once per segment between consecutive nodes, not once per node
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=1.0)
        fam = anchored_family("radial", 1.0, 1.5, 0.3, pair=pair)
        ts = np.linspace(1.5, 1.9, 31)
        q1, q2 = family_riccati(fam, ts), family_riccati(fam, ts)
        calls = recorded_integrals(monkeypatch)
        report = verify_comparison(q1, q2, 1.5, "forward")
        assert report.ok and report.n_checked == 30
        knots = [1.0] + ts[1:].tolist()
        assert calls == [(1.0, 1.5)] * 2 + list(zip(knots[:-1], knots[1:]))

    def test_backward_is_forward_mirrored(self):
        # t -> -t and y -> -y turn a forward check into a backward one,
        # with the nodes kept in the same order
        ts = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
        y1 = np.array([0.0, 0.3, 0.1, 0.4, -0.2, 0.9, 0.0])
        y2 = np.array([0.0, 0.3, 0.2, 0.1, 0.5, -0.9, 0.0])

        def traj(ts, ys, poles):
            table = dict(zip(ts.tolist(), ys.tolist()))
            lookup = np.vectorize(table.__getitem__, otypes=[float])
            return RiccatiTrajectory(ts, ys, poles, lookup)

        forward = verify_comparison(traj(ts, y1, (3.2,)), traj(ts, y2, (2.7, 0.7)),
                                    1.0, "forward", tol=1e-3)
        backward = verify_comparison(traj(-ts, -y1, (-3.2,)),
                                     traj(-ts, -y2, (-2.7, -0.7)),
                                     -1.0, "backward", tol=1e-3)
        assert forward.n_checked == backward.n_checked == 3
        assert forward.first_violation == (1.5, 0.1, 0.2)
        assert backward.first_violation == (-1.5, -0.1, -0.2)
        assert forward.pole_order_ok is backward.pole_order_ok is False

    def test_unknown_direction_raises(self, unit_curvature):
        q1 = riccati_from_solution(solve_jacobi(unit_curvature, horizon=3.0))
        with pytest.raises(InvalidParams, match="'fwd'"):
            verify_comparison(q1, q1, 1.0, "fwd")

    def test_anchor_mismatch_raises(self, unit_curvature):
        traj = solve_jacobi(unit_curvature, horizon=3.0)
        q1 = riccati_from_solution(traj)
        fam = anchored_family("jacobi", 1.0, 0.5, float(q1(0.5)) + 0.1)
        q2 = family_riccati(fam, q1.ts)
        with pytest.raises(MismatchedAnchor):
            verify_comparison(q1, q2, 0.5, "forward")

    def test_pole_ordering_reported(self):
        # K = 1 >= -B^2 = -1: the solution's pole (pi) must come before the
        # anchored family's
        k = CurvatureProfile(constant(1.0), b_const=1.0, m=2, validate=False)
        traj = solve_jacobi(k, horizon=6.0)
        q1 = riccati_from_solution(traj)
        t_bar = 2.0  # past the region where h > B, C lands in (1, e^{2Bt})
        fam = anchored_family("jacobi", 1.0, t_bar, float(q1(t_bar)))
        q2 = family_riccati(fam, q1.ts)
        report = verify_comparison(q1, q2, t_bar, "forward")
        assert report.ok
        assert report.pole_order_ok is not False
