import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sturmosc import profiles, riccati
from sturmosc import (AtPole, CoefficientPair, ComparisonFamily, CurvatureProfile,
                      EnvelopeKind, InvalidParams, MismatchedAnchor, NonFiniteSample,
                      OutOfValidity, RiccatiTrajectory, TailInfoMissing, anchored_family,
                      blow_up_time, comparison_value, constant, envelope,
                      family_riccati, power, riccati_from_solution, solve_jacobi,
                      solve_radial, verify_comparison)

E2 = math.e ** 2
COMPARISON_RATIO = (E2 + 1.0) / (E2 - 1.0)  # ~ 1.313035285


def unit_pair(b=1.0):
    return CoefficientPair(constant(1.0), constant(1.0), b_const=b,
                           t_start=0.0, validate=False)


def old_comparison_value(fam, t, tol=profiles.DEFAULT_TOL):
    """comparison_value as it was: B (C + E)/(C - E) with C = +-e^(2Bs) and
    the growth factor E = e^(2B I(t)), I(t) from one signed integral of 1/v
    from 1 per point.

    The formula is evaluated in mpmath from the float s and I(t).  C + E
    (bounded members) or C - E cancels to about 2B |s - I| relative, which
    for distinct floats s and I and B >= 0.2 is above 2^-1076, so 1,300 bits
    keep 50 digits of the result (in floats it kept none for a tiny s).
    """
    b = fam.b_const
    i_t = t if fam.flavor == "jacobi" else riccati._signed_integral(
        fam.pair.v_inv, 1.0, t, tol)
    with mpmath.workprec(1300):
        c = (-1 if fam.bounded else 1) * mpmath.exp(2 * b * mpmath.mpf(fam.s))
        growth = mpmath.exp(2 * b * mpmath.mpf(i_t))
        return float(b * (c + growth) / (c - growth))


def recorded_knots(monkeypatch):
    """Route the running integrals of ``riccati`` through a recorder of the
    knots of each: one integral per segment between consecutive knots."""
    calls = []
    real = riccati.cumulative

    def record(p, ts, **kwargs):
        calls.append(list(ts))
        return real(p, ts, **kwargs)

    monkeypatch.setattr(riccati, "cumulative", record)
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
    except TailInfoMissing:  # the walk reached 1e-12: a pole below it, or none
        assume(False)      # because 1/v = t^-q is integrable at 0+ (q < 1)
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
        fam = ComparisonFamily(1.0, 2.0, "jacobi")
        assert comparison_value(fam, 1.0) == pytest.approx(COMPARISON_RATIO,
                                                           rel=1e-12)

    def test_limit_towards_minus_b(self):
        # poles further behind t = 1 bring the member closer to -B, which
        # s = -inf is exactly
        values = [comparison_value(ComparisonFamily(1.0, s, "jacobi"), 1.0)
                  for s in (-2.0, -3.0, -5.0, -math.inf)]
        assert values[0] < values[1] < values[2] < values[3] == -1.0

    @pytest.mark.parametrize("flavor", ["jacobi", "radial"])
    def test_b_zero_is_one_over_the_pole_distance(self, flavor):
        # the limit 1/(s - I) of B coth(B (s - I)); I(t) = 1 - 1/t on v = t^2
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=0.0)
        fam = ComparisonFamily(0.0, 0.5, flavor, pair)
        ts = np.array([0.3, 0.7, 1.9, 2.1, 5.0])
        big_i = ts if flavor == "jacobi" else 1.0 - 1.0 / ts
        assert np.allclose(comparison_value(fam, ts), 1.0 / (0.5 - big_i),
                           rtol=1e-13, atol=0.0)

    def test_b_zero_identically_zero(self):
        for s in (math.inf, -math.inf):
            fam = ComparisonFamily(0.0, s, "jacobi")
            assert comparison_value(fam, 0.7) == 0.0

    def test_weighted_flavor_at_base_point(self):
        fam = ComparisonFamily(1.0, 1.0, "radial", unit_pair())
        assert comparison_value(fam, 1.0) == pytest.approx(COMPARISON_RATIO,
                                                           rel=1e-10)

    def test_pole_raises(self):
        fam = ComparisonFamily(1.0, 1.0, "jacobi")
        with pytest.raises(AtPole):
            comparison_value(fam, 1.0)

    def test_array_names_the_first_pole_point(self):
        fam = ComparisonFamily(1.0, 1.0, "jacobi")
        with pytest.raises(AtPole, match="at t = 1$"):
            comparison_value(fam, np.array([0.5, 1.0, 3.0]))
        with pytest.raises(InvalidParams):
            comparison_value(fam, np.array([0.5, 0.0]))

    def test_array_shapes_and_limits(self):
        fam = ComparisonFamily(1.0, 0.35, "jacobi")
        ys = comparison_value(fam, np.array([[1.0, 400.0], [1e3, 0.5]]))
        assert ys.shape == (2, 2)
        assert ys[0, 1] == ys[1, 0] == -1.0  # far past the pole: -B to the last bit
        zero = comparison_value(ComparisonFamily(0.0, math.inf, "jacobi"), [0.5, 2.0])
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
    # a bounded member with a tiny pole: the float reference gave -0.0 for
    # 1.736e-227 here
    @example((ComparisonFamily(1.0, 1.7361376608376717e-227, "radial", CoefficientPair(
        power(1.0, 0.0), constant(0.0), b_const=1.0, validate=False), bounded=True), [1.0]))
    def test_scalar_matches_the_signed_integral_route(self, drawn):
        # the two forms round differently: the largest relative gap measured
        # was 4.6e-12, over 11,909 points of both flavors with B in [1e-3, 10]
        # kept 1 % off the pole
        fam, ts = drawn
        for t in ts:
            assert comparison_value(fam, t) == pytest.approx(
                old_comparison_value(fam, t), rel=2e-11, abs=0.0)

    @pytest.mark.parametrize("ts", [np.linspace(0.6, 1.9, 12), [2.5, 0.7, 1.0, 2.5, 1.3],
                                    [1.5, 1.2], [0.8]])
    def test_family_integrates_once_per_segment(self, ts, monkeypatch):
        # v = t^2, s = 1/2: I(t) = 1 - 1/t reaches s at t = 2
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=1.0)
        fam = ComparisonFamily(1.0, 0.5, "radial", pair)
        calls = recorded_knots(monkeypatch)
        family_riccati(fam, ts)
        assert calls == [sorted(set(ts) | {1.0})]


class TestAnchoredFamily:
    @pytest.mark.parametrize("q", [0.5, -0.5, 1.5, -1.5])
    def test_anchor_far_out(self, q):
        # at t_bar = 400 the growth factor exp(2 B t_bar) = exp(800) would
        # overflow; the pole s is I(t_bar) plus or minus a band distance
        fam = anchored_family("jacobi", 1.0, 400.0, q)
        assert fam.bounded is (abs(q) < 1.0)
        assert comparison_value(fam, 400.0) == pytest.approx(q, rel=1e-12)

    @pytest.mark.parametrize("flavor", ["jacobi", "radial"])
    @pytest.mark.parametrize("b", [1.0, 0.0])
    def test_anchor_at_plus_or_minus_b_is_the_constant_member(self, flavor, b):
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=b)
        for q in (b, -b):
            fam = anchored_family(flavor, b, 1.5, q, pair=pair)
            assert fam.s == math.copysign(math.inf, q)
            assert comparison_value(fam, np.array([0.2, 1.5, 30.0])).tolist() == [q] * 3
            assert blow_up_time(fam) == math.inf

    @given(st.sampled_from(["jacobi", "radial"]), st.floats(0.3, 3.0),
           st.floats(0.01, 10.0), st.booleans())
    @example("radial", 1.0, 0.998046875, True)
    @settings(max_examples=40, deadline=None)
    def test_tiny_b_anchor_is_the_b_zero_member(self, flavor, t_bar, q, negative):
        # B x = 1e-12 / |q| is below coth_band's cut, so B = 1e-12 anchors and
        # evaluates as B = 0: 1/(s - I), with I(t) = 1 - 1/t on v = t^2.  The
        # pole distance s - 1/value is checked, not the value: near the pole
        # (the example: s - I(0.5) = 0.00196) 1/(s - I) magnifies the few
        # 1e-15 of quadrature error in I past any tight relative bound
        q = -q if negative else q
        ts = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
        values = []
        for b in (1e-12, 0.0):
            pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=b)
            fam = anchored_family(flavor, b, t_bar, q, pair=pair)
            big_i = ts if flavor == "jacobi" else 1.0 - 1.0 / ts
            assume(np.all(np.abs(fam.s - big_i) > 1e-3))
            values.append(comparison_value(fam, ts))
            assert np.allclose(fam.s - 1.0 / values[-1], big_i, rtol=0.0, atol=1e-13)
        assert values[0].tolist() == values[1].tolist()

    @given(st.floats(-3.0, 1.0), st.floats(0.2, 6.0), st.floats(0.1, 10.0),
           st.booleans(), st.floats(0.2, 6.0))
    @example(log_b=-2.95872597403952, t_bar=0.7716937348325188, q=6.18836037035927,
             negative=True, t=0.6384015952001537)
    @settings(max_examples=200, deadline=None)
    def test_jacobi_matches_mpmath(self, log_b, t_bar, q, negative, t):
        # the member through the exact anchor (t_bar, q), at 40 digits, where
        # the pole distance |s - t| is above 1e-2; the growth-factor form was
        # 6.3e-12 off at the example, from C - E cancelling at small B
        b, q = 10.0 ** log_b, -q if negative else q
        assume(abs(abs(q) - b) > 1e-9 * b)  # q = +-B is the constant member
        with mpmath.workdps(40):
            big_b, big_q = mpmath.mpf(b), mpmath.mpf(q)
            if abs(big_q) > big_b:
                gap = t_bar - t + mpmath.acoth(big_q / big_b) / big_b
                exact = big_b * mpmath.coth(big_b * gap)
            else:
                gap = t_bar - t + mpmath.atanh(big_q / big_b) / big_b
                exact = big_b * mpmath.tanh(big_b * gap)
        assume(abs(gap) > 1e-2)
        fam = anchored_family("jacobi", b, t_bar, q)
        assert comparison_value(fam, t) == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    def test_radial_anchor_below_zero_raises(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=1.0)
        with pytest.raises(InvalidParams):
            anchored_family("radial", 1.0, -1.0, 0.5, pair=pair)

    @pytest.mark.parametrize("flavor, t_bar",
                             [("jacobi", 0.0), ("jacobi", -2.0), ("radial", 0.0)])
    def test_anchor_off_the_positive_axis_raises(self, flavor, t_bar):
        # as in comparison_value; the jacobi flavor would otherwise return a
        # family (s = atanh(1/2) at t_bar = 0), the radial one fail in the
        # quadrature
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=1.0)
        with pytest.raises(InvalidParams, match="live on t > 0"):
            anchored_family(flavor, 1.0, t_bar, 0.5,
                            pair=pair if flavor == "radial" else None)

    @pytest.mark.parametrize("flavor", ["radial", "jacobbi"])
    def test_flavor_and_pair_checked_first(self, flavor):
        # checked before I(t_bar), which needs the pair's 1/v
        with pytest.raises(InvalidParams, match="flavor"):
            anchored_family(flavor, 1.0, 2.0, 0.5)


class TestBlowUpTime:
    def test_constant_flavor(self):
        assert blow_up_time(ComparisonFamily(1.0, 1.0, "jacobi")) == 1.0
        # a pole at s < 0 lies behind t = 0, where the member does not live
        assert blow_up_time(ComparisonFamily(1.0, -1.0, "jacobi")) == math.inf

    def test_weighted_unit_volume(self):
        fam = ComparisonFamily(1.0, 1.0, "radial", unit_pair())
        assert blow_up_time(fam) == pytest.approx(2.0, rel=1e-9)

    def test_no_pole_past_total_growth(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=1.0)
        fam = ComparisonFamily(1.0, 2.0, "radial", pair)
        assert blow_up_time(fam) == math.inf  # the tail of 1/v from 1 is 1 < s

    def test_pole_below_base_point(self):
        # v = t^2: the integral of 1/v over [t, 1] is 1/t - 1 = -s at t = 1/2
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=1.0)
        fam = ComparisonFamily(1.0, -1.0, "radial", pair)
        assert blow_up_time(fam) == pytest.approx(0.5, rel=1e-9)
        # v = 1 reaches s = -1 only in the limit t -> 0, which the walk stops short of
        with pytest.raises(TailInfoMissing):
            blow_up_time(ComparisonFamily(1.0, -1.0, "radial", unit_pair()))

    def test_no_pole_where_one_over_v_is_integrable_at_zero(self):
        # v = t^0.5: I(t) = 2 (sqrt(t) - 1) > -2 > s, so the member has no
        # pole, but no profile metadata at 0+ shows it
        pair = CoefficientPair(power(1.0, 0.5), constant(0.0), b_const=1.0,
                               validate=False)
        fam = ComparisonFamily(1.0, -5.0, "radial", pair)
        with pytest.raises(TailInfoMissing, match=r"below 1e-12, or there is none "
                                                  r"because 1/v is integrable at 0\+"):
            blow_up_time(fam)
        # s - I(1e-6) = -5 + 1.998 = -3.002
        assert comparison_value(fam, 1e-6) == pytest.approx(-1.0 / math.tanh(3.002),
                                                            rel=1e-9)

    def test_target_beyond_the_float_range_raises(self):
        # v = t: I(t) = log t stays below 710 on the floats
        pair = CoefficientPair(power(1.0, 1.0), constant(0.0), b_const=1.0)
        with pytest.raises(TailInfoMissing, match="within the float range"):
            blow_up_time(ComparisonFamily(1.0, 1000.0, "radial", pair))

    @pytest.mark.parametrize("flavor", ["jacobi", "radial"])
    def test_infinite_s_has_no_pole(self, flavor):
        pair = CoefficientPair(power(1.0, 1.0), constant(0.0), b_const=1.0)
        for fam in (ComparisonFamily(1.0, math.inf, flavor, pair),
                    ComparisonFamily(1.0, -math.inf, flavor, pair),
                    ComparisonFamily(1.0, 0.5, flavor, pair, bounded=True)):
            assert blow_up_time(fam) == math.inf
            assert family_riccati(fam, [0.5, 2.0]).poles == ()

    @pytest.mark.parametrize("b,s", [(0.5, -2.0), (0.5, 2.0), (0.5, 40.0),
                                     (0.5, -20.0), (1.0, 300.0), (0.0, 2.0)])
    def test_radial_pole_of_v_equal_t(self, b, s):
        # v = t: I(t) = log t, so the pole is e^s for every B: below 1 when
        # s < 0, and e^300 ~ 2^433 for s = 300
        pair = CoefficientPair(power(1.0, 1.0), constant(0.0), b_const=b)
        pole = blow_up_time(ComparisonFamily(b, s, "radial", pair))
        assert pole == pytest.approx(math.exp(s), rel=1e-12, abs=0.0)

    @given(st.floats(1.1, 50.0), st.floats(1.01, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_strictly_increasing_in_c(self, c, factor):
        # C = e^(2Bs) grows with s, and so does the pole
        t1 = blow_up_time(ComparisonFamily(1.0, math.log(c) / 2.0, "jacobi"))
        t2 = blow_up_time(ComparisonFamily(1.0, math.log(c * factor) / 2.0, "jacobi"))
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
        fam = ComparisonFamily(b, math.log(c) / (2.0 * b), "jacobi")  # C = e^(2Bs)
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
        self.check_weighted_residual(1.0, 2.0, False)

    @pytest.mark.parametrize("b,s,bounded", [(0.0, 0.5, False), (1.0, 0.5, False),
                                             (1.0, 0.5, True), (0.3, -1.0, True)])
    def test_b_zero_and_bounded_residuals(self, b, s, bounded):
        # on v = t^2 the members with s = 1/2 have their pole at t = 2; the
        # B = 0 one is 1/(s - I) and solves y' = y^2/v
        self.check_weighted_residual(b, s, bounded)

    @staticmethod
    def check_weighted_residual(b, s, bounded):
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=b)
        fam = ComparisonFamily(b, s, "radial", pair, bounded)
        delta = 1e-5
        for t in np.linspace(0.5, 6.0, 25):
            if abs(t - blow_up_time(fam)) < 0.15:
                continue
            d = (comparison_value(fam, t + delta)
                 - comparison_value(fam, t - delta)) / (2 * delta)
            target = (comparison_value(fam, t) ** 2 - b * b) / pair.v(t)
            assert abs(d - target) <= 1e-6 * (1.0 + abs(target))


def table_trajectory(ts, ys, poles=()):
    """A RiccatiTrajectory that looks its values up at its own nodes."""
    table = dict(zip(ts.tolist(), ys.tolist()))
    return RiccatiTrajectory(ts, ys, poles, np.vectorize(table.__getitem__, otypes=[float]))


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
        # -coth t solves the comparison flow itself: anchoring recovers its
        # pole s = 0, which is C = 1
        traj = solve_jacobi(hyperbolic_curvature, horizon=20.0)
        q1 = riccati_from_solution(traj)
        fam = anchored_family("jacobi", 1.0, 1.0, float(q1(1.0)))
        assert not fam.bounded and fam.s == pytest.approx(0.0, abs=1e-9)
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
        calls = recorded_knots(monkeypatch)
        report = verify_comparison(q1, q2, 1.5, "forward")
        assert report.ok and report.n_checked == 30
        assert calls == [[1.0, 1.5]] * 2 + [[1.0] + ts[1:].tolist()]

    def test_backward_is_forward_mirrored(self):
        # t -> -t and y -> -y turn a forward check into a backward one,
        # with the nodes kept in the same order
        ts = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
        y1 = np.array([0.0, 0.3, 0.1, 0.4, -0.2, 0.9, 0.0])
        y2 = np.array([0.0, 0.3, 0.2, 0.1, 0.5, -0.9, 0.0])
        forward = verify_comparison(table_trajectory(ts, y1, (3.2,)),
                                    table_trajectory(ts, y2, (2.7, 0.7)),
                                    1.0, "forward", tol=1e-3)
        backward = verify_comparison(table_trajectory(-ts, -y1, (-3.2,)),
                                     table_trajectory(-ts, -y2, (-2.7, -0.7)),
                                     -1.0, "backward", tol=1e-3)
        assert forward.n_checked == backward.n_checked == 3
        assert forward.first_violation == (1.5, 0.1, 0.2)
        assert backward.first_violation == (-1.5, -0.1, -0.2)
        assert forward.pole_order_ok is backward.pole_order_ok is False

    @pytest.mark.parametrize("y1,y2", [
        ([np.nan, 0.2, 0.3], [0.1, 0.1, 0.1]),  # the anchor value of q1
        ([0.1, 0.2, 0.3], [0.1, np.nan, 0.1]),  # a checked node of q2
        ([0.1, np.nan, 0.3], [0.1, 0.1, 0.1]),  # a checked node of q1
    ], ids=["anchor", "q2_node", "q1_node"])
    def test_nan_value_raises(self, y1, y2):
        # a NaN compares false with everything, so it would pass as ordered
        ts = np.array([1.0, 1.5, 2.0])
        q1, q2 = table_trajectory(ts, np.array(y1)), table_trajectory(ts, np.array(y2))
        with pytest.raises(NonFiniteSample, match="q1 or q2 is NaN near t = "):
            verify_comparison(q1, q2, 1.0, "forward")

    def test_infinite_subsolution_above_is_a_violation(self):
        # a slack taken over the +inf q2 would be inf and hide the violation
        ts = np.array([1.0, 1.5, 2.0])
        q1 = table_trajectory(ts, np.array([0.1, 0.2, 0.3]))
        q2 = table_trajectory(ts, np.array([0.1, np.inf, 0.1]))
        report = verify_comparison(q1, q2, 1.0, "forward")
        assert not report.ordered
        assert report.first_violation == (1.5, 0.2, math.inf)

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
        t_bar = 2.0  # h(2) = -cot 2 lies in (-B, B): the bounded member
        fam = anchored_family("jacobi", 1.0, t_bar, float(q1(t_bar)))
        assert fam.bounded
        q2 = family_riccati(fam, q1.ts)
        report = verify_comparison(q1, q2, t_bar, "forward")
        assert report.ok
        assert report.pole_order_ok is not False
