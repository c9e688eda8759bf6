import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, OdeSolution, solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_dop853, rk as scipy_rk
from scipy.integrate._ivp.common import select_initial_step
from scipy.integrate._ivp.rk import Dop853DenseOutput

import sturmosc._dop853
import sturmosc.ode
from sturmosc import (CoefficientPair, CurvatureProfile, InvalidParams,
                      OutOfValidity, Profile, SingularStartFailure, add,
                      constant, extend_until_zero, locate_zeros, model_profiles,
                      multiply, power, residual_max, solve_jacobi, solve_radial,
                      space_form, warped_model)
from sturmosc.ode import (DEFAULT_ZERO_TOL, JACOBI_START, RADIAL_START, _DenseTable,
                          _System, _drive, _scan_chunk, _singular_start)
from sturmosc.profiles import DEFAULT_TOL
from conftest import euler_pair, euler_zeros, pole_pair, recorded_solves


def euler_first_zero(mu):
    """First zero of z'' + (mu/t^2) z = 0, z(1)=1, z'(1)=0 (closed form)."""
    return next(euler_zeros(mu, math.inf))


class TestSolveJacobi:
    def test_sphere_zero_at_pi(self, unit_curvature):
        traj = solve_jacobi(unit_curvature, horizon=4.0)
        assert len(traj.zeros) == 1
        assert traj.zeros[0].location == pytest.approx(math.pi, abs=1e-6)
        assert traj.zeros[0].width <= 1e-8 * 2

    def test_flat_no_zeros(self):
        k = CurvatureProfile(constant(0.0), m=2)
        traj = solve_jacobi(k, horizon=10.0)
        assert traj.zeros == ()
        assert traj.value(7.0) == pytest.approx(7.0, rel=1e-8)

    def test_hyperbolic_no_zeros(self, hyperbolic_curvature):
        traj = solve_jacobi(hyperbolic_curvature, horizon=50.0)
        assert traj.zeros == ()
        assert traj.value(20.0) == pytest.approx(math.sinh(20.0), rel=1e-8)

    def test_rejects_bad_horizon(self, unit_curvature):
        with pytest.raises(InvalidParams):
            solve_jacobi(unit_curvature, horizon=0.0)

    def test_horizon_at_the_start_takes_no_step(self, unit_curvature):
        # the default start is JACOBI_START itself
        traj = solve_jacobi(unit_curvature, horizon=JACOBI_START)
        assert (traj.terminated_reason, traj.ts.tolist(), traj.zeros) == (
            "horizon", [JACOBI_START], ())
        with pytest.raises(InvalidParams, match="no dense output"):
            traj.value(JACOBI_START)

    def test_horizon_before_the_start_raises(self, unit_curvature):
        # solves run forward only: from t = 2 to 1, and to a horizon below
        # the default start JACOBI_START
        with pytest.raises(InvalidParams, match="forward only"):
            solve_jacobi(unit_curvature, 1.0, t_start=2.0, u0=0.0, du0=1.0)
        with pytest.raises(InvalidParams, match="forward only"):
            solve_jacobi(unit_curvature, 5e-9)

    @pytest.mark.parametrize("u0,du0", [(math.nan, 1.0), (1.0, math.inf)])
    def test_non_finite_start_raises(self, unit_curvature, u0, du0):
        with pytest.raises(InvalidParams, match="is not finite"):
            solve_jacobi(unit_curvature, 5.0, t_start=1.0, u0=u0, du0=du0)

    def test_nan_right_hand_side_at_the_start_stops(self):
        # f0 is NaN, so is the first step size; the step loop used to retry
        # it forever
        k = Profile(lambda t: np.where(t < 1.5, np.nan, 1.0))
        traj = solve_jacobi(k, 5.0, t_start=1.0, u0=1.0, du0=1.0)
        assert (traj.terminated_reason, traj.ts.tolist()) == ("step_underflow", [1.0])

    def test_scalar_valued_evaluators_solve_like_their_constants(self):
        # an evaluator that returns a float, not an array of t's shape, is
        # broadcast over a trial's stage abscissae
        pair = CoefficientPair(power(1.0, 2.0), constant(0.9), b_const=0.0)
        bare = CoefficientPair(power(1.0, 2.0), Profile(lambda t: 0.9), b_const=0.0)
        for traj, ref in ((solve_jacobi(Profile(lambda t: 1.0), 10.0),
                           solve_jacobi(constant(1.0), 10.0)),
                          (solve_radial(bare, 1.0, 10.0), solve_radial(pair, 1.0, 10.0))):
            assert traj.ts.tobytes() == ref.ts.tobytes()
            assert traj.values.tobytes() == ref.values.tobytes()
            assert traj.zeros == ref.zeros and len(ref.zeros) > 0

    def test_zero_cap_from_start_on_a_zero(self, unit_curvature):
        # u = sin(t - 1): the start is a zero but no sign change
        traj = solve_jacobi(unit_curvature, horizon=10.0, t_start=1.0,
                            u0=0.0, du0=1.0, zero_cap=1)
        assert traj.terminated_reason == "zero_cap"
        assert [z.location for z in traj.zeros] == pytest.approx(
            [1.0 + math.pi], abs=1e-6)

    def test_zeros_at_step_ends_certified_once(self):
        # u = sin(pi t / 4) / (pi / 4) vanishes at 4, 8, 12 and 16, where a
        # drive in doubling segments puts (or nearly puts) its segment ends
        k = CurvatureProfile(constant((math.pi / 4.0) ** 2), m=2)
        traj = solve_jacobi(k, horizon=17.0)
        assert [z.location for z in traj.zeros] == pytest.approx(
            [4.0, 8.0, 12.0, 16.0], abs=1e-6)

    def test_negative_start_unchanged_by_the_step_floor(self, monkeypatch):
        # u = sin(t + 1) from t = -1: no step comes near the floor, so the
        # solve equals the float stepper without a floor bit for bit
        k = CurvatureProfile(constant(1.0), m=2)
        traj = solve_jacobi(k, 5.0, t_start=-1.0, u0=0.0, du0=1.0)
        monkeypatch.setattr(sturmosc._dop853, "MIN_STEP_ULPS", 0)
        plain = solve_jacobi(k, 5.0, t_start=-1.0, u0=0.0, du0=1.0)
        for name in ("ts", "values", "fluxes"):
            assert getattr(traj, name).tobytes() == getattr(plain, name).tobytes()
        assert (traj.zeros, traj.terminated_reason) == (plain.zeros, "horizon")
        assert [z.location for z in traj.zeros] == pytest.approx(
            [math.pi - 1.0], abs=1e-6)
        # the patched floor reaches the solve: 2^60 ulp of t = -1 is 256,
        # longer than any step, so the first step already stops it
        monkeypatch.setattr(sturmosc._dop853, "MIN_STEP_ULPS", 2.0 ** 60)
        stopped = solve_jacobi(k, 5.0, t_start=-1.0, u0=0.0, du0=1.0)
        assert (stopped.terminated_reason, len(stopped.ts)) == ("step_underflow", 1)

    def test_pole_ahead_of_a_negative_start_stops_at_step_floor(self):
        # K = 1/(t + 1/3)^2 has a pole at t = -1/3; the floor is 1024 ulp of
        # |t| on both sides of 0 and ends the solve after about 460 steps,
        # where scipy's own 10-ulp floor alone takes over 11,000
        k = Profile(lambda t: 1.0 / (t + 1.0 / 3.0) ** 2)
        traj = solve_jacobi(k, 5.0, t_start=-1.0, u0=1.0, du0=1.0)
        assert traj.terminated_reason == "step_underflow"
        assert traj.t_end == pytest.approx(-1.0 / 3.0, abs=1e-6)
        assert len(traj.zeros) == 6
        floor = 1024 * np.array([math.ulp(t) for t in traj.ts[:-1]])
        assert (np.diff(traj.ts) >= floor).all()
        assert len(traj.ts) < 930


class TestSolveRadial:
    def test_sinc_solution(self, sinc_pair):
        # (t^2 z')' + t^2 z = 0 with z(0) = 1 solves to sin(t)/t
        traj = solve_radial(sinc_pair, 1.0, horizon=10.0)
        assert [round(z.location, 6) for z in traj.zeros] == [
            round(math.pi, 6), round(2 * math.pi, 6), round(3 * math.pi, 6)]
        assert traj.value(2.0) == pytest.approx(math.sin(2.0) / 2.0, abs=1e-9)

    def test_horizon_before_the_singular_start_raises(self, sinc_pair):
        # the Picard bootstrap starts at RADIAL_START = 1e-6
        with pytest.raises(InvalidParams, match="forward only"):
            solve_radial(sinc_pair, 1.0, 5e-7)

    def test_zero_potential_constant_solution(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=0.0)
        traj = solve_radial(pair, 1.0, horizon=10.0)
        assert traj.zeros == ()
        assert traj.value(9.0) == pytest.approx(1.0, abs=1e-9)

    def test_shifted_euler_zero_count(self):
        # One zero before 1e4 at mu = 0.3: the oscillation is logarithmic
        # (consecutive zeros are a factor exp(pi/nu) ~ 1.3e6 apart), so the
        # certified count on [1, 1e4] is exactly 1, at the closed-form spot.
        traj = solve_radial(euler_pair(0.3), 1.0, horizon=1e4)
        assert len(traj.zeros) == 1
        assert traj.zeros[0].location == pytest.approx(euler_first_zero(0.3),
                                                       rel=1e-7)

    def test_euler_oscillation_dichotomy_extended_horizon(self):
        # >= 3 zeros exactly above the 1/4 threshold once the horizon is
        # long enough for the log-periodic oscillation to show itself.
        counts = {}
        for mu in (0.20, 0.24, 0.26, 0.30):
            traj = solve_radial(euler_pair(mu), 1.0, horizon=1e40)
            counts[mu] = len(traj.zeros)
        assert counts[0.20] <= 1 and counts[0.24] <= 1
        assert counts[0.26] >= 3 and counts[0.30] >= 3

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_zero_cap_stops_early(self, sinc_pair, cap):
        traj = solve_radial(sinc_pair, 1.0, horizon=100.0, zero_cap=cap)
        assert len(traj.zeros) == cap
        assert traj.terminated_reason == "zero_cap"
        assert traj.t_end < 100.0
        for z in traj.zeros:
            assert traj.t_start <= z.t_lo < z.t_hi <= traj.t_end

    def test_rejects_nonpositive_z0(self, sinc_pair):
        with pytest.raises(InvalidParams):
            solve_radial(sinc_pair, 0.0, horizon=5.0)

    def test_state_outside_solved_interval_raises(self):
        # W = 1/(t-2)^2 stops the solver at the pole t = 2
        traj = solve_radial(pole_pair(), 1.0, horizon=5.0)
        assert traj.terminated_reason == "step_underflow"
        traj.state(traj.t_end)
        for t in (3.0 * traj.t_end, 0.5):
            with pytest.raises(OutOfValidity):
                traj.state(t)
        with pytest.raises(OutOfValidity):
            traj.value(np.array([1.5, 3.0 * traj.t_end]))

    def test_weight_vanishing_at_the_horizon_breaks_down(self):
        # v = (t - 2)^2 and W = 0: the last stage of a step onto t = 2 divides
        # the flux 0 by v = 0, which rejects the step as numpy's nan would
        shifted = add(power(1.0, 1.0), constant(-2.0))
        pair = CoefficientPair(multiply(shifted, shifted), constant(0.0),
                               b_const=0.0, t_start=1.0, validate=False)
        with np.errstate(invalid="ignore"):
            traj = solve_radial(pair, 1.0, horizon=2.0)
        assert traj.terminated_reason == "step_underflow"
        assert traj.t_end == pytest.approx(2.0, abs=1e-9)

    def test_scalar_state_checks_its_range_like_the_array_path(self, sinc_pair):
        traj = solve_radial(sinc_pair, 1.0, horizon=10.0)
        inside = [traj.t_start, traj.t_end, *np.linspace(traj.t_start, traj.t_end, 17)]
        for t in inside:
            for scalar in (t, np.float64(t)):
                assert (traj.state(scalar).tobytes()
                        == traj.state(np.array([t]))[:, 0].tobytes())
        for t in (math.nextafter(traj.t_start, -math.inf),
                  math.nextafter(traj.t_end, math.inf)):
            for arg in (t, np.float64(t), np.array([t])):
                with pytest.raises(OutOfValidity):
                    traj.state(arg)

    def test_nan_abscissa_is_out_of_validity(self, sinc_pair):
        # NaN compares false both ways, so only a positive test of
        # inside-ness refuses it, for a scalar and for an array entry
        for traj in (solve_radial(sinc_pair, 1.0, horizon=10.0),
                     solve_jacobi(CurvatureProfile(constant(1.0), m=2), 10.0)):
            for arg in (math.nan, np.float64(math.nan), np.array([1.0, math.nan])):
                for name in ("state", "value", "flux", "derivative"):
                    with pytest.raises(OutOfValidity):
                        getattr(traj, name)(arg)

    def test_scalar_calls_return_floats(self, sinc_pair):
        # float, int and np.float64 give Python floats equal to the array
        # path's entries; arrays give arrays
        traj = solve_radial(sinc_pair, 1.0, horizon=10.0)
        ts = np.array([0.5, 2.0, 7.25, traj.t_end])
        for name in ("value", "flux", "derivative"):
            f = getattr(traj, name)
            rows = f(ts)
            assert type(rows) is np.ndarray and rows.shape == ts.shape
            for t, row in zip(ts.tolist(), rows.tolist()):
                for scalar in (t, np.float64(t)):
                    assert type(f(scalar)) is float and f(scalar) == row
            assert type(f(2)) is float and f(2) == rows[1]
        assert type(traj(2.0)[1]) is float

    def test_pole_breakdown_stops_at_step_floor(self):
        # the step floor ends the solve 700 to 800 steps after the start;
        # scipy's own 10-ulp floor alone lets it grind on for over 13,000
        traj = solve_radial(pole_pair(), 1.0, horizon=5.0)
        assert traj.terminated_reason == "step_underflow"
        assert traj.t_end == pytest.approx(2.0, abs=1e-6)
        assert len(traj.zeros) == 6
        assert len(traj.ts) < 1648

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_singular_start_flux(self, q, s):
        # flux(eps) = -z0 * integral of W v over (0, eps), up to O(eps^2)
        c, cv, z0, eps = 1.7, 0.6, 1.5, RADIAL_START
        pair = CoefficientPair(power(cv, q), power(c, s), b_const=0.0)
        traj = solve_radial(pair, z0, horizon=2.0 * eps)
        assert traj.t_start == eps
        assert traj.fluxes[0] == pytest.approx(
            -c * cv * z0 * eps ** (s + q + 1) / (s + q + 1), rel=1e-10)

    def test_singular_start_failure(self):
        # W ~ t^-2 has no bounded-slope branch at the origin
        pair = CoefficientPair(power(1.0, 2.0), power(0.3, -2.0), b_const=0.0)
        with pytest.raises(SingularStartFailure):
            solve_radial(pair, 1.0, horizon=10.0)


class TestLocateZeros:
    def test_sin_brackets(self, unit_curvature):
        traj = solve_jacobi(unit_curvature, horizon=7.0)
        certs = locate_zeros(traj, zero_tol=1e-8)
        assert len(certs) == 2
        for cert, target in zip(certs, (math.pi, 2 * math.pi)):
            assert cert.t_lo < target < cert.t_hi
            assert cert.width <= 2e-8
            assert cert.sign_before * cert.sign_after == -1

    def test_sign_change_through_exact_zero_sample(self):
        class LinearDense:
            """Dense output x - 0.5 on [0, 1]; the scan grid hits 0.5."""
            ts = np.array([0.0, 1.0])

            def __call__(self, x):
                x = np.asarray(x, dtype=float)
                return np.stack([x - 0.5, np.ones_like(x)])

        certs = _scan_chunk(LinearDense(), 1e-8)
        assert len(certs) == 1
        assert certs[0].t_lo < 0.5 < certs[0].t_hi
        assert certs[0].width <= 2e-8
        assert (certs[0].sign_before, certs[0].sign_after) == (-1, 1)
        # the midpoint 0.5 is a zero and is retried one ulp on: still a float
        assert type(certs[0].t_lo) is float and type(certs[0].t_hi) is float

    def test_bracket_across_a_node_bisects_each_point_on_its_own_step(self):
        # value t - 1 on the step [0, 1] and (t - 1)^2 on [1, 2]: the scan
        # sample at the node t = 1 is 0, so the bracket [7/8, 9/8] spans the
        # node; the second step's polynomial is positive below it, so a
        # bisection on that polynomial alone would end near 7/8
        zero = (0.0, 0.0)
        table = _DenseTable(np.array([0.0, 1.0, 2.0]),
                            np.array([[-1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]),
                            [[(1.0, 0.0)] + [zero] * 6,
                             [(1.0, 0.0), (-1.0, 0.0)] + [zero] * 5])

        class CallsOnly:
            """The table through calls alone: the scan's generic path."""
            ts = table.ts

            def __call__(self, x):
                return table(x)

        certs = _scan_chunk(table, 1e-12)
        assert len(certs) == 1 and certs[0].t_lo < 1.0 < certs[0].t_hi
        assert certs == _scan_chunk(CallsOnly(), 1e-12)

    def test_constant_trajectory_empty(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=0.0)
        traj = solve_radial(pair, 1.0, horizon=10.0)
        assert locate_zeros(traj) == []

    def test_sinh_trajectory_empty(self, hyperbolic_curvature):
        traj = solve_jacobi(hyperbolic_curvature, horizon=50.0)
        assert locate_zeros(traj) == []

    def test_refinement_convergence(self, unit_curvature):
        coarse_tol = 1e-6
        traj = solve_jacobi(unit_curvature, horizon=4.0, zero_tol=coarse_tol)
        fine = solve_jacobi(unit_curvature, horizon=4.0, zero_tol=coarse_tol / 2)
        shift = abs(traj.zeros[0].location - fine.zeros[0].location)
        assert shift < coarse_tol


class TestExtendUntilZero:
    def test_finds_sinc_zero(self, sinc_pair):
        res = extend_until_zero(sinc_pair, 1.0, horizon_cap=10.0)
        assert res.found
        assert res.certificate.location == pytest.approx(math.pi, abs=1e-6)

    def test_inconclusive_constant(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(0.0), b_const=0.0)
        res = extend_until_zero(pair, 1.0, horizon_cap=1e4)
        assert not res.found
        assert res.horizon == pytest.approx(1e4)
        assert np.all(res.trajectory.values > 0)

    def test_euler_zero_found(self):
        res = extend_until_zero(euler_pair(0.3), 1.0, horizon_cap=1e4)
        assert res.found
        assert res.certificate.location == pytest.approx(euler_first_zero(0.3),
                                                         rel=1e-7)


class TestSolutionQuality:
    def test_wronskian_constancy_jacobi(self, unit_curvature):
        t1 = solve_jacobi(unit_curvature, horizon=6.0)
        t2 = solve_jacobi(unit_curvature, horizon=6.0, t_start=1e-8, u0=1.0,
                          du0=0.0)
        ts = np.linspace(0.5, 6.0, 40)
        w = t1.value(ts) * t2.flux(ts) - t2.value(ts) * t1.flux(ts)
        assert np.max(np.abs(w - w[0])) <= 1e-8 * abs(w[0])

    def test_wronskian_constancy_radial(self, sinc_pair):
        # v (z1 z2' - z2 z1') = z1 w2 - z2 w1 in flux variables
        t1 = solve_radial(sinc_pair, 1.0, horizon=8.0)
        t2 = solve_radial(CoefficientPair(power(1.0, 2.0), constant(1.0),
                                          b_const=0.0, t_start=1.0,
                                          validate=False),
                          1.0, horizon=8.0, dz0=1.0)
        ts = np.linspace(1.5, 8.0, 40)
        w = t1.value(ts) * t2.flux(ts) - t2.value(ts) * t1.flux(ts)
        assert np.max(np.abs(w - w[0])) <= 1e-8 * abs(w[0])

    def test_sturm_separation_euler(self):
        # between consecutive zeros of one solution lies exactly one zero of
        # an independent one (mu = 2 keeps several zeros inside the window)
        base = euler_pair(2.0)
        z1 = solve_radial(base, 1.0, horizon=500.0)
        z2 = solve_radial(base, 1.0, horizon=500.0, dz0=3.0)
        ours = [c.location for c in z1.zeros]
        others = [c.location for c in z2.zeros]
        assert len(ours) >= 3
        for lo, hi in zip(ours, ours[1:]):
            inside = [t for t in others if lo < t < hi]
            assert len(inside) == 1

    def test_residual_against_rhs(self, sinc_pair):
        traj = solve_radial(sinc_pair, 1.0, horizon=10.0)
        assert residual_max(traj) < 1e-6

    def test_sign_constant_between_zeros(self, sinc_pair):
        traj = solve_radial(sinc_pair, 1.0, horizon=10.0)
        marks = [traj.t_start] + [z.location for z in traj.zeros] + [traj.t_end]
        for lo, hi in zip(marks, marks[1:]):
            sel = traj.values[(traj.ts > lo + 1e-6) & (traj.ts < hi - 1e-6)]
            assert len(np.unique(np.sign(sel))) == 1


TOL_FLOOR_SOLVES = {
    "jacobi": lambda tol: solve_jacobi(CurvatureProfile(constant(1.0), m=2), 4.0, tol=tol),
    "radial, shifted": lambda tol: solve_radial(euler_pair(0.3), 1.0, 10.0, tol=tol),
    "radial, singular start": lambda tol: solve_radial(
        CoefficientPair(power(1.0, 2.0), constant(1.0), b_const=0.0), 1.0, 4.0, tol=tol),
}


@pytest.mark.parametrize("tol", [1e-20, 2.2e-14, 0.0, -1.0, math.nan])
@pytest.mark.parametrize("case", TOL_FLOOR_SOLVES)
def test_tol_below_the_rtol_floor_is_refused_before_any_step(case, tol):
    # DOP853 cannot hold an rtol below 100 eps, and scipy's solvers clamp it
    # there with a UserWarning on stderr
    with recorded_solves() as sols, pytest.raises(
            InvalidParams, match="solver tol must be at least 2.22e-14"):
        TOL_FLOOR_SOLVES[case](tol)
    assert sols == []


@pytest.mark.parametrize("case", TOL_FLOOR_SOLVES)
def test_tol_at_the_rtol_floor_solves(case):
    # with warnings as errors, a clamp warning would fail this
    assert TOL_FLOOR_SOLVES[case](100.0 * np.finfo(float).eps).terminated_reason == "horizon"


SOLVES = {
    **{f"jacobi(K={k:g})": functools.partial(
        solve_jacobi, CurvatureProfile(constant(k), m=2), 30.0)
       for k in (0.5, 1.0, 1.49, 2.0)},
    "radial(v=t^2, W=0.9)": functools.partial(
        solve_radial, CoefficientPair(power(1.0, 2.0), constant(0.9),
                                      b_const=0.0), 1.0, 30.0),
    "radial zero_cap=2": functools.partial(
        solve_radial, CoefficientPair(power(1.0, 2.0), constant(0.9),
                                      b_const=0.0), 1.0, 30.0, zero_cap=2),
    "pole pair": functools.partial(solve_radial, pole_pair(), 1.0, 5.0),
    "jacobi(K=1) to 1e3": functools.partial(
        solve_jacobi, CurvatureProfile(constant(1.0), m=2), 1e3),
    "euler(mu=0.3) to 1e40": functools.partial(
        solve_radial, euler_pair(0.3), 1.0, 1e40),
}
TABLE_CASES = ["jacobi(K=0.5)", "jacobi(K=1)", "jacobi(K=1.49)", "jacobi(K=2)",
               "radial(v=t^2, W=0.9)", "radial zero_cap=2", "pole pair"]
SCAN_CASES = ["jacobi(K=1) to 1e3", "euler(mu=0.3) to 1e40", "pole pair"]


@functools.cache
def solved(case):
    """A trajectory and scipy's OdeSolution over the same steps and dense rows.

    Each reference interpolant is scipy's ``Dop853DenseOutput`` of one step,
    from the node that starts it and the rows the stepper left for it.
    """
    with recorded_solves() as sols:
        traj = SOLVES[case]()
    (sol,) = sols
    steps = zip(sol.t[:-1], sol.t[1:], sol.y.T[:-1], sol.rows)
    return traj, OdeSolution(traj.ts, [Dop853DenseOutput(t_old, t, y_old, np.array(rows))
                                       for t_old, t, y_old, rows in steps])


class TestDenseTable:
    """The stacked dense output against scipy's per-step interpolants, bit for bit."""

    def test_cases_cover_every_termination(self):
        reasons = {solved(case)[0].terminated_reason for case in TABLE_CASES}
        assert reasons == {"horizon", "zero_cap", "step_underflow"}

    @pytest.mark.parametrize("case", TABLE_CASES)
    def test_nodes_and_ends(self, case):
        traj, ref = solved(case)
        pts = np.concatenate([traj.ts, [traj.t_start, traj.t_end]])
        assert traj.dense(pts).tobytes() == ref(pts).tobytes()
        assert traj.state(pts).tobytes() == ref(pts).tobytes()
        for t in pts:
            assert traj.state(t).tobytes() == ref(t).tobytes()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_unsorted_points_with_duplicates(self, data):
        traj, ref = solved(data.draw(st.sampled_from(TABLE_CASES)))
        inside = st.floats(traj.t_start, traj.t_end)
        pts = data.draw(st.lists(inside | st.sampled_from(traj.ts.tolist()),
                                 min_size=1, max_size=40))
        pts = np.array(data.draw(st.permutations(pts + pts[:5])))
        assert traj.dense(pts).tobytes() == ref(pts).tobytes()
        for t in pts[:8]:
            assert np.array(traj.dense(t)).tobytes() == ref(t).tobytes()
            assert traj.state(t).tobytes() == ref(t).tobytes()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_step_values_are_the_scalar_path_bit_for_bit(self, data):
        # the bisection's float polynomial of a step against _at at nodes,
        # step ends and points inside
        traj, _ = solved(data.draw(st.sampled_from(TABLE_CASES)))
        table = traj.dense
        inside = st.floats(traj.t_start, traj.t_end)
        for t in data.draw(st.lists(inside | st.sampled_from(traj.ts.tolist()),
                                    min_size=1, max_size=20)):
            value = table._step_value(table._step(t))(t)
            assert float_bits(value) == float_bits(table._at(t)[0])

    @pytest.mark.parametrize("zero_tol", [1e-6, 1e-8, 1e-12])
    @pytest.mark.parametrize("case", SCAN_CASES)
    def test_same_certificates(self, case, zero_tol):
        traj, ref = solved(case)
        certs = _scan_chunk(traj.dense, zero_tol)
        assert certs == _scan_chunk(ref, zero_tol)
        assert len(certs) == {"jacobi(K=1) to 1e3": 318, "pole pair": 6,
                              "euler(mu=0.3) to 1e40": 7}[case]


@pytest.mark.parametrize("solve", [
    lambda: solve_jacobi(CurvatureProfile(constant(1.0), m=2), 30.0),
    lambda: solve_jacobi(CurvatureProfile(constant(1.0), m=2), 30.0, zero_cap=3),
    lambda: solve_radial(euler_pair(0.3), 1.0, 1e40),
    lambda: extend_until_zero(euler_pair(0.3), 1.0, horizon_cap=1e4),
    lambda: extend_until_zero(euler_pair(0.2), 1.0, horizon_cap=1e4),
], ids=["jacobi", "jacobi zero_cap", "euler to 1e40", "extend found",
        "extend not found"])
def test_one_solver_call_through_the_traced_name(solve):
    # the benchmark's layer trace sees solver work only through this name
    with recorded_solves() as sols:
        solve()
    assert len(sols) == 1


class ScipyStepper(DOP853):
    """scipy's own DOP853 step, with the step floor of the float stepper.

    After each accepted step it leaves scipy's dense rows in ``rows``, as
    the float stepper does.
    """

    steps = 0  # accepted steps over every instance, so a test sees it was used

    def step(self):
        message = super().step()
        if self.status != "failed":
            self.rows = self.dense_output().F
        return message

    def _step_impl(self):
        t = self.t
        success, message = super()._step_impl()
        if (success and self.t != self.t_bound
                and self.t - t < sturmosc._dop853.MIN_STEP_ULPS * math.ulp(t)):
            return False, "step floor"
        ScipyStepper.steps += success
        return success, message


ORACLE_SOLVES = {
    "sin to 1e3": SOLVES["jacobi(K=1) to 1e3"],
    "sinc": functools.partial(solve_radial, CoefficientPair(
        power(1.0, 2.0), constant(1.0), b_const=0.0), 1.0, 10.0),
    "radial zero_cap=2": SOLVES["radial zero_cap=2"],
    "pole pair": SOLVES["pole pair"],
    **{f"euler(mu={mu:g}) to {horizon:g}": functools.partial(
        solve_radial, euler_pair(mu), 1.0, horizon)
       for mu in (0.20, 0.24, 0.26, 0.30) for horizon in (1e4, 1e40)},
}


@pytest.mark.parametrize("case", ORACLE_SOLVES)
def test_float_stepper_agrees_with_scipys_dop853(case, monkeypatch):
    # the float sums round differently from numpy's dot products, so the
    # steps drift apart at rounding level; zeros agree far below zero_tol's
    # 1e-8 relative
    traj = ORACLE_SOLVES[case]()
    monkeypatch.setattr(sturmosc._dop853, "Stepper", ScipyStepper)
    before = ScipyStepper.steps
    ref = ORACLE_SOLVES[case]()
    assert ScipyStepper.steps - before == len(ref.ts) - 1
    assert traj.terminated_reason == ref.terminated_reason
    assert len(traj.zeros) == len(ref.zeros)
    for ours, theirs in zip(traj.zeros, ref.zeros):
        assert abs(ours.location - theirs.location) <= 1e-8 * (1.0 + abs(theirs.location))


K_ONE = CurvatureProfile(constant(1.0), m=2)
K_QUARTER_PI = CurvatureProfile(constant((math.pi / 4.0) ** 2), m=2)
CAPPED_SOLVES = {
    **{f"sin zero_cap={cap}": functools.partial(solve_jacobi, K_ONE, 30.0, zero_cap=cap)
       for cap in (1, 2, 3, 4)},
    **{f"euler(mu=0.3) to 1e40 zero_cap={cap}": functools.partial(
        solve_radial, euler_pair(0.3), 1.0, 1e40, zero_cap=cap) for cap in (1, 2, 3, 4)},
    **{f"sin(t - 1) from its zero, zero_cap={cap}": functools.partial(
        solve_jacobi, K_ONE, 10.0, t_start=1.0, u0=0.0, du0=1.0, zero_cap=cap)
       for cap in (1, 2)},
    # the zeros of test_zeros_at_step_ends_certified_once
    **{f"sin(pi t / 4) to 17 zero_cap={cap}": functools.partial(
        solve_jacobi, K_QUARTER_PI, 17.0, zero_cap=cap) for cap in (1, 2, 3, 4)},
    # the last step, clipped onto the horizon, crosses the first zero
    "sin to pi + 0.01 zero_cap=1": functools.partial(
        solve_jacobi, K_ONE, math.pi + 0.01, zero_cap=1),
}


@pytest.mark.parametrize("case", CAPPED_SOLVES)
def test_zero_cap_stops_where_scipys_terminal_event_does(case, monkeypatch):
    # both loops drive scipy's own step, so they step alike bit for bit and
    # differ only in how they stop; scipy's solve_ivp counts the crossings
    # with a terminal event and root-solves it inside the last step
    monkeypatch.setattr(sturmosc._dop853, "Stepper", ScipyStepper)
    real, calls = sturmosc.ode.solve_ivp, []

    def record(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(sturmosc.ode, "solve_ivp", record)
    CAPPED_SOLVES[case]()
    ((rhs, t0, y0, horizon, rtol, atol, zero_cap), ours), = calls

    def crossing(t, y):
        return y[0]

    crossing.terminal = zero_cap + (y0[0] == 0.0)
    ref = scipy_solve_ivp(rhs, (t0, horizon), np.asarray(y0, dtype=float),
                          method=ScipyStepper, dense_output=True, events=crossing,
                          rtol=rtol, atol=atol)
    last = ref.sol.interpolants[-1]
    assert ours.status == ref.status == 1
    assert len(ours.t) - 1 == len(ref.sol.interpolants)
    assert ours.t[-1] == last.t
    assert (last.t == horizon) == case.startswith("sin to pi")


ONE_STEPS = {
    # y' = (y1, -(1 + t) y0): a smooth step, accepted at once
    "airy": (_System(add(constant(1.0), power(1.0, 1.0))), 0.3),
    # y' = (y1 / V, 0) with y1 = 1, V = 1 before t = 1 and 1e-3 after: the
    # first try crosses the jump and is rejected; the retry sees a constant
    # slope, so its factor is clamped to 1 after the rejection
    "jump": (_System(constant(0.0), Profile(lambda t: np.where(t < 1.0, 1.0, 1e-3))), 2.0),
}


@pytest.mark.parametrize("case", ONE_STEPS)
def test_one_step_matches_scipys_dop853(case):
    rhs, first_step = ONE_STEPS[case]
    ours = sturmosc._dop853.Stepper(rhs, 0.0, (0.3, 1.0), 10.0, rtol=1e-9, atol=1e-13)
    ref = DOP853(rhs, 0.0, np.array([0.3, 1.0]), 10.0, rtol=1e-9, atol=1e-13)
    assert ours.nfev == ref.nfev
    ours.h_abs = ref.h_abs = first_step
    assert ours.step() is None
    assert ref.step() is None
    assert ours.t == pytest.approx(ref.t, rel=1e-14)
    assert ours.h_abs == pytest.approx(ref.h_abs, rel=1e-6)
    np.testing.assert_allclose(ours.y, ref.y, rtol=1e-14)
    ts = np.linspace(0.0, ref.t, 7)
    dense = Dop853DenseOutput(0.0, ours.t, np.array([0.3, 1.0]), np.array(ours.rows))
    np.testing.assert_allclose(dense(ts), ref.dense_output()(ts), rtol=1e-13, atol=1e-15)
    assert ours.nfev == ref.nfev


def combine(ks, row):
    """sum of a * k over the (stage, a) pairs of ``row``, per component: the
    loop that the generated DOP853 kernel unrolls."""
    a = b = 0.0
    for j, c in row:
        k0, k1 = ks[j]
        a += c * k0
        b += c * k1
    return a, b


def stages_by_loop(rhs, t, h, y0, y1, f):
    """What ``_trial`` and ``_extra`` compute, by loops over the tableau and
    calls of the pointwise ``rhs``: the trial, with its stages as pairs, and
    the dense rows."""
    dop = sturmosc._dop853
    ks = [f]
    for c, row in dop._STAGES:
        d0, d1 = combine(ks, row)
        ks.append(rhs(t + c * h, (y0 + d0 * h, y1 + d1 * h)))
    b0, b1 = combine(ks, dop._B)
    n0, n1 = y0 + h * b0, y1 + h * b1
    ks.append(rhs(t + h, (n0, n1)))
    trial = (n0, n1, *combine(ks, dop._E5), *combine(ks, dop._E3), tuple(ks))
    for c, row in dop._EXTRA_STAGES:
        d0, d1 = combine(ks, row)
        ks.append(rhs(t + c * h, (y0 + d0 * h, y1 + d1 * h)))
    return trial, [(h * a, h * b) for a, b in (combine(ks, row) for row in dop._D)]


class LoopStepper(sturmosc._dop853.Stepper):
    """The float stepper with every trial by ``stages_by_loop`` on its pointwise
    ``rhs``, in place of the linear kernel: the reference for the kernel's drive."""

    def _trial(self, t, h, y0, y1, f):
        (*trial, ks), self._rows = stages_by_loop(self.rhs, t, h, y0, y1, f)
        return (*trial, sum(ks, ()))

    def _dense(self, h, y0, y1, ks):
        return self._rows


def float_bits(x):
    """The bytes of every float in a nest of tuples and lists, signs of zero included."""
    return np.array(x, dtype=float).tobytes()


SIGNED = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-10.0, 10.0)
STAGE_VALUES = st.lists(SIGNED, min_size=15, max_size=15)


@given(STAGE_VALUES, STAGE_VALUES, st.floats(-1e3, 1e3), st.floats(1e-9, 10.0),
       SIGNED, SIGNED, st.tuples(SIGNED, SIGNED))
@settings(max_examples=300, deadline=None)
@example([1.0] * 15, [-0.0] * 15, 0.0, 1.0, -0.0, -0.0, (-0.0, -0.0))
@example([-1.0] * 15, [1.0] * 15, -0.0, 0.5, -0.0, 0.0, (0.0, -0.0))
# V vanishes at an interior stage, at the new state (stage 12) and at a
# dense stage, with a flux of either sign or 0 to divide
@example([1.0] * 5 + [0.0] + [1.0] * 9, [-1.0] * 15, 0.0, 1.0, 1.0, 0.5, (0.5, -1.0))
@example([2.0] * 11 + [-0.0] + [2.0] * 3, [-2.0] * 15, 3.0, 0.25, 1.0, -0.5, (-0.25, -2.0))
@example([1.0] * 13 + [0.0, 1.0], [-0.0] * 15, 0.0, 1.0, 1.0, 0.0, (0.0, -0.0))
def test_generated_kernel_matches_the_loop_bit_for_bit(v, q, t, h, y0, y1, f):
    # the kernel's y' = (y1 / V, Q y0) against the loop over the pointwise
    # system whose j-th call takes V = v[j] and Q = q[j]; a sum that started
    # from its first term instead of 0.0 would keep a -0.0 there: the signed
    # zeros pin the start
    abscissae, values = [], iter(zip(v, q))

    def rhs(t, y):
        abscissae.append(t)
        vj, qj = next(values)
        return (y[1] / vj if vj else np.divide(y[1], vj), qj * y[0])

    dop = sturmosc._dop853
    with np.errstate(all="ignore"):
        (*trial_ref, ks_ref), rows_ref = stages_by_loop(rhs, t, h, y0, y1, f)
        *trial, ks = dop._trial(h, y0, y1, f, v, q)
        rows = dop._extra(h, y0, y1, ks, v, q)
    assert float_bits(trial) == float_bits(trial_ref)
    assert float_bits(ks) == float_bits(ks_ref)
    assert float_bits(rows) == float_bits(rows_ref)
    # the coefficients were taken where the loop calls the system
    assert float_bits(abscissae) == float_bits(t + dop.C * h)


@given(st.floats() | st.sampled_from([0.0, -0.0, 5e-324, math.inf]),
       st.floats(-1e3, 1e3), st.floats(1e-9, 10.0))
@settings(max_examples=200, deadline=None)
def test_constant_stage_values_are_the_evaluators_bit_for_bit(c, t, h):
    # a constant's stage values are taken without an evaluator call; they
    # are what the call gives, signs of zero and NaNs included
    k, v = constant(c), power(1.0, 2.0)
    ts = t + sturmosc._dop853.C * h
    with np.errstate(all="ignore"):
        assert (float_bits(_System(k).stages(t, h))
                == float_bits(([1.0] * 15, (-k.evaluator(ts)).tolist())))
        vs = v.evaluator(ts)
        assert (float_bits(_System(k, v).stages(t, h))
                == float_bits((vs.tolist(), (-k.evaluator(ts) * vs).tolist())))


def test_weight_vanishing_at_an_interior_stage_rejects_the_trial():
    # v = (t - 1/4)^2 vanishes at stage 6's abscissa 0 + 0.25 * 1 of the try
    # h = 1: numpy's inf there rejects the trial, and the step taken is the
    # loop's over the pointwise system, bit for bit
    shifted = add(power(1.0, 1.0), constant(-0.25))
    system = _System(constant(1.0), multiply(shifted, shifted))
    assert system.stages(0.0, 1.0)[0][5] == 0.0
    steppers = []
    for stepper in (sturmosc._dop853.Stepper, LoopStepper):
        steppers.append(stepper(system, 0.0, (1.0, 0.0), 10.0, rtol=1e-9, atol=1e-13))
        steppers[-1].h_abs = 1.0
        with np.errstate(all="ignore"):
            assert steppers[-1].step() is None
    ours, ref = steppers
    assert 0.0 < ours.t < 1.0
    for name in ("t", "y", "f", "h_abs", "nfev", "rows"):
        assert float_bits(getattr(ours, name)) == float_bits(getattr(ref, name))


def nonzero(row):
    """The (stage, coefficient) pairs of one tableau row, zeros left out."""
    return tuple((j, float(a)) for j, a in enumerate(row) if a != 0.0)


def test_tableau_literals_are_scipys_bit_for_bit():
    dop, n = sturmosc._dop853, scipy_dop853.N_STAGES
    assert dop.N_STAGES == n
    ours = (dop._STAGES, dop._EXTRA_STAGES, dop._B, dop._E5, dop._E3, dop._D)
    scipys = (tuple((float(c), nonzero(a)) for c, a in
                    zip(scipy_dop853.C[1:n], scipy_dop853.A[1:n])),
              tuple((float(c), nonzero(a)) for c, a in
                    zip(scipy_dop853.C[n + 1:], scipy_dop853.A[n + 1:])),
              nonzero(scipy_dop853.B), nonzero(scipy_dop853.E5), nonzero(scipy_dop853.E3),
              tuple(nonzero(row) for row in scipy_dop853.D))
    # == alone would let a literal's -0.0 or an int stand for scipy's float
    assert repr(ours) == repr(scipys)
    for name in ("SAFETY", "MIN_FACTOR", "MAX_FACTOR"):
        assert float_bits(getattr(dop, name)) == float_bits(getattr(scipy_rk, name))


FIRST_STEP_RHS = {
    "linear": lambda m: lambda t, y: (m[0] * y[0] + m[1] * y[1], m[2] * y[0] + m[3] * y[1]),
    "airy": lambda m: lambda t, y: (y[1], -(m[0] + t) * y[0]),
    "jump": lambda m: lambda t, y: (m[0] if t < 1.0 else m[1], m[2] * y[0]),
}


@given(st.sampled_from(sorted(FIRST_STEP_RHS)), st.tuples(SIGNED, SIGNED, SIGNED, SIGNED),
       st.floats(-1e3, 1e3), st.tuples(SIGNED, SIGNED), st.floats(0.0, 1e4),
       st.sampled_from([1e-13, 1e-9, 1e-6, 1e-3]), st.sampled_from([1e-14, 1e-12, 1e-8]))
@settings(max_examples=300, deadline=None)
@example("linear", (0.0, 0.0, 0.0, 0.0), 0.0, (0.0, 0.0), 10.0, 1e-9, 1e-13)  # zero y0, f0
@example("linear", (0.0, 0.0, 0.0, 0.0), 0.0, (1.0, -2.0), 10.0, 1e-9, 1e-13)  # zero f0
@example("linear", (0.0, 1.0, -1.0, 0.0), 2.0, (1.0, 0.5), 0.0, 1e-9, 1e-13)  # t_bound = t0
# h0 = 14 is cut to the length 0.6, whose end lies past the jump
@example("jump", (1e-3, 5.0, 0.0, 0.0), 0.5, (1.0, 1.0), 0.6, 1e-3, 1e-8)
# zero y0 with f0 = (5, 0), and a trial step past the jump
@example("jump", (5.0, -5.0, 0.0, 0.0), 0.999, (0.0, 0.0), 10.0, 1e-9, 1e-13)
def test_first_step_is_scipys_select_initial_step(case, m, t0, y0, length, rtol, atol):
    rhs = FIRST_STEP_RHS[case](m)
    t_bound, f0 = t0 + length, rhs(t0, y0)
    ours = sturmosc._dop853._initial_step(rhs, t0, y0, f0, t_bound, rtol, atol)
    ref = select_initial_step(lambda t, y: np.asarray(rhs(t, y)), t0, np.array(y0),
                              t_bound, math.inf, np.array(f0), 1, 7, rtol, atol)
    assert float_bits(ours) == float_bits(ref)


class CountedSystem:
    """A solve's system that counts its pointwise calls and its trials."""

    def __init__(self, system):
        self.system, self.points, self.trials = system, 0, 0

    def __call__(self, t, y):
        self.points += 1
        return self.system(t, y)

    def stages(self, t, h):
        self.trials += 1
        return self.system.stages(t, h)


@pytest.mark.parametrize("case", SOLVES)
def test_nfev_counts_every_rhs_call(case, monkeypatch):
    # of the 15 abscissae a trial samples, it is charged 12 (stages 1-11 and
    # t + h) and an accepted step the 3 of its dense stages; the start adds
    # f0 and the first step's trial call
    systems = []
    real = sturmosc.ode._drive

    def drive(system, *args, **kwargs):
        systems.append(CountedSystem(system))
        return real(systems[-1], *args, **kwargs)

    monkeypatch.setattr(sturmosc.ode, "_drive", drive)
    with recorded_solves() as sols:
        SOLVES[case]()
    (counted,), (sol,) = systems, sols
    steps = len(sol.t) - 1
    assert counted.points == 2 and counted.trials >= steps > 0
    assert sol.nfev == counted.points + 12 * counted.trials + 3 * steps


def numpy_rhs_jacobi(k):
    """The Jacobi right-hand side as written before profiles had scalar forms."""
    kev = k.evaluator

    def rhs(t, y):
        return (y[1], -float(kev(np.float64(t))) * y[0])

    return rhs


def numpy_rhs_radial(pair):
    """The radial right-hand side as written before profiles had scalar forms."""
    vev, wev = pair.v.evaluator, pair.w.evaluator

    def rhs(t, y):
        tt = np.float64(t)
        vt = float(vev(tt))
        return (y[1] / vt, -float(wev(tt)) * vt * y[0])

    return rhs


SCALAR_RHS_CASES = {
    "space form K=1": (model_profiles(space_form(3, 1.0))[0], 30.0),
    "space form K=-1": (model_profiles(space_form(3, -1.0))[0], 30.0),
    "cubic warping (no closed form)": (
        model_profiles(warped_model(3, "cubic", alpha=0.5))[0], 30.0),
    "v=t^2, W=0.9 from the origin": (CoefficientPair(power(1.0, 2.0), constant(0.9),
                                                     b_const=0.0), 30.0),
    "euler(mu=0.3) to 1e40": (euler_pair(0.3), 1e40),
    "pole pair": (pole_pair(), 5.0),
}


@pytest.mark.parametrize("case", SCALAR_RHS_CASES)
def test_scalar_rhs_drives_like_the_numpy_rhs(case, monkeypatch):
    # the linear kernel on the array evaluators' stage values against the
    # loop over the pointwise numpy right-hand side
    coef, horizon = SCALAR_RHS_CASES[case]
    # the solvers' tol, zero_tol and zero_cap at their defaults
    tols = (DEFAULT_TOL, DEFAULT_ZERO_TOL, None)
    traj = (solve_radial(coef, 1.0, horizon) if isinstance(coef, CoefficientPair)
            else solve_jacobi(coef, horizon))
    monkeypatch.setattr(sturmosc._dop853, "Stepper", LoopStepper)
    if isinstance(coef, CoefficientPair):
        t0, y0 = ((coef.t_start, (1.0, 0.0)) if coef.t_start > 0
                  else _singular_start(coef, 1.0))
        ref = _drive(numpy_rhs_radial(coef), t0, y0, horizon, *tols, coef.v)
    else:
        ref = _drive(numpy_rhs_jacobi(coef.k), JACOBI_START,
                     (JACOBI_START, 1.0), horizon, *tols, None)
    for name in ("ts", "values", "fluxes"):
        assert getattr(traj, name).tobytes() == getattr(ref, name).tobytes()
    assert (traj.zeros, traj.terminated_reason) == (ref.zeros, ref.terminated_reason)
