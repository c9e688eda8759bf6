import math

import numpy as np
import pytest

from sturmosc import (CoefficientPair, CurvatureProfile, InvalidParams,
                      OutOfValidity, SingularStartFailure, constant,
                      extend_until_zero, locate_zeros, power, residual_max,
                      solve_jacobi, solve_radial)
from sturmosc.ode import RADIAL_START, _scan_chunk
from conftest import euler_pair, euler_zeros, pole_pair


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


class TestSolveRadial:
    def test_sinc_solution(self, sinc_pair):
        # (t^2 z')' + t^2 z = 0 with z(0) = 1 solves to sin(t)/t
        traj = solve_radial(sinc_pair, 1.0, horizon=10.0)
        assert [round(z.location, 6) for z in traj.zeros] == [
            round(math.pi, 6), round(2 * math.pi, 6), round(3 * math.pi, 6)]
        assert traj.value(2.0) == pytest.approx(math.sin(2.0) / 2.0, abs=1e-9)

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

    def test_pole_breakdown_stops_at_step_floor(self):
        # the step floor ends the solve about 800 steps after the start;
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
