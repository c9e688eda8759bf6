"""DOP853 on Python floats, for the two-component systems of :mod:`sturmosc.ode`.

This module imports scipy's DOP853 solver class, its tableau and its step
control constants, so :mod:`sturmosc.ode` imports it on the first solve
rather than at import.  The step floor and the stepper class are read from
here on every solve.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import DOP853
from scipy.integrate._ivp import dop853_coefficients as _DOP
from scipy.integrate._ivp.rk import (MAX_FACTOR as _MAX_FACTOR,
                                     MIN_FACTOR as _MIN_FACTOR, SAFETY as _SAFETY)

# an accepted step shorter than this many ulps of t no longer resolves the
# solution in t (scipy itself only gives up below 10 ulp)
MIN_STEP_ULPS = 1024


def _nonzero(row):
    """The (stage, coefficient) pairs of one tableau row, zeros left out."""
    return tuple((j, float(a)) for j, a in enumerate(row) if a != 0.0)


# DOP853's tableau (Hairer, Norsett and Wanner, Solving ODE I, II.10) as
# scipy ships it: stages 1-11, the three extra stages of the dense output
# (13-15), the solution weights B, the embedded error weights E5 and E3,
# and the four rows D of the dense-output polynomial.  Stage 12 is f(t + h,
# y_new), which the next step reuses as its stage 0.
_STAGES = tuple((float(c), _nonzero(a)) for c, a in
                zip(_DOP.C[1:_DOP.N_STAGES], _DOP.A[1:_DOP.N_STAGES]))
_EXTRA_STAGES = tuple((float(c), _nonzero(a)) for c, a in
                      zip(_DOP.C[_DOP.N_STAGES + 1:], _DOP.A[_DOP.N_STAGES + 1:]))
_B, _E5, _E3 = _nonzero(_DOP.B), _nonzero(_DOP.E5), _nonzero(_DOP.E3)
_D = tuple(_nonzero(row) for row in _DOP.D)


def _combine(ks, row):
    """sum of a * k over the (stage, a) pairs of ``row``, per component."""
    a = b = 0.0
    for j, c in row:
        k0, k1 = ks[j]
        a += c * k0
        b += c * k1
    return a, b


class Stepper(DOP853):
    """scipy's DOP853 with its step run on Python floats.

    The systems here have two components, (value, flux), for which numpy's
    per-call overhead dominates the arithmetic.  ``_step_impl`` therefore
    repeats scipy's stages, error norm and step control on floats, calling
    the raw right-hand side and counting ``nfev`` itself.  scipy's base
    class checks the arguments and picks the first step.  Each
    accepted step also runs the three extra stages of the dense output and
    leaves its seven dense rows in ``rows``, as floats in the order of
    scipy's ``Dop853DenseOutput.F``: the interpolant on [t_old, t] is
    y_old + F0 x + F1 x(1 - x) + F2 x^2(1 - x) + ..., with
    x = (s - t_old) / (t - t_old).  ``y`` stays an ndarray.  The sums run
    in another order than numpy's dot products, so a trajectory agrees
    with scipy's to rounding, not bit for bit.

    Near a pole of the coefficients the accepted steps shrink towards the
    ulp of t; stopping at MIN_STEP_ULPS ends such a solve after a few
    hundred steps instead of grinding down to scipy's own 10-ulp floor.
    A final step clipped onto the horizon is exempt.
    """

    def __init__(self, fun, t0, y0, t_bound, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self._rhs = fun
        self.f, self.h_abs = tuple(self.f.tolist()), float(self.h_abs)
        self.direction = float(self.direction)
        self.rtol, self.atol = float(self.rtol), float(self.atol)

    def _step_impl(self):
        t, f, (y0, y1) = self.t, self.f, self.y.tolist()
        rhs, direction, rtol, atol = self._rhs, self.direction, self.rtol, self.atol
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = self.h_abs
        if h_abs > self.max_step:
            h_abs = self.max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = t + h_abs * direction
            if direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            ks = [f]
            for c, row in _STAGES:
                d0, d1 = _combine(ks, row)
                ks.append(rhs(t + c * h, (y0 + d0 * h, y1 + d1 * h)))
            b0, b1 = _combine(ks, _B)
            n0, n1 = y0 + h * b0, y1 + h * b1
            ks.append(rhs(t + h, (n0, n1)))
            self.nfev += len(ks) - 1
            s0 = atol + max(abs(y0), abs(n0)) * rtol
            s1 = atol + max(abs(y1), abs(n1)) * rtol
            (e0, e1), (g0, g1) = _combine(ks, _E5), _combine(ks, _E3)
            e0, e1, g0, g1 = e0 / s0, e1 / s1, g0 / s0, g1 / s1
            err5, err3 = e0 * e0 + e1 * e1, g0 * g0 + g1 * g1
            if err5 == 0.0 and err3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0)
            if error_norm == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * error_norm ** self.error_exponent
            if error_norm < 1.0:
                h_abs *= min(1.0 if rejected else _MAX_FACTOR, factor)
                break
            h_abs *= max(_MIN_FACTOR, factor)
            rejected = True
        if t_new != self.t_bound and t_new - t < MIN_STEP_ULPS * math.ulp(t):
            return False, f"step shorter than {MIN_STEP_ULPS} ulp of t"
        for c, row in _EXTRA_STAGES:
            d0, d1 = _combine(ks, row)
            ks.append(rhs(t + c * h, (y0 + d0 * h, y1 + d1 * h)))
        self.nfev += len(_EXTRA_STAGES)
        (p0, p1), (q0, q1) = f, ks[_DOP.N_STAGES]
        dy0, dy1 = n0 - y0, n1 - y1
        self.rows = [(dy0, dy1), (h * p0 - dy0, h * p1 - dy1),
                     (2.0 * dy0 - h * (q0 + p0), 2.0 * dy1 - h * (q1 + p1))]
        self.rows += [(h * a, h * b) for a, b in (_combine(ks, row) for row in _D)]
        self.h_previous, self.h_abs = h, h_abs
        self.t, self.y, self.f = t_new, np.array((n0, n1)), ks[_DOP.N_STAGES]
        return True, None
