"""DOP853 on Python floats, for the two-component systems of :mod:`sturmosc.ode`.

This module imports scipy's DOP853 tableau, its step control constants and
its initial-step rule, so :mod:`sturmosc.ode` imports it on the first solve
rather than at import.  The step floor and the stepper class are read from
here on every solve.  Steps run forward only.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _DOP
from scipy.integrate._ivp.common import select_initial_step
from scipy.integrate._ivp.rk import (MAX_FACTOR as _MAX_FACTOR,
                                     MIN_FACTOR as _MIN_FACTOR, SAFETY as _SAFETY)

# an accepted step shorter than this many ulps of t no longer resolves the
# solution in t (scipy itself only gives up below 10 ulp)
MIN_STEP_ULPS = 1024
# the order of DOP853's error estimator, and the exponent of the step
# factor that follows from it
_ERROR_ORDER = 7
_ERROR_EXPONENT = -1.0 / (_ERROR_ORDER + 1)


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


class Stepper:
    """DOP853 steps on Python floats, forward from t0 to t_bound >= t0.

    The systems here have two components, (value, flux), for which numpy's
    per-call overhead dominates the arithmetic, so ``y`` is a pair of
    floats.  The state is ``t``, ``y``, ``f`` = rhs(t, y), the next step
    size ``h_abs``, the count of right-hand side calls ``nfev`` and the last
    step's dense rows ``rows``.  The first step is scipy's ``select_initial_step`` for
    DOP853; ``nfev`` counts f0 and its trial call, as scipy's solver does.
    ``step`` repeats scipy's stages, error norm and step control, and returns
    None, or the reason no step could be accepted, as scipy's
    ``OdeSolver.step`` does.  Each accepted step also runs the three extra
    stages of the dense output and leaves its seven dense rows in ``rows``,
    as floats in the order of scipy's ``Dop853DenseOutput.F``: the
    interpolant on [t_old, t] is
    y_old + F0 x + F1 x(1 - x) + F2 x^2(1 - x) + ..., with
    x = (s - t_old) / (t - t_old).  The sums run in another order than
    numpy's dot products, so a trajectory agrees with scipy's to rounding,
    not bit for bit.

    Near a pole of the coefficients the accepted steps shrink towards the
    ulp of t; stopping at MIN_STEP_ULPS ends such a solve after a few
    hundred steps instead of grinding down to scipy's own 10-ulp floor.
    A final step clipped onto t_bound is exempt.
    """

    def __init__(self, rhs, t0, y0, t_bound, *, rtol, atol):
        self.rhs, self.t, self.t_bound, self.rtol, self.atol = rhs, t0, t_bound, rtol, atol
        self.y = float(y0[0]), float(y0[1])
        self.f, self.nfev, self.rows = rhs(t0, self.y), 1, None

        def counted(t, y):
            self.nfev += 1
            return rhs(t, y)

        self.h_abs = float(select_initial_step(
            counted, t0, np.array(self.y), t_bound, math.inf, np.array(self.f),
            1, _ERROR_ORDER, rtol, atol))

    def step(self):
        """Take one accepted step: None, or the reason no step could be taken."""
        t, f, (y0, y1), t_bound = self.t, self.f, self.y, self.t_bound
        rhs, rtol, atol = self.rhs, self.rtol, self.atol
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            # NaN too: a right-hand side that is NaN at the start gives a NaN step
            if not h_abs >= min_step:
                return "no step of at least 10 ulp of t is accepted"
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
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
                error_norm = h * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0)
            if error_norm == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * error_norm ** _ERROR_EXPONENT
            if error_norm < 1.0:
                h_abs = h * min(1.0 if rejected else _MAX_FACTOR, factor)
                break
            h_abs = h * max(_MIN_FACTOR, factor)
            rejected = True
        if t_new != t_bound and h < MIN_STEP_ULPS * math.ulp(t):
            return f"step shorter than {MIN_STEP_ULPS} ulp of t"
        for c, row in _EXTRA_STAGES:
            d0, d1 = _combine(ks, row)
            ks.append(rhs(t + c * h, (y0 + d0 * h, y1 + d1 * h)))
        self.nfev += len(_EXTRA_STAGES)
        (p0, p1), (q0, q1) = f, ks[_DOP.N_STAGES]
        dy0, dy1 = n0 - y0, n1 - y1
        self.rows = [(dy0, dy1), (h * p0 - dy0, h * p1 - dy1),
                     (2.0 * dy0 - h * (q0 + p0), 2.0 * dy1 - h * (q1 + p1))]
        self.rows += [(h * a, h * b) for a, b in (_combine(ks, row) for row in _D)]
        self.t, self.y, self.f, self.h_abs = t_new, (n0, n1), ks[_DOP.N_STAGES], h_abs
        return None
