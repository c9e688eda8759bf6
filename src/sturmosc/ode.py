"""Certified integration of u'' + K u = 0 and (v z')' + W v z = 0.

Both problems are driven as first-order systems in (value, flux), where
the flux is u' for the unweighted equation and v z' for the weighted one.
Working with the flux avoids differentiating v and keeps the singular
origin benign: v z' -> 0 as t -> 0+ for admissible pairs.

Every sign change of the dense output is bracketed by bisection into a
:class:`ZeroCertificate`; near-zeros without a sign change are reported
as suspects (they indicate numerical trouble, not geometry: a nontrivial
solution of a second-order linear ODE cannot have a double zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import DOP853, OdeSolution, solve_ivp

from .errors import (InvalidParams, NonFiniteSample, OutOfValidity,
                     SingularStartFailure, ToleranceNotMet)
from .profiles import CurvatureProfile, DEFAULT_TOL, Profile, cumulative, integrate

__all__ = [
    "ZeroCertificate",
    "Trajectory",
    "FirstZeroSearch",
    "solve_jacobi",
    "solve_radial",
    "locate_zeros",
    "extend_until_zero",
    "residual_max",
    "DEFAULT_ZERO_TOL",
    "JACOBI_START",
    "RADIAL_START",
]

DEFAULT_ZERO_TOL = 1e-8
JACOBI_START = 1e-8
RADIAL_START = 1e-6
_SUBSAMPLES = 8
# an accepted step shorter than this many ulps of t no longer resolves the
# solution in t (scipy itself only gives up below 10 ulp)
_MIN_STEP_ULPS = 1024
_REASONS = {0: "horizon", 1: "zero_cap", -1: "step_underflow"}


@dataclass(frozen=True)
class ZeroCertificate:
    """A bracketed sign change: value(t_lo) * value(t_hi) < 0."""

    t_lo: float
    t_hi: float
    sign_before: int
    sign_after: int

    @property
    def location(self):
        return 0.5 * (self.t_lo + self.t_hi)

    @property
    def width(self):
        return self.t_hi - self.t_lo


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Dense ODE solution with certified zero brackets.

    State convention: component 0 is the solution value, component 1 the
    flux (u' for :func:`solve_jacobi`, v z' for :func:`solve_radial`).
    ``dense`` is the solver's dense output over [t_start, t_end], or None
    when the solve took no step.
    """

    ts: np.ndarray
    values: np.ndarray
    fluxes: np.ndarray
    zeros: tuple
    suspects: tuple
    terminated_reason: str  # "horizon" | "zero_cap" | "step_underflow"
    t_start: float
    t_end: float
    dense: Optional[OdeSolution] = field(repr=False)
    weight: Optional[Profile] = field(default=None, repr=False)
    rhs: Optional[Callable] = field(default=None, repr=False)

    def state(self, t):
        """Dense state [(value, flux)] at scalar or array t in [t_start, t_end].

        Raises :class:`~sturmosc.errors.OutOfValidity` outside that interval
        rather than extrapolating the dense output.
        """
        if self.dense is None:
            raise InvalidParams("trajectory has no dense output "
                                f"(terminated: {self.terminated_reason})")
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any((arr < self.t_start) | (arr > self.t_end)):
            raise OutOfValidity(
                f"trajectory is valid on [{self.t_start:g}, {self.t_end:g}]")
        out = self.dense(arr)
        return out[:, 0] if np.ndim(t) == 0 else out

    def value(self, t):
        s = self.state(t)
        return s[0] if np.ndim(t) else float(s[0])

    def flux(self, t):
        s = self.state(t)
        return s[1] if np.ndim(t) else float(s[1])

    def derivative(self, t):
        s = self.state(t)
        d = s[1] / self.weight(t) if self.weight is not None else s[1]
        return d if np.ndim(t) else float(d)

    def __call__(self, t):
        return self.value(t), self.derivative(t)

    @property
    def derivatives(self):
        if self.weight is None:
            return self.fluxes
        return self.fluxes / self.weight(self.ts)

    @property
    def nodes(self):
        return list(zip(self.ts, self.values, self.derivatives))


def _refine_bracket(f, a, b, fa, fb, zero_tol):
    """Bisect a strict sign change down to width <= max(zero_tol, ~4 ulp)."""
    for _ in range(200):
        floor = max(zero_tol, 4.0 * np.spacing(max(abs(a), abs(b))))
        if (b - a) <= floor:
            break
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            m2 = np.nextafter(m, b)
            fm = f(m2)
            if fm == 0.0:
                break
            m = m2
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return a, b, fa, fb


def _scan_chunk(sol, zero_tol):
    """Bracketed sign changes of component 0 on a dense output.

    Each step is sampled at _SUBSAMPLES equally spaced points.
    """
    ts = np.asarray(getattr(sol, "ts", []))
    if len(ts) < 2:
        return []
    frac = np.arange(_SUBSAMPLES) / _SUBSAMPLES
    grid = np.append(ts[:-1, None] + np.diff(ts)[:, None] * frac, ts[-1])
    vals = sol(grid)[0]

    def f(x):
        return float(sol(x)[0])

    certs = []
    # samples that are exactly 0.0 carry no sign: compare their neighbours
    nonzero = np.nonzero(vals != 0.0)[0]
    sign = np.sign(vals[nonzero])
    for j in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        i, k = nonzero[j], nonzero[j + 1]
        a, b = float(grid[i]), float(grid[k])
        fa, fb = float(vals[i]), float(vals[k])
        a, b, fa, fb = _refine_bracket(f, a, b, fa, fb, zero_tol)
        certs.append(ZeroCertificate(a, b, int(math.copysign(1, fa)),
                                     int(math.copysign(1, fb))))
    return certs


def _find_suspects(ts, vals, zero_tol):
    out = []
    if len(vals) < 3:
        return out
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return out
    for i in range(1, len(vals) - 1):
        same = np.sign(vals[i - 1]) == np.sign(vals[i]) == np.sign(vals[i + 1])
        local_min = abs(vals[i]) <= abs(vals[i - 1]) and abs(vals[i]) <= abs(vals[i + 1])
        if same and local_min and 0 < abs(vals[i]) < 1e-9 * scale:
            out.append(float(ts[i]))
    return out


class _Stepper(DOP853):
    """DOP853 that reports a breakdown once a step stops resolving in t.

    Near a pole of the coefficients the accepted steps shrink towards the
    ulp of t; stopping at _MIN_STEP_ULPS ends such a solve after a few
    hundred steps instead of grinding down to scipy's own 10-ulp floor.
    A final step clipped onto the horizon is exempt.
    """

    def _step_impl(self):
        t = self.t
        success, message = super()._step_impl()
        if (success and self.t != self.t_bound
                and self.t - t < _MIN_STEP_ULPS * np.spacing(t)):
            return False, f"step shorter than {_MIN_STEP_ULPS} ulp of t"
        return success, message


def _drive(rhs, t0, y0, horizon, rtol, atol, zero_tol, zero_cap, weight):
    events = None
    if zero_cap is not None:
        def crossing(t, y):
            return y[0]
        # a start exactly on a zero fires the event but is no sign change
        crossing.terminal = zero_cap + (y0[0] == 0.0)
        events = crossing
    sol = solve_ivp(rhs, (float(t0), float(horizon)),
                    np.asarray(y0, dtype=float), method=_Stepper,
                    dense_output=True, events=events, rtol=rtol, atol=atol)
    ts, ys, dense = sol.t, sol.y, None
    if len(ts) > 1:
        dense = sol.sol
        if sol.status == 1:
            # The event stopped the solve at its root, inside the last step.
            # Keep that whole step so the scan sees a strict sign change.
            last = dense.interpolants[-1]
            ts = np.append(ts[:-1], last.t)
            ys = np.column_stack([ys[:, :-1], last(last.t)])
            dense = OdeSolution(ts, dense.interpolants)
    zeros = _scan_chunk(dense, zero_tol)
    if zero_cap is not None:
        zeros = zeros[:zero_cap]
    suspects = _find_suspects(ts, ys[0], zero_tol)
    return Trajectory(ts=ts, values=ys[0], fluxes=ys[1], zeros=tuple(zeros),
                      suspects=tuple(suspects),
                      terminated_reason=_REASONS[sol.status],
                      t_start=float(t0), t_end=float(ts[-1]),
                      dense=dense, weight=weight, rhs=rhs)


def solve_jacobi(k, horizon, tol=DEFAULT_TOL, zero_tol=DEFAULT_ZERO_TOL,
                 zero_cap=None, t_start=None, u0=None, du0=None):
    """Solve u'' + K u = 0 with the conjugate-point normalization.

    Default initial data is u(0) = 0, u'(0) = 1, realized by starting at a
    tiny offset with the first-order series u = t (the criteria only see
    zero positions, which are invariant under positive rescaling).
    Explicit (t_start, u0, du0) override the normalization, e.g. for
    Wronskian or Sturm-separation checks.
    """
    if horizon <= 0:
        raise InvalidParams("horizon must be positive")
    kp = k.k if isinstance(k, CurvatureProfile) else k
    if t_start is None:
        t0, y0 = JACOBI_START, (JACOBI_START, 1.0)
    else:
        if u0 is None or du0 is None:
            raise InvalidParams("explicit start needs u0 and du0")
        t0, y0 = float(t_start), (float(u0), float(du0))
    kev = kp.evaluator

    def rhs(t, y):
        return (y[1], -float(kev(np.float64(t))) * y[0])

    return _drive(rhs, t0, y0, horizon, rtol=tol,
                  atol=max(1e-14, tol * 1e-4), zero_tol=zero_tol,
                  zero_cap=zero_cap, weight=None)


def _singular_start(pair, z0):
    """Initial data at t = RADIAL_START realizing the bounded-slope branch.

    One Picard step gives z'(eps) = -(1/v(eps)) * integral of W v z0 over
    (0, eps); a second sweep with the refined z must move the slope by
    less than 1e-10 (relative) or the bootstrap is rejected.  With I(s) the
    integral of W v over (0, s), Fubini folds the second sweep into
    z0 * (I(eps) - integral over (0, eps) of I(s) (I(eps) - I(s)) / v(s)).
    """
    eps = RADIAL_START
    v, wv = pair.v, pair.wv
    qtol = 1e-12

    def correction(s):
        # the Kronrod nodes s arrive in increasing order
        i_s = cumulative(wv, np.append(0.0, s), tol=qtol)[1:]
        return i_s * (i_eps - i_s) / v(s)

    try:
        i_eps = integrate(wv, 0.0, eps, tol=qtol)
        slope1 = -z0 * i_eps / v(eps)
        slope2 = -z0 * (i_eps - integrate(correction, 0.0, eps, tol=qtol)) / v(eps)
    except (NonFiniteSample, ToleranceNotMet) as exc:
        raise SingularStartFailure(
            f"Picard bootstrap diverged near the origin: {exc}") from exc
    if abs(slope2 - slope1) >= 1e-10 * (1.0 + abs(slope1)):
        raise SingularStartFailure(
            f"Picard bootstrap did not settle at eps={eps:g}: "
            f"slope moved by {abs(slope2 - slope1):.3g}")
    return eps, (z0, float(v(eps)) * slope2)


def solve_radial(pair, z0, horizon, tol=DEFAULT_TOL, zero_tol=DEFAULT_ZERO_TOL,
                 zero_cap=None, dz0=None):
    """Solve (v z')' + W v z = 0 with z(0+) = z0 > 0.

    Pairs with ``t_start > 0`` are shifted problems with regular data
    z(t_start) = z0 and z'(t_start) = dz0 (default 0).  Pairs posed from
    the singular origin are bootstrapped per :func:`_singular_start`.
    """
    if z0 <= 0:
        raise InvalidParams("z0 must be positive")
    if horizon <= (pair.t_start or 0.0):
        raise InvalidParams("horizon must exceed the start abscissa")
    v, w = pair.v, pair.w
    if pair.t_start > 0:
        slope = 0.0 if dz0 is None else float(dz0)
        t0, y0 = pair.t_start, (float(z0), float(v(pair.t_start)) * slope)
    else:
        if dz0 is not None:
            raise InvalidParams("dz0 only applies to shifted (t_start > 0) pairs")
        t0, y0 = _singular_start(pair, float(z0))
    vev, wev = v.evaluator, w.evaluator

    def rhs(t, y):
        tt = np.float64(t)
        vt = float(vev(tt))
        return (y[1] / vt, -float(wev(tt)) * vt * y[0])

    return _drive(rhs, t0, y0, horizon, rtol=tol,
                  atol=max(1e-14, tol * 1e-4), zero_tol=zero_tol,
                  zero_cap=zero_cap, weight=v)


def locate_zeros(traj, zero_tol=DEFAULT_ZERO_TOL):
    """Re-scan a trajectory's dense output and certify every sign change.

    Returns fresh certificates at the requested bracket width; the
    trajectory's own certificates are untouched.
    """
    return _scan_chunk(traj.dense, zero_tol)


@dataclass(frozen=True)
class FirstZeroSearch:
    """Outcome of growing the horizon until a first zero is certified."""

    certificate: Optional[ZeroCertificate]
    horizon: float
    trajectory: Trajectory

    @property
    def found(self):
        return self.certificate is not None


def extend_until_zero(pair, z0, horizon_cap, tol=DEFAULT_TOL,
                      zero_tol=DEFAULT_ZERO_TOL):
    """Solve once up to ``horizon_cap``, stopping at the first certified zero.

    The inconclusive outcome carries the final horizon and the
    sign-definite trajectory.
    """
    if horizon_cap < 1:
        raise InvalidParams("horizon_cap must be >= 1")
    traj = solve_radial(pair, z0, horizon=horizon_cap, tol=tol,
                        zero_tol=zero_tol, zero_cap=1)
    cert = traj.zeros[0] if traj.zeros else None
    return FirstZeroSearch(cert, traj.t_end, traj)


def residual_max(traj):
    """Largest scaled ODE residual reconstructed by differencing dense output.

    Differences the flux midway through up to 64 interior solver steps and
    compares against the right-hand side; the result is scaled by (1 + |rhs|).
    """
    if traj.rhs is None or len(traj.ts) < 4:
        return 0.0
    ts = traj.ts
    steps = np.arange(1, len(ts) - 1)
    if len(steps) > 64:
        steps = steps[np.linspace(0, len(steps) - 1, 64).astype(int)]
    worst = 0.0
    for i in steps:
        width = ts[i + 1] - ts[i]
        if width <= 0:
            continue
        m = ts[i] + 0.5 * width
        h = max(1e-5 * width, 8.0 * np.spacing(m))
        if m - h <= ts[i] or m + h >= ts[i + 1]:
            continue
        dflux = (traj.flux(m + h) - traj.flux(m - h)) / (2.0 * h)
        target = traj.rhs(m, traj.state(m))[1]
        worst = max(worst, abs(dflux - target) / (1.0 + abs(target)))
    return worst
