"""Certified integration of u'' + K u = 0 and (v z')' + W v z = 0.

Both problems are driven as first-order systems in (value, flux), where
the flux is u' for the unweighted equation and v z' for the weighted one.
Working with the flux avoids differentiating v and keeps the singular
origin benign: v z' -> 0 as t -> 0+ for admissible pairs.

Both are the linear system y' = (y1 / V, Q y0), a :class:`_System`: V = v
and Q = -W v, or V = 1 and Q = -K.  Each solve is one pass of
:func:`solve_ivp`, a step loop over the float DOP853 stepper of
:mod:`sturmosc._dop853` that keeps every node and every step's dense rows;
the stepper takes V and Q at a trial's 15 stage abscissae in one call of
each coefficient's array evaluator.

Every sign change of the dense output is bracketed by bisection into a
:class:`ZeroCertificate`, on the float polynomial of the step that holds
the bracket.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import _dop853
from .errors import (InvalidParams, NonFiniteSample, OutOfValidity,
                     SingularStartFailure, ToleranceNotMet)
from .profiles import (CurvatureProfile, DEFAULT_TOL, Profile, _check_tol, _Constant,
                       cumulative, integrate)

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


class _DenseTable:
    """The DOP853 dense output of one solve, stacked into arrays.

    Step i covers [ts[i], ts[i+1]] and starts from the node ys[:, i]; its
    dense rows are the stepper's ``rows`` for that step.  A node belongs to
    the step that ends there, as in scipy's ``OdeSolution``.  Both paths
    below repeat the operations of scipy's ``Dop853DenseOutput`` in the
    same order, so every value is bit-identical to scipy's interpolant over
    the same rows.  A call returns [value, flux] rows for a 1-D array and a
    (value, flux) tuple of floats for a scalar.
    """

    def __init__(self, ts, ys, rows):
        self.ts = ts
        self._t_old, self._h, self._y_old = ts[:-1], np.diff(ts), ys[:, :-1].T
        # (step, power, component), highest power first
        f = np.array(rows)[:, ::-1]
        self._f = np.ascontiguousarray(f.transpose(1, 0, 2))
        # the scalar path works on Python floats
        self._nodes = ts.tolist()
        self._steps = list(zip(self._t_old.tolist(), self._h.tolist(),
                               self._y_old.tolist(), f[:, :, 0].tolist(),
                               f[:, :, 1].tolist()))

    def __call__(self, t):
        # a float first: each bisection step of _refine_bracket passes one
        if isinstance(t, float) or np.ndim(t) == 0:
            return self._at(float(t))
        t = np.asarray(t, dtype=float)
        step = np.searchsorted(self.ts, t, side="left") - 1
        np.clip(step, 0, len(self._h) - 1, out=step)
        x = ((t - self._t_old[step]) / self._h[step])[:, None]
        factors = (x, 1 - x)
        y = np.zeros((len(t), self._y_old.shape[1]))
        for i, f in enumerate(self._f):
            y += f[step]
            y *= factors[i % 2]
        y += self._y_old[step]
        return y.T

    def _step(self, t):
        """The step that holds t: a node belongs to the step that ends there."""
        return min(max(bisect_left(self._nodes, t) - 1, 0), len(self._steps) - 1)

    def _at(self, t):
        t_old, h, (v, w), f0, f1 = self._steps[self._step(t)]
        x = (t - t_old) / h
        a = b = 0.0
        for fa, fb, m in zip(f0, f1, (x, 1 - x) * 3 + (x,)):
            a = (a + fa) * m
            b = (b + fb) * m
        return a + v, b + w

    def _step_value(self, i):
        """Component 0 of step i's interpolant, a float function: ``_at``'s
        operations in its order, unrolled."""
        t_old, h, (v, _), (f6, f5, f4, f3, f2, f1, f0), _ = self._steps[i]

        def value(t):
            x = (t - t_old) / h
            y = 1 - x
            return (((((((0.0 + f6) * x + f5) * y + f4) * x + f3) * y + f2) * x + f1) * y
                    + f0) * x + v

        return value

    def value_on(self, a, b):
        """Component 0 as a float function on the bracket [a, b]: the polynomial
        of the step that holds it, or, where [a, b] spans a node, of the step
        that holds each point."""
        i = self._step(b)
        if self._nodes[i] <= a:
            return self._step_value(i)
        return lambda t: self._step_value(self._step(t))(t)


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
    terminated_reason: str  # "horizon" | "zero_cap" | "step_underflow"
    t_start: float
    t_end: float
    dense: Optional[_DenseTable] = field(repr=False)
    weight: Optional[Profile] = field(default=None, repr=False)
    rhs: Optional[Callable] = field(default=None, repr=False)

    def state(self, t):
        """Dense state [(value, flux)] at scalar or array t in [t_start, t_end].

        Raises :class:`~sturmosc.errors.OutOfValidity` outside that interval,
        and at NaN, rather than extrapolating the dense output.
        """
        scalar = np.ndim(t) == 0
        s = self._state(t, scalar)
        return np.array(s) if scalar else s

    def _state(self, t, scalar):
        """(value, flux) floats for a scalar t, [value, flux] rows otherwise."""
        if self.dense is None:
            raise InvalidParams("trajectory has no dense output "
                                f"(terminated: {self.terminated_reason})")
        if scalar:
            t = float(t)
            outside = not self.t_start <= t <= self.t_end
        else:
            t = np.asarray(t, dtype=float)
            outside = not np.all((self.t_start <= t) & (t <= self.t_end))
        if outside:
            raise OutOfValidity(
                f"trajectory is valid on [{self.t_start:g}, {self.t_end:g}]")
        return self.dense._at(t) if scalar else self.dense(t)

    def value(self, t):
        return self._state(t, np.ndim(t) == 0)[0]

    def flux(self, t):
        return self._state(t, np.ndim(t) == 0)[1]

    def derivative(self, t):
        return self(t)[1]

    def __call__(self, t):
        """(value, derivative) at t, from one evaluation of the dense output."""
        value, flux = self._state(t, np.ndim(t) == 0)
        return value, flux if self.weight is None else flux / self.weight(t)

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
        floor = max(zero_tol, 4.0 * math.ulp(max(abs(a), abs(b))))
        if (b - a) <= floor:
            break
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            m2 = math.nextafter(m, b)
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

    Each step is sampled at _SUBSAMPLES equally spaced points.  A
    :class:`_DenseTable` bisects on the float polynomial of the step that
    holds the bracket; any other dense output through ``float(sol(x)[0])``.
    """
    if sol is None:
        return []
    ts = sol.ts
    frac = np.arange(_SUBSAMPLES) / _SUBSAMPLES
    grid = np.append(ts[:-1, None] + np.diff(ts)[:, None] * frac, ts[-1])
    vals = sol(grid)[0]

    def generic(a, b):
        return lambda x: float(sol(x)[0])

    value_on = sol.value_on if isinstance(sol, _DenseTable) else generic
    certs = []
    # samples that are exactly 0.0 carry no sign: compare their neighbours
    nonzero = np.nonzero(vals != 0.0)[0]
    sign = np.sign(vals[nonzero])
    for j in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        i, k = nonzero[j], nonzero[j + 1]
        a, b = float(grid[i]), float(grid[k])
        fa, fb = float(vals[i]), float(vals[k])
        a, b, fa, fb = _refine_bracket(value_on(a, b), a, b, fa, fb, zero_tol)
        certs.append(ZeroCertificate(a, b, int(math.copysign(1, fa)),
                                     int(math.copysign(1, fb))))
    return certs


@dataclass(frozen=True)
class _Pass:
    """One DOP853 pass: nodes, states (2 x nodes) and each step's dense rows."""

    t: np.ndarray
    y: np.ndarray
    rows: list
    nfev: int
    status: int  # 0 horizon, 1 zero cap, -1 failed step


def solve_ivp(rhs, t0, y0, horizon, rtol, atol, zero_cap):
    """Step DOP853 forward from t0 until the horizon, a failed step or the zero cap.

    The cap counts the step ends where y[0] reaches or crosses 0 (g <= 0 <=
    g_new or g >= 0 >= g_new), the rule of scipy's events.  A start on a
    zero is counted there too, so it raises the cap by one, and a cap
    reached on the last step wins over the horizon, as in scipy's
    ``solve_ivp``.  Every solve runs through this one call, once; ``rhs`` is
    its :class:`_System`.
    """
    solver = _dop853.Stepper(rhs, t0, y0, horizon, rtol=rtol, atol=atol)
    ts, ys, rows = [solver.t], [solver.y], []
    cap = math.inf if zero_cap is None else zero_cap + (y0[0] == 0.0)
    crossings = 0
    while solver.t != horizon and crossings < cap:
        if solver.step() is not None:
            status = -1
            break
        g, g_new = ys[-1][0], solver.y[0]
        crossings += g <= 0.0 <= g_new or g >= 0.0 >= g_new
        ts.append(solver.t)
        ys.append(solver.y)
        rows.append(solver.rows)
    else:
        status = int(crossings >= cap)
    return _Pass(np.array(ts), np.array(ys).T, rows, solver.nfev, status)


def _at_stages(evaluator, ts):
    """An array evaluator at the abscissae ``ts``, broadcast to their shape."""
    y = evaluator(ts)
    if type(y) is not np.ndarray or y.shape != ts.shape:
        y = np.broadcast_to(y, ts.shape)
    return y


_ONES = [1.0] * len(_dop853.C)


class _System:
    """The system y' = (y1 / V(t), Q(t) y0), with Q = -W V, of one solve.

    :func:`solve_radial` solves it with V = v, :func:`solve_jacobi` with
    V = 1.0 and W = K (``v`` None), where y1 / 1.0 and -K * 1.0 are exact.
    A call (t, y) gives y' at one point, from the profiles' scalar forms;
    where v vanishes numpy's inf or nan, not a ZeroDivisionError, rejects
    the step.  ``stages(t, h)`` gives V and Q as lists of floats at the
    abscissae t + C h of one DOP853 trial (``_dop853.C``), for the
    stepper's linear kernel: from one call of each profile's array
    evaluator, or, for a :func:`~sturmosc.profiles.constant`, its value.
    """

    def __init__(self, w, v=None):
        self.w, self.v = w, v
        c, wev = _dop853.C, w.evaluator
        wc = wev.c if isinstance(wev, _Constant) else None
        if v is None and wc is not None:
            q = [-wc] * len(c)
            self.stages = lambda t, h: (_ONES, q)
        elif v is None:
            self.stages = lambda t, h: (_ONES, (-_at_stages(wev, t + c * h)).tolist())
        else:
            vev = v.evaluator

            def stages(t, h):
                ts = t + c * h
                vs = _at_stages(vev, ts)
                ws = _at_stages(wev, ts) if wc is None else wc
                return vs.tolist(), (-ws * vs).tolist()

            self.stages = stages

    def __call__(self, t, y):
        vt = 1.0 if self.v is None else self.v.scalar(t)
        flux = y[1] / vt if vt else np.divide(y[1], vt)
        return flux, -self.w.scalar(t) * vt * y[0]


def _drive(rhs, t0, y0, horizon, tol, zero_tol, zero_cap, weight):
    # DOP853 cannot hold an rtol below 100 eps: scipy's solvers clamp it
    # there with a warning, so a smaller tol is refused before any step
    _check_tol(tol, "solver")
    if horizon < t0:
        raise InvalidParams(f"horizon {horizon:g} lies before the start {t0:g}; "
                            "solves run forward only")
    if not (math.isfinite(y0[0]) and math.isfinite(y0[1])):
        raise InvalidParams(f"initial state {tuple(y0)} is not finite")
    sol = solve_ivp(rhs, float(t0), y0, float(horizon), tol, max(1e-14, tol * 1e-4),
                    zero_cap)
    dense = _DenseTable(sol.t, sol.y, sol.rows) if len(sol.t) > 1 else None
    zeros = _scan_chunk(dense, zero_tol)[:zero_cap]
    return Trajectory(ts=sol.t, values=sol.y[0], fluxes=sol.y[1], zeros=tuple(zeros),
                      terminated_reason=_REASONS[sol.status],
                      t_start=float(t0), t_end=float(sol.t[-1]),
                      dense=dense, weight=weight, rhs=rhs)


def solve_jacobi(k, horizon, tol=DEFAULT_TOL, zero_tol=DEFAULT_ZERO_TOL,
                 zero_cap=None, t_start=None, u0=None, du0=None):
    """Solve u'' + K u = 0 with the conjugate-point normalization.

    Default initial data is u(0) = 0, u'(0) = 1, realized by starting at a
    tiny offset with the first-order series u = t (the criteria only see
    zero positions, which are invariant under positive rescaling).
    Explicit (t_start, u0, du0) override the normalization, e.g. for
    Wronskian or Sturm-separation checks.  Solves run forward only: a
    horizon before the start (JACOBI_START or t_start) raises
    InvalidParams, and a horizon at the start gives a one-node trajectory.
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
    return _drive(_System(kp), t0, y0, horizon, tol, zero_tol, zero_cap, weight=None)


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
    return _drive(_System(w, v), t0, y0, horizon, tol, zero_tol, zero_cap, weight=v)


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
