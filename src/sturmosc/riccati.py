"""Riccati transforms, closed-form comparison families, and envelope bounds.

The transform y = -v z'/z turns (v z')' + W v z = 0 into the flow
y' = y^2/v + W v; with v = 1 it turns u'' + K u = 0 into h' = h^2 + K.
Solutions of the lower-bound flows y' = (y^2 - B^2)/v and h' = h^2 - B^2
are available in closed form and squeeze any pole-free transform between
explicit envelopes; a pole of the transform is a zero of the solution.
Each closed-form member is stored by its pole s in the integral coordinate
I (the integral of 1/v from 1, or t itself for h): it is the comparison
band coth_band(B, |s - I|) with the sign of s - I, so B = 0 is its limit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import (AtPole, InvalidParams, MismatchedAnchor, OutOfValidity,
                     TailInfoMissing)
from .profiles import (CoefficientPair, DEFAULT_TOL, _failing, coth_band, cumulative,
                       integrate, tail_integral, tail_integral_converges)

__all__ = [
    "RiccatiTrajectory",
    "ComparisonFamily",
    "EnvelopeKind",
    "ComparisonReport",
    "riccati_from_solution",
    "comparison_value",
    "anchored_family",
    "family_riccati",
    "blow_up_time",
    "envelope",
    "verify_comparison",
    "NEAR_POLE_EXCLUSION",
]

NEAR_POLE_EXCLUSION = 1e-10
_POLE_GUARD = 1e-14


@dataclass(frozen=True, eq=False)
class RiccatiTrajectory:
    """Sampled Riccati transform with its pole locations.

    ``poles`` are the abscissae where the underlying solution vanishes;
    between consecutive poles the transform is finite.
    """

    ts: np.ndarray
    ys: np.ndarray
    poles: tuple
    evaluator: Callable

    def __call__(self, t):
        return self.evaluator(t)


def riccati_from_solution(traj):
    """Transform a solver trajectory: y = -flux/z, i.e. -v z'/z or -u'/u.

    Nodes with |z| below NEAR_POLE_EXCLUSION times the trajectory's value
    scale are dropped (quotient conditioning near poles); the poles
    themselves are the trajectory's certified zeros.
    """
    vals = traj.values
    scale = float(np.max(np.abs(vals))) if len(vals) else 0.0
    keep = np.abs(vals) > NEAR_POLE_EXCLUSION * scale

    def evaluator(t):
        return -traj.flux(t) / traj.value(t)

    poles = tuple(cert.location for cert in traj.zeros)
    return RiccatiTrajectory(ts=traj.ts[keep], ys=-traj.fluxes[keep] / vals[keep],
                             poles=poles, evaluator=evaluator)


@dataclass(frozen=True)
class ComparisonFamily:
    """One member of the closed-form comparison family, stored by its pole s.

    Flavor 'jacobi' solves q' = q^2 - B^2; flavor 'radial' (which needs the
    coefficient pair for its volume factor) solves q' = (q^2 - B^2)/v.  In
    the integral coordinate I(t) (t itself, or the signed integral of 1/v
    over [1, t]) the member is B coth(B (s - I)), with its pole where
    I(t) = s; at B = 0 that is 1/(s - I), which solves q' = q^2/v.  A
    ``bounded`` member (|q| < B) is B tanh(B (s - I)) and has no pole.  An
    infinite s is the constant member +-B, the zero function at B = 0.
    """

    b_const: float
    s: float
    flavor: str = "jacobi"
    pair: Optional[CoefficientPair] = None
    bounded: bool = False

    def __post_init__(self):
        if self.b_const < 0:
            raise InvalidParams("b_const must be >= 0")
        if self.flavor not in ("jacobi", "radial"):
            raise InvalidParams(f"unknown flavor {self.flavor!r}")
        if self.flavor == "radial" and self.pair is None:
            raise InvalidParams("radial flavor needs its coefficient pair")

    @property
    def c_param(self):
        """C = +-e^(2Bs) of the form B (C + E)/(C - E), E = e^(2B I(t)),
        negative for a bounded member; OverflowError past the float range."""
        return (-1.0 if self.bounded else 1.0) * math.exp(2.0 * self.b_const * self.s)


def _signed_integral(v_inv, t0, t, tol):
    """Integral of 1/v from t0 to t, negative for t < t0."""
    if t >= t0:
        return integrate(v_inv, t0, t, tol=tol)
    return -integrate(v_inv, t, t0, tol=tol)


def _integral_coordinate(flavor, t, pair, tol):
    """I(t) at t, a float or an array: t itself, or the signed integral of
    1/v over [1, t], read off one running integral along the sorted
    abscissae with 1 among them, summed outward from 1: a difference of
    two sums from the least abscissa would lose the digits of I(t) to the
    integral below 1, and a t near the pole magnifies the loss."""
    if flavor == "jacobi":
        return t
    knots = np.array(sorted({1.0, *np.ravel(t).tolist()}))
    one = int(np.searchsorted(knots, 1.0))
    return cumulative(pair.v_inv, knots, tol=tol, origin=one)[np.searchsorted(knots, t)]


_coth_bands = np.vectorize(coth_band, otypes=[float])


def comparison_value(fam, t, tol=DEFAULT_TOL):
    """Evaluate the family member at t, a float or an array: +-coth_band(B,
    |s - I(t)|), or B tanh(B (s - I(t))) when bounded; AtPole names the
    first t on the pole."""
    ts = np.asarray(t, dtype=float)
    if np.any(ts <= 0):
        raise InvalidParams("comparison functions live on t > 0")
    b = fam.b_const
    big_i = _integral_coordinate(fam.flavor, ts, fam.pair, tol)
    gap = fam.s - big_i
    if fam.bounded:
        values = b * np.tanh(b * gap)
    else:
        at_pole = np.abs(gap) <= _POLE_GUARD * np.abs(big_i)
        if np.any(at_pole):
            raise AtPole(f"comparison function has a pole at t = {ts[at_pole][0]:g}")
        values = np.copysign(_coth_bands(b, np.abs(gap)), gap)
    return values if ts.ndim else float(values)


def anchored_family(flavor, b_const, t_bar, q_value, pair=None, tol=DEFAULT_TOL):
    """The family member passing through (t_bar, q_value).

    With |q| > B the pole s lies the band distance x from I(t_bar), where
    coth_band(B, x) = |q|: ahead for q > B, behind for q < -B.  x is
    atanh(B/|q|)/B, or 1/|q| where B x is below coth_band's 1e-8 cut.  With
    |q| < B the member is the bounded one, s = I(t_bar) + atanh(q/B)/B;
    q = +-B is the constant member, s = +-inf.
    """
    if t_bar <= 0:
        raise InvalidParams("comparison functions live on t > 0")
    fam = ComparisonFamily(float(b_const), 0.0, flavor, pair)
    b, q = fam.b_const, float(q_value)
    here = float(_integral_coordinate(flavor, float(t_bar), pair, tol))
    if abs(q) < b:
        return replace(fam, s=here + math.atanh(q / b) / b, bounded=True)
    if abs(q) == b:
        return replace(fam, s=math.copysign(math.inf, q))
    ratio = b / abs(q)
    x = math.atanh(ratio) / b if ratio >= 1e-8 else 1.0 / abs(q)
    return replace(fam, s=here + math.copysign(x, q))


def family_riccati(fam, ts, tol=DEFAULT_TOL):
    """Materialize a family member on a grid as a RiccatiTrajectory."""
    ts = np.asarray(ts, dtype=float)
    pole = blow_up_time(fam, tol=tol)
    poles = () if math.isinf(pole) else (pole,)
    return RiccatiTrajectory(ts=ts, ys=comparison_value(fam, ts, tol), poles=poles,
                             evaluator=partial(comparison_value, fam, tol=tol))


def blow_up_time(fam, tol=DEFAULT_TOL):
    """The forward pole of the family member, where I(t) = s, or +inf when
    there is none.

    A bounded member, or one with s = +-inf, has no pole.  For the radial
    flavor t walks out from 1 by doubling (s > 0) or halving (s < 0) while
    one integral of 1/v per segment is summed, and the root is refined
    inside the segment where the running sum crosses s.  The pole is
    absent when 1/v is integrable at +inf and s is at least its tail from 1.
    Towards 0 the walk stops at t = 1e-12 with TailInfoMissing: the pole lies
    below 1e-12, or there is none because 1/v is integrable at 0+ (which the
    paper excludes), and profiles carry no metadata at 0+ to tell which.
    """
    s = fam.s
    if fam.bounded or math.isinf(s):
        return math.inf
    if fam.flavor == "jacobi":
        return s if s >= 0.0 else math.inf
    v_inv = fam.pair.v_inv
    if s > 0:
        converges = tail_integral_converges(v_inv)
        if converges is None:
            raise TailInfoMissing("deciding the pole needs tail info on 1/v")
        if converges and s >= tail_integral(v_inv, 1.0, tol=tol):
            return math.inf
    if s == 0.0:
        return 1.0

    sign = 1.0 if s > 0 else -1.0
    t, total = 1.0, 0.0
    while True:
        nxt = t * 2.0 ** sign
        if not 1e-12 <= nxt < math.inf:
            raise TailInfoMissing(f"cumulative integral of 1/v does not reach {s:g} " + (
                "within the float range" if s > 0 else "by t = 1e-12: the pole lies "
                "below 1e-12, or there is none because 1/v is integrable at 0+"))
        reached = total + _signed_integral(v_inv, t, nxt, tol)
        if sign * (reached - s) >= 0:
            break
        t, total = nxt, reached

    def g(x):
        return total + _signed_integral(v_inv, t, x, tol) - s

    lo, hi = min(t, nxt), max(t, nxt)
    # xtol scales with the segment, so a pole near 0 keeps its relative accuracy
    return _brent_root(g, lo, hi, xtol=1e-15 * lo, rtol=1e-13)


def _brent_root(f, a, b, xtol, rtol, maxiter=100):
    """A root of ``f`` in [a, b] by Brent's zeroin (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4), the steps of scipy's
    ``brentq`` in its order, so the root is ``brentq``'s to the last bit.

    Each iteration keeps a bracket [x, x_blk] with x the better end, stops
    once f(x) = 0 or half the bracket is below (xtol + rtol |x|)/2, and
    otherwise tries an inverse interpolation (secant, or quadratic once
    three distinct points are known), falling back to bisection unless the
    try is short enough.  ValueError for a NaN value of ``f`` or ends
    without a sign change, RuntimeError after ``maxiter`` iterations.
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    x_pre, x = a, b
    f_pre, fx = value(x_pre), value(x)
    if f_pre == 0.0:
        return x_pre
    if fx == 0.0:
        return x
    if math.copysign(1.0, f_pre) == math.copysign(1.0, fx):
        raise ValueError("f(a) and f(b) must have different signs")
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(maxiter):
        # signbit, as brentq tests it, is the sign of these nonzero values
        if f_pre != 0.0 and fx != 0.0 and (f_pre < 0.0) != (fx < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x - x_pre
        if abs(f_blk) < abs(fx):
            x_pre, x, x_blk = x, x_blk, x
            f_pre, fx, f_blk = fx, f_blk, fx
        delta = (xtol + rtol * abs(x)) / 2
        s_bis = (x_blk - x) / 2
        if fx == 0.0 or abs(s_bis) < delta:
            return x
        s_try = None
        if abs(s_pre) > delta and abs(fx) < abs(f_pre):
            if x_pre == x_blk:  # interpolate
                s_try = -fx * (x - x_pre) / (fx - f_pre)
            else:  # extrapolate
                d_pre = (f_pre - fx) / (x_pre - x)
                d_blk = (f_blk - fx) / (x_blk - x)
                s_try = (-fx * (f_blk * d_blk - f_pre * d_pre)
                         / (d_blk * d_pre * (f_blk - f_pre)))
        if s_try is not None and 2 * abs(s_try) < min(abs(s_pre), 3 * abs(s_bis) - delta):
            s_pre, s_cur = s_cur, s_try
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x, fx
        x += s_cur if abs(s_cur) > delta else (delta if s_bis > 0 else -delta)
        fx = value(x)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


class EnvelopeKind(enum.Enum):
    """Which pointwise bound on a pole-free Riccati transform to evaluate."""

    JACOBI = "jacobi"                  # -B coth(Bt) <= h <= B
    RADIAL = "radial"                  # -B <= y <= B   (1/v not integrable)
    RADIAL_TAIL = "radial_tail"        # upper bound from V(t, +inf) (1/v integrable)
    RADIAL_BEYOND = "radial_beyond"    # band for t > T once no zeros follow T
    DIAMETER = "diameter"              # band on (0, D/2) from a diameter bound D


def envelope(kind, t, b_const, pair=None, T=None, D=None, tol=DEFAULT_TOL):
    """(lower, upper) bound pair for the requested envelope at abscissa t.

    Every band is B coth(B x) (:func:`~sturmosc.profiles.coth_band`) at a
    distance x: t, D/2 - t, the integral of 1/v over (t, +inf) (which is
    B (V+1)/(V-1) with V = V(t, +inf)) or over [T, t].  At B = 0 it is
    exactly 1/x, the analytic limit, never a literal 0*inf evaluation.
    """
    t = float(t)
    b = float(b_const)
    if t <= 0:
        raise OutOfValidity("envelopes live on t > 0")
    if kind == EnvelopeKind.JACOBI:
        return -coth_band(b, t), b
    if kind == EnvelopeKind.RADIAL:
        return -b, b
    if kind == EnvelopeKind.RADIAL_TAIL:
        if pair is None:
            raise InvalidParams("RADIAL_TAIL needs the coefficient pair")
        return -b, coth_band(b, tail_integral(pair.v_inv, t, tol=tol))
    if kind == EnvelopeKind.RADIAL_BEYOND:
        if pair is None or T is None:
            raise InvalidParams("RADIAL_BEYOND needs the pair and the abscissa T")
        if t <= T:
            raise OutOfValidity("RADIAL_BEYOND is valid for t > T")
        return -coth_band(b, integrate(pair.v_inv, T, t, tol=tol)), b
    if kind == EnvelopeKind.DIAMETER:
        if D is None:
            raise InvalidParams("DIAMETER needs the diameter bound D")
        if t >= D / 2.0:
            raise OutOfValidity("DIAMETER band is valid for t < D/2")
        return -coth_band(b, t), coth_band(b, D / 2.0 - t)
    raise InvalidParams(f"unknown envelope kind {kind!r}")


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of checking the comparison ordering on a shared grid."""

    ordered: bool
    direction: str
    n_checked: int
    anchor_gap: float
    first_violation: Optional[tuple] = None  # (t, q1, q2)
    pole_order_ok: Optional[bool] = None

    @property
    def ok(self):
        return self.ordered and self.pole_order_ok is not False


def verify_comparison(q1, q2, t_bar, direction="forward", tol=1e-6):
    """Check the comparison ordering between two Riccati trajectories.

    With q1 a supersolution and q2 a subsolution of the same flow matched
    at t_bar, the ordering q1 >= q2 must hold forward of t_bar up to q1's
    first pole (and q1's pole must not come after q2's); backward of t_bar
    the ordering reverses.  The anchor match (rel 1e-8) and the ordering
    at the nodes (rel ``tol``) are decided by
    :func:`~sturmosc.profiles._failing`, so a NaN value raises
    NonFiniteSample.  Violations are reported at the first offending node.
    """
    if direction not in ("forward", "backward"):
        raise InvalidParams(f"direction must be 'forward' or 'backward', not {direction!r}")
    t_bar = float(t_bar)
    y1a, y2a = float(q1(t_bar)), float(q2(t_bar))
    gap = abs(y1a - y2a)
    if _failing(t_bar, [y1a, y2a], [y2a, y1a], 1e-8, "q1 or q2").any():
        raise MismatchedAnchor(
            f"q1({t_bar:g}) = {y1a:.12g} vs q2({t_bar:g}) = {y2a:.12g}")

    s = 1.0 if direction == "forward" else -1.0  # reflect t -> -t backward

    def nearest_pole(q):
        return s * min((s * p for p in q.poles if s * p > s * t_bar), default=math.inf)

    p1, p2 = nearest_pole(q1), nearest_pole(q2)
    st = s * q1.ts
    mask = (st > s * t_bar) & (st < s * p1) & (st < s * p2)
    pole_ok = (s * p1 <= s * p2 + 1e-6 * (1.0 + abs(p1))
               if math.isfinite(p1) or math.isfinite(p2) else None)

    ts = q1.ts[mask]
    v1 = q1.ys[mask]
    v2 = np.asarray(q2(ts), dtype=float)
    upper, lower = (v1, v2) if s > 0 else (v2, v1)
    bad = np.nonzero(_failing(ts, upper, lower, tol, "q1 or q2"))[0]
    first = None
    if len(bad):
        i = bad[0]
        first = (float(ts[i]), float(v1[i]), float(v2[i]))
    return ComparisonReport(ordered=len(bad) == 0, direction=direction,
                            n_checked=int(len(ts)), anchor_gap=gap,
                            first_violation=first, pole_order_ok=pole_ok)
