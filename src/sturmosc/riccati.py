"""Riccati transforms, closed-form comparison families, and envelope bounds.

The transform y = -v z'/z turns (v z')' + W v z = 0 into the flow
y' = y^2/v + W v; with v = 1 it turns u'' + K u = 0 into h' = h^2 + K.
Solutions of the lower-bound flows y' = (y^2 - B^2)/v and h' = h^2 - B^2
are available in closed form and squeeze any pole-free transform between
explicit envelopes; a pole of the transform is a zero of the solution.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .errors import (AtPole, InvalidParams, MismatchedAnchor, OutOfValidity,
                     TailInfoMissing)
from .profiles import (CoefficientPair, DEFAULT_TOL, big_v,
                       big_v_minus_one, integrate, tail_integral,
                       tail_integral_converges)

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
    """One member of the closed-form comparison family.

    flavor 'jacobi' solves q' = q^2 - B^2; flavor 'radial' (which needs the
    coefficient pair for its volume factor) solves q' = (q^2 - B^2)/v.
    """

    b_const: float
    c_param: float
    flavor: str = "jacobi"
    pair: Optional[CoefficientPair] = None

    def __post_init__(self):
        if self.b_const < 0:
            raise InvalidParams("b_const must be >= 0")
        if self.flavor not in ("jacobi", "radial"):
            raise InvalidParams(f"unknown flavor {self.flavor!r}")
        if self.flavor == "radial" and self.pair is None:
            raise InvalidParams("radial flavor needs its coefficient pair")


def _v_one_t(pair, t, tol):
    """V(1, t) for any t > 0 (reciprocal below the base point)."""
    if t >= 1.0:
        return big_v(pair, 1.0, t, tol=tol)
    below = big_v(pair, t, 1.0, tol=tol)
    return math.inf if below == 0.0 else 1.0 / below


def _growth(flavor, b, t, pair, tol):
    """The flavor's growth factor E at t: exp(2Bt), or V(1, t); inf on overflow."""
    if flavor == "jacobi":
        try:
            return math.exp(2.0 * b * t)
        except OverflowError:
            return math.inf
    return _v_one_t(pair, t, tol)


def comparison_value(fam, t, tol=DEFAULT_TOL):
    """Evaluate the family member at t (B = 0 collapses to the zero function)."""
    t = float(t)
    if t <= 0:
        raise InvalidParams("comparison functions live on t > 0")
    b = fam.b_const
    if b == 0.0:
        return 0.0
    growth = _growth(fam.flavor, b, t, fam.pair, tol)
    if math.isinf(growth):
        return -b  # past any pole the family has settled at its limit
    den = fam.c_param - growth
    if abs(den) <= _POLE_GUARD * (abs(fam.c_param) + abs(growth)):
        raise AtPole(f"comparison function has a pole at t = {t:g}")
    return b * (fam.c_param + growth) / den


def anchored_family(flavor, b_const, t_bar, q_value, pair=None, tol=DEFAULT_TOL):
    """The family member passing through (t_bar, q_value).

    Solves B (C + E)/(C - E) = q for C, with E the flavor's growth factor.
    """
    b = float(b_const)
    if b == 0.0:
        if abs(q_value) > 1e-12:
            raise InvalidParams("B = 0 family is identically zero; cannot anchor")
        return ComparisonFamily(0.0, 1.0, flavor, pair)
    if q_value == b:
        raise InvalidParams("anchor value equal to B has no finite parameter")
    growth = _growth(flavor, b, t_bar, pair, tol)
    if math.isinf(growth):
        raise InvalidParams(f"growth factor overflows at t_bar = {t_bar:g}")
    c = (q_value + b) / (q_value - b) * growth
    return ComparisonFamily(b, c, flavor, pair)


def family_riccati(fam, ts, tol=DEFAULT_TOL):
    """Materialize a family member on a grid as a RiccatiTrajectory."""
    ts = np.asarray(ts, dtype=float)
    pole = blow_up_time(fam, tol=tol)
    poles = () if math.isinf(pole) else (pole,)

    def evaluator(t):
        if np.ndim(t) == 0:
            return comparison_value(fam, float(t), tol)
        return np.array([comparison_value(fam, float(x), tol) for x in np.asarray(t)])

    return RiccatiTrajectory(ts=ts, ys=evaluator(ts), poles=poles, evaluator=evaluator)


def blow_up_time(fam, tol=DEFAULT_TOL):
    """The forward pole of the family member, or +inf when there is none.

    For the radial flavor this solves ``integral of 1/v over [1, t] =
    log(C) / (2B)`` by monotone root finding on the cumulative integral;
    the pole is absent when 1/v is integrable at +inf and C is at least
    the total growth V(1, +inf).
    """
    b, c = fam.b_const, fam.c_param
    if b == 0.0 or c <= 0.0:
        return math.inf
    target = math.log(c) / (2.0 * b)
    if fam.flavor == "jacobi":
        return max(target, 0.0) if c >= 1.0 else math.inf
    pair = fam.pair
    converges = tail_integral_converges(pair.v_inv)
    if target > 0 and converges is None:
        raise TailInfoMissing("deciding the pole needs tail info on 1/v")
    if target > 0 and converges:
        total = tail_integral(pair.v_inv, 1.0, tol=tol)
        if target >= total:
            return math.inf
    if target == 0.0:
        return 1.0

    def g(t):
        if t >= 1.0:
            return integrate(pair.v_inv, 1.0, t, tol=tol) - target
        return -integrate(pair.v_inv, t, 1.0, tol=tol) - target

    if target > 0:
        hi = 2.0
        for _ in range(200):
            if g(hi) >= 0:
                break
            hi *= 2.0
        return float(brentq(g, 1.0, hi, xtol=1e-13, rtol=1e-13))
    lo = 0.5
    for _ in range(200):
        if g(lo) <= 0:
            break
        lo *= 0.5
        if lo < 1e-12:
            raise TailInfoMissing("cumulative integral of 1/v does not "
                                  "diverge towards 0+; cannot bracket the pole")
    return float(brentq(g, lo, 1.0, xtol=1e-15, rtol=1e-13))


class EnvelopeKind(enum.Enum):
    """Which pointwise bound on a pole-free Riccati transform to evaluate."""

    JACOBI = "jacobi"                  # -B coth(Bt) <= h <= B
    RADIAL = "radial"                  # -B <= y <= B   (1/v not integrable)
    RADIAL_TAIL = "radial_tail"        # upper bound from V(t, +inf) (1/v integrable)
    RADIAL_BEYOND = "radial_beyond"    # band for t > T once no zeros follow T
    DIAMETER = "diameter"              # band on (0, D/2) from a diameter bound D


def _coth(x):
    return 1.0 / math.tanh(x)


def envelope(kind, t, b_const, pair=None, T=None, D=None, tol=DEFAULT_TOL):
    """(lower, upper) bound pair for the requested envelope at abscissa t.

    All B = 0 instances are the analytic limits of the B > 0 formulas
    (e.g. -B coth(Bt) -> -1/t and B (V+1)/(V-1) -> 1 / integral of 1/v),
    never literal 0*inf evaluations.
    """
    t = float(t)
    b = float(b_const)
    if t <= 0:
        raise OutOfValidity("envelopes live on t > 0")
    if kind == EnvelopeKind.JACOBI:
        lower = -1.0 / t if b == 0.0 else -b * _coth(b * t)
        return lower, b
    if kind == EnvelopeKind.RADIAL:
        return -b, b
    if kind == EnvelopeKind.RADIAL_TAIL:
        if pair is None:
            raise InvalidParams("RADIAL_TAIL needs the coefficient pair")
        if b == 0.0:
            upper = 1.0 / tail_integral(pair.v_inv, t, tol=tol)
        else:
            vm1 = big_v_minus_one(pair, t, math.inf, tol=tol)
            upper = b if math.isinf(vm1) else b * (vm1 + 2.0) / vm1
        return -b, upper
    if kind == EnvelopeKind.RADIAL_BEYOND:
        if pair is None or T is None:
            raise InvalidParams("RADIAL_BEYOND needs the pair and the abscissa T")
        if t <= T:
            raise OutOfValidity("RADIAL_BEYOND is valid for t > T")
        if b == 0.0:
            lower = -1.0 / integrate(pair.v_inv, T, t, tol=tol)
        else:
            vm1 = big_v_minus_one(pair, T, t, tol=tol)
            lower = -math.inf if vm1 == 0.0 else -b * (vm1 + 2.0) / vm1
        return lower, b
    if kind == EnvelopeKind.DIAMETER:
        if D is None:
            raise InvalidParams("DIAMETER needs the diameter bound D")
        if t >= D / 2.0:
            raise OutOfValidity("DIAMETER band is valid for t < D/2")
        if b == 0.0:
            return -1.0 / t, 1.0 / (D / 2.0 - t)
        return -b * _coth(b * t), b * _coth(b * (D / 2.0 - t))
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
    the ordering reverses.  Violations are reported at the first offending
    node.
    """
    t_bar = float(t_bar)
    y1a, y2a = float(q1(t_bar)), float(q2(t_bar))
    gap = abs(y1a - y2a)
    if gap > 1e-8 * (1.0 + abs(y1a)):
        raise MismatchedAnchor(
            f"q1({t_bar:g}) = {y1a:.12g} vs q2({t_bar:g}) = {y2a:.12g}")

    forward = direction == "forward"
    if forward:
        p1 = min((p for p in q1.poles if p > t_bar), default=math.inf)
        p2 = min((p for p in q2.poles if p > t_bar), default=math.inf)
        mask = (q1.ts > t_bar) & (q1.ts < p1) & (q1.ts < p2)
        pole_ok = p1 <= p2 + 1e-6 * (1.0 + abs(p1)) if math.isfinite(p1) or math.isfinite(p2) else None
    else:
        p1 = max((p for p in q1.poles if p < t_bar), default=-math.inf)
        p2 = max((p for p in q2.poles if p < t_bar), default=-math.inf)
        mask = (q1.ts < t_bar) & (q1.ts > p1) & (q1.ts > p2)
        pole_ok = p1 >= p2 - 1e-6 * (1.0 + abs(p1)) if math.isfinite(p1) or math.isfinite(p2) else None

    ts = q1.ts[mask]
    v1 = q1.ys[mask]
    v2 = np.array([float(q2(t)) for t in ts])
    slack = tol * (1.0 + np.abs(v1) + np.abs(v2))
    defect = (v2 - v1) if forward else (v1 - v2)
    bad = np.nonzero(defect > slack)[0]
    first = None
    if len(bad):
        i = bad[0]
        first = (float(ts[i]), float(v1[i]), float(v2[i]))
    return ComparisonReport(ordered=len(bad) == 0, direction=direction,
                            n_checked=int(len(ts)), anchor_gap=gap,
                            first_violation=first, pole_order_ok=pole_ok)
