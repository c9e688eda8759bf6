"""Rayleigh quotients, bottom-of-spectrum certificates, and index bounds.

Manifold data enters only radially: v(r) is the boundary-sphere volume
and W(r) the spherical mean of the potential, so the annulus integral of
the potential reduces to the integral of W v and every certificate
delegates to the first-zero and oscillation checkers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .criteria import (Verdict, _status, _strict_margin, check_first_zero,
                       check_oscillation, first_zero_threshold)
from .errors import HypothesisViolated, InvalidParams, NoZeroAtT2
from .profiles import (DEFAULT_TOL, CoefficientPair, _failing, _samples, constant,
                       integrate, multiply, scaled)
from .ode import solve_radial

__all__ = [
    "SpectralReport",
    "rayleigh_quotient",
    "lambda1_negative",
    "instability_at_infinity",
    "index_lower_bound",
    "spectral_report",
    "check_yamabe",
    "yamabe_constant",
]


def rayleigh_quotient(pair, traj, t2, tol=1e-9):
    """Rayleigh quotient of the radial test function cut at a certified zero.

    The test function equals the solution on [0, t2] and vanishes beyond,
    so integrating by parts against the equation the quotient is zero up
    to discretization error -- this is the identity that turns a zero of
    the radial problem into a negative-spectrum certificate.

    The three integrals (gradient, potential, mass) refine the same
    panels, so their integrands share one sample per panel: v, W and the
    trajectory's value and derivative at its nodes, each evaluated once and
    kept by the nodes' bytes for the duration of this call.
    """
    cert = None
    for z in traj.zeros:
        if abs(z.location - t2) <= max(10.0 * z.width, 1e-6 * (1.0 + abs(t2))):
            cert = z
            break
    if cert is None:
        raise NoZeroAtT2(f"no certified zero at t2 = {t2:g}")
    v = pair.v
    w = pair.w
    lo = traj.t_start
    panels = {}

    def sample(t):
        key = t.tobytes()
        if key not in panels:
            panels[key] = v(t), w(t), *traj(t)
        return panels[key]

    def grad_term(t):
        vt, _, _, derivative = sample(t)
        return vt * derivative ** 2

    def pot_term(t):
        vt, wt, value, _ = sample(t)
        return wt * vt * value ** 2

    def mass_term(t):
        vt, _, value, _ = sample(t)
        return vt * value ** 2

    cut = cert.location
    numerator = (integrate(grad_term, lo, cut, tol=tol)
                 - integrate(pot_term, lo, cut, tol=tol))
    denominator = integrate(mass_term, lo, cut, tol=tol)
    return numerator / denominator


def lambda1_negative(pair, a, b, tol=DEFAULT_TOL):
    """Negative bottom of the spectrum from the annulus-integral threshold.

    Delegates to the first-zero checker (the annulus integral of the
    potential is the integral of W v); a SATISFIED verdict certifies a
    negative bottom of the spectrum on the whole space.
    """
    return replace(check_first_zero(pair, a, b, tol=tol),
                   criterion="lambda1_negative")


def instability_at_infinity(pair, R, horizon=1e4, tol=DEFAULT_TOL):
    """Instability at infinity (negative spectrum outside every ball).

    Delegates to the oscillation checker: oscillation puts zeros beyond
    every radius, so the bottom of the spectrum outside each ball is
    negative; in that case the operator also has infinite index.
    """
    inner = check_oscillation(pair, R, horizon=horizon, tol=tol)
    notes = inner.notes
    if inner.satisfied:  # each satisfied oscillation verdict carries notes
        notes += "; oscillation implies instability at infinity and infinite index"
    return replace(inner, criterion="instability_at_infinity", notes=notes)


def index_lower_bound(pair, horizon, tol=DEFAULT_TOL):
    """Certified lower bound on the index from nodal intervals.

    The certified zeros t1 < t2 < ... < tk inside the horizon delimit
    k + 1 maximal nodal intervals; each interval past the first end
    supports a test function with nonpositive quotient, giving the count
    minus one, i.e. the number of certified zeros.
    """
    if horizon <= 0:
        raise InvalidParams("need horizon > 0")
    return len(solve_radial(pair, 1.0, horizon=horizon, tol=tol).zeros)


@dataclass(frozen=True)
class SpectralReport:
    """Aggregated spectral evidence for one coefficient pair."""

    lambda1_sign: str  # "certified_negative" | "unknown"
    unstable_radii: tuple
    index_lower_bound: int
    rayleigh_values: tuple  # (t2, quotient) pairs
    notes: str = ""
    breakdown_at: Optional[float] = None  # solver breakdown t, kept out of to_dict

    def to_dict(self):
        return {
            "lambda1_sign": self.lambda1_sign,
            "unstable_radii": list(self.unstable_radii),
            "index_lower_bound": self.index_lower_bound,
            "rayleigh_values": [[t, q] for t, q in self.rayleigh_values],
            "notes": self.notes,
        }


def spectral_report(pair, a, b, radii=(1.0, 10.0, 100.0), horizon=1e4,
                    tol=DEFAULT_TOL):
    """Build a SpectralReport: threshold certificate, solver confirmations,
    nodal index evidence, and Rayleigh quotients at the first four
    certified zeros."""
    if not radii:
        raise InvalidParams("need at least one radius")
    # the solve goes first: it refuses a tol below its floor before the
    # quadratures grind on it
    traj = solve_radial(pair, 1.0, horizon=horizon, tol=tol)
    verdict = lambda1_negative(pair, a, b, tol=tol)
    osc = instability_at_infinity(pair, min(radii), horizon=horizon, tol=tol)
    zeros = [z.location for z in traj.zeros]

    unstable = ()
    if osc.satisfied:
        unstable = tuple(R for R in radii if any(t > R for t in zeros))

    rayleigh = []
    for z in traj.zeros[:4]:
        q = rayleigh_quotient(pair, traj, z.location)
        rayleigh.append((z.location, q))

    certified = verdict.satisfied or bool(zeros)
    notes = []
    if verdict.satisfied:
        notes.append("annulus threshold exceeded")
    if zeros:
        notes.append(f"solver certified {len(zeros)} zero(s) before {horizon:g}")
    if osc.satisfied:
        notes.append("unstable at infinity (infinite index)")
    broke_down = traj.terminated_reason == "step_underflow"
    if broke_down:
        notes.append(f"solver broke down at t = {traj.t_end:.12g}")
    return SpectralReport(
        lambda1_sign="certified_negative" if certified else "unknown",
        unstable_radii=unstable,
        index_lower_bound=len(zeros),
        rayleigh_values=tuple(rayleigh),
        notes="; ".join(notes),
        breakdown_at=traj.t_end if broke_down else None)


def yamabe_constant(m):
    """The conformal coupling constant 4 (m-1) / (m-2)."""
    if m < 3:
        raise InvalidParams("the conformal criterion needs dimension m >= 3")
    return 4.0 * (m - 1.0) / (m - 2.0)


def check_yamabe(s_mean, m, v, b_const, a, b, tol=DEFAULT_TOL):
    """Conformal-deformation criterion from the scalar-curvature annulus integral.

    Hypothesis: the spherical mean S(r) of the scalar curvature satisfies
    S(r) <= c_m B^2 / v(r), sampled at 41 points of [a/10, 10 b] by
    :func:`~sturmosc.profiles._failing` (rel 1e-9); the caller separately
    asserts the positivity of the bottom of the spectrum around the zero set
    of the target curvature, which is recorded in the notes, not checked.
    """
    if not 0 < a < b:
        raise InvalidParams("need 0 < a < b")
    if b_const < 0:
        raise InvalidParams("need B >= 0")
    cm = yamabe_constant(m)
    grid = np.geomspace(max(a / 10.0, 1e-6), b * 10.0, 41)
    bound = _samples(lambda t: cm * b_const ** 2 / v(t), grid)
    if _failing(grid, bound, _samples(s_mean, grid), 1e-9, "S or c_m B^2 / v").any():
        raise HypothesisViolated(
            "spherical mean of the scalar curvature exceeds c_m B^2 / v")

    lhs = integrate(multiply(scaled(s_mean, -1.0), v), a, b, tol=tol)
    # the threshold is c_m times the first-zero threshold of (v, 0, B)
    pair = CoefficientPair(v, constant(0.0), b_const, validate=False)
    rhs = cm * first_zero_threshold(pair, b, tol=tol)
    witness = {"lhs": lhs, "rhs": rhs, "a": float(a), "b": float(b),
               "c_m": cm, "B": float(b_const)}
    notes = ("assumes a positive bottom of the spectrum around the zero set "
             "of the target curvature (not checked here)")
    return Verdict("yamabe", _status(_strict_margin(lhs, rhs, tol)), witness,
                   notes=notes)
