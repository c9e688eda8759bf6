"""Certificate-producing checkers for compactness, first-zero and oscillation.

Each checker evaluates one sufficient criterion and returns a
:class:`Verdict`.  The status taxonomy is deliberately conservative:

* SATISFIED  -- the inequality holds numerically with margin, so the
  criterion's geometric/spectral conclusion is licensed;
* VIOLATED   -- an analytic certificate shows the criterion fails for
  every admissible parameter choice (rare: certified-nonpositive
  curvature, which is disconjugate);
* INCONCLUSIVE -- everything else.  Asymptotic conditions (limits,
  limsups, divergence) are decided only through tail-class algebra over
  the closed-form catalog; finite-horizon evidence is reported in the
  witness, never promoted to SATISFIED.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolated, InvalidParams, TailInfoMissing
from .profiles import (DEFAULT_TOL, big_v_minus_one,
                       certified_nonpositive, cumulative, elementwise_power,
                       integrate, multiply, power, tail_divergence,
                       tail_integral, weighted_moment)

__all__ = [
    "Status",
    "Conclusion",
    "Verdict",
    "check_myers_galloway",
    "check_ambrose_moore",
    "check_nehari",
    "check_calabi",
    "check_main_B2",
    "search_main_B2",
    "check_first_zero",
    "check_oscillation",
    "check_moore_liminf",
    "check_leighton",
    "check_bmr",
    "check_diameter_remark",
    "first_zero_threshold",
    "LAMBDA_GRID",
]

LAMBDA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


class Status(str, enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


class Conclusion(str, enum.Enum):
    MANIFOLD_COMPACT = "manifold_compact"
    FIRST_ZERO_EXISTS = "first_zero_exists"
    OSCILLATORY = "oscillatory"
    DIAMETER_BOUND = "diameter_bound"
    NEGATIVE_BOTTOM_SPECTRUM = "negative_bottom_spectrum"
    UNSTABLE_AT_INFINITY = "unstable_at_infinity"
    CONFORMAL_DEFORMATION = "conformal_deformation"
    NONE = "none"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one criterion check, with the numbers that drove it."""

    criterion: str
    status: Status
    conclusion: Conclusion = Conclusion.NONE
    witness: dict = field(default_factory=dict)
    notes: str = ""

    def to_dict(self):
        return {
            "criterion": self.criterion,
            "status": self.status.value,
            "conclusion": self.conclusion.value,
            "witness": dict(self.witness),
            "notes": self.notes,
        }

    @property
    def satisfied(self):
        return self.status is Status.SATISFIED


def _strict_margin(lhs, rhs, tol):
    """Strict inequality lhs > rhs with a 10*tol guard against FP ties."""
    return (lhs - rhs) > 10.0 * tol * (1.0 + max(abs(lhs), abs(rhs)))


def _sample_nonnegative(p, lo, hi, what):
    grid = np.geomspace(max(lo, 1e-6), hi, 64)
    vals = p(grid)
    if np.any(vals < -1e-12 * (1.0 + np.max(np.abs(vals)))):
        worst = float(np.min(vals))
        raise HypothesisViolated(f"{what} >= 0 fails on samples (min {worst:.6g})")


# ---------------------------------------------------------------------------
# Compactness from constants (no integration at all)
# ---------------------------------------------------------------------------

def check_myers_galloway(c, F, m):
    """Diameter bound (2F + sqrt(4F^2 + pi^2 (m-1) c)) / c from the constants.

    Applies when Ric >= c + d/dt(f o gamma) along minimizing geodesics with
    |f| <= F; the conclusion is compactness with the stated diameter bound.
    """
    if c <= 0:
        raise InvalidParams("the curvature constant c must be positive")
    if F < 0 or m < 2:
        raise InvalidParams("need F >= 0 and integer m >= 2")
    bound = (2.0 * F + math.sqrt(4.0 * F * F + math.pi ** 2 * (m - 1) * c)) / c
    return Verdict(
        criterion="myers_galloway", status=Status.SATISFIED,
        conclusion=Conclusion.DIAMETER_BOUND,
        witness={"diameter_bound": bound, "c": float(c), "F": float(F),
                 "m": float(m)},
        notes="complete manifold is compact with diam <= diameter_bound")


# ---------------------------------------------------------------------------
# Weighted-moment compactness criteria
# ---------------------------------------------------------------------------

_WITNESS_T0 = 1e-3


def check_ambrose_moore(k, lam, horizon=1e4, tol=DEFAULT_TOL):
    """Divergence of the lam-weighted curvature moment over (0, +inf).

    SATISFIED only when the tail class certifies divergence to +inf;
    a certified divergence to -inf is VIOLATED; everything else is
    INCONCLUSIVE with the truncated moment as witness.
    """
    if not 0.0 <= lam < 1.0:
        raise InvalidParams("need 0 <= lambda < 1")
    weighted = multiply(power(1.0, lam), k.k)
    div = tail_divergence(weighted)
    partial = weighted_moment(k, lam, _WITNESS_T0, horizon, tol=tol)
    witness = {"lambda": float(lam), "partial_moment": partial,
               "horizon": float(horizon)}
    if div == "+inf":
        return Verdict("ambrose_moore", Status.SATISFIED,
                       Conclusion.MANIFOLD_COMPACT, witness,
                       notes="tail class certifies the divergent moment")
    if div == "-inf":
        return Verdict("ambrose_moore", Status.VIOLATED, Conclusion.NONE,
                       witness, notes="moment certified divergent to -inf")
    return Verdict("ambrose_moore", Status.INCONCLUSIVE, Conclusion.NONE,
                   witness,
                   notes="no divergence certificate from the tail class")


def check_nehari(k, lam, t0, horizon=1e4, tol=DEFAULT_TOL):
    """Threshold test for nonnegative curvature: moment beats the sharp constant.

    Because K >= 0 makes the partial moment monotone in the horizon, a
    truncated integral exceeding the threshold is already sound.
    """
    if not 0.0 <= lam < 1.0:
        raise InvalidParams("need 0 <= lambda < 1")
    if t0 <= 0:
        raise InvalidParams("need t0 > 0")
    _sample_nonnegative(k.k, t0, horizon, "K")
    threshold = (2.0 - lam) ** 2 / (4.0 * (1.0 - lam)) / t0 ** (1.0 - lam)
    partial = weighted_moment(k, lam, t0, horizon, tol=tol)
    witness = {"lambda": float(lam), "t0": float(t0), "lhs": partial,
               "rhs": threshold, "horizon": float(horizon)}
    try:
        total = partial + tail_integral(multiply(power(1.0, lam), k.k),
                                        horizon, tol=tol)
        witness["certified_total"] = total
    except TailInfoMissing:
        pass
    if _strict_margin(partial, threshold, tol):
        return Verdict("nehari", Status.SATISFIED, Conclusion.MANIFOLD_COMPACT,
                       witness)
    return Verdict("nehari", Status.INCONCLUSIVE, Conclusion.NONE, witness)


def check_calabi(k, horizon=1e4, tol=DEFAULT_TOL):
    """Root-curvature growth beating (1/(2 sqrt(m-1))) log a in the limsup.

    The witness tracks g(a) = integral of sqrt(K) minus the log term on a
    geometric grid; SATISFIED needs a tail certificate that g diverges
    (power growth, or a log-coefficient strictly above the threshold).
    """
    _sample_nonnegative(k.k, _WITNESS_T0, horizon, "K")
    sqrt_k = elementwise_power(k.k, 0.5)
    coeff = 1.0 / (2.0 * math.sqrt(k.m - 1.0))
    grid = np.geomspace(1.0, horizon, 25)
    acc = cumulative(sqrt_k, np.append(_WITNESS_T0, grid), tol=tol)[1:]
    g_vals = [g - coeff * math.log(a) for g, a in zip(acc, grid)]
    witness = {"g_max": float(np.max(g_vals)), "g_last": float(g_vals[-1]),
               "log_threshold": coeff, "horizon": float(horizon)}
    t = sqrt_k.tail
    if t is not None and hasattr(t, "coefficient"):
        c, p, rate = t.coefficient, t.exponent, t.rate
        if c > 0 and (rate > 0 or (rate == 0 and p > -1.0)):
            return Verdict("calabi", Status.SATISFIED,
                           Conclusion.MANIFOLD_COMPACT, witness,
                           notes="sqrt(K) grows faster than 1/t; divergence certified")
        if c > 0 and rate == 0 and p == -1.0:
            witness["log_coefficient"] = c
            if _strict_margin(c, coeff, tol):
                return Verdict("calabi", Status.SATISFIED,
                               Conclusion.MANIFOLD_COMPACT, witness,
                               notes="log coefficient beats the threshold")
    return Verdict("calabi", Status.INCONCLUSIVE, Conclusion.NONE, witness)


def _main_b2_rhs(a, b, lam, B):
    if lam == 1.0:
        if B == 0.0:
            return 1.0 + 0.25 * math.log(b / a)
        coth_a = (math.exp(2 * B * a) + 1.0) / (math.exp(2 * B * a) - 1.0)
        return B * (b + a * coth_a) + 0.25 * math.log(b / a)
    if B == 0.0:
        return ((2.0 - lam) ** 2 / (4.0 * (1.0 - lam) * a ** (1.0 - lam))
                - lam ** 2 / (4.0 * (1.0 - lam) * b ** (1.0 - lam)))
    coth_a = (math.exp(2 * B * a) + 1.0) / (math.exp(2 * B * a) - 1.0)
    return (B * (b ** lam + a ** lam * coth_a)
            + lam ** 2 / (4.0 * (1.0 - lam)) * (a ** (lam - 1.0) - b ** (lam - 1.0)))


def check_main_B2(k, a, b, lam, tol=DEFAULT_TOL):
    """Weighted-moment test against the negative-lower-bound comparison value.

    Dispatches the right-hand side on lambda = 1, on B = 0 (where the
    formulas are analytic limits, never 0*inf evaluations), and records
    the compact product form for lambda = 0, B > 0.  A failing instance
    on certified-nonpositive curvature is VIOLATED: the comparison
    solution never vanishes, so no parameter choice can fire.
    """
    if not 0 < a < b:
        raise InvalidParams("need 0 < a < b")
    lhs = weighted_moment(k, lam, a, b, tol=tol)
    return _main_b2_verdict(k, a, b, lam, lhs, tol)


def _main_b2_verdict(k, a, b, lam, lhs, tol):
    B = k.b_const
    rhs = _main_b2_rhs(a, b, lam, B)
    witness = {"lhs": lhs, "rhs": rhs, "a": float(a), "b": float(b),
               "lambda": float(lam), "B": float(B)}
    if lam == 0.0 and B > 0.0:
        witness["lhs_compact"] = (1.0 - math.exp(-2.0 * B * a)) * lhs
        witness["rhs_compact"] = 2.0 * B
    if _strict_margin(lhs, rhs, tol):
        return Verdict("main_b2", Status.SATISFIED, Conclusion.MANIFOLD_COMPACT,
                       witness)
    if certified_nonpositive(k.k):
        return Verdict("main_b2", Status.VIOLATED, Conclusion.NONE, witness,
                       notes="K <= 0 certified: the comparison solution never "
                             "vanishes, so the criterion fails for all (a, b, lambda)")
    return Verdict("main_b2", Status.INCONCLUSIVE, Conclusion.NONE, witness)


def search_main_B2(k, a_grid=None, b_grid=None, tol=DEFAULT_TOL):
    """Best-margin verdict over an (a, b) grid times LAMBDA_GRID.

    The criterion leaves the parameters free; this scans a deterministic
    geometric grid and returns the instance with the largest scaled margin
    (which is SATISFIED as soon as any instance is).  A margin beats the
    best so far only by more than the tolerance, so among instances that
    tie up to rounding the first in scan order wins.
    """
    if a_grid is None:
        a_grid = np.geomspace(0.25, 4.0, 5)
    intervals = [(float(a), float(b)) for a in a_grid
                 for b in (b_grid if b_grid is not None
                           else np.geomspace(1.5 * a, 30.0 * a, 7))
                 if b > a]
    if not intervals:
        raise InvalidParams("the grid has no (a, b) pair with b > a")
    if min(a for a, _ in intervals) <= 0:
        raise InvalidParams("need 0 < a < b")
    # one running moment per lambda over every endpoint: lhs = F(b) - F(a)
    ends = sorted({t for ab in intervals for t in ab})
    at = {t: i for i, t in enumerate(ends)}
    moments = {lam: cumulative(multiply(power(1.0, lam), k.k), ends, tol=tol)
               for lam in LAMBDA_GRID}
    best = best_margin = None
    for a, b in intervals:
        for lam in LAMBDA_GRID:
            lhs = float(moments[lam][at[b]] - moments[lam][at[a]])
            v = _main_b2_verdict(k, a, b, float(lam), lhs, tol)
            margin = ((v.witness["lhs"] - v.witness["rhs"])
                      / (1.0 + abs(v.witness["rhs"])))
            if best is None or _strict_margin(margin, best_margin, tol):
                best, best_margin = v, margin
    witness = dict(best.witness)
    witness["grid_points"] = float(len(intervals) * len(LAMBDA_GRID))
    return Verdict("main_b2", best.status, best.conclusion, witness, best.notes)


# ---------------------------------------------------------------------------
# First-zero and oscillation criteria for coefficient pairs
# ---------------------------------------------------------------------------

def first_zero_threshold(pair, b, tol=DEFAULT_TOL):
    """The case-split threshold 2B, or 2B V(b,inf)/(V(b,inf)-1), or the B = 0 limits."""
    B = pair.b_const
    if pair.v_inv_l1_at_infinity is None:
        raise TailInfoMissing(
            "deciding the threshold needs the integrability of 1/v at +inf")
    if not pair.v_inv_l1_at_infinity:
        return 2.0 * B
    if B == 0.0:
        return 1.0 / tail_integral(pair.v_inv, b, tol=tol)
    vm1 = big_v_minus_one(pair, b, math.inf, tol=tol)
    if math.isinf(vm1):
        return 2.0 * B
    return 2.0 * B * (vm1 + 1.0) / vm1


def check_first_zero(pair, a, b, tol=DEFAULT_TOL):
    """Annulus integral of W v against the no-zero bound (contrapositive).

    When the integral exceeds the threshold, every bounded-slope solution
    must vanish somewhere on (0, +inf).
    """
    if not 0 <= a < b:
        raise InvalidParams("need 0 <= a < b")
    lhs = integrate(pair.wv, max(a, pair.t_start), b, tol=tol)
    rhs = first_zero_threshold(pair, b, tol=tol)
    witness = {"lhs": lhs, "rhs": rhs, "a": float(a), "b": float(b),
               "B": float(pair.b_const)}
    if _strict_margin(lhs, rhs, tol):
        return Verdict("first_zero", Status.SATISFIED,
                       Conclusion.FIRST_ZERO_EXISTS, witness)
    return Verdict("first_zero", Status.INCONCLUSIVE, Conclusion.NONE, witness)


def _cumulative_class(p):
    """Asymptotic class of t -> integral of p up to t.

    Returns one of ('const',) for a finite limit, ('log', c), ('pow', c,
    e), ('exp', c, e, rate), or None when the tail is undeclared.
    """
    t = p.tail
    if t is None:
        return None
    if not hasattr(t, "coefficient"):  # closed-form tail: finite limit
        return ("const",)
    c, pw, rate = t.coefficient, t.exponent, t.rate
    if c == 0.0 or rate < 0 or (rate == 0 and pw < -1.0):
        return ("const",)
    if rate > 0:
        return ("exp", c / rate, pw, rate)
    if pw == -1.0:
        return ("log", c)
    return ("pow", c / (pw + 1.0), pw + 1.0)


def _decay_class(p):
    """Asymptotic class of t -> integral of p over [t, +inf) for decaying p."""
    t = p.tail
    if t is None or not hasattr(t, "coefficient"):
        return None
    c, pw, rate = t.coefficient, t.exponent, t.rate
    if rate < 0:
        return ("exp", c / (-rate), pw, rate)
    if rate == 0 and pw < -1.0:
        return ("pow", c / (-pw - 1.0), pw + 1.0)
    return None


def _product_limit(pair):
    """Certified limit of (integral of Wv up to t) * (tail integral of 1/v).

    Returns (limit, certified); the limit may be +/-inf.  Catalog tails
    always produce an existing limit, so liminf = limsup = limit.
    """
    grow = _cumulative_class(pair.wv)
    decay = _decay_class(pair.v_inv)
    if grow is None or decay is None:
        return None, False
    kind = grow[0]
    if kind == "const" or kind == "log":
        return 0.0, True
    if kind == "pow":
        _, cg, eg = grow
        if decay[0] == "pow":
            _, cd, ed = decay
            e = eg + ed
            if e > 0:
                return math.copysign(math.inf, cg * cd), True
            if e == 0:
                return cg * cd, True
            return 0.0, True
        return 0.0, True  # exponential decay beats any power growth
    # kind == "exp": exponential growth of the cumulative
    _, cg, eg, rg = grow
    if decay[0] == "exp":
        _, cd, ed, rd = decay
        net = rg + rd
        if net > 0:
            return math.copysign(math.inf, cg * cd), True
        if net < 0:
            return 0.0, True
        e = eg + ed
        if e > 0:
            return math.copysign(math.inf, cg * cd), True
        if e == 0:
            return cg * cd, True
        return 0.0, True
    return math.copysign(math.inf, cg), True


def _product_witness(pair, R, horizon, tol):
    ts = np.geomspace(max(2.0 * R, R + 1.0), horizon, 16)
    try:
        tails = [tail_integral(pair.v_inv, t, tol=tol) for t in ts]
    except TailInfoMissing:
        return {}
    best_t, best = float(ts[0]), -math.inf
    products = cumulative(pair.wv, np.append(R, ts), tol=tol)[1:] * tails
    for t, val in zip(ts, products):
        if val > best:
            best_t, best = float(t), float(val)
    return {"max_product": best, "argmax_t": best_t}


def _window_sup_witness(pair, R, horizon, tol):
    ts = np.geomspace(max(R, 1e-3), horizon, 48)
    acc = cumulative(pair.wv, ts, tol=tol)
    running_min = np.minimum.accumulate(acc)
    sup = float(np.max(acc - running_min))
    return {"window_sup": sup}


def check_oscillation(pair, R, horizon=1e4, tol=DEFAULT_TOL):
    """Oscillation via the limsup product test or the window-sup test.

    Branches on the integrability of 1/v at +inf: the integrable branch
    needs limsup of (integral of Wv from R) * (tail of 1/v) above 1, the
    non-integrable branch needs the window suprema of the Wv integral to
    exceed 2B in the limit.  Both limits are decided by tail algebra only.
    """
    if R <= 0:
        raise InvalidParams("need R > 0")
    if pair.v_inv_l1_at_infinity is None:
        raise TailInfoMissing("oscillation branch needs tail info on 1/v")
    B = pair.b_const
    if pair.v_inv_l1_at_infinity:
        limit, certified = _product_limit(pair)
        witness = {"R": float(R), "branch": 1.0}
        witness.update(_product_witness(pair, R, horizon, tol))
        if certified:
            witness["certified_limsup"] = limit
        if certified and (math.isinf(limit) and limit > 0
                          or (math.isfinite(limit) and _strict_margin(limit, 1.0, tol))):
            return Verdict("oscillation", Status.SATISFIED,
                           Conclusion.OSCILLATORY, witness,
                           notes="limsup certified above 1 by tail algebra")
        return Verdict("oscillation", Status.INCONCLUSIVE, Conclusion.NONE,
                       witness)
    div = tail_divergence(pair.wv)
    witness = {"R": float(R), "branch": 0.0, "threshold": 2.0 * B}
    witness.update(_window_sup_witness(pair, R, horizon, tol))
    if div == "+inf":
        witness["certified_limit"] = math.inf
        return Verdict("oscillation", Status.SATISFIED, Conclusion.OSCILLATORY,
                       witness,
                       notes="window suprema certified divergent by tail algebra")
    if div in ("finite", "-inf"):
        witness["certified_limit"] = 0.0
    return Verdict("oscillation", Status.INCONCLUSIVE, Conclusion.NONE, witness)


def check_moore_liminf(pair, R, c_thresh, horizon=1e4, tol=DEFAULT_TOL):
    """Liminf variant of the product test (integrable-1/v setting).

    SATISFIED when the certified liminf reaches c_thresh; the threshold
    itself must sit strictly above the sharp constant 1/4.
    """
    if c_thresh <= 0.25:
        raise InvalidParams("need c_thresh > 1/4")
    if R <= 0:
        raise InvalidParams("need R > 0")
    if not pair.v_inv_l1_at_infinity:
        raise InvalidParams("the liminf test needs 1/v integrable at +inf")
    limit, certified = _product_limit(pair)
    witness = {"R": float(R), "c_thresh": float(c_thresh)}
    witness.update(_product_witness(pair, R, horizon, tol))
    if certified:
        witness["certified_liminf"] = limit
        if limit >= c_thresh:
            return Verdict("moore_liminf", Status.SATISFIED,
                           Conclusion.OSCILLATORY, witness)
    return Verdict("moore_liminf", Status.INCONCLUSIVE, Conclusion.NONE,
                   witness)


def check_leighton(pair, tol=DEFAULT_TOL):
    """Oscillation from a divergent integral of W v (1/v not integrable)."""
    if pair.v_inv_l1_at_infinity is None:
        raise TailInfoMissing("the Leighton test needs tail info on 1/v")
    if pair.v_inv_l1_at_infinity:
        raise InvalidParams("the Leighton test needs 1/v non-integrable at +inf")
    div = tail_divergence(pair.wv)
    witness = {}
    if div is None:
        raise TailInfoMissing("divergence of the Wv integral is undeclared")
    if div == "+inf":
        return Verdict("leighton", Status.SATISFIED, Conclusion.OSCILLATORY,
                       witness, notes="integral of Wv certified divergent")
    return Verdict("leighton", Status.INCONCLUSIVE, Conclusion.NONE, witness)


def _sqrt_chi_class(pair):
    """Asymptotic class (coefficient, exponent) of sqrt(chi) for the critical function."""
    decay = _decay_class(pair.v_inv)
    if decay is None:
        return None
    if decay[0] == "pow":
        # tail of 1/v is c t^p with p < -1: sqrt(chi) ~ (-p-1)/(2t)
        p = pair.v_inv.tail.exponent
        return ((-p - 1.0) / 2.0, -1.0)
    # exponential decay at rate r < 0: sqrt(chi) -> -r/2
    r = pair.v_inv.tail.rate
    return (-r / 2.0, 0.0)


def check_bmr(pair, T, horizon=1e4, tol=DEFAULT_TOL):
    """Oscillation against the critical function chi of the volume growth.

    chi(t) = [1 / (2 v(t) * tail integral of 1/v)]^2, by differentiating
    the tail integral in closed form.  SATISFIED needs the cumulative of
    sqrt(W) - sqrt(chi) certified divergent by comparing asymptotic
    classes; the sampled cumulative is only a witness.
    """
    if T <= 0:
        raise InvalidParams("need T > 0")
    if not pair.v_inv_l1_at_infinity:
        raise InvalidParams("the critical-function test needs 1/v integrable at +inf")
    _sample_nonnegative(pair.w, T, horizon, "W")

    def sqrt_chi(t):
        return 1.0 / (2.0 * pair.v(t) * tail_integral(pair.v_inv, t, tol=tol))

    ts = np.geomspace(T, horizon, 48)
    integrand = np.array([math.sqrt(max(pair.w(t), 0.0)) - sqrt_chi(t)
                          for t in ts])
    cumulative = np.concatenate(
        [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(ts))])
    witness = {"T": float(T), "cumulative_max": float(np.max(cumulative)),
               "cumulative_last": float(cumulative[-1])}

    chi_class = _sqrt_chi_class(pair)
    wt = pair.w.tail
    if chi_class is None or wt is None or not hasattr(wt, "coefficient"):
        return Verdict("bmr", Status.INCONCLUSIVE, Conclusion.NONE, witness)
    cw, pw, rw = wt.coefficient, wt.exponent, wt.rate
    if cw < 0:
        raise HypothesisViolated("W tail coefficient is negative")
    c_chi, p_chi = chi_class
    witness["sqrt_chi_coefficient"] = c_chi
    if cw > 0 and rw > 0:
        return Verdict("bmr", Status.SATISFIED, Conclusion.OSCILLATORY, witness)
    if cw > 0 and rw == 0:
        sw, pw2 = math.sqrt(cw), pw / 2.0
        if pw2 > p_chi:
            return Verdict("bmr", Status.SATISFIED, Conclusion.OSCILLATORY,
                           witness, notes="sqrt(W) dominates sqrt(chi)")
        if pw2 == p_chi and _strict_margin(sw, c_chi, tol):
            witness["sqrt_w_coefficient"] = sw
            return Verdict("bmr", Status.SATISFIED, Conclusion.OSCILLATORY,
                           witness, notes="same order, larger coefficient")
    return Verdict("bmr", Status.INCONCLUSIVE, Conclusion.NONE, witness)


def check_diameter_remark(k, D, tol=DEFAULT_TOL):
    """Diameter bound from the quadratic moment over (0, D/4)."""
    if D <= 0:
        raise InvalidParams("need D > 0")
    lhs = 2.0 * integrate(multiply(power(1.0, 2.0), k.k), 0.0, D / 4.0, tol=tol)
    witness = {"lhs": lhs, "rhs": float(D), "D": float(D)}
    if _strict_margin(lhs, float(D), tol):
        witness["diameter_bound"] = float(D)
        return Verdict("diameter_remark", Status.SATISFIED,
                       Conclusion.DIAMETER_BOUND, witness,
                       notes="complete manifold is compact with diam <= D")
    return Verdict("diameter_remark", Status.INCONCLUSIVE, Conclusion.NONE,
                   witness)
