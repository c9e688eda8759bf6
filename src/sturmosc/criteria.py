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
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (HypothesisViolated, InvalidParams, NonFiniteSample,
                     TailInfoMissing, ToleranceNotMet)
from .profiles import (DEFAULT_TOL, LOG_ORDER, _failing, _samples, antiderivative_term,
                       certified_nonpositive, coth_band, cumulative,
                       elementwise_power, integrate, multiply, power,
                       tail_divergence, tail_integral, weighted_moment)

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


# criterion -> the conclusion that a SATISFIED verdict of it licenses
_CONCLUSIONS = {
    "myers_galloway": Conclusion.DIAMETER_BOUND,
    "diameter_remark": Conclusion.DIAMETER_BOUND,
    "ambrose_moore": Conclusion.MANIFOLD_COMPACT,
    "nehari": Conclusion.MANIFOLD_COMPACT,
    "calabi": Conclusion.MANIFOLD_COMPACT,
    "main_b2": Conclusion.MANIFOLD_COMPACT,
    "first_zero": Conclusion.FIRST_ZERO_EXISTS,
    "oscillation": Conclusion.OSCILLATORY,
    "moore_liminf": Conclusion.OSCILLATORY,
    "leighton": Conclusion.OSCILLATORY,
    "bmr": Conclusion.OSCILLATORY,
    "lambda1_negative": Conclusion.NEGATIVE_BOTTOM_SPECTRUM,
    "instability_at_infinity": Conclusion.UNSTABLE_AT_INFINITY,
    "yamabe": Conclusion.CONFORMAL_DEFORMATION,
}


@dataclass(frozen=True)
class Verdict:
    """Outcome of one criterion check, with the numbers that drove it."""

    criterion: str
    status: Status
    witness: dict = field(default_factory=dict)
    notes: str = ""

    def __post_init__(self):
        if self.criterion not in _CONCLUSIONS:
            raise InvalidParams(f"no conclusion for criterion {self.criterion!r}")

    @property
    def conclusion(self):
        """The criterion's conclusion when SATISFIED, else Conclusion.NONE."""
        return _CONCLUSIONS[self.criterion] if self.satisfied else Conclusion.NONE

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


def _status(holds):
    """SATISFIED when the criterion's inequality holds, else INCONCLUSIVE."""
    return Status.SATISFIED if holds else Status.INCONCLUSIVE


def _strict_margin(lhs, rhs, tol):
    """Strict inequality lhs > rhs with a 10*tol guard against FP ties."""
    return (lhs - rhs) > 10.0 * tol * (1.0 + max(abs(lhs), abs(rhs)))


def _sample_nonnegative(p, lo, hi, what):
    """Check p >= 0 at 64 geometric samples by :func:`~sturmosc.profiles._failing`
    (rel 1e-12): a failing sample raises HypothesisViolated, a NaN one
    NonFiniteSample."""
    grid = np.geomspace(max(lo, 1e-6), hi, 64)
    vals = _samples(p, grid)
    if _failing(grid, vals, 0.0, 1e-12, what).any():
        raise HypothesisViolated(f"{what} >= 0 fails on samples (min {float(np.min(vals)):.6g})")


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
        "myers_galloway", Status.SATISFIED,
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
    partial = integrate(weighted, _WITNESS_T0, horizon, tol=tol)
    witness = {"lambda": float(lam), "partial_moment": partial,
               "horizon": float(horizon)}
    if div == "+inf":
        return Verdict("ambrose_moore", Status.SATISFIED, witness,
                       notes="tail class certifies the divergent moment")
    if div == "-inf":
        return Verdict("ambrose_moore", Status.VIOLATED, witness,
                       notes="moment certified divergent to -inf")
    return Verdict("ambrose_moore", Status.INCONCLUSIVE, witness,
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
    weighted = multiply(power(1.0, lam), k.k)
    partial = integrate(weighted, t0, horizon, tol=tol)
    witness = {"lambda": float(lam), "t0": float(t0), "lhs": partial,
               "rhs": threshold, "horizon": float(horizon)}
    try:
        total = partial + tail_integral(weighted, horizon, tol=tol)
        witness["certified_total"] = total
    except TailInfoMissing:
        pass
    return Verdict("nehari", _status(_strict_margin(partial, threshold, tol)),
                   witness)


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
    term = antiderivative_term(sqrt_k)
    if term is not None and term[0] > 0:
        c, order = term
        if order > LOG_ORDER:
            return Verdict("calabi", Status.SATISFIED, witness,
                           notes="sqrt(K) grows faster than 1/t; divergence certified")
        if order == LOG_ORDER:
            witness["log_coefficient"] = c
            if _strict_margin(c, coeff, tol):
                return Verdict("calabi", Status.SATISFIED, witness,
                               notes="log coefficient beats the threshold")
    return Verdict("calabi", Status.INCONCLUSIVE, witness)


def _main_b2_rhs(a, b, lam, B):
    """B b^lam + a^lam B coth(B a) + the lambda term; B = 0 is its limit."""
    tail = (0.25 * math.log(b / a) if lam == 1.0 else
            lam ** 2 / (4.0 * (1.0 - lam)) * (a ** (lam - 1.0) - b ** (lam - 1.0)))
    return B * b ** lam + a ** lam * coth_band(B, a) + tail


def check_main_B2(k, a, b, lam, tol=DEFAULT_TOL):
    """Weighted-moment test against the negative-lower-bound comparison value.

    The right-hand side takes B coth(B a) from ``coth_band`` (so B = 0
    gives its analytic limit 1/a), and the witness records the compact
    product form for lambda = 0, B > 0.  A failing instance
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
        return Verdict("main_b2", Status.SATISFIED, witness)
    if certified_nonpositive(k.k):
        return Verdict("main_b2", Status.VIOLATED, witness,
                       notes="K <= 0 certified: the comparison solution never "
                             "vanishes, so the criterion fails for all (a, b, lambda)")
    return Verdict("main_b2", Status.INCONCLUSIVE, witness)


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
            rhs = _main_b2_rhs(a, b, lam, k.b_const)
            margin = (lhs - rhs) / (1.0 + abs(rhs))
            if best is None or _strict_margin(margin, best_margin, tol):
                best, best_margin = (a, b, lam, lhs), margin
    verdict = _main_b2_verdict(k, *best, tol)
    return replace(verdict, witness={
        **verdict.witness, "grid_points": float(len(intervals) * len(LAMBDA_GRID))})


# ---------------------------------------------------------------------------
# First-zero and oscillation criteria for coefficient pairs
# ---------------------------------------------------------------------------

def _v_inv_integrable(pair, what):
    """Whether 1/v is integrable at +inf, as the pair declares or its tail
    decides; TailInfoMissing when neither says."""
    if pair.v_inv_l1_at_infinity is None:
        raise TailInfoMissing(f"{what} needs the integrability of 1/v at +inf")
    return pair.v_inv_l1_at_infinity


def first_zero_threshold(pair, b, tol=DEFAULT_TOL):
    """The case-split threshold: 2B when 1/v is not integrable at +inf, else
    2B V/(V - 1) with V = V(b, inf), computed as B + B coth(B x) with x the
    tail integral of 1/v from b (1/x at B = 0)."""
    B = pair.b_const
    if not _v_inv_integrable(pair, "deciding the threshold"):
        return 2.0 * B
    return B + coth_band(B, tail_integral(pair.v_inv, b, tol=tol))


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
    return Verdict("first_zero", _status(_strict_margin(lhs, rhs, tol)), witness)


def _product_limit(pair):
    """Certified limit of (integral of Wv up to t) * (tail integral of 1/v).

    Returns (limit, certified); the limit may be +/-inf.  Catalog tails
    always produce an existing limit, so liminf = limsup = limit.
    """
    grow = antiderivative_term(pair.wv)
    decay = antiderivative_term(pair.v_inv)
    if grow is None or decay is None or decay[1] >= LOG_ORDER:
        return None, False
    (cg, (rg, eg)), (cd, (rd, ed)) = grow, decay
    if cg == 0.0 or (rg, eg) <= LOG_ORDER:  # bounded or logarithmic growth
        return 0.0, True
    cd = -cd  # the tail integral of 1/v is minus its vanishing antiderivative
    # the product has the order (rg + rd, eg + ed) and tends to cg * cd at
    # (0, 0); comparing with the negated decay order adds nothing up, so a
    # tie stays exact
    if (rg, eg) > (-rd, -ed):
        return math.copysign(math.inf, cg * cd), True
    if (rg, eg) == (-rd, -ed):
        return cg * cd, True
    return 0.0, True


def _product_witness(pair, R, horizon, tol):
    ts = np.geomspace(max(2.0 * R, R + 1.0), horizon, 16)
    try:
        tails = tail_integral(pair.v_inv, ts, tol=tol)
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
    B = pair.b_const
    if _v_inv_integrable(pair, "the oscillation branch"):
        limit, certified = _product_limit(pair)
        witness = {"R": float(R), "branch": 1.0}
        witness.update(_product_witness(pair, R, horizon, tol))
        if certified:
            witness["certified_limsup"] = limit
        if certified and (math.isinf(limit) and limit > 0
                          or (math.isfinite(limit) and _strict_margin(limit, 1.0, tol))):
            return Verdict("oscillation", Status.SATISFIED, witness,
                           notes="limsup certified above 1 by tail algebra")
        return Verdict("oscillation", Status.INCONCLUSIVE, witness)
    div = tail_divergence(pair.wv)
    witness = {"R": float(R), "branch": 0.0, "threshold": 2.0 * B}
    witness.update(_window_sup_witness(pair, R, horizon, tol))
    if div == "+inf":
        witness["certified_limit"] = math.inf
        return Verdict("oscillation", Status.SATISFIED, witness,
                       notes="window suprema certified divergent by tail algebra")
    if div in ("finite", "-inf"):
        witness["certified_limit"] = 0.0
    return Verdict("oscillation", Status.INCONCLUSIVE, witness)


def check_moore_liminf(pair, R, c_thresh, horizon=1e4, tol=DEFAULT_TOL):
    """Liminf variant of the product test (integrable-1/v setting).

    SATISFIED when the certified liminf reaches c_thresh; the threshold
    itself must sit strictly above the sharp constant 1/4.
    """
    if c_thresh <= 0.25:
        raise InvalidParams("need c_thresh > 1/4")
    if R <= 0:
        raise InvalidParams("need R > 0")
    if not _v_inv_integrable(pair, "the liminf test"):
        raise InvalidParams("the liminf test needs 1/v integrable at +inf")
    limit, certified = _product_limit(pair)
    witness = {"R": float(R), "c_thresh": float(c_thresh)}
    witness.update(_product_witness(pair, R, horizon, tol))
    if certified:
        witness["certified_liminf"] = limit
    return Verdict("moore_liminf", _status(certified and limit >= c_thresh),
                   witness)


def check_leighton(pair, tol=DEFAULT_TOL):
    """Oscillation from a divergent integral of W v (1/v not integrable)."""
    if _v_inv_integrable(pair, "the Leighton test"):
        raise InvalidParams("the Leighton test needs 1/v non-integrable at +inf")
    div = tail_divergence(pair.wv)
    if div is None:
        raise TailInfoMissing("divergence of the Wv integral is undeclared")
    if div == "+inf":
        return Verdict("leighton", Status.SATISFIED,
                       notes="integral of Wv certified divergent")
    return Verdict("leighton", Status.INCONCLUSIVE)


def check_bmr(pair, T, horizon=1e4, tol=DEFAULT_TOL):
    """Oscillation against the critical function chi of the volume growth.

    chi(t) = [1 / (2 v(t) * tail integral of 1/v)]^2, by differentiating
    the tail integral in closed form.  SATISFIED needs the cumulative of
    sqrt(W) - sqrt(chi) certified divergent by comparing asymptotic
    classes; its running integral along a 48-point geometric grid from T
    to the horizon is only a witness, NaN where the integrand is not finite
    (v or the tail of 1/v leaving the float range) or will not converge.
    """
    if T <= 0:
        raise InvalidParams("need T > 0")
    if not _v_inv_integrable(pair, "the critical-function test"):
        raise InvalidParams("the critical-function test needs 1/v integrable at +inf")
    _sample_nonnegative(pair.w, T, horizon, "W")

    def sqrt_w_minus_sqrt_chi(t):
        chi_root = 1.0 / (2.0 * pair.v(t) * tail_integral(pair.v_inv, t, tol=tol))
        return np.sqrt(np.maximum(pair.w(t), 0.0)) - chi_root

    try:
        running = cumulative(sqrt_w_minus_sqrt_chi, np.geomspace(T, horizon, 48), tol=tol)
    except (NonFiniteSample, ToleranceNotMet):
        running = [math.nan]
    witness = {"T": float(T), "cumulative_max": float(np.max(running)),
               "cumulative_last": float(running[-1])}

    v_inv, w = antiderivative_term(pair.v_inv), antiderivative_term(pair.w)
    if v_inv is None or v_inv[1] >= LOG_ORDER or w is None:
        return Verdict("bmr", Status.INCONCLUSIVE, witness)
    # sqrt(chi) = -F'/(2F) for the vanishing antiderivative F of 1/v: the
    # constant -r/2 when F ~ t^p e^{rt}, -e/(2t) when F ~ t^e; the integral
    # of chi then has the order (0, 1) or (0, -1)
    _, (rate, exponent) = v_inv
    c_chi, chi_order = ((-float(rate) / 2.0, (0.0, 1.0)) if rate != 0.0
                        else (-float(exponent) / 2.0, (0.0, -1.0)))
    cw, w_order = w
    # W's own leading coefficient: the term's derivative, exact when the
    # orders tie (the exponent is then +-1)
    cw *= float(w_order[0] or w_order[1] or 1.0)
    if cw < 0:
        raise HypothesisViolated("W tail coefficient is negative")
    witness["sqrt_chi_coefficient"] = c_chi
    if cw > 0 and w_order > chi_order:
        return Verdict("bmr", Status.SATISFIED, witness,
                       notes="" if w_order[0] > 0 else "sqrt(W) dominates sqrt(chi)")
    if cw > 0 and w_order == chi_order:
        sw = math.sqrt(cw)
        if _strict_margin(sw, c_chi, tol):
            witness["sqrt_w_coefficient"] = sw
            return Verdict("bmr", Status.SATISFIED, witness,
                           notes="same order, larger coefficient")
    return Verdict("bmr", Status.INCONCLUSIVE, witness)


def check_diameter_remark(k, D, tol=DEFAULT_TOL):
    """Diameter bound from the quadratic moment over (0, D/4)."""
    if D <= 0:
        raise InvalidParams("need D > 0")
    lhs = 2.0 * integrate(multiply(power(1.0, 2.0), k.k), 0.0, D / 4.0, tol=tol)
    witness = {"lhs": lhs, "rhs": float(D), "D": float(D)}
    if _strict_margin(lhs, float(D), tol):
        witness["diameter_bound"] = float(D)
        return Verdict("diameter_remark", Status.SATISFIED, witness,
                       notes="complete manifold is compact with diam <= D")
    return Verdict("diameter_remark", Status.INCONCLUSIVE, witness)
