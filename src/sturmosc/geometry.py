"""Model manifolds: warped products turned into (K, v, B) coefficient data.

A rotationally symmetric metric dr^2 + f(r)^2 dtheta^2 has radial
curvature K = -f''/f and boundary-sphere volume v = omega_{m-1} f(r)^{m-1}.
Each catalog entry gives f and K as profiles, K in closed form (so it never
goes through numerical differentiation) with its sign, and the constant B
of its certified lower bound K >= -B^2.  The volume is built from f by the
profile algebra, which derives its sign and tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidParams, TailInfoMissing
from .profiles import (AsymptoticTail, CurvatureProfile, DEFAULT_TOL, Profile, add,
                       certified_nonpositive, constant, elementwise_power, power,
                       scaled)
from .ode import DEFAULT_ZERO_TOL, solve_jacobi

__all__ = [
    "Warping",
    "ModelManifold",
    "sphere_area",
    "space_form",
    "warped_model",
    "model_profiles",
    "conjugate_radius",
    "sin_warping",
    "sinh_warping",
    "linear_warping",
    "cubic_warping",
    "WARPING_CATALOG",
]


def sphere_area(n):
    """Surface measure of the unit n-sphere, by the factor-2pi recursion."""
    if n < 0 or int(n) != n:
        raise InvalidParams("sphere dimension must be a nonnegative integer")
    areas = {0: 2.0, 1: 2.0 * math.pi}
    k = int(n)
    if k in areas:
        return areas[k]
    lo = areas[k % 2]
    for j in range(2 + (k % 2), k + 1, 2):
        lo = 2.0 * math.pi * lo / (j - 1)
    return lo


@dataclass(frozen=True)
class Warping:
    """A warping function f on (0, r_max) and its curvature K = -f''/f.

    ``b_const`` is the B of the certified lower bound K >= -B^2, or None
    when the catalog certifies none.
    """

    name: str
    f: Profile
    k: Profile
    b_const: Optional[float]
    r_max: float = math.inf


def sin_warping(kappa):
    """f = sin(sqrt(kappa) r)/sqrt(kappa): the round space form, K = kappa > 0."""
    if kappa <= 0:
        raise InvalidParams("sin warping needs kappa > 0")
    s, name = math.sqrt(kappa), f"sin(k={kappa:g})"
    f = Profile(lambda r: np.sin(s * r) / s, sign="nonnegative", label=f"f[{name}]")
    return Warping(name, f, constant(kappa, label=f"K[{name}]"), 0.0, math.pi / s)


def sinh_warping(kappa):
    """f = sinh(sqrt(-kappa) r)/sqrt(-kappa): hyperbolic space form, K = kappa < 0."""
    if kappa >= 0:
        raise InvalidParams("sinh warping needs kappa < 0")
    s, name = math.sqrt(-kappa), f"sinh(k={kappa:g})"
    # sinh(s r)/s ~ e^{s r} / (2 s): a dominant term, not exact at finite r
    f = Profile(lambda r: np.sinh(s * r) / s, tail=AsymptoticTail(0.5 / s, 0.0, s, exact=False),
                sign="nonnegative", label=f"f[{name}]")
    return Warping(name, f, constant(kappa, label=f"K[{name}]"), s)


def linear_warping():
    """f = r: flat space, K = 0."""
    return Warping("linear", power(1.0, 1.0, label="f[linear]"),
                   constant(0.0, label="K[linear]"), 0.0)


def cubic_warping(alpha):
    """f = r + alpha r^3: a polynomially perturbed cone, K = -6 alpha/(1 + alpha r^2).

    For alpha >= 0 the curvature lies in [-6 alpha, 0], which gives its sign
    and B = sqrt(6 alpha); alpha < 0 certifies no lower bound, and truncates
    the domain where f > 0.
    """
    a = float(alpha)
    name = f"cubic(a={a:g})"
    f = add(power(1.0, 1.0), power(a, 3.0), label=f"f[{name}]")
    k = Profile(lambda r: -(6.0 * a * r) / (r + a * np.power(r, 3)),
                sign="zero" if a == 0 else ("nonpositive" if a > 0 else None),
                label=f"K[{name}]")
    if a >= 0:
        return Warping(name, f, k, math.sqrt(6.0 * a))
    return Warping(name, f, k, None, 1.0 / math.sqrt(-a))


WARPING_CATALOG = {
    "sin": sin_warping,
    "sinh": sinh_warping,
    "linear": linear_warping,
    "cubic": cubic_warping,
}


@dataclass(frozen=True)
class ModelManifold:
    """Dimension plus warping function; f(0) = 0 and f'(0) = 1 are checked."""

    m: int
    warping: Warping

    def __post_init__(self):
        if self.m < 2 or int(self.m) != self.m:
            raise InvalidParams("dimension m must be an integer >= 2")
        for eps in (1e-3, 1e-4):
            ratio = float(self.warping.f(eps)) / eps
            if abs(ratio - 1.0) > 1e-3:
                raise InvalidParams(
                    f"warping must satisfy f(r)/r -> 1 at 0 "
                    f"(got {ratio:.6g} at r = {eps:g})")

    @property
    def r_max(self):
        return self.warping.r_max


def space_form(m, kappa):
    """The simply connected constant-curvature model of curvature kappa."""
    if kappa > 0:
        return ModelManifold(m, sin_warping(kappa))
    if kappa == 0:
        return ModelManifold(m, linear_warping())
    return ModelManifold(m, sinh_warping(kappa))


def warped_model(m, kind, **params):
    """Catalog constructor used by the configuration layer."""
    try:
        factory = WARPING_CATALOG[kind]
    except KeyError:
        raise InvalidParams(f"unknown warping kind {kind!r}") from None
    return ModelManifold(m, factory(**params))


def model_profiles(model):
    """Derive (curvature profile, volume profile) from a model manifold.

    K and its bound B come from the catalog; v = omega_{m-1} f^{m-1} from
    the profile algebra.  The sphere-area constant cancels in every
    criterion except the annulus integrals, so it is kept.
    """
    w, m = model.warping, model.m
    if w.b_const is None:
        raise InvalidParams(
            f"warping {w.name!r} carries no certified curvature lower bound")
    k = CurvatureProfile(w.k, b_const=w.b_const, m=m, validate=math.isinf(model.r_max))
    v = scaled(elementwise_power(w.f, m - 1), sphere_area(m - 1), label=f"v[{w.name},m={m}]")
    return k, v


def conjugate_radius(model, tol=DEFAULT_TOL, zero_tol=DEFAULT_ZERO_TOL,
                     horizon_cap=200.0):
    """First zero of the normalized radial Jacobi solution, or +inf.

    Returns +inf only with a certificate (nonpositive curvature is
    disconjugate); a horizon exhausted without one raises, rather than
    guessing.
    """
    k, _ = model_profiles(model)
    if certified_nonpositive(k.k):
        return math.inf
    horizon = horizon_cap
    if math.isfinite(model.r_max):
        horizon = min(horizon_cap, 1.5 * model.r_max)
    traj = solve_jacobi(k, horizon, tol=tol, zero_tol=zero_tol, zero_cap=1)
    if traj.zeros:
        return traj.zeros[0].location
    raise TailInfoMissing(
        f"no conjugate point before t = {horizon:g} and no "
        "non-oscillation certificate for this warping")
