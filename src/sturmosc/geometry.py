"""Model manifolds: warped products turned into (K, v, B) coefficient data.

A rotationally symmetric metric dr^2 + f(r)^2 dtheta^2 has radial
curvature -f''/f and boundary-sphere volume omega_{m-1} f(r)^{m-1}; the
warping catalog registers f together with its exact f'' so the
curvature never goes through numerical differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CatalogDerivativeMissing, InvalidParams, TailInfoMissing
from .profiles import (AsymptoticTail, CurvatureProfile, DEFAULT_TOL, PowerTail,
                       Profile, certified_nonpositive, constant)
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
    """A warping function with its registered exact second derivative."""

    name: str
    f: Callable
    ddf: Callable
    r_max: float = math.inf
    curvature_const: Optional[float] = None
    curvature_lower: Optional[float] = None  # certified inf of -f''/f
    volume_tail: Optional[Callable] = None   # m -> tail of f^{m-1}, or None

    def curvature(self, r):
        if self.ddf is None:
            raise CatalogDerivativeMissing(
                f"warping {self.name!r} has no registered second derivative")
        return -self.ddf(r) / self.f(r)


def sin_warping(kappa):
    """f = sin(sqrt(kappa) r)/sqrt(kappa): the round space form, K = kappa > 0."""
    if kappa <= 0:
        raise InvalidParams("sin warping needs kappa > 0")
    s = math.sqrt(kappa)
    return Warping(
        name=f"sin(k={kappa:g})",
        f=lambda r: np.sin(s * r) / s,
        ddf=lambda r: -s * np.sin(s * r),
        r_max=math.pi / s,
        curvature_const=float(kappa),
        curvature_lower=float(kappa))


def sinh_warping(kappa):
    """f = sinh(sqrt(-kappa) r)/sqrt(-kappa): hyperbolic space form, K = kappa < 0."""
    if kappa >= 0:
        raise InvalidParams("sinh warping needs kappa < 0")
    s = math.sqrt(-kappa)

    def volume_tail(m, omega):
        # f^{m-1} ~ (e^{s r} / (2 s))^{m-1}: not exact at finite r
        return AsymptoticTail(omega / (2.0 * s) ** (m - 1), 0.0,
                              s * (m - 1), exact=False)

    return Warping(
        name=f"sinh(k={kappa:g})",
        f=lambda r: np.sinh(s * r) / s,
        ddf=lambda r: s * np.sinh(s * r),
        r_max=math.inf,
        curvature_const=float(kappa),
        curvature_lower=float(kappa),
        volume_tail=volume_tail)


def linear_warping():
    """f = r: flat space, K = 0."""
    def volume_tail(m, omega):
        return PowerTail(omega, m - 1)

    return Warping(
        name="linear",
        f=lambda r: np.asarray(r, dtype=float),
        ddf=lambda r: np.zeros(np.shape(r)),
        r_max=math.inf,
        curvature_const=0.0,
        curvature_lower=0.0,
        volume_tail=volume_tail)


def cubic_warping(alpha):
    """f = r + alpha r^3: a polynomially perturbed cone, K = -6 alpha/(1 + alpha r^2).

    For alpha > 0 the curvature is pinched in (-6 alpha, 0), giving the
    certified lower bound; alpha < 0 truncates the domain where f > 0.
    """
    a = float(alpha)
    r_max = math.inf if a >= 0 else 1.0 / math.sqrt(-a)

    def volume_tail(m, omega):
        if a <= 0:
            return None
        return AsymptoticTail(omega * a ** (m - 1), 3.0 * (m - 1), 0.0,
                              exact=False)

    return Warping(
        name=f"cubic(a={a:g})",
        f=lambda r: r + a * np.power(r, 3),
        ddf=lambda r: 6.0 * a * np.asarray(r, dtype=float),
        r_max=r_max,
        curvature_const=None,
        curvature_lower=-6.0 * a if a > 0 else (0.0 if a == 0 else None),
        volume_tail=volume_tail)


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

    K(r) = -f''(r)/f(r) with the certified lower bound from the catalog;
    v(r) = omega_{m-1} f(r)^{m-1}.  The sphere-area constant cancels in
    every criterion except the annulus integrals, so it is kept.
    """
    w = model.warping
    m = model.m
    omega = sphere_area(m - 1)

    if w.curvature_const is not None:
        kappa = w.curvature_const
        k_profile = constant(kappa, label=f"K[{w.name}]")
    else:
        if w.ddf is None:
            raise CatalogDerivativeMissing(
                f"warping {w.name!r} cannot produce a curvature profile")
        sign = None
        if w.curvature_lower is not None and w.curvature_lower >= 0:
            sign = "nonnegative"
        elif w.curvature_lower is not None:
            grid = np.geomspace(1e-3, min(1e3, 0.99 * w.r_max), 33)
            if np.all(w.curvature(grid) <= 1e-12):
                sign = "nonpositive"
        k_profile = Profile(w.curvature, sign=sign, label=f"K[{w.name}]")
    if w.curvature_lower is None:
        raise InvalidParams(
            f"warping {w.name!r} carries no certified curvature lower bound")
    b_const = math.sqrt(max(0.0, -w.curvature_lower))
    k = CurvatureProfile(k_profile, b_const=b_const, m=m,
                         validate=math.isinf(model.r_max))

    def v_ev(r):
        return omega * np.power(w.f(r), m - 1)

    v_tail = w.volume_tail(m, omega) if w.volume_tail is not None else None
    v = Profile(v_ev, tail=v_tail, sign="nonnegative", label=f"v[{w.name},m={m}]")
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
