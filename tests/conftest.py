"""Shared catalog fixtures, the randomized admissible-pair family, the
closed-form Euler oracle and the growth factor V as a second route."""

import contextlib
import itertools
import math

import numpy as np
import pytest

import sturmosc.ode
from sturmosc import (CoefficientPair, CurvatureProfile, add, constant,
                      integrate, multiply, power, reciprocal, tail_integral)


@contextlib.contextmanager
def recorded_solves(name="solve_ivp"):
    """Route ``sturmosc.ode.<name>`` through a wrapper that keeps each result.

    The layer trace of the benchmark counts solver work through
    ``solve_ivp``; ``_drive`` returns the trajectory of every solve.
    """
    results = []
    real = getattr(sturmosc.ode, name)

    def record(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    setattr(sturmosc.ode, name, record)
    try:
        yield results
    finally:
        setattr(sturmosc.ode, name, real)


# the criterion name a CLI criterion's verdict carries, where the two differ
EMITTED_NAMES = {"main_b2_search": "main_b2",
                 "instability": "instability_at_infinity"}


def big_v(pair, t1, t2):
    """V(t1, t2) = exp(2B * integral of 1/v over [t1, t2]), t2 possibly +inf:
    the growth factor the comparison closed forms were once written in."""
    if math.isinf(t2):
        return math.exp(2.0 * pair.b_const * tail_integral(pair.v_inv, t1))
    return math.exp(2.0 * pair.b_const * integrate(pair.v_inv, t1, t2))


def euler_pair(mu, label=""):
    """v = 1 on [1, inf) with W = mu/t^2: the classical threshold family."""
    return CoefficientPair(constant(1.0), power(mu, -2.0), b_const=0.0,
                           t_start=1.0, validate=False,
                           label=label or f"euler(mu={mu:g})")


def euler_solution(mu, t):
    """Closed-form solution of z'' + (mu/t^2) z = 0 with z(1) = 1, z'(1) = 0.

    The indicial roots of t^r are r = 1/2 +- sqrt(1/4 - mu).  With s = ln t,
    nu = sqrt(mu - 1/4) and kappa = sqrt(1/4 - mu):

    * mu > 1/4:  z = sqrt(t) [cos(nu s) - sin(nu s) / (2 nu)]
    * mu = 1/4:  z = sqrt(t) (1 - s/2)
    * mu < 1/4:  z = sqrt(t) [cosh(kappa s) - sinh(kappa s) / (2 kappa)]

    The first branch oscillates log-periodically; the last grows like
    t^{1/2 + kappa}.
    """
    t = np.asarray(t, dtype=float)
    s = np.log(t)
    if mu > 0.25:
        nu = math.sqrt(mu - 0.25)
        shape = np.cos(nu * s) - np.sin(nu * s) / (2.0 * nu)
    elif mu == 0.25:
        shape = 1.0 - 0.5 * s
    else:
        kappa = math.sqrt(0.25 - mu)
        shape = np.cosh(kappa * s) - np.sinh(kappa * s) / (2.0 * kappa)
    return np.sqrt(t) * shape


def euler_zeros(mu, horizon):
    """Yield the zeros of `euler_solution(mu, .)` on [1, horizon] in order.

    * mu > 1/4: tan(nu s) = 2 nu, so t_k = exp((arctan(2 nu) + k pi) / nu)
      for k = 0, 1, ...; consecutive zeros are a factor exp(pi / nu) apart.
    * mu = 1/4: the single zero t = e^2.
    * 0 < mu < 1/4: tanh(kappa s) = 2 kappa, so the single zero is
      t = ((1/2 + kappa) / (1/2 - kappa))^{1/(2 kappa)}.
    * mu <= 0: kappa >= 1/2 and there is no zero.

    The horizon may be math.inf; for mu > 1/4 the generator is then endless.
    """
    log_h = math.log(horizon)
    if mu > 0.25:
        nu = math.sqrt(mu - 0.25)
        logs = (((math.atan(2.0 * nu) + k * math.pi) / nu)
                for k in itertools.count())
    elif mu == 0.25:
        logs = [2.0]
    else:
        kappa = math.sqrt(0.25 - mu)
        logs = [math.atanh(2.0 * kappa) / kappa] if kappa < 0.5 else []
    for log_t in logs:
        if log_t > log_h:
            return
        yield math.exp(log_t)


def moore_pair(mu):
    """v = t^2 with W = mu/t^2: product-test limit exactly mu."""
    return CoefficientPair(power(1.0, 2.0), power(mu, -2.0), b_const=0.0,
                           t_start=1.0, validate=False,
                           label=f"moore(mu={mu:g})")


def pole_pair():
    """v = 1 on [1, inf) with W = 1/(t-2)^2: a pole the solver cannot pass.

    Near t = 2 this is an Euler equation with mu = 1 > 1/4, so the solution
    oscillates infinitely often before the pole.
    """
    shifted = add(power(1.0, 1.0), constant(-2.0))
    return CoefficientPair(constant(1.0), reciprocal(multiply(shifted, shifted)),
                           t_start=1.0, validate=False)


def random_admissible_pair(rng):
    """One random catalog pair with certified W v^2 >= -B^2 and mixed-sign W.

    v = cv t^q and W = c1 t^s + c2.  The product W v^2 has a single interior
    minimum with the closed-form location t_min^s = -2q c2 / (c1 (s + 2q)),
    which certifies the constant B analytically.
    """
    cv = float(rng.uniform(0.5, 2.0))
    q = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
    c1 = float(rng.uniform(0.2, 3.0))
    s = float(rng.choice([0.5, 1.0, 2.0]))
    c2 = float(rng.uniform(-2.0, 2.0))
    if c2 >= 0:
        b = 0.0
    else:
        t_min = (-2.0 * q * c2 / (c1 * (s + 2.0 * q))) ** (1.0 / s)
        g_min = (c1 * t_min ** s + c2) * (cv * t_min ** q) ** 2
        b = math.sqrt(max(0.0, -g_min))
    v = power(cv, q)
    w = add(power(c1, s), constant(c2))
    return CoefficientPair(v, w, b_const=b, label=f"rand(q={q:g},s={s:g})")


def random_curvature(rng):
    """K = c1 t^s + c2 with c1 >= 0, so inf K = c2 certifies B."""
    c1 = float(rng.uniform(0.0, 2.0))
    s = float(rng.choice([0.5, 1.0, 2.0]))
    c2 = float(rng.uniform(-1.5, 1.5))
    b = math.sqrt(max(0.0, -c2))
    k = add(power(c1, s), constant(c2))
    return CurvatureProfile(k, b_const=b, m=2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240615)


@pytest.fixture
def unit_curvature():
    return CurvatureProfile(constant(1.0), b_const=0.0, m=2)


@pytest.fixture
def hyperbolic_curvature():
    return CurvatureProfile(constant(-1.0), b_const=1.0, m=2)


@pytest.fixture
def sinc_pair():
    """v = t^2, W = 1: the closed-form solution is sin(t)/t."""
    return CoefficientPair(power(1.0, 2.0), constant(1.0), b_const=0.0)
