"""Closed-form coefficient profiles, adaptive quadrature, and tail integrals.

Everything downstream (the solvers, the Riccati machinery, the criterion
checkers) consumes coefficient functions through :class:`Profile`: an
evaluator on (0, +inf) bundled with certified asymptotic metadata.
Improper integrals are never guessed from samples -- divergence and
closed tail values are decided from the declared tail form only, and a
missing declaration surfaces as :class:`~sturmosc.errors.TailInfoMissing`
rather than a silent extrapolation.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

import numpy as np

from .errors import InvalidParams, NonFiniteSample, TailInfoMissing, ToleranceNotMet

__all__ = [
    "AsymptoticTail",
    "Profile",
    "CoefficientPair",
    "CurvatureProfile",
    "constant",
    "power",
    "exponential",
    "certified_nonnegative",
    "certified_nonpositive",
    "multiply",
    "add",
    "subtract",
    "scaled",
    "reciprocal",
    "elementwise_power",
    "integrate",
    "integrate_err",
    "cumulative",
    "tail_integral",
    "tail_integral_converges",
    "antiderivative_term",
    "LOG_ORDER",
    "tail_divergence",
    "coth_band",
    "weighted_moment",
    "DEFAULT_TOL",
    "TOL_FLOOR",
]

DEFAULT_TOL = 1e-10
# the smallest tol a quadrature or a solve accepts: 100 eps, where scipy's
# solvers clamp rtol; below it no float sum can meet the target
TOL_FLOOR = 100.0 * math.ulp(1.0)
PANEL_BUDGET = 10**6


# ---------------------------------------------------------------------------
# Tail metadata
# ---------------------------------------------------------------------------

def _exact(x):
    """The order ``x`` as a float when the float equals it, else as a Fraction;
    OverflowError off the float range, or off its grid of multiples of
    2**-1074, where a nonzero order (or its q + 1) could round to 0.0."""
    f = float(x)
    if f != x and x.denominator > 2 ** 1074:
        raise OverflowError("order off the float grid")
    return f if f == x else x


def _exact_sum(a, b):
    """``a + b`` as :func:`_exact` holds it: a float sum when it does not round."""
    if type(a) is type(b) is float:
        s = a + b
        if s - a == b and s - b == a:  # the difference from the larger one is exact
            return s
    return _exact(Fraction(a) + Fraction(b))


def _exact_product(a, e):
    """``a * e`` for an order ``a`` and a float ``e``, as :func:`_exact` holds
    it: the float product when it does not round -- the odd parts of the
    numerators multiply to at most 53 bits and the product is 0 or normal."""
    if type(a) is float:
        p, n = a * e, a.as_integer_ratio()[0] * e.as_integer_ratio()[0]
        if n.bit_length() - (n & -n).bit_length() <= 52 and (
                not n or sys.float_info.min < abs(p) < math.inf):
            return p + 0.0  # no -0.0: the Fraction route gives 0.0
    return _exact(Fraction(a) * Fraction(e))


@dataclass(frozen=True)
class AsymptoticTail:
    """Leading behavior ``coefficient * t**exponent * exp(rate*t)`` at +inf.

    ``exponent`` and ``rate`` are finite orders, exact by :func:`_exact`.

    ``exact=True`` asserts the profile *coincides* with this form on the
    whole domain.  A declared tail is a one-term normal form (see
    :class:`Profile`), complete exactly when it is exact.  An inexact tail
    is a dominant term only: it decides divergence, and a certified value
    needs a complete normal form, such as a sum of constructors carries.
    """

    coefficient: float
    exponent: Union[float, Fraction]
    rate: Union[float, Fraction] = 0.0
    exact: bool = True

    def __post_init__(self):
        _finite(self.exponent), _finite(self.rate)


def _finite(order):
    """The tail order ``order`` as a float; InvalidParams unless it is finite."""
    x = float(order)
    if not math.isfinite(x):
        raise InvalidParams("tail exponent and rate must be finite")
    return x


# ---------------------------------------------------------------------------
# Profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    """An evaluable coefficient function on (0, +inf).

    The evaluator must be vectorized (numpy arrays in, arrays out).
    ``sign`` is an optional certificate that the function is nonnegative,
    nonpositive, or identically zero on the *whole* domain; it is what
    allows a checker to say "fails for every parameter choice" instead of
    merely "inconclusive here".

    ``scalar`` is the same function from a float to a float, for the ODE
    right-hand sides.  The constructors below build it in closed form,
    bit-identical to the evaluator; any other profile gets
    ``float(evaluator(np.float64(t)))``.

    ``terms`` is the monomial normal form: monomials ``(c, q, r, err)`` of
    ``c * t**q * exp(r*t)``, dominant first, with orders exact by
    :func:`_exact` and ``err`` a bound on the rounding error of ``c``, 0.0
    when ``c`` is exact; or None.  The constructors below derive it, so
    sums and products carry every monomial; any other profile gets its
    declared tail as one exact term.  The form is complete when the profile
    is the sum of its terms on the whole domain: always with several terms,
    and with one term when ``tail`` is exact.  An incomplete form holds only
    its dominant term, and the complete zero form one zero term.  ``tail``
    is the dominant term, exact when the form is complete and has one term.
    """

    evaluator: Callable
    tail: Optional[AsymptoticTail] = None
    sign: Optional[str] = None  # "nonnegative" | "nonpositive" | "zero" | None
    label: str = ""
    scalar: Callable = field(init=False, repr=False, compare=False)
    terms: Optional[tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ev, t = self.evaluator, self.tail
        object.__setattr__(self, "scalar", lambda x: float(ev(np.float64(x))))
        object.__setattr__(self, "terms", t and ((t.coefficient, t.exponent, t.rate, 0.0),))

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = np.asarray(self.evaluator(arr), dtype=float)
        if out.shape != arr.shape:
            out = np.broadcast_to(out, arr.shape)
        if arr.ndim == 0:
            return float(out)
        return np.array(out, dtype=float)


# --- monomial normal forms ---------------------------------------------------
# A form is (terms, complete) as Profile.terms describes it, or None.

def _form(p):
    return None if p.terms is None else (p.terms, len(p.terms) > 1 or p.tail.exact)


def _in_range(c, *operands):
    """The coefficient ``c`` computed from ``operands``, or nan when it
    overflowed to inf, or underflowed from nonzero operands below the normal
    range (to 0.0, or to a subnormal that keeps only some of its bits): such
    a coefficient would misstate its term."""
    return math.nan if math.isinf(c) or (abs(c) < sys.float_info.min and all(operands)) else c


def _collect(terms, complete, floor=None):
    """The form of the sum of the monomials ``terms``, complete when
    ``complete`` and every coefficient is known.

    Like orders are collected with math.fsum, and zero terms are dropped; a
    complete sum of zeros is the zero form of its dominant order.  A
    coefficient is unknown (nan) off the float range (see :func:`_in_range`),
    and within twice its error bound of 0, where it may be 0 or of either
    sign: so a term kept has a certain sign, and is more than twice its
    bound.  An incomplete form keeps only its dominant nonzero term, and has
    none when that term is unknown or below ``floor``: the order of an
    incomplete summand, whose unknown remainder lies below it.
    """
    if len(terms) > 1:
        like = {}
        for term in terms:
            like.setdefault((term[2], term[1]), []).append(term)
        terms = [_fsum(like[order]) for order in sorted(like, reverse=True)]
    terms = [(math.nan, *term[1:]) if term[3] and not abs(term[0]) > 2.0 * term[3] else term
             for term in terms]
    nonzero = [term for term in terms if term[0] != 0.0]
    if complete and not any(math.isnan(term[0]) for term in nonzero):
        return tuple(nonzero) or (terms[0],), True
    if (not nonzero or math.isnan(nonzero[0][0])
            or (floor and (nonzero[0][2], nonzero[0][1]) < floor)):
        return None
    return (nonzero[0],), False


def _fsum(terms):
    """The like-order ``terms`` as one: their coefficients summed exactly
    and rounded once (nan past the float range, or for inf - inf), with
    their error bounds and the rounding of the sum as its bound."""
    if len(terms) == 1:
        return terms[0]
    cs = [term[0] for term in terms]
    try:
        c = math.fsum(cs)
        err = math.fsum(term[3] for term in terms) + abs(math.fsum(cs + [-c]))
    except (OverflowError, ValueError):
        c = err = math.nan
    return c, terms[0][1], terms[0][2], _bound(err, err)


def _bound(err, rounded):
    """The error bound ``err`` of a coefficient, worked out in floats, raised
    by 8 ulps past the rounding of those few operations and past what
    underflowed; 0.0 when nothing was ``rounded``."""
    return err + 8.0 * math.ulp(err) if rounded else 0.0


def _product(a, b):
    """The form of the product of the forms ``a`` and ``b``: every pair of
    terms multiplied.  A product is exact when a factor is zero (a zero
    term is exact), and otherwise when its factors are and the odd parts of
    their numerators multiply to at most 53 bits.  A product with the
    zero form is zero; an order off the float range or grid, or a declared
    coefficient that is not finite, gives no form."""
    if a is None or b is None:
        return None
    products = []
    for (ca, qa, ra, ea), (cb, qb, rb, eb) in itertools.product(a[0], b[0]):
        try:
            c = _in_range(ca * cb, ca, cb)
            n = ca.as_integer_ratio()[0] * cb.as_integer_ratio()[0]
            inexact = n.bit_length() - (n & -n).bit_length() > 52
            err = abs(ca) * eb + abs(cb) * ea + ea * eb + inexact * math.ulp(c)
            products.append((c, _exact_sum(qa, qb), _exact_sum(ra, rb),
                             _bound(err, n and (ea or eb or inexact))))
        except (OverflowError, ValueError):
            return None
    zero = (a[1] and a[0][0][0] == 0.0) or (b[1] and b[0][0][0] == 0.0)
    return _collect(products, (a[1] and b[1]) or zero)


def _sum(a, b):
    """The form of the sum of the forms ``a`` and ``b``."""
    if a is None or b is None:
        return None
    # the order (r, q) of an incomplete summand's dominant term
    floor = max([(t[0][2], t[0][1]) for t, complete in (a, b) if not complete], default=None)
    return _collect(a[0] + b[0], a[1] and b[1], floor)


def _closed_form(evaluator, scalar, form, sign, label):
    """A profile of ``evaluator`` with the normal form ``form`` and with
    ``scalar`` as its scalar form.

    ``scalar`` repeats the evaluator's operations on floats: the same numpy
    ufunc where the evaluator calls one (so inf, nan and warnings stay
    numpy's), plain float arithmetic for products, sums and scalings (same
    values, but an overflow there gives inf without numpy's warning).
    The tail and the profile are built past their __post_init__: the
    orders are exact and finite already, and the terms are ``form``'s.
    """
    profile, tail = object.__new__(Profile), None
    if form:
        tail = object.__new__(AsymptoticTail)
        tail.__dict__.update(zip(("coefficient", "exponent", "rate"), form[0][0]),
                             exact=form[1] and len(form[0]) == 1)
    profile.__dict__.update(evaluator=evaluator, tail=tail, sign=sign, label=label,
                            scalar=scalar, terms=form and form[0])
    return profile


def _sign_of_value(c):
    if c == 0:
        return "zero"
    return "nonnegative" if c > 0 else "nonpositive"


def certified_nonnegative(p):
    return p.sign in ("nonnegative", "zero")


def certified_nonpositive(p):
    return p.sign in ("nonpositive", "zero")


class _Constant:
    """The evaluator of :func:`constant`: the float ``c`` in the shape of t.

    The solver takes a constant's value at its stage abscissae without a
    call; no other normal form tells a constant apart (t * (1/t) has the
    form of 1, but its evaluator rounds)."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __call__(self, t):
        return np.full(np.shape(t), self.c)


def constant(value, label=""):
    v = float(value)
    return _closed_form(_Constant(v), lambda t: v, (((v, 0.0, 0.0, 0.0),), True),
                        _sign_of_value(v), label or f"const({v:g})")


def power(coefficient, exponent, label=""):
    c, p = float(coefficient), _finite(exponent)

    def ev(t):
        return c * np.power(t, p)

    return _closed_form(ev, lambda t: c * float(np.power(t, p)), (((c, p, 0.0, 0.0),), True),
                        _sign_of_value(c), label or f"{c:g}*t^{p:g}")


def exponential(coefficient, rate, label=""):
    c, r = float(coefficient), _finite(rate)

    def ev(t):
        return c * np.exp(r * t)

    return _closed_form(ev, lambda t: c * float(np.exp(r * t)), (((c, 0.0, r, 0.0),), True),
                        _sign_of_value(c), label or f"{c:g}*exp({r:g}t)")


# --- profile algebra -------------------------------------------------------

def _mul_sign(a, b):
    if a == "zero" or b == "zero":
        return "zero"
    if a is None or b is None:
        return None
    return "nonnegative" if a == b else "nonpositive"


def multiply(p, q, label=""):
    def ev(t):
        return p.evaluator(t) * q.evaluator(t)

    ps, qs = p.scalar, q.scalar
    return _closed_form(ev, lambda t: ps(t) * qs(t), _product(_form(p), _form(q)),
                        _mul_sign(p.sign, q.sign), label or f"({p.label})*({q.label})")


def _add_sign(a, b):
    if a == "zero":
        return b
    if b == "zero":
        return a
    return a if a is not None and a == b else None


def add(p, q, label=""):
    def ev(t):
        return p.evaluator(t) + q.evaluator(t)

    ps, qs = p.scalar, q.scalar
    return _closed_form(ev, lambda t: ps(t) + qs(t), _sum(_form(p), _form(q)),
                        _add_sign(p.sign, q.sign), label or f"({p.label})+({q.label})")


def scaled(p, factor, label=""):
    k = float(factor)

    def ev(t):
        return k * p.evaluator(t)

    ps = p.scalar
    # a product with the constant k, whose orders -0.0 keep the sign of a zero order
    form = _product((((k, -0.0, -0.0, 0.0),), True), _form(p))
    return _closed_form(ev, lambda t: k * ps(t), form, _mul_sign(p.sign, _sign_of_value(k)),
                        label or f"{k:g}*({p.label})")


def subtract(p, q, label=""):
    return add(p, scaled(q, -1.0), label=label or f"({p.label})-({q.label})")


def reciprocal(p, label=""):
    def ev(t):
        return 1.0 / p.evaluator(t)

    form = None
    if p.tail is not None and p.tail.coefficient != 0.0:  # the dominant term, complete when exact
        (c, q, r, err), = p.terms[:1]
        inv, inexact = _in_range(1.0 / c, c), math.frexp(c)[0] not in (0.5, -0.5)
        # |1/(c + d) - 1/c| <= |2d / c| / |c| for |d| < |c| / 2, as a kept term has
        err = _bound(abs(inv) * (2.0 * err / abs(c)) + inexact * math.ulp(inv), err or inexact)
        form = _collect([(inv, -q, -r, err)], p.tail.exact)
    ps = p.scalar
    return _closed_form(ev, lambda t: float(np.divide(1.0, ps(t))), form, p.sign,
                        label or f"1/({p.label})")


def elementwise_power(p, exponent, label=""):
    """Pointwise p(t)**e; fractional exponents need a nonnegative certificate."""
    e = float(exponent)
    if not math.isfinite(e):
        raise InvalidParams(f"elementwise power needs a finite exponent, not {e!r}")
    if e != int(e) and not certified_nonnegative(p):
        raise InvalidParams(
            "fractional elementwise power needs a certified nonnegative profile")

    def ev(t):
        return np.power(p.evaluator(t), e)

    tail, form = p.tail, None
    if tail is not None and tail.coefficient > 0.0:  # the dominant term, complete when exact
        (c, q, r, err), = p.terms[:1]
        try:
            ce, rho, inexact = _in_range(c ** e, c), abs(e) * err / c, 1.0 not in (c, e)
            # |(1 + d)**e - 1| <= 2 |e d| while |e d| <= 2**-10; c**e is
            # taken as rounded, to within 2 ulps, unless c or e is 1
            err = _bound(ce * 2.0 * rho + 2 * inexact * math.ulp(ce), err or inexact)
            orders = _exact_product(q, e), _exact_product(r, e)
            form = _collect([(ce, *orders, err if rho <= 2.0 ** -10 else math.nan)], tail.exact)
        except OverflowError:
            pass  # the coefficient or an order leaves the float range or grid
    elif tail is not None and tail.coefficient == 0.0 and tail.exact and e > 0.0:
        form = _form(p)  # the zero form stays zero
    sign = "zero" if p.sign == "zero" else (
        "nonnegative" if certified_nonnegative(p) else None)
    ps = p.scalar
    return _closed_form(ev, lambda t: float(np.power(ps(t), e)), form, sign,
                        label or f"({p.label})^{e:g}")


# ---------------------------------------------------------------------------
# Adaptive quadrature (Gauss-Kronrod 7/15, global bisection)
# ---------------------------------------------------------------------------

# Standard G7-K15 abscissae and weights on [-1, 1].
_K15_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_G7_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


def _as_callable(p):
    return p.evaluator if isinstance(p, Profile) else p


def _samples(f, x):
    """``f`` at the nodes ``x``, as floats of x's shape."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:  # a contiguous copy: a row's dot is then one BLAS call
        y = np.broadcast_to(y, x.shape).copy()
    return y


def _non_finite(x, y):
    bad = x[~np.isfinite(y)][0]
    return NonFiniteSample(f"integrand is not finite near t = {bad:.6g}")


def _gk_sums(h, y):
    """(K15 value, |K15 - G7|) of the 15 samples ``y`` of a panel of half-width h."""
    k = h * float(_K15_WEIGHTS.dot(y))
    g = h * float(_G7_WEIGHTS.dot(y[_G7_IDX]))
    return k, abs(k - g)


def _gk_rows(h, y):
    """:func:`_gk_sums` of every row of ``y`` (half-widths ``h``) at once, bit
    for bit: np.vecdot takes each row's sum as one BLAS dot, as ndarray.dot does."""
    k = h * np.vecdot(y, _K15_WEIGHTS)
    return k, np.abs(k - h * np.vecdot(y.take(_G7_IDX, axis=1), _G7_WEIGHTS))


def _gk_panel(f, a, b):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c + h * _K15_NODES
    y = _samples(f, x)
    if not np.all(np.isfinite(y)):
        raise _non_finite(x, y)
    return _gk_sums(h, y)


def _check_interval(a, b):
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidParams("integrate needs finite endpoints; use tail_integral")
    if a > b:
        raise InvalidParams(f"empty interval [{a:g}, {b:g}]")


def _check_tol(tol, what="quadrature"):
    if not tol >= TOL_FLOOR:
        raise InvalidParams(f"{what} tol must be at least {TOL_FLOOR:.3g}")


def integrate_err(p, a, b, tol=DEFAULT_TOL):
    """Adaptive integral of ``p`` over [a, b]; returns (value, error estimate).

    The target is |Q - integral| <= tol * (1 + |Q|), with tol at least
    :data:`TOL_FLOOR`; a smaller or NaN tol raises InvalidParams.  Accepts a
    :class:`Profile` or any vectorized callable.  The Kronrod nodes are
    interior, so integrable endpoint singularities (and a = 0) are fine.
    """
    a, b = float(a), float(b)
    _check_interval(a, b)
    if a == b:
        return 0.0, 0.0
    _check_tol(tol)
    f = _as_callable(p)
    return _bisect(f, a, b, *_gk_panel(f, a, b), tol)


def _bisect(f, a, b, val, err, tol):
    """Global adaptive bisection of [a, b] from its first panel (val, err):
    split the panel of largest error until the total error is within
    tol * (1 + |total|), within :data:`PANEL_BUDGET` panels; returns
    (total, error)."""
    counter = itertools.count()
    heap = [(-err, next(counter), a, b, val, err)]
    total_val, total_err = val, err
    panels = 1
    while total_err > tol * (1.0 + abs(total_val)):
        if not heap:
            break
        if panels >= PANEL_BUDGET:
            raise ToleranceNotMet(
                f"quadrature budget of {PANEL_BUDGET} panels exhausted on "
                f"[{a:g}, {b:g}] (error {total_err:.3g})",
                estimate=total_val, error=total_err)
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        if pm <= pa or pm >= pb:
            # machine-width panel: accept as-is, drop from the error pool
            total_err -= perr
            continue
        lval, lerr = _gk_panel(f, pa, pm)
        rval, rerr = _gk_panel(f, pm, pb)
        total_val += lval + rval - pval
        total_err += lerr + rerr - perr
        heapq.heappush(heap, (-lerr, next(counter), pa, pm, lval, lerr))
        heapq.heappush(heap, (-rerr, next(counter), pm, pb, rval, rerr))
        panels += 2
    return total_val, total_err


def integrate(p, a, b, tol=DEFAULT_TOL):
    """Adaptive integral of ``p`` over [a, b] (value only)."""
    return integrate_err(p, a, b, tol=tol)[0]


def cumulative(p, ts, tol=DEFAULT_TOL, origin=0):
    """Running integrals [0, integral over [ts0, ts1], ...] of ``p`` along ``ts``,
    or, with ``origin`` = i, the signed integrals from ts[i] to each knot.

    Each segment's integral is the one :func:`integrate` gives, bit for
    bit, and the pieces are summed outward from ts[origin] (left to right
    by default), so a knot near the origin keeps its relative accuracy
    however large the integral over the far knots; ``ts`` must be
    nondecreasing.  The first G7-K15 panel of every nonempty segment is
    sampled in one evaluator call, and the K15 and G7 sums of all those
    panels are taken at once (:func:`_gk_rows`, each row's bits those of the
    single-panel sums); only the segments whose first panel misses ``tol``
    or holds a non-finite sample are visited one by one, in order, and go
    on to the adaptive bisection.  A non-finite sample or a bad endpoint
    raises as the per-segment loop would: only once every segment before
    it is done, whose refinement may raise first.  An exception the
    evaluator raises itself comes from the batched call, before any
    segment is refined.
    """
    ends = np.asarray(ts, dtype=float)
    a, b = ends[:-1], ends[1:]
    pieces = np.zeros(len(a))
    # the loop would stop at the first segment with a bad endpoint
    bad = ~(np.isfinite(a) & np.isfinite(b)) | (a > b)
    stop = bad.argmax() if bad.any() else len(a)
    rows = (a[:stop] < b[:stop]).nonzero()[0]
    if len(rows):
        _check_tol(tol)
        f = _as_callable(p)
        a, b = a[rows], b[rows]
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        x = c[:, None] + h[:, None] * _K15_NODES
        y = _samples(f, x.ravel()).reshape(x.shape)
        finite = np.isfinite(y).all(axis=1)
        with np.errstate(all="ignore"):
            k, err = _gk_rows(h, y)
        pieces[rows] = k
        for i in (~finite | (err > tol * (1.0 + np.abs(k)))).nonzero()[0].tolist():
            if not finite[i]:
                raise _non_finite(x[i], y[i])
            # as Python floats, as integrate_err hands them to the bisection
            pieces[rows[i]] = _bisect(f, *map(float, (a[i], b[i], k[i], err[i])), tol)[0]
    if stop < len(ends) - 1:
        _check_interval(ends[stop], ends[stop + 1])
    behind = -np.cumsum(pieces[:origin][::-1])[::-1]
    return np.concatenate((behind, np.cumsum(np.concatenate(([0.0], pieces[origin:])))))


# ---------------------------------------------------------------------------
# Tail integrals
# ---------------------------------------------------------------------------

LOG_ORDER = (0.0, 0.0)


def _antiderivative_order(t):
    """``(rate, exponent)`` of the leading antiderivative term of tail ``t``,
    exact as the tail's orders are: t**(1e-17 + 1) does not tie with t**1."""
    r, q = t.rate, t.exponent
    return (r, q) if r else (r, _exact_sum(q, 1.0))


def antiderivative_term(p):
    """Leading term at +inf of an antiderivative of ``p``, from its tail.

    Returns ``(coefficient, (rate, exponent))`` for the term
    ``coefficient * t**exponent * exp(rate*t)``: ``(c/r, (r, q))`` for a
    tail ``c t^q e^{rt}`` with r != 0, ``(c/(q+1), (0, q+1))`` for a power
    with q != -1.  Terms grow in the lexicographic order of ``(rate,
    exponent)``, and the order is exact (see :func:`_antiderivative_order`).
    The order :data:`LOG_ORDER` stands for ``c log t`` (q = -1), which sits
    between every negative and every positive power; no other term has it.
    The antiderivative is unbounded exactly when the order is at least
    ``LOG_ORDER`` and ``c != 0``; below that order it tends to a limit, and
    minus the term is the integral over (t, +inf).  Inexact (dominant-term)
    tails qualify: only the leading form matters.

    Returns None without an :class:`AsymptoticTail`, or when ``c != 0``
    and ``c/r`` or ``c/(q+1)`` underflows to 0 (its sign would be lost).
    """
    t = p.tail
    if t is None:
        return None
    c = t.coefficient
    r, e = order = _antiderivative_order(t)
    term = (c / float(r or e or 1.0), order)  # c/r, c/(q+1), or c for c log t
    if term[0] == 0.0 and c != 0.0:
        return None
    return term


def tail_divergence(p):
    """Classify the improper integral of ``p`` over (b, +inf) from its tail.

    Returns '+inf' or '-inf' when the antiderivative is unbounded (order at
    least :data:`LOG_ORDER`, with the sign of the tail coefficient),
    'finite' otherwise, and None when no tail is declared.
    """
    t = p.tail
    if t is None:
        return None
    c = t.coefficient
    if c == 0.0 or _antiderivative_order(t) < LOG_ORDER:
        return "finite"
    return "+inf" if c > 0 else "-inf"


def tail_integral_converges(p):
    """True/False when the tail decides convergence at +inf, None otherwise."""
    d = tail_divergence(p)
    if d is None:
        return None
    return d == "finite"


def _power_remainders(c, q, Ts):
    """Integrals over (T, +inf) of the power term c t^q, q < -1 and c != 0,
    for each T in ``Ts``."""
    e = float(_exact_sum(q, 1.0))  # the exact order q + 1 < 0
    return [c * T ** e / -e for T in Ts]


def _exponential_remainders(c, pw, rate, Ts, tol):
    """Integrals over (T, +inf) of the decaying exponential term
    c t^pw e^{rate t}, c != 0, for each T in the nondecreasing ``Ts``.

    The last one is adaptive quadrature out to where the envelope is
    negligible against the integral, with the integrand divided by a lower
    bound of the integral, capped at 1, so the quadrature's target
    tol * (1 + |Q|) stays relative as the value falls toward the end of the
    float range.  The others add one running integral back from it.
    """
    def f(x):
        return c * np.power(x, pw) * np.exp(rate * x)

    def envelope(x):
        return (2.0 if pw > 0 else 1.0) * abs(c) * x ** pw * math.exp(rate * x) / (-rate)

    # over one e-fold u past b (past b + u when pw > 0) the integrand keeps
    # |c| (b + u)^pw e^{rate (b + u) - 1}, so |integral| >= envelope(b + u) / 6
    b = Ts[-1]
    scale = min(1.0, max(envelope(b + 1.0 / -rate) / 6.0, sys.float_info.min))
    T2 = max(b, 1.0, 2.0 * pw / (-rate))  # and past the peak at pw / -rate
    for _ in range(400):
        if envelope(T2) <= 1e-18 * scale:
            break
        T2 += max(1.0, 3.0 / (-rate))
    last = 0.0 + scale * integrate(lambda x: f(x) / scale, b, T2, tol=tol)
    return last + cumulative(lambda s: f(-s), [-x for x in reversed(Ts)], tol=tol)[::-1]


def tail_integral(p, b, tol=DEFAULT_TOL):
    """Integral of ``p`` over (b, +inf): exact value, or +/-inf on divergence.

    Requires a declared tail, and a complete normal form when the integral
    converges: the profile then equals the sum of its terms on the whole
    domain, so sums and products of the constructors get certified values.
    The terms are integrated one by one and added.  A power term is
    finished analytically; an exponential term is integrated out to where
    its envelope is negligible, to ``tol`` relative to its value.  From
    b = 0 every term must be integrable at 0 (q > -1).

    A nondecreasing array ``b`` gives the array of values at its points, and
    a float ``b`` is the one-point case.  A power term gives each point its
    analytic remainder.  An exponential term takes its value at the last
    point plus one running integral back from it, summed from the last point
    down, so the other points agree with their one-point values within
    ``tol`` (absolute where the values are below 1).
    """
    ts = np.asarray(b, dtype=float).ravel().tolist()
    if not ts:
        return np.zeros(0)
    if ts[0] < 0:
        raise InvalidParams("tail_integral needs b >= 0")
    div = tail_divergence(p)
    if div is None:
        raise TailInfoMissing(
            f"profile {p.label or '<anonymous>'} declares no tail behavior")
    if div != "finite":
        values = np.full(len(ts), math.inf if div == "+inf" else -math.inf)
    elif not _form(p)[1]:
        raise TailInfoMissing(
            "asymptotic-only tail cannot produce a certified tail integral")
    else:
        terms = [term for term in p.terms if term[0] != 0.0]  # none in the zero form
        if ts[0] == 0.0 and any(q <= -1 for _, q, _, _ in terms):
            raise InvalidParams("tail_integral from b = 0 needs every term t^q to have q > -1")
        values = np.zeros(len(ts))
        for c, q, r, _ in terms:
            values += (_power_remainders(c, q, ts) if r == 0.0 else
                       _exponential_remainders(c, float(q), float(r), ts, tol))
    return values if np.ndim(b) else float(values[0])


# ---------------------------------------------------------------------------
# Coefficient pairs and curvature profiles
# ---------------------------------------------------------------------------

def _failing(t, f, floor, rel, what):
    """The mask of the samples f, at the nodes t, that fail f >= floor.

    The one rule for every sampled hypothesis: a sample fails when
    f < floor - rel (1 + |f| + |floor|), the slack taken per sample over the
    finite parts of f and floor.  +inf never fails and -inf always does; a
    NaN in f or floor raises NonFiniteSample naming ``what``.
    """
    f, floor = np.asarray(f, dtype=float), np.asarray(floor, dtype=float)
    nan = np.isnan(f) | np.isnan(floor)
    if nan.any():
        raise NonFiniteSample(f"{what} is NaN near t = {np.broadcast_to(t, nan.shape)[nan][0]:.6g}")
    with np.errstate(over="ignore", invalid="ignore"):
        # an infinite f decides its sample whatever the slack; an infinite floor must not
        slack = rel * (1.0 + np.abs(f) + np.where(np.isinf(floor), 0.0, np.abs(floor)))
        return (f == -np.inf) | (f < floor - slack)


def _admissibility_grid(lo):
    """The 41 admissibility samples of a pair posed on (lo, +inf)."""
    return np.geomspace(max(lo, 1e-8) * (1 + 1e-9), max(lo * 1e4, 1e3), 41)


# the fixed validation grids, built once: each evaluator samples a copy, so
# one that writes into its argument cannot corrupt a later check
_ORIGIN_GRID = _admissibility_grid(1e-3)  # a pair from the singular origin
_ORIGIN_LIMIT_GRID = np.geomspace(1e-2, 1e-7, 11)  # v -> 0 as t -> 0+
_CURVATURE_GRID = np.geomspace(1e-3, 1e3, 41)


def _check_b_const(b):
    # nan would pass b < 0 and inf certifies no bound
    if not 0.0 <= b < math.inf:
        raise InvalidParams(f"b_const must be finite and >= 0, not {b!r}")


@dataclass(frozen=True)
class CoefficientPair:
    """A (v, W) coefficient pair for (v z')' + W v z = 0.

    ``b_const`` is the constant B >= 0 certifying W v^2 >= -B^2.
    ``t_start > 0`` declares a shifted problem posed on [t_start, +inf)
    with regular initial data, bypassing the singular origin (and its
    admissibility checks).  ``validate=False`` skips the sampled
    admissibility checks entirely, for deliberately non-admissible
    examples.
    """

    v: Profile
    w: Profile
    b_const: float = 0.0
    t_start: float = 0.0
    v_inv_l1_at_infinity: Optional[bool] = None
    validate: bool = True
    label: str = ""
    v_inv: Profile = field(init=False, repr=False, compare=False)
    wv: Profile = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_b_const(self.b_const)
        if self.t_start < 0:
            raise InvalidParams("t_start must be >= 0")
        object.__setattr__(self, "v_inv", reciprocal(self.v, label="1/v"))
        object.__setattr__(self, "wv", multiply(self.w, self.v, label="W*v"))
        inferred = tail_integral_converges(self.v_inv)
        if self.v_inv_l1_at_infinity is None:
            object.__setattr__(self, "v_inv_l1_at_infinity", inferred)
        elif inferred is not None and inferred != self.v_inv_l1_at_infinity:
            raise InvalidParams(
                "declared integrability of 1/v at +inf contradicts the tail form")
        if self.validate:
            self._check_admissibility()

    def _check_admissibility(self):
        """Sample the hypotheses on (t_start, +inf): v > 0 strictly and
        W v^2 >= -B^2 by :func:`_failing` (rel 1e-9) at 41 points, and, from
        the singular origin, v -> 0 as t -> 0+ at 11 points."""
        grid = _admissibility_grid(self.t_start) if self.t_start > 0 else _ORIGIN_GRID
        v = _samples(self.v, grid.copy())
        if np.any(v <= 0):
            raise InvalidParams("v must be positive on (t_start, +inf)")
        wv2 = _samples(lambda t: self.w(t) * v ** 2, grid.copy())
        if _failing(grid, wv2, -self.b_const ** 2, 1e-9, "W*v^2").any():
            raise InvalidParams(f"W*v^2 >= -B^2 fails on samples "
                                f"(min {float(np.min(wv2)):.6g} < {-self.b_const**2:.6g})")
        if self.t_start == 0:
            vdec = self.v(_ORIGIN_LIMIT_GRID.copy())
            if not (np.all(np.isfinite(vdec)) and vdec[-1] < 0.05 * (1.0 + vdec[0])):
                raise InvalidParams("v(t) -> 0 as t -> 0+ fails on samples")


@dataclass(frozen=True)
class CurvatureProfile:
    """A radial curvature function K with certified lower bound -b_const^2.

    ``validate`` samples K >= -B^2 at 41 points of [1e-3, 1e3] by
    :func:`_failing` (rel 1e-9).
    """

    k: Profile
    b_const: float = 0.0
    m: int = 2
    validate: bool = True

    def __post_init__(self):
        if not (2 <= self.m < math.inf and int(self.m) == self.m):
            raise InvalidParams("dimension m must be an integer >= 2")
        _check_b_const(self.b_const)
        if self.validate:
            ks = _samples(self.k, _CURVATURE_GRID.copy())
            if _failing(_CURVATURE_GRID, ks, -self.b_const ** 2, 1e-9, "K").any():
                raise InvalidParams(
                    f"K >= -B^2 fails on samples (min {float(np.min(ks)):.6g})")


# ---------------------------------------------------------------------------
# Integral functionals
# ---------------------------------------------------------------------------

def coth_band(b, x):
    """The comparison band b * coth(b * x) for b >= 0 and x >= 0.

    Exactly 1/x wherever b * x < 1e-8, where (1/x)(1 + (b x)^2 / 3)
    already rounds to 1/x: so b = 0 gives 1/x (0 at x = +inf) and no
    underflowed b * x is divided by.  +inf at x = 0, and b at x = +inf.
    """
    b, x = float(b), float(x)
    if x == 0.0:
        return math.inf
    if b == 0.0 or b * x < 1e-8:  # b == 0 first: no 0 * inf at x = +inf
        return 1.0 / x
    bx = b * x
    if bx > 20.0:
        return b  # 2b / expm1(2bx) is below half an ulp of b
    return b + 2.0 * b / math.expm1(2.0 * bx)


def weighted_moment(k, lam, a, b, tol=DEFAULT_TOL):
    """Integral of t**lam * K(t) over [a, b]."""
    kp = k.k if isinstance(k, CurvatureProfile) else k
    return integrate(multiply(power(1.0, lam), kp), a, b, tol=tol)
