import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sturmosc import (AsymptoticTail, CoefficientPair, InvalidParams,
                      NonFiniteSample, Profile, TailInfoMissing, ToleranceNotMet, add,
                      certified_nonnegative, constant, coth_band, elementwise_power,
                      exponential, integrate, integrate_err, model_profiles,
                      multiply, power, reciprocal, scaled, space_form,
                      subtract, tail_divergence, tail_integral,
                      warped_model, weighted_moment)
from sturmosc import profiles
from sturmosc.cli import _Resolver
from sturmosc.profiles import (LOG_ORDER, PANEL_BUDGET, CurvatureProfile,
                               antiderivative_term, cumulative)
from conftest import big_v


class TestIntegrate:
    def test_constant(self):
        assert integrate(constant(1.0), 0.5, 2.5) == pytest.approx(2.0, abs=1e-12)

    def test_sin_closed_form(self):
        assert integrate(lambda t: np.sin(t), 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)

    def test_error_estimate_reported(self):
        val, err = integrate_err(power(1.0, -2.0), 1.0, 10.0)
        assert val == pytest.approx(0.9, abs=1e-10)
        assert err <= 1e-10 * (1 + abs(val))

    def test_endpoint_singularity(self):
        # 1/sqrt(t) is integrable at 0; Kronrod nodes are interior
        assert integrate(power(1.0, -0.5), 0.0, 1.0) == pytest.approx(2.0, rel=1e-8)

    def test_non_finite_sample(self):
        with pytest.raises(NonFiniteSample):
            integrate(lambda t: np.sqrt(t - 2.0), 1.0, 3.0)

    def test_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(profiles, "PANEL_BUDGET", 5)
        with pytest.raises(ToleranceNotMet):
            integrate(lambda t: np.sin(1e4 * t), 0.0, 7.0, tol=1e-13)

    @pytest.mark.parametrize("tol", [1e-20, 0.0, -1.0, math.nan])
    def test_tol_below_the_floor_raises(self, tol):
        # a NaN tol used to accept the first panel: 0.296 for sin(50 t) on
        # [0, 7], where the integral is 0.0257; a tiny one ground through
        # the whole panel budget
        def f(t):
            return np.sin(50.0 * t)

        for quadrature in (lambda: integrate(f, 0.0, 7.0, tol=tol),
                           lambda: cumulative(f, [0.0, 3.5, 7.0], tol=tol)):
            with pytest.raises(InvalidParams,
                               match="quadrature tol must be at least 2.22e-14"):
                quadrature()

    def test_empty_interval(self):
        assert integrate(constant(3.0), 1.0, 1.0) == 0.0

    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_additive_over_adjacent_intervals(self, a, d1, d2):
        p = add(power(0.3, 1.5), constant(0.7))
        whole = integrate(p, a, a + d1 + d2)
        parts = integrate(p, a, a + d1) + integrate(p, a + d1, a + d1 + d2)
        assert whole == pytest.approx(parts, abs=2e-10 * (1 + abs(whole)))


def segment_loop(p, ts):
    """The running integral as one integrate per segment, summed left to right."""
    pieces = [integrate(p, a, b) for a, b in zip(ts[:-1], ts[1:])]
    return np.cumsum([0.0] + pieces)


# a scalar result is broadcast to a contiguous copy on both routes: a
# zero-stride row of 0.1s is summed by another loop than a BLAS dot
INTEGRANDS = {"sin(40t)": lambda t: np.sin(40.0 * t), "t^-0.5": power(1.0, -0.5),
              "0.3 t^1.5 + 0.7": add(power(0.3, 1.5), constant(0.7)),
              "0.1 (a scalar)": lambda t: 0.1}


def gappy_sine(t):
    """sin(40 t), NaN on (0.55, 0.56) and beyond 3."""
    return np.where(((t > 0.55) & (t < 0.56)) | (t > 3.0), np.nan, np.sin(40.0 * t))


class TestCumulative:
    @given(st.sampled_from(sorted(INTEGRANDS)), st.sampled_from([0.0, 0.1, 1.0]),
           st.lists(st.sampled_from([0.0]) | st.floats(1e-3, 5.0), min_size=1,
                    max_size=8))
    @settings(max_examples=60, deadline=None)
    @example("sin(40t)", 0.0, [5.0])
    @example("t^-0.5", 0.0, [0.0, 1.0, 1.0, 0.0, 2.5])
    @example("0.1 (a scalar)", 0.1, [1.0, 2.0])
    def test_sums_segments_left_to_right(self, name, start, steps):
        # bit for bit the per-segment loop: oscillating and singular
        # integrands need refinement past the first panel, zero steps
        # repeat a knot, and one step is a one-segment grid
        p = INTEGRANDS[name]
        ts = start + np.cumsum([0.0] + steps)
        assert cumulative(p, ts).tobytes() == segment_loop(p, ts).tobytes()

    @given(st.sampled_from(sorted(INTEGRANDS)),
           st.lists(st.floats(0.1, 5.0), min_size=1, max_size=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_sums_segments_outward_from_the_origin(self, name, knots, data):
        p, ts = INTEGRANDS[name], sorted(knots)
        origin = data.draw(st.integers(0, len(ts) - 1))
        pieces = [integrate(p, a, b) for a, b in zip(ts[:-1], ts[1:])]
        expected, acc = [0.0] * len(ts), 0.0
        for j in range(origin, len(pieces)):
            acc += pieces[j]
            expected[j + 1] = acc
        acc = 0.0
        for j in reversed(range(origin)):
            acc += pieces[j]
            expected[j] = -acc
        got = cumulative(p, ts, origin=origin)
        assert got.tobytes() == np.array(expected).tobytes()

    def test_sin_closed_form(self):
        ts = np.linspace(0.0, 10.0, 21)
        assert cumulative(np.sin, ts) == pytest.approx(1.0 - np.cos(ts),
                                                       abs=1e-10)

    def test_decreasing_grid_raises(self):
        with pytest.raises(InvalidParams):
            cumulative(constant(1.0), [1.0, 3.0, 2.0])

    @pytest.mark.parametrize("ts, budget, raised", [
        # the first panel of [3, 3.5] is NaN, after two clean segments
        ([1.0, 2.0, 3.0, 3.5, 4.0], PANEL_BUDGET, NonFiniteSample),
        # the refinement of [0, 1] meets the NaN window before [3.5, 4]
        # is looked at
        ([0.0, 1.0, 3.5, 4.0], PANEL_BUDGET, NonFiniteSample),
        # [0, 2] exhausts a budget of 3 panels before [3.5, 4] is reached
        ([0.0, 2.0, 3.5, 4.0], 3, ToleranceNotMet),
        # a bad endpoint stops the loop only where the loop reaches it
        ([0.0, 1.0, 3.5, 4.0, math.inf], PANEL_BUDGET, NonFiniteSample),
        ([1.0, 2.0, 1.5, 3.5, 4.0], PANEL_BUDGET, InvalidParams),
    ])
    def test_raises_what_the_segment_loop_raises(self, ts, budget, raised, monkeypatch):
        monkeypatch.setattr(profiles, "PANEL_BUDGET", budget)
        outcomes = []
        for run in (cumulative, segment_loop):
            with pytest.raises(raised) as info:
                run(gappy_sine, ts)
            outcomes.append(str(info.value))
        assert outcomes[0] == outcomes[1]

    def test_first_panels_in_one_evaluator_call(self, monkeypatch):
        calls, bisect = [], profiles._bisect
        monkeypatch.setattr(profiles, "_bisect", lambda *args: calls.append("bisect") or bisect(*args))

        def counted(t):
            calls.append(t.shape)
            return 0.3 * t ** 2 + 1.0

        ts = np.linspace(1.0, 2.0, 11)
        assert cumulative(counted, ts)[-1] == pytest.approx(1.7, rel=1e-14)
        assert calls == [(150,)]  # and no bisection

    def test_only_the_segment_that_misses_tol_is_refined(self, monkeypatch):
        # sin(400 t) inside (2, 2.5) alone sends its segment on to bisection
        bisected, bisect = [], profiles._bisect
        monkeypatch.setattr(profiles, "_bisect",
                            lambda f, a, b, *rest: bisected.append((a, b)) or bisect(f, a, b, *rest))

        def f(t):
            return 0.3 * t ** 2 + 1.0 + ((t > 2.0) & (t < 2.5)) * np.sin(400.0 * t)

        ts = np.linspace(0.5, 5.0, 10)
        got = cumulative(f, ts)
        assert bisected == [(2.0, 2.5)]
        assert got.tobytes() == segment_loop(f, ts).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 39, 585])
    def test_batched_sums_are_the_single_panel_sums(self, n):
        # each row is one BLAS dot on both routes; a numpy or BLAS whose
        # stacked sums round differently fails here, not in an artifact
        rng = np.random.default_rng(n)
        scale = 10.0 ** rng.uniform(-290, 290, (n, 1)) * 10.0 ** rng.uniform(-4, 4, (n, 15))
        y = rng.standard_normal((n, 15)) * scale
        y[::4, ::3] = 0.0
        h = 10.0 ** rng.uniform(-6, 6, n)
        k, err = profiles._gk_rows(h, y)
        expected = np.array([profiles._gk_sums(hj, yj) for hj, yj in zip(h.tolist(), y)])
        assert k.tobytes() == expected[:, 0].tobytes()
        assert err.tobytes() == expected[:, 1].tobytes()


class TestTailIntegral:
    def test_power_tail(self):
        assert tail_integral(power(1.0, -2.0), 2.0) == pytest.approx(0.5, rel=1e-10)

    def test_harmonic_diverges(self):
        assert tail_integral(power(1.0, -1.0), 1.0) == math.inf

    def test_exp_decay(self):
        assert tail_integral(exponential(1.0, -1.0), 0.0) == pytest.approx(1.0, rel=1e-9)
        assert tail_integral(exponential(2.0, -0.5), 1.0) == pytest.approx(
            2.0 * math.exp(-0.5) / 0.5, rel=1e-9)

    def test_exp_growth_diverges(self):
        assert tail_integral(exponential(1.0, 0.5), 1.0) == math.inf

    def test_missing_tail(self):
        bare = Profile(lambda t: np.ones(np.shape(t)))
        with pytest.raises(TailInfoMissing):
            tail_integral(bare, 1.0)

    def test_inexact_tail_refuses_value(self):
        # a sum of two powers has a dominant-term tail, but its complete
        # normal form integrates term by term
        p = add(power(1.0, -2.0), power(1.0, -3.0))
        assert p.tail.exact is False
        assert tail_integral(p, 1.0) == 1.5
        # an incomplete form, 1/(t^2 + 1) ~ t^-2, has no certified value
        with pytest.raises(TailInfoMissing):
            tail_integral(reciprocal(add(power(1.0, 2.0), constant(1.0))), 1.0)
        # but divergence decisions still work
        q = add(power(1.0, 1.0), power(1.0, 0.5))
        assert tail_divergence(q) == "+inf"

    def test_negative_coefficient_diverges_down(self):
        assert tail_integral(power(-1.0, 0.0), 1.0) == -math.inf

    @pytest.mark.parametrize("p", [
        reciprocal(power(1.0, 2.0)), power(-3.0, -3.5), power(0.0, -2.0),
        power(1.0, -1.0), power(-1.0, 0.5),
    ], ids=["1/t^2", "-3t^-3.5", "zero", "harmonic", "-sqrt"])
    def test_grid_is_the_float_route_per_point(self, p):
        bs = np.geomspace(1.0, 1e4, 9)
        expected = np.array([tail_integral(p, b) for b in bs])
        assert tail_integral(p, bs).tobytes() == expected.tobytes()
        assert tail_integral(p, bs.tolist()).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("p,exact", [
        (exponential(2.0, -0.5), lambda b: 4.0 * math.exp(-0.5 * b)),
    ], ids=["exp"])
    def test_grid_runs_back_from_the_last_point(self, p, exact, monkeypatch):
        # one float-route tail at the last point, one running integral back
        bs = np.geomspace(1.0, 1e4, 9)
        last = tail_integral(p, bs[-1])
        calls = []
        monkeypatch.setattr(profiles, "cumulative",
                            lambda *a, **k: calls.append(a[1]) or cumulative(*a, **k))
        grid = tail_integral(p, bs)
        assert len(calls) == 1 and len(calls[0]) == len(bs)
        assert grid[-1] == last
        for b, value in zip(bs, grid):
            assert value == pytest.approx(exact(b), rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("p,exact,b_max", [
        (exponential(3.0, -2.0), lambda b: 1.5 * math.exp(-2.0 * b), 287.0),
        (multiply(power(1.0, 1.0), exponential(1.0, -1.0)),
         lambda b: (b + 1.0) * math.exp(-b), 583.0),
    ], ids=["3exp(-2t)", "t*exp(-t)"])
    def test_exponential_tail_keeps_relative_accuracy(self, p, exact, b_max):
        # the values fall to about 1e-250 at b_max; a floor on the envelope
        # absolute in the value gave 6e-6 relative at 3exp(-2t), b = 15, and
        # exactly 0 from b = 25 on
        for b in [0.0, 0.5, 10.0, 15.0, 25.0, 30.0, 50.0] + np.linspace(0.0, b_max, 13).tolist():
            assert tail_integral(p, b) == pytest.approx(exact(b), rel=1e-9)

    def test_grid_raises_what_the_float_route_raises(self):
        with pytest.raises(InvalidParams):
            tail_integral(power(1.0, -2.0), np.array([-1.0, 2.0]))
        assert tail_integral(add(power(1.0, -2.0), power(1.0, -3.0)),
                             np.array([1.0, 2.0])).tolist() == [1.5, 0.625]
        with pytest.raises(TailInfoMissing):
            tail_integral(reciprocal(add(power(1.0, 2.0), constant(1.0))),
                          np.array([1.0, 2.0]))
        assert tail_integral(power(1.0, -2.0), np.array([])).shape == (0,)

    @pytest.mark.parametrize("make, exact", [
        (lambda: add(power(1.0, -2.0), power(1.0, -3.0)),
         lambda b: 1 / b + 1 / (2 * b ** 2)),
        # the integral of t^-2 e^-t over (b, inf) is E_2(b) / b
        (lambda: subtract(power(0.3, -2.0), multiply(power(0.2, -2.0), exponential(1.0, -1.0))),
         lambda b: mpmath.mpf("0.3") / b - mpmath.mpf("0.2") * mpmath.expint(2, b) / b),
    ], ids=["t^-2+t^-3", "0.3t^-2-0.2t^-2e^-t"])
    def test_sum_integrates_term_by_term(self, make, exact):
        # both raised TailInfoMissing when a sum kept only its dominant term
        p, bs = make(), [1.0, 2.0, 4.0, 10.0]
        assert not p.tail.exact
        with mpmath.workdps(50):
            want = [float(exact(mpmath.mpf(b))) for b in bs]
        assert tail_integral(p, 1.0) == pytest.approx(want[0], rel=4e-16)
        assert tail_integral(p, bs) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("p", [
        power(1.0, -2.0), add(power(1.0, -2.0), power(1.0, -3.0)),
        multiply(power(1.0, -1.0), exponential(1.0, -1.0)),
    ], ids=["t^-2", "t^-2+t^-3", "t^-1e^-t"])
    def test_term_not_integrable_at_zero_is_refused_from_zero(self, p):
        # a term t^q with q <= -1 diverges at 0, and a sum may diverge to
        # either side there
        for b in (0.0, [0.0, 1.0]):
            with pytest.raises(InvalidParams):
                tail_integral(p, b)
        assert tail_integral(p, [1.0, 2.0])[0] == pytest.approx(tail_integral(p, 1.0), rel=1e-12)

    def test_term_integrable_at_zero_from_zero(self):
        # the integral of t^-1/2 e^-t over (0, inf) is sqrt(pi)
        p = multiply(power(1.0, -0.5), exponential(1.0, -1.0))
        assert tail_integral(p, 0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-9)

    def test_exponential_term_integrates_its_own_closed_form(self):
        # 0 * e^{1000t} - 2.4 e^{-t} is exactly 2.4 e^{-t}, though its
        # evaluator is 0 * inf = nan past t = 0.71
        p = subtract(scaled(exponential(1.0, 1000.0), 0.0), exponential(-2.4, -1.0))
        assert p.tail == AsymptoticTail(2.4, 0.0, -1.0, exact=True)
        want = [2.4 * math.exp(-b) for b in (1.0, 2.0)]
        assert tail_integral(p, 1.0) == pytest.approx(want[0], rel=1e-12)
        assert tail_integral(p, [1.0, 2.0]) == pytest.approx(want, rel=1e-12)


# profile -> (leading antiderivative term, tail_divergence), exact values;
# repr keeps the sign of a zero, which reciprocal's rate -0.0 carries (the
# order (-0.0, 0.0) of 1/t equals LOG_ORDER)
ANTIDERIVATIVE_CASES = [
    ("const", constant(3.0), (3.0, (0.0, 1.0)), "+inf"),
    ("pow_growth", power(3.0, 0.5), (2.0, (0.0, 1.5)), "+inf"),
    ("log", power(0.5, -1.0), (0.5, LOG_ORDER), "+inf"),
    ("exp_growth", exponential(-2.0, 0.5), (-4.0, (0.5, 0.0)), "-inf"),
    ("pow_decay", power(2.0, -3.0), (-1.0, (0.0, -2.0)), "finite"),
    ("exp_decay", multiply(power(1.0, 2.0), exponential(6.0, -2.0)),
     (-3.0, (-2.0, 2.0)), "finite"),
    ("zero", constant(0.0), (0.0, (0.0, 1.0)), "finite"),
    ("zero_decay", power(0.0, -3.0), (-0.0, (0.0, -2.0)), "finite"),
    ("rate_minus_zero", reciprocal(power(4.0, 3.0)), (-0.125, (-0.0, -2.0)), "finite"),
    ("log_rate_minus_zero", reciprocal(power(2.0, 1.0)), (0.5, (-0.0, 0.0)), "+inf"),
    ("rounded_shift", power(4.0, -1e-17), (4.0, (0.0, Fraction(-1e-17) + 1)), "+inf"),
    ("underflow", exponential(5e-324, 4.0), None, "+inf"),
    ("no_tail", Profile(np.exp), None, None),
]


_BELOW_MINUS_TWO = math.nextafter(-2.0, -math.inf)
# orders whose float sums and products round, next to harmless ones
_ORDERS = st.one_of(st.sampled_from([0.0, -1.0, 0.5, 0.1, 0.2, 10.1, 1e-17,
                                     1.0 / 3.0, _BELOW_MINUS_TWO]),
                    st.floats(-3.0, 3.0))
_ORDER_COEFS = st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0])
_ORDER_LEAVES = st.one_of(st.tuples(st.just("power"), _ORDER_COEFS, _ORDERS),
                          st.tuples(st.just("exponential"), _ORDER_COEFS, _ORDERS))
_POWERS = st.sampled_from([0.5, 1.5, -1.0, 3.0, 0.1])


def _rounded(x):
    """The float nearest the Fraction ``x``: +-inf beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _in_range(c, *operands):
    """``c``, or None when it overflowed, or underflowed from nonzero
    ``operands`` below the normal range."""
    return None if math.isinf(c) or (abs(c) < 2.0 ** -1022 and all(operands)) else c


def _on_the_float_grid(*orders):
    """Whether every exact order is a finite multiple of 2**-1074."""
    return all(x.denominator <= 2 ** 1074 and math.isfinite(_rounded(x)) for x in orders)


def _expected_sum(terms, complete, floor=None):
    """The ideal normal form of the sum of ``terms``, ``(c, (rate,
    exponent), x)`` with Fraction orders, c the float coefficient (None off
    the float range) and x its exact value (None where it is irrational).

    Like orders are collected, c with math.fsum and x exactly, and a term
    is dropped when its x is 0: the ideal form cancels exactly, where a
    profile's form may leave a coefficient with rounded parts unknown.  A
    complete sum of zeros is the zero of its dominant order.  A form with a
    coefficient off the float range is incomplete, and an incomplete form
    keeps its dominant nonzero term, which must be in range and not below
    ``floor``.  Returns ``(form or None, exact)``, ``exact`` when every
    collected c is its x.
    """
    like = {}
    for c, order, x in terms:
        like.setdefault(order, []).append((c, x))
    collected = []
    for order in sorted(like, reverse=True):
        cs, xs = zip(*like[order])
        try:
            c = None if None in cs else math.fsum(cs)
        except OverflowError:
            c = None
        collected.append((c, order, None if None in xs else sum(xs)))
    exact = all(x is not None and c == x for c, _, x in collected)
    nonzero = [(c, order, x) for c, order, x in collected if (c if x is None else x) != 0]
    if complete and None not in [c for c, _, _ in nonzero]:
        return (nonzero or [(0.0, collected[0][1], 0)], True), exact
    if not nonzero or nonzero[0][0] is None or (floor and nonzero[0][1] < floor):
        return None, exact
    return (nonzero[:1], False), exact


def _expected_form(kind, args, built):
    """The ideal normal form of a node from the forms ``built`` of its
    children, its full expansion worked out in Fraction arithmetic, and
    whether it is exact (see :func:`_expected_sum`)."""
    if kind == "power":
        return ([(args[0], (Fraction(0), Fraction(args[1])), Fraction(args[0]))], True), True
    if kind == "exponential":
        return ([(args[0], (Fraction(args[1]), Fraction(0)), Fraction(args[0]))], True), True
    if None in built:
        return None, False
    if kind == "add":
        floor = max([terms[0][1] for terms, complete in built if not complete],
                    default=None)
        return _expected_sum(built[0][0] + built[1][0], built[0][1] and built[1][1],
                             floor)
    if kind == "multiply":
        (ta, ca), (tb, cb) = built
        terms = [(_in_range(a * b, a, b), (oa[0] + ob[0], oa[1] + ob[1]),
                  None if None in (xa, xb) else xa * xb)
                 for a, oa, xa in ta for b, ob, xb in tb]
        if not _on_the_float_grid(*(x for _, order, _ in terms for x in order)):
            return None, False
        zero = any(complete and terms[0][0] == 0.0 for terms, complete in built)
        return _expected_sum(terms, (ca and cb) or zero)
    (terms, complete), = built
    (c, (rate, exponent), x), complete = terms[0], complete and len(terms) == 1
    if kind == "reciprocal":
        if c == 0.0:
            return None, False
        return _expected_sum([(_in_range(1.0 / c, c), (-rate, -exponent),
                               None if x is None else 1 / x)], complete)
    e = args[1]  # elementwise_power: of the dominant term, or the zero form
    if c == 0.0 and complete:
        return ((terms, complete) if e > 0 else None), True  # 0**e is 0, or inf, or 1 at e = 0
    orders = (rate * Fraction(e), exponent * Fraction(e))
    if c <= 0.0 or not _on_the_float_grid(*orders):
        return None, False
    try:
        x = x ** int(e) if x is not None and e == int(e) else None
        form, exact = _expected_sum([(_in_range(c ** e, c), orders, x)], complete)
    except OverflowError:
        return None, False
    return form, exact and 1.0 in (c, e)  # c**e is taken as rounded unless c or e is 1


def _build_with_exact_order(tree):
    """``(profile, ideal, exact)`` of ``tree``: ``ideal`` its ideal normal
    form or None, and ``exact`` when no coefficient of the tree rounds.

    ``ideal`` is ``(terms, complete)``, each term ``(c, (rate, exponent),
    x)`` with the orders as Fractions and x the exact coefficient, worked
    out here from the full expansion (see :func:`_expected_sum`).  The
    profile's form must be sound against it: each order a float when the
    float is exact, and otherwise a Fraction that no float equals; each
    coefficient within its error bound of x, and more than twice the bound
    from 0; complete only where the ideal form is, with the same terms,
    and otherwise the ideal dominant term alone.  A form left unknown needs
    a rounded coefficient, and an exact tree has the ideal form itself,
    with no error.  Its tail is the dominant term, exact when the form is
    complete with one.
    """
    kind, *args = tree
    if kind == "elementwise_power":
        a, inner, exact = _build_with_exact_order(args[0])
        args = [None, args[1] if certified_nonnegative(a) else 3.0]
        built, p = [inner], elementwise_power(a, args[1])
    elif kind in ("power", "exponential"):
        built, p, exact = [], {"power": power, "exponential": exponential}[kind](*args), True
    else:
        children = [_build_with_exact_order(arg) for arg in args]
        op = {"multiply": multiply, "add": add, "reciprocal": reciprocal}[kind]
        built, p = [w for _, w, _ in children], op(*(q for q, _, _ in children))
        exact = all(e for _, _, e in children)
    want, exact_here = _expected_form(kind, args, built)
    exact = exact and exact_here
    if p.terms is None:
        assert p.tail is None and not (exact and want)
        return p, want, exact
    terms, complete = want
    for c, q, r, err in p.terms:
        for y in (r, q):
            assert type(y) is float or (type(y) is Fraction and float(y) != y)
        x = dict(((o, x) for _, o, x in terms)).get((Fraction(r), Fraction(q)), 0)
        assert x is None or abs(Fraction(c) - x) <= Fraction(err)
        assert c == 0.0 or abs(c) > 2 * err
        assert err == 0.0 or not exact
    assert (p.tail.coefficient, p.tail.exponent, p.tail.rate) == p.terms[0][:3]
    if len(p.terms) > 1 or p.tail.exact:
        assert complete and len(p.terms) == len(terms)
        assert [(c, (Fraction(r), Fraction(q))) for c, q, r, _ in p.terms] == [
            (c, order) for c, order, _ in terms]
    else:
        assert (p.tail.coefficient, (Fraction(p.tail.rate), Fraction(p.tail.exponent))) == (
            terms[0][0], terms[0][1])
        assert not (exact and complete and len(terms) == 1)
    if p.tail.exact or len(p.terms) > 1:
        if all(rate == 0 and (exponent < -1 or c == 0.0) for c, (rate, exponent), _ in terms):
            # the power remainders from t = 1, each in its exact order q + 1
            parts = [-Fraction(c) / (exponent + 1) for c, (_, exponent), _ in terms if c]
            assert tail_integral(p, 1.0) == pytest.approx(
                _rounded(sum(parts)), rel=1e-15, abs=1e-15 * _rounded(sum(map(abs, parts))))
    return p, want, exact


class TestAntiderivativeTerm:
    @pytest.mark.parametrize("p,term,divergence",
                             [case[1:] for case in ANTIDERIVATIVE_CASES],
                             ids=[case[0] for case in ANTIDERIVATIVE_CASES])
    def test_closed_form_table(self, p, term, divergence):
        assert repr(antiderivative_term(p)) == repr(term)
        assert tail_divergence(p) == divergence

    def test_underflowing_term_keeps_its_integral(self):
        # c/r underflows to 0, but the tail still decides divergence
        assert tail_integral(exponential(5e-324, 4.0), 1.0) == math.inf


_PRODUCT_ORDERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-2 ** 60, 2 ** 60).map(float),
    st.integers(-64, 64).map(lambda n: n / 2.0), st.sampled_from([-0.0, 0.1, 1.0 / 3.0, 5e-324]))
_PRODUCT_EXPONENTS = st.one_of(
    st.floats(-100.0, 100.0), st.integers(-60, 60).map(float),
    st.integers(-1074, 1023).map(lambda k: math.ldexp(1.0, k)), st.sampled_from([0.5, -0.5, 0.0]))


def _fraction_product(a, e):
    return profiles._exact(Fraction(a) * Fraction(e))


def _outcome(product, a, e):
    try:
        x = product(a, e)
    except OverflowError:
        return "OverflowError"
    return type(x), x, math.copysign(1.0, x)


class TestExactOrders:
    @pytest.mark.parametrize("make", [
        lambda: power(1.0, math.inf),
        lambda: power(1.0, math.nan),
        lambda: exponential(1.0, -math.inf),
        lambda: AsymptoticTail(1.0, 0.0, math.nan),
    ], ids=["power_inf", "power_nan", "exp_minus_inf", "rate_nan"])
    def test_non_finite_order_rejected(self, make):
        with pytest.raises(InvalidParams):
            make()

    def test_order_leaving_the_float_range_declares_no_tail(self):
        p = elementwise_power(exponential(1.0, -1e308), 10.0)
        assert p.tail is None
        with pytest.raises(TailInfoMissing):
            tail_integral(p, 1.0)
        assert multiply(power(1.0, 1e308), power(1.0, 1e308)).tail is None

    def test_order_off_the_float_grid_declares_no_tail(self):
        # the rate -0.4 * 2**-1074 is no multiple of 2**-1074 and rounds to
        # -0.0; its power-tail remainder integrated to -1.0
        p = elementwise_power(exponential(1.0, -5e-324), 0.4)
        assert p.tail is None
        with pytest.raises(TailInfoMissing):
            tail_integral(p, 1.0)

    def test_remainder_uses_the_exact_order(self):
        # the order q + 1 = -2**-54 of t**-(1 + 2**-54) rounds to -1.0 + 1.0
        p = elementwise_power(power(1.0, -0.1), 10.0)
        assert tail_divergence(p) == "finite"
        assert tail_integral(p, 1.0) == 2.0 ** 54
        near = elementwise_power(power(1.0, -0.25), 4.0 + 2.0 ** -50)
        assert tail_integral(near, 1.0) == pytest.approx(
            float(-1 / (Fraction(-0.25) * Fraction(4.0 + 2.0 ** -50) + 1)), rel=1e-15)

    def test_power_of_a_power_is_exact(self):
        exponent = elementwise_power(power(1.0, 0.1), 3.0).tail.exponent
        assert exponent == 3 * Fraction(0.1)
        assert type(exponent) is Fraction and exponent != 0.30000000000000004

    def test_sum_that_does_not_round_stays_float(self):
        tail = multiply(power(1.0, 2.5), exponential(1.0, -0.5)).tail
        assert (type(tail.exponent), type(tail.rate)) == (float, float)
        assert multiply(power(1.0, 0.1), power(1.0, 0.2)).tail.exponent == (
            Fraction(0.1) + Fraction(0.2))

    @given(_PRODUCT_ORDERS, _PRODUCT_EXPONENTS)
    @settings(max_examples=500, deadline=None)
    @example(-3.0, 0.0)
    @example(0.0, -2.0)
    @example(2.0 ** -1021, 0.5)
    @example(2.0 ** -1022, 0.5)
    @example(3.0, 2.0 ** 1023)
    @example(2.0 ** 52 + 1.0, 3.0)
    @example(0.1, 3.0)
    def test_float_product_is_the_fraction_product(self, a, e):
        # the float product is taken only where it does not round: same
        # type, value and sign of zero, or the same OverflowError
        assert _outcome(profiles._exact_product, a, e) == _outcome(_fraction_product, a, e)

    @given(st.floats(1e-3, 1e3), _PRODUCT_ORDERS.filter(lambda q: abs(q) < 1e300),
           st.sampled_from(["power", "exponential"]), st.sampled_from([None, 3.0, 0.1]),
           _PRODUCT_EXPONENTS)
    @settings(max_examples=300, deadline=None)
    def test_elementwise_power_forms_are_the_fraction_routes(self, c, q, kind, pre, e):
        base = (power if kind == "power" else exponential)(c, q)
        if pre is not None:  # orders that are Fractions
            base = elementwise_power(base, pre)
        fast = elementwise_power(base, e)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(profiles, "_exact_product", _fraction_product)
            slow = elementwise_power(base, e)
        assert repr((fast.terms, fast.tail)) == repr((slow.terms, slow.tail))

    @given(st.recursive(_ORDER_LEAVES, lambda children: st.one_of(
        st.tuples(st.just("multiply"), children, children),
        st.tuples(st.just("add"), children, children),
        st.tuples(st.just("reciprocal"), children),
        st.tuples(st.just("elementwise_power"), children, _POWERS),
    ), max_leaves=8))
    @settings(max_examples=300, deadline=None)
    @example(("multiply", ("power", 1.0, 10.1), ("power", 166.0, _BELOW_MINUS_TWO)))
    @example(("elementwise_power", ("power", 1.0, 0.1), 3.0))
    @example(("elementwise_power", ("power", 1.0, -0.1), 10.0))
    @example(("elementwise_power", ("exponential", 1.0, -5e-324), 0.1))
    @example(("multiply", ("power", -2.0, -1.0), ("power", -2.0, -2.225073858507203e-309)))
    def test_declared_orders_match_exact_arithmetic(self, tree):
        _build_with_exact_order(tree)


class TestAlgebra:
    def test_product_tail(self):
        p = multiply(power(2.0, -1.0), power(3.0, -1.5))
        assert p.tail.coefficient == pytest.approx(6.0)
        assert p.tail.exponent == pytest.approx(-2.5)

    def test_reciprocal_round_trip(self):
        v = power(2.0, 2.0)
        r = reciprocal(v)
        assert r(3.0) == pytest.approx(1.0 / 18.0)
        assert r.tail.exponent == -2.0

    def test_sum_dominant_term(self):
        p = add(power(1.0, 2.0), power(5.0, 1.0))
        assert p.tail.exponent == 2.0
        assert not p.tail.exact

    def test_sum_cancellation_drops_tail(self):
        # the t^2 terms cancel exactly: the zero form, not a lost tail
        p = subtract(power(1.0, 2.0), power(1.0, 2.0))
        assert (p.tail.coefficient, p.tail.exact) == (0.0, True)
        assert tail_integral(p, 1.0) == 0.0

    def test_elementwise_power_needs_sign(self):
        with pytest.raises(InvalidParams):
            elementwise_power(constant(-1.0), 0.5)
        q = elementwise_power(power(4.0, 2.0), 0.5)
        assert q(3.0) == pytest.approx(6.0)
        assert q.tail.exponent == 1.0

    def test_elementwise_power_overflowing_tail_is_dropped(self):
        huge = reciprocal(power(1e-230, 0.0))
        assert huge.tail.coefficient == pytest.approx(1e230)
        assert elementwise_power(huge, 1.5).tail is None

    @pytest.mark.parametrize("make", [
        lambda: multiply(power(1e-200, 1.0), power(1e-200, 1.0)),
        lambda: scaled(power(1e-200, 2.0), 1e-200),
        lambda: elementwise_power(power(1e-200, 1.0), 2.0),
        lambda: multiply(power(1e200, -3.0), power(1e200, 0.0)),
        lambda: scaled(power(1e200, -3.0), 1e200),
        lambda: reciprocal(power(1e-310, 3.0)),
    ], ids=["multiply_under", "scaled_under", "elementwise_power_under",
            "multiply_over", "scaled_over", "reciprocal_over"])
    def test_out_of_range_coefficient_declares_no_tail(self, make):
        # a zero coefficient for 1e-400 t^2 called its divergent integral
        # finite; an inf one for 1e400 t^-3 gave an infinite tail integral
        p = make()
        assert p.tail is None
        assert tail_divergence(p) is None
        with pytest.raises(TailInfoMissing):
            tail_integral(p, 1.0)

    @pytest.mark.parametrize("make, b", [
        (lambda: multiply(power(1e-200, -3.0), power(1e-200, 0.0)), 1e-100),
        (lambda: multiply(power(1e200, -3.0), power(1e200, 0.0)), 1e100),
    ], ids=["underflow", "overflow"])
    def test_tail_integral_of_an_out_of_range_product_is_missing(self, make, b):
        # 1e-400 t^-3 is 1e-100 at t = 1e-100, and its tail integral from
        # there is about 5e-201, not the 0.0 of a zero tail; 1e400 t^-3 from
        # 1e100 is 5e199, not inf
        p = make()
        assert p(b) == pytest.approx(1e-100 if b < 1 else 1e100)
        with pytest.raises(TailInfoMissing):
            tail_integral(p, b)

    def test_zero_factor_keeps_its_exact_zero_tail(self):
        for p in (scaled(power(2.0, 1.0), 0.0), multiply(constant(0.0), power(1.0, 1.0)),
                  elementwise_power(constant(0.0), 2.0)):
            assert (p.tail.coefficient, p.tail.exact) == (0.0, True)
            assert tail_divergence(p) == "finite"

    def test_rounded_coefficients_that_cancel_leave_their_order_unknown(self):
        # (1 + 2^-52)^2 rounds to 1 + 2^-51, so the t terms below cancel to
        # 0.0 in floats while the exact coefficient is 2^-104: divergent
        a, c = 1 + 2.0 ** -52, 1 + 2.0 ** -51
        p = subtract(scaled(power(a, 1.0), a), power(c, 1.0))
        assert p.tail is None and p.terms is None
        with pytest.raises(TailInfoMissing):
            tail_integral(add(p, power(1.0, -3.0)), 1.0)
        # an order above the unknown one is still the dominant term
        q = add(scaled(power(a, 1.0), a), subtract(power(2.0, 2.0), power(c, 1.0)))
        assert q.tail == AsymptoticTail(2.0, 2.0, 0.0, exact=False)
        # a nonzero float left within its rounding of 0 is unknown too: the
        # t^2 coefficient of (a t^2 - c t - 2^-104)(a + t + t^2) is
        # a^2 - c - 2^-104 = 0, where the floats sum to -2^-104
        p = multiply(add(add(power(a, 2.0), power(-c, 1.0)), constant(-2.0 ** -104)),
                     add(add(constant(a), power(1.0, 1.0)), power(1.0, 2.0)))
        assert p.terms == ((a, 4.0, 0.0, 0.0),) and not p.tail.exact
        assert subtract(p, add(power(a, 4.0), power(-2.0 ** -52, 3.0))).tail is None
        # while a cancellation far above the rounding keeps its value
        p = subtract(multiply(power(1.3, 1.0), power(1.1, 1.0)), power(1.0, 2.0))
        (c, q, r, err), = p.terms
        assert (c, q, r) == (1.3 * 1.1 - 1.0, 2.0, 0.0) and 0.0 < err < 1e-15
        assert p.tail.exact
        # an exact product cancels exactly: 0.5 * 3 t - 1.5 t is the zero form
        z = subtract(scaled(power(3.0, 1.0), 0.5), power(1.5, 1.0))
        assert (z.tail.coefficient, z.tail.exact) == (0.0, True)
        # and an exact zero factor makes a product exact: 0 * (1/3) - 0 is zero
        z = subtract(multiply(constant(0.0), reciprocal(constant(3.0))), constant(0.0))
        assert (z.tail.coefficient, z.tail.exact) == (0.0, True)

    def test_zero_term_is_not_the_dominant_of_an_incomplete_sum(self):
        # 1/(1e200 e^{-0.1t} + e^{-0.2t}) is 1e-200 e^{0.1t} + (unknown lower
        # terms), and the zero form 0 e^{0.5t} lies above it: the zero is
        # dropped before the dominant is picked
        zero = scaled(exponential(1.0, 0.5), 0.0)
        rising = reciprocal(add(exponential(1e200, -0.1), exponential(1.0, -0.2)))
        for p in (add(zero, rising), add(rising, zero)):
            assert p.tail == AsymptoticTail(1e-200, 0.0, 0.1, exact=False)
            assert tail_divergence(p) == "+inf"

    def test_incomplete_summand_whose_order_cancels_has_no_tail(self):
        # 1/(1/(t^2 + t)) = t^2 + (unknown lower terms): minus t^2 leaves
        # nothing known, while minus t^2 - t^3 leaves the dominant -t^3
        p = reciprocal(reciprocal(add(power(1.0, 2.0), power(1.0, 1.0))))
        assert subtract(p, power(1.0, 2.0)).tail is None
        q = subtract(p, add(power(1.0, 2.0), power(1.0, 3.0)))
        assert q.tail == AsymptoticTail(-1.0, 3.0, 0.0, exact=False)

    def test_product_with_the_zero_form_is_exactly_zero(self):
        incomplete = reciprocal(add(power(1.0, 2.0), constant(1.0)))
        p = multiply(constant(0.0), incomplete)
        assert (p.tail.coefficient, p.tail.exact) == (0.0, True)
        assert tail_integral(p, 1.0) == 0.0

    def test_subnormal_coefficient_declares_no_tail(self):
        # 3.19e-161 squared is 1.0177e-321, a subnormal with 7 significant
        # bits; a product that underflows to 0.0 already declared none
        p = scaled(constant(3.1901523304160198e-161), 3.1901523304160198e-161)
        assert p.tail is None
        # below the dominant term it leaves the form incomplete
        q = multiply(add(power(1.0, 1.0), power(1e-160, -1.0)),
                     add(constant(1.0), power(1e-160, -2.0)))
        assert q.tail == AsymptoticTail(1.0, 1.0, 0.0, exact=False)
        with pytest.raises(TailInfoMissing):
            tail_integral(multiply(q, power(1.0, -3.0)), 1.0)

    @pytest.mark.parametrize("e", [-1.0, 0.0])
    def test_zero_to_a_non_positive_power_declares_no_tail(self, e):
        # 0**-1 is inf and 0**0 is 1: neither is the zero form, which the
        # zero tail claimed
        assert elementwise_power(constant(0.0), e).tail is None

    def test_scaled_flips_sign_certificate(self):
        assert scaled(power(1.0, 1.0), -2.0).sign == "nonpositive"


class TestCoefficientPair:
    def test_admissible(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(1.0), b_const=0.0)
        assert pair.v_inv_l1_at_infinity is True
        assert pair.wv(2.0) == pytest.approx(4.0)

    def test_flat_volume_rejected_at_origin(self):
        with pytest.raises(InvalidParams):
            CoefficientPair(constant(1.0), constant(1.0), b_const=1.0)

    def test_shifted_pair_skips_origin_checks(self):
        pair = CoefficientPair(constant(1.0), constant(1.0), b_const=1.0,
                               t_start=1.0)
        assert pair.v_inv_l1_at_infinity is False

    def test_lower_bound_violation(self):
        with pytest.raises(InvalidParams):
            CoefficientPair(power(1.0, 2.0), constant(-1.0), b_const=0.5)

    def test_flag_contradiction(self):
        with pytest.raises(InvalidParams):
            CoefficientPair(power(1.0, 2.0), constant(1.0), b_const=0.0,
                            v_inv_l1_at_infinity=False)

    def test_negative_b_rejected(self):
        with pytest.raises(InvalidParams):
            CoefficientPair(power(1.0, 2.0), constant(1.0), b_const=-1.0)

    @pytest.mark.parametrize("w,error", [(1.0, None), (0.0, NonFiniteSample),
                                         (-1.0, InvalidParams)])
    def test_overflowing_volume(self, w, error):
        # the hyperbolic volume 4 pi sinh^2 t is +inf past t ~ 355, which
        # never fails W v^2 >= -B^2 for W = 1 and always does for W = -1;
        # W = 0 makes the sample 0 * inf, which is NaN
        v = model_profiles(space_form(3, -1.0))[1]
        if error is None:
            CoefficientPair(v, constant(w))
        else:
            with pytest.raises(error):
                CoefficientPair(v, constant(w))


class TestCurvatureProfile:
    def test_overflow_of_a_growing_curvature_constructs(self):
        # e^t - 2 >= -4 holds; e^1000 is +inf, which never fails
        k = CurvatureProfile(add(exponential(1.0, 1.0), constant(-2.0)), b_const=2.0)
        assert k.b_const == 2.0

    def test_lower_bound_violation(self):
        with pytest.raises(InvalidParams, match="min -1.999"):
            CurvatureProfile(add(exponential(1.0, 1.0), constant(-3.0)), b_const=1.0)

    def test_nan_sample_raises(self):
        k = Profile(lambda t: np.where(t > 10.0, np.nan, 1.0))
        with pytest.raises(NonFiniteSample, match="K is NaN near t = 1[0-9.]+"):
            CurvatureProfile(k)


def nan_past_ten(t):
    return np.where(t > 10.0, np.nan, 1.0)


# each validated construction with its verdict: None, or the error and its message
VALIDATIONS = {
    "v=t^2, W=1": (lambda: CoefficientPair(power(1.0, 2.0), constant(1.0)), None),
    "v=1 from the origin": (
        lambda: CoefficientPair(constant(1.0), constant(1.0), b_const=1.0),
        (InvalidParams, "v(t) -> 0 as t -> 0+ fails on samples")),
    "W*v^2 below -B^2": (
        lambda: CoefficientPair(power(1.0, 2.0), constant(-1.0), b_const=0.5),
        (InvalidParams, "W*v^2 >= -B^2 fails on samples (min -1e+12 < -0.25)")),
    "W=-1/t^3 on t_start=2": (
        lambda: CoefficientPair(power(1.0, 2.0), power(-1.0, -3.0), b_const=0.9, t_start=2.0),
        (InvalidParams, "W*v^2 >= -B^2 fails on samples (min -20000 < -0.81)")),
    "W=-1/t^3 on t_start=0.5": (
        lambda: CoefficientPair(power(1.0, 2.0), power(-1.0, -3.0), b_const=0.9, t_start=0.5),
        (InvalidParams, "W*v^2 >= -B^2 fails on samples (min -5000 < -0.81)")),
    "v=t-1 from the origin": (
        lambda: CoefficientPair(add(power(1.0, 1.0), constant(-1.0)), constant(1.0)),
        (InvalidParams, "v must be positive on (t_start, +inf)")),
    "W NaN past 10": (
        lambda: CoefficientPair(power(1.0, 2.0), Profile(nan_past_ten)),
        (NonFiniteSample, "W*v^2 is NaN near t = 11.2202")),
    "K=1": (lambda: CurvatureProfile(constant(1.0)), None),
    "K=e^t-3, B=1": (
        lambda: CurvatureProfile(add(exponential(1.0, 1.0), constant(-3.0)), b_const=1.0),
        (InvalidParams, "K >= -B^2 fails on samples (min -1.999)")),
    "K=-t, B=1": (
        lambda: CurvatureProfile(power(-1.0, 1.0), b_const=1.0),
        (InvalidParams, "K >= -B^2 fails on samples (min -1000)")),
    "K NaN past 10": (
        lambda: CurvatureProfile(Profile(nan_past_ten)),
        (NonFiniteSample, "K is NaN near t = 11.2202")),
}


def verdict(make):
    try:
        make()
    except (InvalidParams, NonFiniteSample) as e:
        return type(e), str(e)
    return None


class TestValidationGrids:
    """The validation grids are built once and sampled through copies."""

    @pytest.mark.parametrize("case", VALIDATIONS)
    def test_verdicts_and_messages(self, case):
        make, expected = VALIDATIONS[case]
        assert verdict(make) == expected
        assert verdict(make) == expected

    def test_a_mutating_evaluator_leaves_later_checks_alone(self):
        def scribbling(f):
            def evaluator(t):
                out = f(t)
                if isinstance(t, np.ndarray):
                    t[...] = np.nan
                return out
            return Profile(evaluator)

        CoefficientPair(scribbling(lambda t: t * t), scribbling(lambda t: 1.0 + 0.0 * t))
        CurvatureProfile(scribbling(lambda t: 1.0 + 0.0 * t))
        for make, expected in VALIDATIONS.values():
            assert verdict(make) == expected


def failing_loop(ts, f, floor, rel):
    """The one sampled rule, one sample at a time: the failing mask, or the
    node of the first NaN."""
    out = []
    for t, x, lo in zip(ts, f, floor):
        if math.isnan(x) or math.isnan(lo):
            return t
        size = sum(abs(y) for y in (x, lo) if math.isfinite(y))
        out.append(x == -math.inf or x < lo - rel * (1.0 + size))
    return out


SAMPLES = (st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, -1.2e-12])
           | st.floats())


@given(st.lists(st.tuples(SAMPLES, SAMPLES), max_size=20), st.none() | SAMPLES,
       st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 0.5]))
@settings(max_examples=200, deadline=None)
@example([(-0.5, 0.0), (math.inf, 0.0)], None, 1e-12)
@example([(1.0, math.inf), (math.inf, math.inf), (-math.inf, -math.inf)], None, 1e-6)
@example([(1e308, -1e308), (-1e308, 1e308)], None, 0.5)
# the slack is rel (1 + |f| + |floor|): it fails -1.2e-12 >= 0 at rel 1e-12,
# and passes 1 >= 1 + 2.5e-9 at rel 1e-9 only because |f| counts
@example([(-1.2e-12, 0.0)], None, 1e-12)
@example([(1.0, 1.0 + 2.5e-9)], None, 1e-9)
def test_failing_matches_loop(pairs, scalar_floor, rel):
    ts = 1.0 + 0.25 * np.arange(len(pairs))
    f = np.array([x for x, _ in pairs], dtype=float)
    floors = [lo for _, lo in pairs] if scalar_floor is None else [scalar_floor] * len(pairs)
    floor = np.array(floors, dtype=float) if scalar_floor is None else scalar_floor
    expected = failing_loop(ts.tolist(), f.tolist(), floors, rel)
    if isinstance(expected, list):
        assert profiles._failing(ts, f, floor, rel, "f").tolist() == expected
    else:
        with pytest.raises(NonFiniteSample, match=f"f is NaN near t = {expected:.6g}$"):
            profiles._failing(ts, f, floor, rel, "f")


class TestBigV:
    """The growth factor V of conftest, a second route beside the comparison
    band, built on integrate and tail_integral."""

    def test_unit_volume(self):
        pair = CoefficientPair(constant(1.0), constant(1.0), b_const=1.0,
                               validate=False)
        assert big_v(pair, 0.5, 1.5) == pytest.approx(math.e ** 2, rel=1e-10)

    def test_b_zero_is_one(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(1.0), b_const=0.0)
        assert big_v(pair, 0.3, 7.0) == 1.0

    def test_tail_value(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(1.0), b_const=1.0)
        assert big_v(pair, 1.0, math.inf) == pytest.approx(math.e ** 2, rel=1e-10)

    def test_divergent_exponent(self):
        pair = CoefficientPair(power(1.0, 1.0), constant(1.0), b_const=1.0)
        assert big_v(pair, 1.0, math.inf) == math.inf

    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_multiplicative(self, t1, d1, d2):
        pair = CoefficientPair(power(1.3, 1.5), constant(1.0), b_const=0.7)
        t2, t3 = t1 + d1, t1 + d1 + d2
        lhs = big_v(pair, t1, t2) * big_v(pair, t2, t3)
        rhs = big_v(pair, t1, t3)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_monotone_in_endpoints(self):
        pair = CoefficientPair(power(1.0, 2.0), constant(1.0), b_const=1.0)
        values_t2 = [big_v(pair, 1.0, t2) for t2 in (1.0, 2.0, 4.0, 8.0)]
        assert all(a <= b for a, b in zip(values_t2, values_t2[1:]))
        values_t1 = [big_v(pair, t1, 8.0) for t1 in (1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(values_t1, values_t1[1:]))


class TestCothBand:
    @given(st.floats(1e-6, 1e3), st.floats(1e-6, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_expm1_forms(self, b, x):
        # the ratios coth_band replaced: b (m + 2) / m for the band and
        # 2b (m + 1) / m for the first-zero threshold, m = expm1(2 b x)
        try:
            m = math.expm1(2.0 * b * x)
        except OverflowError:
            m = math.inf
        band = b * (m + 2.0) / m if math.isfinite(m) else b
        threshold = 2.0 * b * (m + 1.0) / m if math.isfinite(m) else 2.0 * b
        assert abs(coth_band(b, x) - band) <= 4 * math.ulp(band)
        assert abs(b + coth_band(b, x) - threshold) <= 4 * math.ulp(threshold)

    def test_limits(self):
        assert coth_band(0.0, math.inf) == 0.0
        assert coth_band(2.5, math.inf) == 2.5
        assert coth_band(2.5, 0.0) == math.inf
        assert coth_band(0.0, 0.0) == math.inf
        assert coth_band(1.0, 50.0) == 1.0

    @pytest.mark.parametrize("b,x", [(0.0, 1e-300), (0.0, 0.3), (0.0, 7.0), (0.0, 1e300),
                                     (1e-300, 1e-20), (1e-300, 1e-30), (1e-5, 1e-4),
                                     (1e-200, 1e-200)])
    def test_exactly_one_over_x_below_1e_8(self, b, x):
        # b x may underflow; (1/x)(1 + (b x)^2 / 3) rounds to 1/x anyway
        assert coth_band(b, x) == 1.0 / x


class TestWeightedMoment:
    def test_constant(self):
        k = CurvatureProfile(constant(1.0), m=2)
        assert weighted_moment(k, 0.0, 1.0, 3.0) == pytest.approx(2.0, abs=1e-10)
        assert weighted_moment(k, 1.0, 1.0, 3.0) == pytest.approx(4.0, abs=1e-10)

    def test_harmonic(self):
        k = CurvatureProfile(power(1.0, -1.0), m=2)
        assert weighted_moment(k, 1.0, 1.0, math.e) == pytest.approx(
            math.e - 1.0, rel=1e-10)


_FORM_COEFS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.0, 3.0]),
                        st.floats(-3.0, 3.0))
_FORM_LEAVES = st.one_of(
    st.tuples(st.just("constant"), _FORM_COEFS),
    st.tuples(st.just("power"), _FORM_COEFS, st.floats(-3.0, 3.0)),
    st.tuples(st.just("exponential"), _FORM_COEFS, st.floats(-2.0, 2.0)))
_FORM_TREES = st.recursive(_FORM_LEAVES, lambda children: st.one_of(
    st.tuples(st.sampled_from(["multiply", "add", "subtract"]), children, children),
    st.tuples(st.just("scaled"), children, _FORM_COEFS),
    st.tuples(st.just("reciprocal"), children),
    st.tuples(st.just("elementwise_power"), children, st.sampled_from([0.5, 1.5, -1.0, 3.0])),
), max_leaves=6)


def _mp(x):
    """The float or Fraction ``x`` as an mpmath number, exactly."""
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def _with_exact_value(tree, t):
    """``(profile, value)`` of ``tree``, its value at ``t`` in mpmath arithmetic."""
    kind, *args = tree
    if kind in ("constant", "power", "exponential"):
        p = {"constant": constant, "power": power, "exponential": exponential}[kind](*args)
        c = _mp(args[0])
        return p, (c if kind == "constant" else c * t ** _mp(args[1]) if kind == "power"
                   else c * mpmath.exp(_mp(args[1]) * t))
    (a, x), rest = _with_exact_value(args[0], t), args[1:]
    if kind == "scaled":
        return scaled(a, rest[0]), _mp(rest[0]) * x
    if kind == "reciprocal":
        return reciprocal(a), 1 / x if x else mpmath.inf
    if kind == "elementwise_power":
        e = rest[0] if certified_nonnegative(a) else 3.0
        return elementwise_power(a, e), (x ** _mp(e) if x or e > 0 else mpmath.inf)
    b, y = _with_exact_value(rest[0], t)
    op = {"multiply": (multiply, x * y), "add": (add, x + y), "subtract": (subtract, x - y)}
    return op[kind][0](a, b), op[kind][1]


class TestNormalForm:
    @given(_FORM_TREES, st.floats(0.25, 4.0))
    @settings(max_examples=200, deadline=None)
    @example(("subtract", ("multiply", ("add", ("power", 1.0, 1.0), ("constant", 1.0)),
                           ("add", ("power", 1.0, 1.0), ("constant", -1.0))),
              ("power", 1.0, 2.0)), 1.5)
    @example(("subtract", ("constant", 1.0),
              ("add", ("constant", 1.0), ("power", 6.937365828492989e-190, 1.0))), 1.0)
    @example(("scaled", ("constant", 3.1901523304160198e-161), 3.1901523304160198e-161), 1.0)
    # (1 + 2^-52)^2 t - (1 + 2^-51) t is 2^-104 t, though the rounded square cancels
    @example(("subtract", ("scaled", ("power", 1 + 2.0 ** -52, 1.0), 1 + 2.0 ** -52),
              ("power", 1 + 2.0 ** -51, 1.0)), 1.0)
    def test_complete_terms_sum_to_the_profile(self, tree, t):
        # a complete form is the profile: its terms, summed exactly, give
        # the exact value to the rounding of their coefficients; 1000 digits
        # hold 1 - (1 + 5e-324 t) and every other cancellation of a tree
        with mpmath.workdps(1000):
            p, exact = _with_exact_value(tree, mpmath.mpf(t))
            if p.terms is None or not (len(p.terms) > 1 or p.tail.exact):
                return
            parts = [_mp(c) * mpmath.mpf(t) ** _mp(q) * mpmath.exp(_mp(r) * t)
                     for c, q, r, _ in p.terms]
            assert abs(sum(parts) - exact) <= 1e-12 * sum(abs(x) for x in parts)

    def test_terms_are_collected_dominant_first(self):
        p = multiply(add(power(1.0, 1.0), constant(1.0)), add(power(1.0, 1.0), constant(-1.0)))
        assert p.terms == ((1.0, 2.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0))
        assert tail_integral(multiply(p, power(1.0, -4.0)), 1.0) == pytest.approx(
            1.0 - 1.0 / 3.0, rel=1e-15)


class TestCatalogInvariants:
    def test_power_tail_matches_evaluator_at_large_t(self):
        p = power(2.5, -1.7)
        for t in (1e3, 1e4, 1e5):
            assert p(t) / (p.tail.coefficient * t ** p.tail.exponent) == pytest.approx(1.0, rel=0.05)

    def test_vectorized_evaluators(self):
        ts = np.array([0.5, 1.0, 2.0])
        assert constant(3.0)(ts).shape == ts.shape
        assert multiply(power(1.0, 1.0), exponential(1.0, -1.0))(ts).shape == ts.shape


# --- scalar forms ------------------------------------------------------------

def _model_profiles():
    out = []
    for model in (space_form(3, 1.0), space_form(3, -1.0), space_form(2, 0.0),
                  warped_model(3, "cubic", alpha=0.5)):
        k, v = model_profiles(model)
        out += [k.k, v]
    return out


def _elementwise_power(p, e):
    # fractional powers need a nonnegative certificate; square otherwise
    return elementwise_power(p, e if certified_nonnegative(p) else 2.0)


_COEF = st.floats(-3.0, 3.0)
_LEAVES = st.one_of(
    st.builds(constant, _COEF),
    st.builds(power, _COEF, st.floats(-3.0, 3.0)),
    st.builds(exponential, _COEF, st.floats(-2.0, 2.0)),
    st.sampled_from(_model_profiles() + [Profile(lambda t: np.sin(t) + 2.0)]),
)
PROFILE_TREES = st.recursive(_LEAVES, lambda children: st.one_of(
    st.builds(multiply, children, children),
    st.builds(add, children, children),
    st.builds(subtract, children, children),
    st.builds(scaled, children, _COEF),
    st.builds(reciprocal, children),
    st.builds(_elementwise_power, children, st.sampled_from([0.5, 1.5, -1.0, 3.0])),
), max_leaves=6)

# every profile kind of the configuration language, model references included
CLI_PROFILES = {
    "profile:c": {"kind": "constant", "c": "-0.7"},
    "profile:p": {"kind": "power", "c": "1.3", "p": "-1.5"},
    "profile:e": {"kind": "exponential", "c": "2", "rate": "-0.4"},
    "profile:prod": {"kind": "product", "factors": "p e c"},
    "profile:sum": {"kind": "sum", "terms": "p e c"},
    "profile:rec": {"kind": "reciprocal", "of": "sum"},
    "profile:sc": {"kind": "scaled", "of": "prod", "factor": "-2.5"},
    "profile:sq": {"kind": "sqrt", "of": "p"},
    "model:round": {"m": "3", "kappa": "1"},
    "model:cubic": {"kind": "warped", "m": "3", "warping": "cubic", "alpha": "0.5"},
}
CLI_REFS = ["c", "p", "e", "prod", "sum", "rec", "sc", "sq", "model:round.k",
            "model:round.v", "model:cubic.k", "model:cubic.v"]


def assert_scalar_form_exact(p, t):
    """``p.scalar`` at a float and at a numpy float gives the old RHS value, bit for bit."""
    with np.errstate(all="ignore"):
        want = np.float64(float(p.evaluator(np.float64(t))))
        for x in (float(t), np.float64(t)):
            got = p.scalar(x)
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes()


class TestScalarForm:
    @given(PROFILE_TREES, st.floats(1e-3, 50.0))
    @settings(max_examples=300, deadline=None)
    @example(reciprocal(subtract(power(1.0, 1.0), constant(2.0))), 2.0)
    @example(elementwise_power(constant(-2.0), 3.0), 1.0)
    @example(power(1.0, -2.0), 1e-3)
    def test_matches_evaluator(self, p, t):
        assert_scalar_form_exact(p, t)

    @pytest.mark.parametrize("ref", CLI_REFS)
    def test_cli_profile_kinds(self, ref):
        p = _Resolver(CLI_PROFILES).profile(ref)
        for t in np.geomspace(1e-3, 50.0, 61):
            assert_scalar_form_exact(p, t)

    def test_bare_evaluator_gets_the_old_rhs_call(self):
        calls = []

        def ev(t):
            calls.append(type(t))
            return np.sin(t)

        assert Profile(ev).scalar(0.5) == np.sin(np.float64(0.5))
        assert calls == [np.float64]
