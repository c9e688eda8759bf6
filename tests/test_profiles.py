import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sturmosc import (AsymptoticTail, ClosedFormTailIntegral, CoefficientPair,
                      InvalidParams, NonFiniteSample, Profile,
                      TailInfoMissing, ToleranceNotMet, add, big_v,
                      certified_nonnegative, constant, coth_band, elementwise_power,
                      exponential, integrate, integrate_err, model_profiles,
                      multiply, power, reciprocal, scaled, space_form,
                      subtract, tail_divergence, tail_integral,
                      warped_model, weighted_moment)
from sturmosc.cli import _Resolver
from sturmosc.profiles import (LOG_ORDER, CurvatureProfile, antiderivative_term,
                               cumulative)


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

    def test_budget_exhausted(self):
        with pytest.raises(ToleranceNotMet):
            integrate(lambda t: np.sin(1e4 * t), 0.0, 7.0, tol=1e-14, max_panels=5)

    def test_empty_interval(self):
        assert integrate(constant(3.0), 1.0, 1.0) == 0.0

    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_additive_over_adjacent_intervals(self, a, d1, d2):
        p = add(power(0.3, 1.5), constant(0.7))
        whole = integrate(p, a, a + d1 + d2)
        parts = integrate(p, a, a + d1) + integrate(p, a + d1, a + d1 + d2)
        assert whole == pytest.approx(parts, abs=2e-10 * (1 + abs(whole)))


class TestCumulative:
    @given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_sums_segments_left_to_right(self, steps):
        p = add(power(0.3, 1.5), constant(0.7))
        ts = 0.1 + np.cumsum(steps)
        pieces = [integrate(p, a, b) for a, b in zip(ts[:-1], ts[1:])]
        expected = np.cumsum([0.0] + pieces)
        assert np.array_equal(cumulative(p, ts), expected)

    def test_sin_closed_form(self):
        ts = np.linspace(0.0, 10.0, 21)
        assert cumulative(np.sin, ts) == pytest.approx(1.0 - np.cos(ts),
                                                       abs=1e-10)

    def test_decreasing_grid_raises(self):
        with pytest.raises(InvalidParams):
            cumulative(constant(1.0), [1.0, 3.0, 2.0])


class TestTailIntegral:
    def test_power_tail(self):
        assert tail_integral(power(1.0, -2.0), 2.0) == pytest.approx(0.5, rel=1e-10)

    def test_harmonic_diverges(self):
        assert tail_integral(power(1.0, -1.0), 1.0) == math.inf

    def test_closed_form(self):
        p = Profile(lambda t: np.exp(-t),
                    tail=ClosedFormTailIntegral(lambda b: math.exp(-b)))
        assert tail_integral(p, 0.0) == pytest.approx(1.0)

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
        # sum of two powers carries only a dominant-term tail
        p = add(power(1.0, -2.0), power(1.0, -3.0))
        assert p.tail.exact is False
        with pytest.raises(TailInfoMissing):
            tail_integral(p, 1.0)
        # but divergence decisions still work
        q = add(power(1.0, 1.0), power(1.0, 0.5))
        assert tail_divergence(q) == "+inf"

    def test_negative_coefficient_diverges_down(self):
        assert tail_integral(power(-1.0, 0.0), 1.0) == -math.inf


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
    ("closed_form", Profile(np.exp, tail=ClosedFormTailIntegral(math.exp)), None,
     "finite"),
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


def _build_with_exact_order(tree):
    """``(profile, want)`` of ``tree``, ``want`` its expected tail or None.

    ``want`` is ``((rate, exponent), coefficient)`` with the orders as
    Fractions, computed here in exact arithmetic.  Every node's declared
    tail must carry it: each order a float when the float is exact, and
    otherwise a Fraction that no float equals.
    """
    kind, *args = tree
    if kind == "power":
        p, want = power(args[0], args[1]), ((Fraction(0), Fraction(args[1])), args[0])
    elif kind == "exponential":
        p, want = exponential(*args), ((Fraction(args[1]), Fraction(0)), args[0])
    elif kind == "elementwise_power":
        a, inner = _build_with_exact_order(args[0])
        e = args[1] if certified_nonnegative(a) else 3.0
        p, want = elementwise_power(a, e), None
        orders = inner and tuple(x * Fraction(e) for x in inner[0])
        # an order off the grid of multiples of 2**-1074 declares no tail
        if inner is not None and inner[1] > 0.0 and all(
                x.denominator <= 2 ** 1074 for x in orders):
            want = (orders, inner[1] ** e)
        elif inner is not None and inner[1] == 0.0 and a.tail.exact:
            want = inner  # zero stays zero
    else:
        built = [_build_with_exact_order(arg) for arg in args]
        op = {"multiply": multiply, "add": add, "reciprocal": reciprocal}[kind]
        p, want = op(*(b[0] for b in built)), None
        if all(b[1] is not None for b in built):
            (oa, ca), (ob, cb) = built[0][1], built[-1][1]
            if kind == "multiply":
                want = ((oa[0] + ob[0], oa[1] + ob[1]), ca * cb)
            elif kind == "reciprocal":
                want = ((-oa[0], -oa[1]), 1.0 / ca) if ca != 0.0 else None
            elif ca == 0.0 or cb == 0.0:
                want = (ob, cb) if ca == 0.0 else (oa, ca)
            elif oa == ob:
                want = (oa, ca + cb) if ca + cb != 0.0 else None
            else:
                want = max((oa, ca), (ob, cb))
    if want is None:
        assert p.tail is None
        return p, None
    orders = (p.tail.rate, p.tail.exponent)
    for x in orders:
        assert type(x) is float or (type(x) is Fraction and float(x) != x)
    assert tuple(map(Fraction, orders)) == want[0]
    assert p.tail.coefficient == want[1]
    (rate, exponent), c = want
    if p.tail.exact and rate == 0 and exponent < -1 and c != 0.0:
        # the power remainder from t = 1, in the exact order q + 1
        assert tail_integral(p, 1.0) == pytest.approx(
            _rounded(-Fraction(c) / (exponent + 1)), rel=1e-15)
    return p, want


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
        p = subtract(power(1.0, 2.0), power(1.0, 2.0))
        assert p.tail is None

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


class TestBigV:
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
