import math

import numpy as np
import pytest

from sturmosc import (InvalidParams, ModelManifold, Profile, TailInfoMissing,
                      check_myers_galloway, conjugate_radius, constant, cubic_warping,
                      linear_warping, model_profiles, sin_warping,
                      sinh_warping, space_form, sphere_area, warped_model)
from sturmosc.geometry import Warping
from sturmosc.profiles import CurvatureProfile


class TestSphereArea:
    def test_recursion_values(self):
        assert sphere_area(0) == 2.0
        assert sphere_area(1) == pytest.approx(2 * math.pi)
        assert sphere_area(2) == pytest.approx(4 * math.pi)
        assert sphere_area(3) == pytest.approx(2 * math.pi ** 2)
        assert sphere_area(4) == pytest.approx(8 * math.pi ** 2 / 3)


class TestModelProfiles:
    def test_round_sphere(self):
        k, v = model_profiles(ModelManifold(2, sin_warping(1.0)))
        assert k.k(0.7) == pytest.approx(1.0)
        assert v(0.7) == pytest.approx(2 * math.pi * math.sin(0.7), rel=1e-12)

    def test_flat_space(self):
        k, v = model_profiles(ModelManifold(3, linear_warping()))
        assert k.k(2.0) == 0.0
        assert v(2.0) == pytest.approx(4 * math.pi * 4.0, rel=1e-12)
        assert v.tail.exponent == 2.0

    def test_hyperbolic_plane(self):
        k, v = model_profiles(ModelManifold(2, sinh_warping(-1.0)))
        assert k.k(1.3) == pytest.approx(-1.0)
        assert k.b_const == 1.0
        assert v(1.3) == pytest.approx(2 * math.pi * math.sinh(1.3), rel=1e-12)

    def test_cubic_perturbation(self):
        model = ModelManifold(3, cubic_warping(0.1))
        k, v = model_profiles(model)
        r = 2.0
        assert k.k(r) == pytest.approx(-0.6 / (1 + 0.1 * r * r), rel=1e-12)
        assert k.b_const == pytest.approx(math.sqrt(0.6))
        assert k.k.sign == "nonpositive"
        assert v(r) == pytest.approx(4 * math.pi * (r + 0.1 * r ** 3) ** 2,
                                     rel=1e-12)

    @pytest.mark.parametrize("alpha,sign", [(0.0, "zero"), (0.5, "nonpositive")])
    def test_cubic_sign_from_the_catalog(self, alpha, sign):
        # K = -6 alpha / (1 + alpha r^2) lies in [-6 alpha, 0]: the catalog
        # declares its sign, and B = sqrt(6 alpha) from the lower bound
        w = cubic_warping(alpha)
        assert (w.k.sign, w.b_const) == (sign, math.sqrt(6.0 * alpha))
        k, _ = model_profiles(ModelManifold(2, w))
        assert k.k.sign == sign
        if alpha > 0:
            assert conjugate_radius(ModelManifold(2, w)) == math.inf


# every catalog entry that certifies a curvature lower bound
CATALOG = [sin_warping(1.0), sin_warping(4.0), sinh_warping(-1.0), sinh_warping(-3.0),
           sinh_warping(-0.37), linear_warping(), cubic_warping(0.0), cubic_warping(0.1),
           cubic_warping(0.73)]
DIMENSIONS = [2, 3, 4, 5]


class TestCatalogVolume:
    @pytest.mark.parametrize("m", DIMENSIONS)
    @pytest.mark.parametrize("w", CATALOG, ids=lambda w: w.name)
    def test_volume_is_omega_f_to_the_m_minus_1(self, w, m):
        # the algebra's v is the direct formula bit for bit, on both paths
        _, v = model_profiles(ModelManifold(m, w))
        omega = sphere_area(m - 1)
        rs = np.geomspace(1e-3, min(w.r_max, 50.0), 97)
        assert np.array_equal(v(rs), omega * np.power(w.f(rs), m - 1))
        for r in rs:
            assert v.scalar(r) == float(omega * np.power(w.f(np.float64(r)), m - 1))
        assert v.sign == "nonnegative"

    @pytest.mark.parametrize("m", DIMENSIONS)
    @pytest.mark.parametrize("w,r", [
        (linear_warping(), 1e4), (cubic_warping(0.1), 1e4), (cubic_warping(0.73), 1e4),
        (sinh_warping(-1.0), 30.0), (sinh_warping(-3.0), 30.0 / math.sqrt(3.0)),
        (sinh_warping(-0.37), 30.0 / math.sqrt(0.37))], ids=lambda x: getattr(x, "name", x))
    def test_volume_tends_to_its_tail_term(self, w, r, m):
        _, v = model_profiles(ModelManifold(m, w))
        t = v.tail
        term = t.coefficient * r ** float(t.exponent) * math.exp(float(t.rate) * r)
        assert v(r) / term == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("m", DIMENSIONS)
    def test_flat_cubic_is_the_linear_model(self, m):
        k, v = model_profiles(ModelManifold(m, cubic_warping(0.0)))
        _, v_flat = model_profiles(ModelManifold(m, linear_warping()))
        assert v.tail == v_flat.tail and v.tail.exact
        assert k.k.sign == "zero"
        assert conjugate_radius(ModelManifold(m, cubic_warping(0.0))) == math.inf


class TestSpaceForm:
    @pytest.mark.parametrize("kappa", [1.0, 0.0, -4.0])
    def test_round_trip_curvature(self, kappa):
        k, _ = model_profiles(space_form(2, kappa))
        grid = np.geomspace(0.1, 2.0, 17)
        assert np.allclose(k.k(grid), kappa, atol=1e-10)

    def test_positive_form_domain(self):
        model = space_form(2, 4.0)
        assert model.r_max == pytest.approx(math.pi / 2.0)
        assert model.warping.f(0.3) == pytest.approx(math.sin(2 * 0.3) / 2.0)

    def test_warping_normalization_checked(self):
        bad = cubic_warping(0.0)
        object.__setattr__(bad, "f", lambda r: 2.0 * np.asarray(r))
        with pytest.raises(InvalidParams):
            ModelManifold(2, bad)


    @pytest.mark.parametrize("m", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("make", [
        lambda m: ModelManifold(m, linear_warping()),
        lambda m: sphere_area(m),
        lambda m: CurvatureProfile(constant(0.0), m=m),
    ], ids=["ModelManifold", "sphere_area", "CurvatureProfile"])
    def test_non_finite_dimension_is_invalid(self, make, m):
        # nan raised ValueError and inf OverflowError, from int(m)
        with pytest.raises(InvalidParams):
            make(m)

    @pytest.mark.parametrize("make", [
        lambda: warped_model(2, "sin", kappa=math.inf),
        lambda: warped_model(2, "sin", kappa=math.nan),
        lambda: warped_model(3, "cubic", alpha=math.nan),
        lambda: ModelManifold(2, Warping("nan", Profile(lambda r: np.full(np.shape(r), np.nan)),
                                         constant(0.0), 0.0)),
    ], ids=["sin_kappa_inf", "sin_kappa_nan", "cubic_alpha_nan", "nan_f"])
    def test_nan_normalization_ratio_is_refused(self, make):
        # a NaN f(r)/r passed the test |ratio - 1| > 1e-3: kappa = inf gave
        # a model with r_max = 0 and v(1) = nan
        with pytest.raises(InvalidParams, match="got nan"):
            make()


class TestConjugateRadius:
    def test_unit_sphere(self):
        assert conjugate_radius(space_form(2, 1.0)) == pytest.approx(
            math.pi, abs=1e-6)

    def test_flat_infinite(self):
        assert conjugate_radius(space_form(3, 0.0)) == math.inf

    def test_kappa_four(self):
        assert conjugate_radius(space_form(2, 4.0)) == pytest.approx(
            math.pi / 2.0, abs=1e-6)

    def test_hyperbolic_certificate(self):
        assert conjugate_radius(space_form(2, -1.0)) == math.inf

    def test_no_certificate_raises(self):
        # positive-curvature profile with a zero past the declared cap
        model = space_form(2, 1e-6)
        with pytest.raises(TailInfoMissing):
            conjugate_radius(model, horizon_cap=10.0)


class TestDiameterCoherence:
    def test_sphere_bounds_ordering(self):
        # the two-zero diameter bound instantiated at the conjugate radius
        # gives 2 pi; the constants-based bound gives pi; both dominate the
        # true diameter pi, and the constants-based bound is the tighter one
        m = 2
        conj = conjugate_radius(space_form(m, 1.0))
        two_zero_bound = 2.0 * conj
        constants_bound = check_myers_galloway(m - 1.0, 0.0, m).witness[
            "diameter_bound"]
        true_diameter = math.pi
        assert two_zero_bound == pytest.approx(2 * math.pi, abs=1e-5)
        assert two_zero_bound >= true_diameter - 1e-9
        assert constants_bound >= true_diameter - 1e-9
        assert constants_bound < two_zero_bound


class TestCatalogErrors:
    def test_unknown_warping_kind(self):
        with pytest.raises(InvalidParams):
            warped_model(2, "fourier", kappa=1.0)

    def test_cubic_negative_alpha_domain(self):
        w = cubic_warping(-0.25)
        assert w.r_max == pytest.approx(2.0)
