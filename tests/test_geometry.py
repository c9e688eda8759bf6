import math

import numpy as np
import pytest

from sturmosc import (InvalidParams, ModelManifold, TailInfoMissing,
                      check_myers_galloway, conjugate_radius, cubic_warping,
                      linear_warping, model_profiles, sin_warping,
                      sinh_warping, space_form, sphere_area, warped_model)


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

    @pytest.mark.parametrize("alpha,sign", [(0.0, "nonnegative"), (0.5, "nonpositive")])
    def test_cubic_sign_from_the_catalog(self, alpha, sign):
        # K = -6 alpha / (1 + alpha r^2) lies in [-6 alpha, 0]: the declared
        # bounds give the sign, the lower one first, so K = 0 stays nonnegative
        w = cubic_warping(alpha)
        assert (w.curvature_lower, w.curvature_upper) == (-6.0 * alpha, 0.0)
        k, _ = model_profiles(ModelManifold(2, w))
        assert k.k.sign == sign
        if alpha > 0:
            assert conjugate_radius(ModelManifold(2, w)) == math.inf


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
