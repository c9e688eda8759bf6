"""Zero localization, oscillation, and compactness criteria for radial
second-order problems, with certificate-producing checkers and a CLI."""

from .errors import (AtPole, ConfigError, HypothesisViolated, InvalidParams,
                     MismatchedAnchor, NonFiniteSample, NoZeroAtT2,
                     OutOfValidity, SingularStartFailure, SturmoscError,
                     TailInfoMissing, ToleranceNotMet)
from .profiles import (AsymptoticTail, CoefficientPair,
                       CurvatureProfile, Profile, add, certified_nonnegative,
                       certified_nonpositive, constant, coth_band,
                       elementwise_power, exponential, integrate, integrate_err,
                       multiply, power, reciprocal, scaled, subtract,
                       tail_divergence, tail_integral, tail_integral_converges,
                       weighted_moment)
from .ode import (FirstZeroSearch, Trajectory, ZeroCertificate,
                  extend_until_zero, locate_zeros, residual_max, solve_jacobi,
                  solve_radial)
from .riccati import (ComparisonFamily, ComparisonReport, EnvelopeKind,
                      RiccatiTrajectory, anchored_family, blow_up_time,
                      comparison_value, envelope, family_riccati,
                      riccati_from_solution, verify_comparison)
from .criteria import (Conclusion, Status, Verdict, check_ambrose_moore,
                       check_bmr, check_calabi, check_diameter_remark,
                       check_first_zero, check_leighton, check_main_B2,
                       check_moore_liminf, check_myers_galloway,
                       check_nehari, check_oscillation, first_zero_threshold,
                       search_main_B2)
from .spectral import (SpectralReport, check_yamabe, index_lower_bound,
                       instability_at_infinity, lambda1_negative,
                       rayleigh_quotient, spectral_report, yamabe_constant)
from .geometry import (ModelManifold, Warping, conjugate_radius,
                       cubic_warping, linear_warping, model_profiles,
                       sin_warping, sinh_warping, space_form, sphere_area,
                       warped_model)

__version__ = "0.1.0"
