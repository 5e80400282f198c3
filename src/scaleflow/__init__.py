"""Scaling-group flows on R^N, verified at desk scale by quadrature.

The package builds, from one of three canonical scaling groups, concrete
absorbing group actions on R^N, measures that transform homogeneously
under them, mean values of bounded oscillating functions, finite spectral
homogenization algebras, and two-scale (sigma) limits of oscillating
traces; every identity it implements is double-checked numerically against
independent closed forms.
"""

from .actions import (
    Ball,
    DiagonalScaling,
    ExpSemigroup,
    LinearFamily,
    ProductAction,
    certify_absorption,
    certify_escape,
    certify_group_law,
    matrix_exponential,
    product,
)
from .algebra import (
    AlgebraElement,
    HAlgebra,
    TruncationOverflowError,
    spectral_pairing,
    gelfand_mean,
)
from .contraction import certify_submultiplicative, fixed_point
from .groups import (
    INTEGER_ADDITIVE,
    POSITIVE_MULTIPLICATIVE,
    REAL_ADDITIVE,
    RGroup,
)
from .meanvalue import (
    MeanFunction,
    empirical_mean,
    mean,
    verify_convolution,
    verify_translation_invariance,
)
from .measures import (
    ConstructedMeasure,
    Homogenizer,
    Lebesgue,
    PointMass,
    SupportEscapeError,
    TestFunction,
    bump,
    construct_measure,
    default_battery,
    gaussian,
    integrate,
    mollifier,
    parabola,
    pushforward_pairing,
    triangle,
    verify_center_null,
    verify_homogeneity,
)
from .quadrature import Box, GridSpec, QuadratureGrid, UnderResolvedError
from .sigma import (
    TwoScaleField,
    sigma_pairing_lhs,
    sigma_pairing_rhs,
    trace_norm_bound_check,
    verify_sigma_convergence,
)
from .trig import TrigPolynomial

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "Box",
    "AlgebraElement",
    "ConstructedMeasure",
    "DiagonalScaling",
    "ExpSemigroup",
    "GridSpec",
    "HAlgebra",
    "Homogenizer",
    "INTEGER_ADDITIVE",
    "Lebesgue",
    "LinearFamily",
    "MeanFunction",
    "POSITIVE_MULTIPLICATIVE",
    "PointMass",
    "ProductAction",
    "QuadratureGrid",
    "REAL_ADDITIVE",
    "RGroup",
    "SupportEscapeError",
    "TestFunction",
    "TrigPolynomial",
    "TruncationOverflowError",
    "TwoScaleField",
    "UnderResolvedError",
    "spectral_pairing",
    "bump",
    "certify_absorption",
    "certify_escape",
    "certify_group_law",
    "certify_submultiplicative",
    "construct_measure",
    "default_battery",
    "empirical_mean",
    "fixed_point",
    "gaussian",
    "gelfand_mean",
    "integrate",
    "matrix_exponential",
    "mean",
    "mollifier",
    "parabola",
    "product",
    "pushforward_pairing",
    "sigma_pairing_lhs",
    "sigma_pairing_rhs",
    "trace_norm_bound_check",
    "triangle",
    "verify_center_null",
    "verify_convolution",
    "verify_homogeneity",
    "verify_sigma_convergence",
    "verify_translation_invariance",
    "__version__",
]
