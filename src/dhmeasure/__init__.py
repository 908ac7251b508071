"""Measures on moment images of torus actions, from fixed-point data.

Closed-form synthesis (signed cone splines), dual transform identities,
elliptic-orbit specializations for Hermitian pairs, and brute-force
verifiers that keep the closed forms honest.
"""

from .conespline import (
    DensityValue,
    Lattice,
    NonProperConeError,
    NonRegularZetaError,
    Polynomial,
    PureDeltaError,
    SignedConeSpline,
    heaviside_density,
    laplace_factor,
    spline,
    spline_density,
    spline_from_json,
    spline_laplace,
    spline_term,
    spline_to_json,
    write_density_csv,
)
from .hermitian import (
    OrbitSpec,
    OrbitValidationError,
    UnsupportedFamilyError,
    build_pair,
    k_type_measure,
    laplace_nu_symbolic,
    orbit_from_json,
    orbit_model,
    orbit_spec,
    orbit_to_json,
    t_type_measure,
    weyl_to_json,
)
from .localize import (
    FixedPointModel,
    ModelValidationError,
    NonRegularXiError,
    default_chamber,
    dh_measure,
    fixed_point,
    gamma_region,
    localization_sum,
    model,
    model_from_json,
    model_to_json,
    renormalize,
    validate_model,
)
from .oracle import (
    DensityTable,
    MonteCarloConfig,
    QuadratureConfig,
    fiber_volume,
    lattice_count,
    line_density,
    montecarlo_pushforward,
    numeric_laplace_spline,
    quadrature_convolution,
    truncated_circle_check,
)
from .polycone import (
    Cone,
    InfeasibleSetError,
    NotFullDimensionalError,
    PolyhedralSet,
    asymptotic_cone,
    bounded_below,
    cone_from_generators,
    cone_from_normals,
    cone_is_proper,
    dual_cone,
    extreme_rays,
    interior_point,
    is_compact,
    is_feasible,
    is_proper,
    polyhedron,
    proper_projection_directions,
    strict_positive_functional,
)
from .verify import SUITES, run_suites

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
