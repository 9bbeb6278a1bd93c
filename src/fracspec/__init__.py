"""Spectral fractional Laplacian and p-Laplacian solvers on unbounded domains.

Collocation uses first-kind Chebyshev angles transported to the real line by
a cotangent map, giving trigonometric differentiation matrices whose
eigendecompositions stay well conditioned.  Fractional powers act entrywise
on the eigenvalue tensor; the nonlinear p-Laplacian reduces pointwise to the
linear operator applied to odd-power difference fields; an RK4 driver
integrates the associated evolution equation into self-similar variables.
"""

from .errors import (
    DegenerateExponent,
    NoConvergence,
    NonFiniteState,
    NumericalContractError,
    PoleError,
    PositiveEigenvalue,
    PositiveEntry,
    QuadratureError,
    SingularMatrix,
)
from .grid import (
    DiffMatrices,
    Grid1D,
    angular_first_deriv_row,
    angular_second_deriv_row,
    build_diff_matrices,
    differentiate,
    folded_rows,
    make_grid,
)
from .eigen import SpectralFactor, condition_number, factorize
from .tensor_ops import (
    eigen_sum_tensor,
    hadamard_pow_neg,
    mode_product,
    read_field_csv,
    write_field_csv,
)
from .fields import gaussian_field, lorentzian_field, radius_squared
from .oracles import (
    HypergeometricResult,
    IntegralCheck,
    exact_fraclap_algebraic,
    exact_fraclap_gaussian,
    gamma_fn,
    hyp1f1,
    hyp2f1,
    resolvent_integral_oracle,
    self_checks,
    semigroup_integral_oracle,
)
from .fraclap import (
    FracLapOperator,
    apply_fraclap,
    build_axis_factors,
    build_fraclap,
    from_eigenbasis,
    to_eigenbasis,
)
from .fracplap import (
    FracPOperator,
    apply_plap,
    apply_plap_pointwise,
    build_fracplap,
    plap_constant,
    signed_power,
)
from .evolution import (
    EvolutionConfig,
    SelfSimilarParams,
    Snapshot,
    config_grids,
    load_config,
    quad_mass,
    rescale_section,
    rk4_step,
    run_evolution,
    section_overlap_distance,
    self_similar_params,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateExponent",
    "DiffMatrices",
    "EvolutionConfig",
    "FracLapOperator",
    "FracPOperator",
    "Grid1D",
    "HypergeometricResult",
    "IntegralCheck",
    "NoConvergence",
    "NonFiniteState",
    "NumericalContractError",
    "PoleError",
    "PositiveEigenvalue",
    "PositiveEntry",
    "QuadratureError",
    "SelfSimilarParams",
    "SingularMatrix",
    "Snapshot",
    "SpectralFactor",
    "angular_first_deriv_row",
    "angular_second_deriv_row",
    "apply_fraclap",
    "apply_plap",
    "apply_plap_pointwise",
    "build_axis_factors",
    "build_diff_matrices",
    "build_fraclap",
    "build_fracplap",
    "condition_number",
    "config_grids",
    "differentiate",
    "eigen_sum_tensor",
    "exact_fraclap_algebraic",
    "exact_fraclap_gaussian",
    "factorize",
    "folded_rows",
    "from_eigenbasis",
    "gamma_fn",
    "gaussian_field",
    "hadamard_pow_neg",
    "hyp1f1",
    "hyp2f1",
    "load_config",
    "lorentzian_field",
    "make_grid",
    "mode_product",
    "plap_constant",
    "quad_mass",
    "radius_squared",
    "read_field_csv",
    "rescale_section",
    "resolvent_integral_oracle",
    "rk4_step",
    "run_evolution",
    "section_overlap_distance",
    "self_checks",
    "self_similar_params",
    "semigroup_integral_oracle",
    "signed_power",
    "to_eigenbasis",
    "write_field_csv",
]
