"""Shape-preserving multivariate wavelet density estimation.

The estimator targets the square root of the density: its wavelet
coefficients are estimated from nearest-neighbour ball volumes, the
reconstruction is squared (hence never negative), and a coefficient-space
normalization enforces unit mass exactly.  The package also ships the
classical linear wavelet estimator as a baseline, grid-based ISE/MISE
diagnostics, truncated Gaussian-mixture ground truths, and a seeded
Monte-Carlo benchmark harness.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetError,
    ConfigurationError,
    DataError,
    DegenerateModelError,
    EstimationError,
    KConsistencyWarning,
    WavedensError,
)
from .wavelets import (
    BasisIndex,
    WaveletFamily,
    build_family,
    cached_family,
    daubechies_filter,
)
from .neighbors import (
    KCondition,
    NeighborStats,
    knn_stats,
    unit_ball_volume,
    validate_k,
)
from .estimator import (
    AffineMap,
    CoefficientSet,
    DensityModel,
    EstimatorConfig,
    consistency_factor,
    dilation_coefficients,
    estimate_coefficient_sets,
    estimate_coefficients,
    fit_model,
    model_from_file,
    normalization_mass,
    normalize,
    read_coefficients,
    rescale_to_domain,
    soft_threshold,
    truncate_details,
    write_coefficients,
)
from .classical import (
    classical_coefficients,
    fit_classical,
    rescale_classical,
)
from .metrics import Field, GridSpec, grid_eval, ise, mass, mise_aggregate, negative_mass
from .simulation import (
    BenchmarkConfig,
    BenchmarkReport,
    MixtureSpec,
    MomentCheck,
    exp_law_check,
    get_density,
    ks_exponential,
    make_mixture,
    moment_identity_check,
    replication_rng,
    run_benchmark,
    sample_mixture,
    true_density_field,
)

__all__ = [name for name in dir() if not name.startswith("_")]
