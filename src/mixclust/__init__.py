"""Robust normal-mixture clustering via density-power downweighting.

Public surface: the Gaussian kernels, single-component robust fitting, the
eigenvalue constraints, the full clustering algorithm, influence
diagnostics for the univariate two-component functional, the simulation
harness and the image-segmentation pipeline.
"""

from .clustering import (
    AlgoConfig,
    ClusteringResult,
    MixtureParams,
    assign,
    detect_outliers,
    fit,
    fit_single,
    initialize,
    pseudo_beta_likelihood,
    update_weights,
)
from .constraints import ConstraintConfig, check_constraints, enforce_constraints
from .errors import (
    ConstraintBoundaryError,
    DegenerateClusteringError,
    DimensionMismatchError,
    GeometryError,
    ImageFormatError,
    MixclustError,
    NonPositiveDenominatorError,
    NotPositiveDefiniteError,
    SamplingError,
    SchemaError,
    SolveError,
)
from .gaussian import (
    GaussianComponent,
    component_beta_objective,
    dpd_integral,
    log_density,
    mahalanobis_sq,
)
from .imageseg import PixelGrid, SegmentationResult, load_image, reconstruct, segment
from .mdpde import (
    ComponentFit,
    IrlsConfig,
    estimating_equation_residual,
    fit_component,
    irls_step,
    irls_weights,
    robust_init,
)
from .simulation import (
    LabeledSample,
    ScenarioSpec,
    SimulationReport,
    bias_mse,
    contaminate_annulus,
    contaminate_outlying_cluster,
    contaminate_uniform_chisq,
    gen_pure,
    generate,
    paper_design,
    regular_misclassification,
    run_experiment,
    undetected_outlier_proportion,
)

__version__ = "0.1.0"

# Served on first access (PEP 562): influence needs scipy, which costs more
# start-up time than the rest of the package, and nothing else loads it.
_INFLUENCE_NAMES = ("FunctionalSolution", "TrueDistribution", "assemble_if_system",
                    "if_curve", "influence_at", "numeric_if_oracle", "solve_functional")


def __getattr__(name):
    if name in _INFLUENCE_NAMES:
        from . import influence

        return getattr(influence, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_INFLUENCE_NAMES))
