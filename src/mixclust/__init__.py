"""Robust normal-mixture clustering via density-power downweighting.

Public surface: the Gaussian kernels, single-component robust fitting, the
eigenvalue constraints, the full clustering algorithm, influence
diagnostics for the univariate two-component functional, the simulation
harness and the image-segmentation pipeline.

Every public name is served from its module on first access (PEP 562), so
``import mixclust`` loads no numpy: the ``mixclust`` program sets its BLAS
thread count first (:mod:`mixclust.__main__`).
"""

from importlib import import_module

__version__ = "0.1.0"

# Module -> the public names it defines.
_PUBLIC = {
    "clustering": ("AlgoConfig", "ClusteringResult", "MixtureParams", "assign",
                   "detect_outliers", "discriminants", "fit", "fit_single", "initialize",
                   "pseudo_beta_likelihood", "update_weights"),
    "constraints": ("ConstraintConfig", "enforce_constraints"),
    "errors": ("ConstraintBoundaryError", "DegenerateClusteringError",
               "DimensionMismatchError", "GeometryError", "ImageFormatError",
               "MixclustError", "NonPositiveDenominatorError", "NotPositiveDefiniteError",
               "SamplingError", "SchemaError", "SolveError"),
    "gaussian": ("GaussianComponent", "dpd_integral", "log_density", "mahalanobis_sq"),
    "imageseg": ("PixelGrid", "load_image", "reconstruct", "segment"),
    "influence": ("FunctionalSolution", "TrueDistribution", "assemble_if_system", "if_curve",
                  "solve_functional"),
    "mdpde": ("ComponentFit", "fit_component", "irls_step", "irls_weights", "robust_init"),
    "simulation": ("ScenarioSpec", "SimulationReport", "bias_mse", "contaminate_annulus",
                   "contaminate_outlying_cluster", "contaminate_uniform_chisq", "generate",
                   "regular_misclassification", "run_experiment",
                   "undetected_outlier_proportion"),
}
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _PUBLIC:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SOURCE) | set(_PUBLIC))
