"""Numerical laboratory for localization in tilted long-range lattice models.

Builds finite-box truncations of Hermitian hopping operators with a uniform
electric field (or a Maryland-type potential) and bounded perturbations,
diagonalizes them with quality gates, and measures three localization
signatures: eigenvalue pinning to the ladder of field values, uniform
power-law decay of eigenfunctions, and time-uniform bounds on wave-packet
spreading moments.
"""

from ._version import __version__
from .kernels import (HoppingKernel, KernelError, WeightedNorm, build_kernel,
                      custom_kernel, finite_support, nearest_neighbor,
                      power_law, weighted_norm)
from .operators import (ConstantPerturbation, DimensionOverflowError,
                        ExplicitPerturbation, MarylandPotential,
                        MarylandResonanceError, NoPerturbation,
                        PeriodicPerturbation, PotentialError, PotentialSpec,
                        TruncatedOperator, UniformRandomPerturbation,
                        build_operator)
from .spectra import (ConvergenceFailureError, SpectralData,
                      default_interior_window, diagonalize, load_spectral,
                      save_spectral)
from .localization import (AsymptoticsReport, BootstrapReport,
                           BootstrapViolation, NoInteriorModesError,
                           UniformDecayReport, WrongPotentialFamilyError,
                           bootstrap_decay_check,
                           check_eigenvalue_asymptotics,
                           uniform_decay_constants)
from .dynamics import (EnvelopeBound, MomentBoundVerdict, MomentSeries,
                       SourceOutsideInteriorError, envelope,
                       moment_bound_verdict, moment_series, time_grid)
from .experiments import (ConfigError, ExperimentConfig, RunManifest,
                          StageRecord, load_config, parse_config, run)

__all__ = [
    "__version__",
    # kernels
    "HoppingKernel", "KernelError", "WeightedNorm", "build_kernel",
    "custom_kernel", "finite_support", "nearest_neighbor", "power_law",
    "weighted_norm",
    # operators
    "ConstantPerturbation", "DimensionOverflowError", "ExplicitPerturbation",
    "MarylandPotential", "MarylandResonanceError", "NoPerturbation",
    "PeriodicPerturbation", "PotentialError", "PotentialSpec",
    "TruncatedOperator", "UniformRandomPerturbation", "build_operator",
    # spectra
    "ConvergenceFailureError", "SpectralData", "default_interior_window",
    "diagonalize", "load_spectral", "save_spectral",
    # localization
    "AsymptoticsReport", "BootstrapReport", "BootstrapViolation",
    "NoInteriorModesError", "UniformDecayReport",
    "WrongPotentialFamilyError", "bootstrap_decay_check",
    "check_eigenvalue_asymptotics", "uniform_decay_constants",
    # dynamics
    "EnvelopeBound", "MomentBoundVerdict", "MomentSeries",
    "SourceOutsideInteriorError", "envelope", "moment_bound_verdict",
    "moment_series", "time_grid",
    # experiments
    "ConfigError", "ExperimentConfig", "RunManifest", "StageRecord",
    "load_config", "parse_config", "run",
]
