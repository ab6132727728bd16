"""Pseudospectral construction of mild solutions for the hyperdissipative
semilinear heat equation du/dt + (-Laplace)^alpha u = |u|^(r-1) u on a
periodic grid, with the quantitative machinery around it: the dissipative
semigroup and its smoothing rates, dyadic smoothness norms, weighted
trajectory norms with admissibility bookkeeping, a Duhamel fixed-point
solver cross-validated by an exponential integrator, and reproducible
verification experiments behind a CLI.
"""

from .config import (EXPERIMENTS, ExperimentConfig, config_digest, default_config,
                     emit_config, load_config, parse_config)
from .dyadic import (DyadicDecomposition, SpaceParams, a_norm, block, build_decomposition,
                     radial_profile, smooth_step)
from .errors import (BlowupSuspectedError, ConfigError, HyperheatError,
                     InconsistentGridError, IntegrationError, ParameterError,
                     SymmetryError)
from .fields import (band_limit, cosine_mode, power_spectrum_field,
                     radial_power_field, random_band_limited, spectrum_field)
from .grid import (RealField, SpectralField, TorusGrid, constant_field, fft_workers,
                   forward_transform, inverse_transform, lp_norm, nyquist_mask,
                   zero_field)
from .records import Check, ResultRecord, Series, emit_results
from .semigroup import (ModelParams, SmoothingReport, apply_semigroup,
                        dissipation_symbol, semigroup_property_check,
                        smoothing_rate, synthesize_kernel)
from .solver import (PicardReport, SolverConfig, aliasing_probe, duhamel_apply,
                     etd_oracle, nonlinearity, pde_residual, phi1, phi2, picard_solve,
                     slab_times, strong_convergence_check)
from .timenorms import (Admissibility, TimeWeight, Trajectory, WeightedNormResult,
                        admissibility, equivalence_check,
                        log_time_grid, weighted_norm)
from .experiments import run_experiment

__version__ = "0.1.0"

__all__ = [
    "EXPERIMENTS", "ExperimentConfig", "config_digest", "default_config",
    "emit_config", "load_config", "parse_config",
    "DyadicDecomposition", "SpaceParams", "a_norm", "block", "build_decomposition",
    "radial_profile", "smooth_step",
    "BlowupSuspectedError", "ConfigError", "HyperheatError",
    "InconsistentGridError", "IntegrationError", "ParameterError", "SymmetryError",
    "band_limit", "cosine_mode", "power_spectrum_field", "radial_power_field",
    "random_band_limited", "spectrum_field",
    "RealField", "SpectralField", "TorusGrid", "constant_field", "fft_workers",
    "forward_transform", "inverse_transform", "lp_norm", "nyquist_mask", "zero_field",
    "Check", "ResultRecord", "Series", "emit_results",
    "ModelParams", "SmoothingReport", "apply_semigroup", "dissipation_symbol",
    "semigroup_property_check", "smoothing_rate", "synthesize_kernel",
    "PicardReport", "SolverConfig", "aliasing_probe", "duhamel_apply", "etd_oracle",
    "nonlinearity", "pde_residual", "phi1", "phi2", "picard_solve", "slab_times",
    "strong_convergence_check",
    "Admissibility", "TimeWeight", "Trajectory", "WeightedNormResult",
    "admissibility", "equivalence_check", "log_time_grid",
    "weighted_norm",
    "run_experiment",
    "__version__",
]
