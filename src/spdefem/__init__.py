"""Finite element rate studies for semilinear stochastic heat equations."""

from .spectral import SpectralBasis
from .fem import (Mesh1D, FemSpace, L2Comparer, uniform_mesh,
                  operator_error_norm)
from .rng import substream, substream_key
from .noise import CovarianceSpec, implied_beta
from .dynamics import (PolynomialDrift, SchemeConfig, Integrator,
                       IntegrationError, tangent_integrate)
from .config import ConfigError, load_config, parse_config
from .selftest import SelfTestResult, run_selftest
from .experiments import (StudyConfig, RateReport, MomentReport, FitResult,
                          fit_rate, run_study, simulate_trajectory,
                          linear_weak_reference,
                          default_initial_profile, evaluate_functional,
                          growth_exponent, envelope_exponent, FUNCTIONALS)

__version__ = "0.1.0"

__all__ = [
    "SpectralBasis", "Mesh1D", "FemSpace", "L2Comparer", "uniform_mesh",
    "operator_error_norm", "substream",
    "substream_key", "CovarianceSpec", "implied_beta",
    "PolynomialDrift", "SchemeConfig", "Integrator", "IntegrationError",
    "tangent_integrate",
    "StudyConfig", "RateReport", "MomentReport", "FitResult", "fit_rate",
    "run_study", "simulate_trajectory", "linear_weak_reference",
    "default_initial_profile", "evaluate_functional", "growth_exponent",
    "envelope_exponent", "FUNCTIONALS",
    "__version__",
    "ConfigError",
    "load_config",
    "parse_config",
    "SelfTestResult",
    "run_selftest",
]
