"""Finite element rate studies for semilinear stochastic heat equations.

The public names load their modules when first used, so ``import
spdefem`` imports neither numpy nor scipy.  That lets the command-line
front end (``spdefem.cli``) pin the BLAS thread count before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "SpectralBasis": "spectral",
    "FemSpace": "fem", "L2Comparer": "fem", "operator_error_norm": "fem",
    "substream": "rng", "substream_key": "rng",
    "CovarianceSpec": "noise",
    "PolynomialDrift": "dynamics", "SchemeConfig": "dynamics",
    "Integrator": "dynamics", "IntegrationError": "dynamics",
    "tangent_integrate": "dynamics",
    "ConfigError": "config", "load_config": "config",
    "parse_config": "config",
    "SelfTestResult": "selftest", "run_selftest": "selftest",
    "StudyConfig": "experiments", "RateReport": "experiments",
    "MomentReport": "experiments", "FitResult": "experiments",
    "fit_rate": "experiments", "run_study": "experiments",
    "simulate_trajectory": "experiments",
    "linear_weak_reference": "experiments",
    "default_initial_profile": "experiments",
    "evaluate_functional": "experiments", "growth_exponent": "experiments",
    "envelope_exponent": "experiments", "FUNCTIONALS": "experiments",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    # only public names resolve here; any other name, a submodule's
    # included, raises AttributeError, which is what lets
    # ``from spdefem import cli`` fall through to importing the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                    name)
    globals()[name] = value
    return value
