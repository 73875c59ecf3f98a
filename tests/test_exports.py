"""Every name a module exports through ``__all__`` resolves, and the
package's public surface is exactly the names the README lists."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import spdefem

MODULES = ["spdefem"] + [f"spdefem.{info.name}"
                         for info in pkgutil.iter_modules(spdefem.__path__)]

PUBLIC = {
    # configs and studies
    "load_config", "parse_config", "ConfigError", "StudyConfig",
    "run_study", "run_strong_study", "run_weak_study",
    "run_splitting_dt_study", "run_moment_study", "run_operator_study",
    "simulate_trajectory",
    # reports and fits
    "RateReport", "MomentReport", "FitResult", "fit_rate",
    "growth_exponent", "envelope_exponent",
    # weak functionals and their Gaussian oracle
    "FUNCTIONALS", "evaluate_functional", "default_initial_profile",
    "linear_weak_reference",
    # the model pieces
    "Mesh1D", "uniform_mesh", "FemSpace", "L2Comparer", "SpectralBasis",
    "operator_error_norm", "CovarianceSpec", "implied_beta",
    "PolynomialDrift", "SchemeConfig", "Integrator", "IntegrationError",
    "tangent_integrate",
    # randomness and the self-test
    "substream", "substream_key", "run_selftest", "SelfTestResult",
    "__version__",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


def test_public_surface_is_pinned():
    assert len(spdefem.__all__) == len(PUBLIC)
    assert set(spdefem.__all__) == PUBLIC


def test_readme_library_use_lists_the_public_surface():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library use", 1)[1]
    section = section.split("\n## ", 1)[0]
    named = {name for name in re.findall(r"`([^`\n]+)`", section)
             if name.isidentifier()}
    assert named == PUBLIC
