"""Every name a module exports through ``__all__`` resolves, the
package's public surface is exactly the names the README lists, and the
demos import only public names."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import spdefem

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["spdefem"] + [f"spdefem.{info.name}"
                         for info in pkgutil.iter_modules(spdefem.__path__)]

PUBLIC = {
    # configs and studies
    "load_config", "parse_config", "ConfigError", "StudyConfig",
    "run_study", "simulate_trajectory",
    # reports and fits
    "RateReport", "MomentReport", "FitResult", "fit_rate",
    "growth_exponent", "envelope_exponent",
    # weak functionals and their Gaussian oracle
    "FUNCTIONALS", "evaluate_functional", "default_initial_profile",
    "linear_weak_reference",
    # the model pieces
    "FemSpace", "L2Comparer", "SpectralBasis", "operator_error_norm",
    "CovarianceSpec",
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
    readme = ROOT / "README.md"
    section = readme.read_text().split("## Library use", 1)[1]
    section = section.split("\n## ", 1)[0]
    named = {name for name in re.findall(r"`([^`\n]+)`", section)
             if name.isidentifier()}
    assert named == PUBLIC


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.stem)
def test_demo_imports_are_public(demo):
    # parsed, not run: the demos take minutes
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "spdefem"]
    assert imports
    for node in imports:
        assert node.module == "spdefem"
        assert {alias.name for alias in node.names} <= set(spdefem.__all__)
