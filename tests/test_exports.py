"""Every name a module exports through ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import spdefem

MODULES = ["spdefem"] + [f"spdefem.{info.name}"
                         for info in pkgutil.iter_modules(spdefem.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []
