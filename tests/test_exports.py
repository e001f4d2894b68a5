"""Every exported name resolves, so a deletion cannot leave a dangling export."""
import importlib
import pkgutil

import pytest

import patternq

MODULES = ["patternq"] + sorted(
    f"patternq.{info.name}" for info in pkgutil.iter_modules(patternq.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", ()):
        getattr(module, export)
