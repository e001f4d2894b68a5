"""Every exported name resolves, and the README's library tour runs, so a
deletion or a rename cannot leave a dangling export or stale docs."""
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import patternq

MODULES = ["patternq"] + sorted(
    f"patternq.{info.name}" for info in pkgutil.iter_modules(patternq.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", ()):
        getattr(module, export)


def test_readme_library_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme[readme.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README.md library tour", "exec"), {})
