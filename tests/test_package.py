import importlib
import inspect

import pytest

import latinhadamard
from latinhadamard import errors

# The library modules; cli is the command-line entry point and is not re-exported.
MODULES = ("algebra", "chisq", "coloring", "design", "latin", "power")


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_in_the_package_namespace(module):
    names = importlib.import_module(f"latinhadamard.{module}").__all__
    missing = [name for name in names if not hasattr(latinhadamard, name)]
    assert not missing, f"latinhadamard.{module}.__all__ names {missing}, not re-exported"


def test_every_package_name_comes_from_a_module():
    # a stale re-export, such as a removed function still imported in
    # __init__.py, shows up here
    public = set(vars(errors)).union(
        *(importlib.import_module(f"latinhadamard.{module}").__all__ for module in MODULES))
    stray = [name for name, value in vars(latinhadamard).items()
             if not name.startswith("_") and not inspect.ismodule(value) and name not in public]
    assert not stray, f"latinhadamard exports {stray}, which no module's __all__ names"
