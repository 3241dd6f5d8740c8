import importlib

import pytest

import latinhadamard

# The library modules; cli is the command-line entry point and is not re-exported.
MODULES = ("algebra", "chisq", "coloring", "design", "latin", "power")


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_in_the_package_namespace(module):
    names = importlib.import_module(f"latinhadamard.{module}").__all__
    missing = [name for name in names if not hasattr(latinhadamard, name)]
    assert not missing, f"latinhadamard.{module}.__all__ names {missing}, not re-exported"
