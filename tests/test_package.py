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


# Adding or removing a public name is an API change: it edits this list.
PUBLIC_NAMES = [
    "AlgebraTable", "BinningScheme", "CellCounts", "CornerQuad", "DESIGN_16_CELL_VARIABLES",
    "Decomposition", "DistributionSpec", "Eigenbasis", "InternalConsistencyError",
    "LatinSquare", "OrthogonalDesign", "PowerSimConfig", "PowerSimResult",
    "ProbabilityVector", "SignedLatinSquare", "SizeError", "ValidationError",
    "ZeroDivisorPair", "alternate_signed_square_8", "bin_edges", "builtin_design_16",
    "canonical_signed_square_8", "cayley_dickson_table", "chi_square_critical",
    "choices_from_bitstring", "choices_to_bitstring", "color", "construct_latin_square",
    "decompose", "design_to_eigenbasis", "eigen_interlacing_check",
    "eigenbasis_from_latin_hadamard", "eigenbasis_from_sign_matrix", "enumerate_abba_quads",
    "enumerate_colorings", "find_zero_divisors", "is_latin_hadamard", "matched_normal_null",
    "normal_critical", "num_free_choices", "preset_probability", "radon",
    "sigma", "sigma_star", "simulate_power", "sylvester_hadamard",
    "table_from_signed_square", "verify_design",
]


def test_public_names_are_pinned():
    public = sorted(name for name, value in vars(latinhadamard).items()
                    if not name.startswith("_") and not inspect.ismodule(value))
    assert public == PUBLIC_NAMES


def test_quad_frame_stays_behind_latin_and_coloring():
    # the frame feeds one rule, latin._decide, which coloring reads through
    # SignedLatinSquare; a module that reaches the frame could decide
    # checks a second way
    sources = {module: inspect.getsource(importlib.import_module(f"latinhadamard.{module}"))
               for module in MODULES + ("cli",)}
    readers = [module for module, source in sources.items() if "_quad_frame" in source]
    assert readers == ["latin"]
