"""Signed Latin squares, Pearson chi-square components, and the algebra
that decides when they exist.

The package constructs structured power-of-two Latin squares, enumerates
their +/-1 colorings, certifies symbolic orthogonality, connects valid
colorings to division algebras and zero divisors, builds the order-16
nine-variable orthogonal design, and decomposes the Pearson statistic
into asymptotically independent single-degree components with a seeded
Monte Carlo power harness.
"""

from .algebra import (AlgebraTable, ZeroDivisorPair, cayley_dickson_table,
                      find_zero_divisors, radon, table_from_signed_square)
from .chisq import (CellCounts, Decomposition, Eigenbasis, ProbabilityVector,
                    alternate_signed_square_8, canonical_signed_square_8, decompose,
                    eigen_interlacing_check, eigenbasis_from_latin_hadamard,
                    eigenbasis_from_sign_matrix, sigma, sigma_star, sylvester_hadamard)
from .coloring import (SignedLatinSquare, choices_from_bitstring,
                       choices_to_bitstring, color, enumerate_colorings,
                       is_latin_hadamard, num_free_choices)
from .design import (DESIGN_16_CELL_VARIABLES, OrthogonalDesign, builtin_design_16,
                     design_to_eigenbasis, verify_design)
from .errors import InternalConsistencyError, SizeError, ValidationError
from .latin import CornerQuad, LatinSquare, construct_latin_square, enumerate_abba_quads
from .power import (BinningScheme, DistributionSpec, PowerSimConfig, PowerSimResult,
                    bin_edges, chi_square_critical, matched_normal_null,
                    normal_critical, preset_probability, simulate_power)

__version__ = "0.1.0"
