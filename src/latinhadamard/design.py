"""Orthogonal designs read off colorings, and the 16-cell decomposition.

No 16x16 signed Latin square has fully orthogonal columns when all
sixteen symbols are independent.  Tying symbols to shared variables
("imposing relations on the cell probabilities") can restore it: a
design is a coloring of the structured square together with a map phi
from symbols to variables, and its entry (i, j) is +/-x_phi(S[i, j]).
The built-in order-16 design on nine variables is the all-plus coloring
with symbols 10..16 tied to x_2..x_8.  Its defining identity
A A' = (sum_i s_i x_i^2) I is certified on the AB-BA quad kernel: in a
row pair, each quad with sign product -1 cancels its own two terms, so
the identity holds exactly when the remaining terms cancel within each
monomial.  The transpose of such a design, with x_i <- sqrt(p_i), is an
orthonormal eigenbasis, so the component decomposition carries over
with those relations imposed.
"""

from __future__ import annotations

import numpy as np

from .chisq import Eigenbasis, ProbabilityVector
from .coloring import SignedLatinSquare, color, num_free_choices
from .errors import ValidationError
from .latin import _screen, construct_latin_square

__all__ = ["OrthogonalDesign", "builtin_design_16", "verify_design",
           "design_to_eigenbasis", "DESIGN_16_CELL_VARIABLES"]


class OrthogonalDesign:
    """A signed Latin square whose symbols are tied to variables x_1..x_l.

    ``variables[a - 1]`` is the variable of symbol a.  ``entries`` holds
    signed variable indices, diag(1, -1, ..., -1) (signs * phi(S)): the
    row negation puts +x_1 on the diagonal.  Each row holds each symbol
    once, so the type vector s counts the symbols tied to each variable.
    """

    __slots__ = ("signed", "variables", "order", "num_vars", "entries", "type")

    def __init__(self, signed: SignedLatinSquare, variables):
        n = signed.n
        phi = _screen(variables, "variables (one per symbol)", 1, n, (n,))
        l = int(phi.max())
        if not np.array_equal(np.unique(phi), np.arange(1, l + 1)):
            raise ValidationError("variable indices must be 1..l without gaps")
        rows = np.full(n, -1, dtype=np.int64)
        rows[0] = 1
        entries = rows[:, None] * signed.signs * phi[signed.square.entries - 1]
        entries.setflags(write=False)
        phi.setflags(write=False)
        self.signed = signed
        self.variables = phi
        self.order = n
        self.num_vars = l
        self.entries = entries
        self.type = tuple(int(c) for c in np.bincount(phi)[1:])

    def __repr__(self) -> str:
        return f"OrthogonalDesign(order={self.order}, num_vars={self.num_vars})"


# Variable of each of the 16 symbols: symbols 1..9 are x_1..x_9 and
# symbols 10..16 repeat x_2..x_8.
DESIGN_16_CELL_VARIABLES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 2, 3, 4, 5, 6, 7, 8)


def builtin_design_16() -> OrthogonalDesign:
    """The order-16, nine-variable design: the all-plus w=4 coloring."""
    return OrthogonalDesign(color(construct_latin_square(4), (1,) * num_free_choices(4)),
                            DESIGN_16_CELL_VARIABLES)


def verify_design(design: OrthogonalDesign) -> bool:
    """Symbolically check A A' = (sum_i s_i x_i^2) I over exact integers.

    The diagonal holds by construction.  Off the diagonal, the terms of
    a row pair that survive the quads with sign product -1 must cancel
    within each unordered variable monomial: a closed quad with product
    +1 leaves its terms at both of its columns k and l, and an open
    corner leaves its term at column k.  Only these terms are summed, by
    flat key (i, j, min, max), so memory follows the number of terms.
    """
    S = design.signed.square.entries
    G = design.signed.signs
    n, m = design.order, design.num_vars + 1
    quads, open_corners, _, product, _, _ = design.signed._decision
    plus = quads[product == 1]
    i = np.concatenate((plus[:, 0], plus[:, 0], open_corners[:, 0]))
    j = np.concatenate((plus[:, 1], plus[:, 1], open_corners[:, 1]))
    k = np.concatenate((plus[:, 2], plus[:, 3], open_corners[:, 2]))
    a = design.variables[S[i, k] - 1]
    b = design.variables[S[j, k] - 1]
    key = ((i * n + j) * m + np.minimum(a, b)) * m + np.maximum(a, b)
    _, term_key = np.unique(key, return_inverse=True)
    return not np.bincount(term_key, weights=G[i, k] * G[j, k]).any()


def design_to_eigenbasis(design: OrthogonalDesign, p_vars) -> Eigenbasis:
    """Substitute x_i <- sqrt(p_vars_i) and transpose into an eigenbasis.

    The variable probabilities must be strictly positive and satisfy
    sum_i s_i * p_vars_i = 1 so that the columns have unit norm; cell a
    has probability p_vars of the variable its symbol is tied to.
    """
    values = _screen(p_vars, "variable probabilities", shape=(design.num_vars,))
    # phi has no gaps, so every variable is some cell's probability, and
    # the cells sum to sum_i s_i * p_vars_i: their checks cover p_vars.
    p = ProbabilityVector(values[design.variables - 1])
    A = design.entries
    substituted = np.sign(A) * np.sqrt(values)[np.abs(A) - 1]
    return Eigenbasis(substituted.T, p)
