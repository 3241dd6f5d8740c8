"""Doubling algebras, zero-divisor scanning, and Radon's function.

Each algebra is given by its basis multiplication table: e_i * e_j is a
signed basis element.  Every table is read from a signed Latin square,
whose entries are the signed products; the classical doubling algebras
(complex numbers, quaternions, octonions, sedenions, ...) are the
all-plus colorings of the structured square.  Zero divisors of the form
(e_i +/- e_j)(e_k +/- e_l), which for dimension up to 16 are the only
kind, are read off the exact sign product of each AB-BA quad of the
table.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .coloring import SignedLatinSquare, color, num_free_choices
from .errors import SizeError, ValidationError
from .latin import construct_latin_square, quad_sign_products

__all__ = ["AlgebraTable", "ZeroDivisorPair", "cayley_dickson_table",
           "table_from_signed_square", "find_zero_divisors", "radon"]

class AlgebraTable:
    """Basis multiplication table: e_i * e_j = signs[i,j] * e_{indices[i,j]}.

    1-based basis labels; e_1 is the unit and every other basis element
    squares to -e_1.  Indices and signs are those of the signed square,
    which has already checked the Latin property and the signs; the unit
    structure of its square decides the rest.
    """

    __slots__ = ("dim", "signs", "indices")

    def __init__(self, signed: SignedLatinSquare):
        unit, squares_to_unit = signed.square.unit_structure
        if not unit:
            raise ValidationError("e_1 must act as a two-sided unit")
        if not squares_to_unit:
            raise ValidationError("non-unit basis elements must square to -e_1")
        self.dim, self.signs, self.indices = signed.n, signed.signs, signed.square.entries

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgebraTable)
                and np.array_equal(self.signs, other.signs)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self) -> int:
        return hash((self.signs.tobytes(), self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"AlgebraTable(dim={self.dim})"


class ZeroDivisorPair(NamedTuple):
    """(e_i + s1*e_j)(e_k + s2*e_l) = 0, all indices >= 2, 1-based."""

    i: int
    j: int
    s1: int
    k: int
    l: int
    s2: int

    def __str__(self) -> str:
        left = "+" if self.s1 > 0 else "-"
        right = "+" if self.s2 > 0 else "-"
        return (f"(e_{self.i} {left} e_{self.j})"
                f"(e_{self.k} {right} e_{self.l}) = 0")


def cayley_dickson_table(m: int) -> AlgebraTable:
    """Multiplication table of the 2**m-dimensional doubling algebra.

    Doubling rule on pairs: (a, b)(c, d) = (a c - conj(d) b, d a + b conj(c)),
    with conjugation negating every non-unit coordinate.  This sign
    convention reproduces the usual quaternion relations ij = k, ji = -k.
    """
    if m > 5:
        raise SizeError("tables above dimension 32 are not supported")
    # The all-plus sign doubling of the structured square is this rule:
    # the quadrant-by-quadrant oracle in the tests gives the same table.
    square = construct_latin_square(m)
    return AlgebraTable(color(square, (1,) * num_free_choices(square.w)))


def table_from_signed_square(H: SignedLatinSquare) -> AlgebraTable:
    """Read a signed Latin square as a basis multiplication table."""
    return AlgebraTable(H)


def find_zero_divisors(table: AlgebraTable):
    """Yield all zero divisors of the form (e_i +/- e_j)(e_k +/- e_l).

    Indices run over 2 <= i < j and 2 <= k < l.  In a Latin table the
    four terms of the product can only cancel crosswise, so (i, j) and
    (k, l) must span an AB-BA quad; the product then vanishes exactly
    when the quad's sign product is +1, with s1 = +1 or -1 and
    s2 = -s1 * G[j,k] * G[i,l].  Order: by (i, j, k), then s1 = +1
    first.  For dimension <= 16 this sum-of-two form is the only shape
    a zero divisor can take; at dimension 32 the scan still only covers
    this form.
    """
    G = table.signs
    quads, _, product = quad_sign_products(table.indices, G)
    # i >= 1 and k >= 1 keep the unit out, since j > i and l > k.
    hits = np.flatnonzero((product == 1) & (quads[:, 0] >= 1) & (quads[:, 2] >= 1))
    # The first hit is converted on its own, so a caller that reads one
    # zero divisor does not pay for converting them all.
    for part in (hits[:1], hits[1:]):
        found = quads[part]
        i, j, k, l = found.T
        for (a, b, c, d), sign in zip(found.tolist(), (G[j, k] * G[i, l]).tolist()):
            for s1 in (1, -1):
                yield ZeroDivisorPair(a + 1, b + 1, s1, c + 1, d + 1, -s1 * sign)


def radon(n: int) -> int:
    """Radon's function: for n = 2**(4c+d) * odd, 0 <= d < 4, returns 8c + 2**d."""
    if not n >= 1 or n == math.inf or int(n) != n:
        raise ValidationError(f"argument must be a positive integer, got {n!r}")
    n = int(n)
    a = 0
    while n % 2 == 0:
        n //= 2
        a += 1
    c, d = divmod(a, 4)
    return 8 * c + 2 ** d
