"""Doubling algebras, zero-divisor scanning, and Radon's function.

Each algebra is given by its basis multiplication table: e_i * e_j is a
signed basis element.  Tables come either from the classical doubling
construction (complex numbers, quaternions, octonions, sedenions, ...)
or from a signed Latin square, whose entries are read directly as the
signed products.  Zero divisors of the form (e_i +/- e_j)(e_k +/- e_l),
which for dimension up to 16 are the only kind, are read off the exact
sign product of each AB-BA quad of the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coloring import SignedLatinSquare
from .errors import ValidationError
from .latin import LatinSquare, quad_sign_products

__all__ = ["AlgebraTable", "ZeroDivisorPair", "cayley_dickson_table",
           "table_from_signed_square", "find_zero_divisors", "radon"]


class AlgebraTable:
    """Basis multiplication table: e_i * e_j = signs[i,j] * e_{indices[i,j]}.

    1-based basis labels; e_1 is the unit and every other basis element
    squares to -e_1.  The unsigned table is a LatinSquare, which has
    already checked the Latin property; indices is its entries array.
    """

    __slots__ = ("dim", "signs", "indices")

    def __init__(self, signs: np.ndarray, square: LatinSquare):
        signs = np.asarray(signs, dtype=np.int64)
        indices = square.entries
        dim = square.n
        if signs.shape != (dim, dim):
            raise ValidationError(f"sign table must be {dim}x{dim}, got {signs.shape}")
        if not np.isin(signs, (-1, 1)).all():
            raise ValidationError("table signs must be +1 or -1")
        symbols = np.arange(1, dim + 1)
        if not ((indices[0] == symbols).all() and (signs[0] == 1).all()
                and (indices[:, 0] == symbols).all() and (signs[:, 0] == 1).all()):
            raise ValidationError("e_1 must act as a two-sided unit")
        if dim > 1 and not ((np.diag(indices)[1:] == 1).all()
                            and (np.diag(signs)[1:] == -1).all()):
            raise ValidationError("non-unit basis elements must square to -e_1")
        signs = signs.copy()
        signs.setflags(write=False)
        self.dim = dim
        self.signs = signs
        self.indices = indices

    def basis_product(self, i: int, j: int) -> tuple[int, int]:
        """e_i * e_j as (sign, basis index), 1-based."""
        return int(self.signs[i - 1, j - 1]), int(self.indices[i - 1, j - 1])

    def multiply(self, a, b) -> np.ndarray:
        """Bilinear product of integer coefficient vectors, exact."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape != (self.dim,) or b.shape != (self.dim,):
            raise ValidationError(f"coefficient vectors must have length {self.dim}")
        out = np.zeros(self.dim, dtype=np.int64)
        for i in np.nonzero(a)[0]:
            for j in np.nonzero(b)[0]:
                out[self.indices[i, j] - 1] += a[i] * b[j] * self.signs[i, j]
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgebraTable)
                and np.array_equal(self.signs, other.signs)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self) -> int:
        return hash((self.signs.tobytes(), self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"AlgebraTable(dim={self.dim})"


@dataclass(frozen=True)
class ZeroDivisorPair:
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
    if m < 0 or int(m) != m:
        raise ValidationError(f"dimension exponent must be a non-negative integer, got {m!r}")
    if m > 5:
        raise ValidationError("tables above dimension 32 are not supported")
    signs = np.array([[1]], dtype=np.int64)
    indices = np.array([[1]], dtype=np.int64)
    for _ in range(int(m)):
        h = signs.shape[0]
        conj = np.full(h, -1, dtype=np.int64)
        conj[0] = 1
        # Quadrants, left factor by row, right factor by column:
        #   (a,0)(c,0) = (ac, 0)      (a,0)(0,d) = (0, da)
        #   (0,b)(c,0) = (0, b conj(c))   (0,b)(0,d) = (-conj(d) b, 0)
        signs = np.block([
            [signs, signs.T],
            [signs * conj[None, :], -(signs.T * conj[None, :])],
        ])
        indices = np.block([
            [indices, indices.T + h],
            [indices + h, indices.T],
        ])
    return AlgebraTable(signs, LatinSquare(m, indices))


def table_from_signed_square(H: SignedLatinSquare) -> AlgebraTable:
    """Read a signed Latin square as a basis multiplication table."""
    return AlgebraTable(H.signs, H.square)


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
    partner, closes, product = quad_sign_products(table.indices, G)
    i, j, k = np.nonzero(closes & (product == 1))
    l = partner[i, j, k]
    keep = (i >= 1) & (j > i) & (k >= 1) & (l > k)
    i, j, k, l = i[keep], j[keep], k[keep], l[keep]
    cross = G[j, k] * G[i, l]
    for a, b, c, d, sign in zip(*(v.tolist() for v in (i + 1, j + 1, k + 1, l + 1, cross))):
        for s1 in (1, -1):
            yield ZeroDivisorPair(i=a, j=b, s1=s1, k=c, l=d, s2=-s1 * sign)


def radon(n: int) -> int:
    """Radon's function: for n = 2**(4c+d) * odd, 0 <= d < 4, returns 8c + 2**d."""
    if n < 1 or int(n) != n:
        raise ValidationError(f"argument must be a positive integer, got {n!r}")
    n = int(n)
    a = 0
    while n % 2 == 0:
        n //= 2
        a += 1
    c, d = divmod(a, 4)
    return 8 * c + 2 ** d
