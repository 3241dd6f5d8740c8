"""Structured power-of-two Latin squares with the AB-BA corner property.

The square of dimension 2**w is built by block doubling: the upper-left
half repeats in the lower-right, and the off-diagonal blocks are the
upper-left block shifted by 2**(w-1).  Every row and column is a
permutation of 1..n, the matrix is symmetric, and for any two entries
a, b sitting in one row there is exactly one other row holding b, a in
the same pair of columns (the AB-BA property).  That cancellation
structure is what later makes signed versions orthogonal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, ValidationError

__all__ = ["LatinSquare", "CornerQuad", "construct_latin_square",
           "find_abba_partner", "quad_sign_products", "enumerate_abba_quads"]


class LatinSquare:
    """Immutable n x n Latin square, n = 2**w, entries in 1..n.

    Every row and every column must be a permutation of 1..n.  Indexing
    through :meth:`entry` is 1-based to match the usual combinatorial
    convention; ``entries`` exposes the raw 0-based array.
    """

    __slots__ = ("w", "n", "entries")

    def __init__(self, w: int, entries: np.ndarray):
        self.w = int(w)
        self.n = 2 ** self.w
        arr = np.asarray(entries, dtype=np.int64)
        if arr.shape != (self.n, self.n):
            raise ValidationError(
                f"expected a {self.n}x{self.n} matrix for w={w}, got {arr.shape}")
        symbols = np.arange(1, self.n + 1)
        if not ((np.sort(arr, axis=0) == symbols[:, None]).all()
                and (np.sort(arr, axis=1) == symbols[None, :]).all()):
            raise ValidationError(
                f"not a Latin square: every row and column must hold 1..{self.n} once")
        arr = arr.copy()
        arr.setflags(write=False)
        self.entries = arr

    def entry(self, i: int, j: int) -> int:
        """Entry at 1-based position (i, j)."""
        return int(self.entries[i - 1, j - 1])

    def row(self, i: int) -> np.ndarray:
        return self.entries[i - 1]

    def column(self, j: int) -> np.ndarray:
        return self.entries[:, j - 1]

    def __eq__(self, other) -> bool:
        return (isinstance(other, LatinSquare) and self.w == other.w
                and bool(np.array_equal(self.entries, other.entries)))

    def __hash__(self) -> int:
        return hash((self.w, self.entries.tobytes()))

    def __repr__(self) -> str:
        return f"LatinSquare(w={self.w}, n={self.n})"


@dataclass(frozen=True)
class CornerQuad:
    """Four entries S[i1,j1]=S[i2,j2]=a and S[i1,j2]=S[i2,j1]=b (1-based)."""

    i1: int
    j1: int
    i2: int
    j2: int
    a: int
    b: int


@functools.lru_cache(maxsize=8)
def construct_latin_square(w: int) -> LatinSquare:
    """Build the canonical block-recursive Latin square of dimension 2**w.

    Base case is the 1x1 matrix [[1]]; each doubling step places the
    previous square on the diagonal blocks and its shift by 2**(w-1) on
    the off-diagonal blocks.
    """
    if w < 0 or int(w) != w:
        raise ValidationError(f"dimension exponent must be a non-negative integer, got {w!r}")
    w = int(w)
    block = np.array([[1]], dtype=np.int64)
    for level in range(1, w + 1):
        half = 2 ** (level - 1)
        shifted = block + half
        block = np.block([[block, shifted], [shifted, block]])
    return LatinSquare(w, block)


def find_abba_partner(square: LatinSquare, i1: int, j1: int, j2: int) -> CornerQuad:
    """Complete the AB-BA quad through row i1 and columns j1 != j2.

    The partner row i2 is the unique row holding b = S[i1,j2] in column
    j1; the Latin property guarantees existence and uniqueness, and the
    AB-BA property guarantees S[i2,j2] == S[i1,j1].
    """
    if j1 == j2:
        raise ValidationError("column indices must differ")
    a = square.entry(i1, j1)
    b = square.entry(i1, j2)
    col = square.column(j1)
    i2 = int(np.nonzero(col == b)[0][0]) + 1
    if i2 == i1 or square.entry(i2, j2) != a:
        raise InternalConsistencyError(
            f"AB-BA partner missing for (i1={i1}, j1={j1}, j2={j2}); "
            "the square does not have the corner property")
    return CornerQuad(i1=i1, j1=j1, i2=i2, j2=j2, a=a, b=b)


def quad_sign_products(symbols, signs):
    """Close every AB-BA quad of a Latin square and multiply its signs.

    For each row pair (i, j) and column k (0-based) the partner column
    l is where row j holds symbols[i, k].  The quad closes when
    symbols[i, l] == symbols[j, k], and its sign product is
    signs[i, k] * signs[i, l] * signs[j, k] * signs[j, l].  Returns the
    three n x n x n arrays (partner, closes, product), indexed [i, j, k];
    the diagonal i == j is the degenerate quad l == k with product +1.

    Columns k and l are symbolically orthogonal exactly when every
    quad through them closes with product -1; a closed quad with
    product +1 and no index on the unit is a zero divisor
    (e_i +/- e_j)(e_k +/- e_l) of the table read from (symbols, signs).
    Exact integer arithmetic.
    """
    S = np.asarray(symbols, dtype=np.int64)
    G = np.asarray(signs, dtype=np.int64)
    n = S.shape[0]
    rows = np.arange(n)
    position = np.empty((n, n + 1), dtype=np.int64)
    position[rows[:, None], S] = rows[None, :]
    i = rows[:, None, None]
    j = rows[None, :, None]
    partner = position[j, S[:, None, :]]
    closes = S[i, partner] == S[j, rows]
    product = G[i, rows] * G[i, partner] * G[j, rows] * G[j, partner]
    return partner, closes, product


def enumerate_abba_quads(square: LatinSquare):
    """Yield every unordered AB-BA quad exactly once, in (j1, j2, i1) order.

    For each unordered column pair the rows split into n/2 disjoint
    quads, so the total count is C(n,2) * n/2.  A corner that fails to
    close raises InternalConsistencyError.
    """
    S = square.entries
    # On the transpose, row pair (j2, j1) and column i1 give the partner
    # row i2 holding S[i1, j2] in column j1.
    partner, closes, _ = quad_sign_products(S.T, np.ones_like(S))
    j1s, j2s = np.triu_indices(square.n, 1)
    if not closes[j2s, j1s].all():
        raise InternalConsistencyError(
            "AB-BA partner missing; the square does not have the corner property")
    for j1, j2, partner_rows in zip(j1s.tolist(), j2s.tolist(),
                                    partner[j2s, j1s].tolist()):
        for i1, i2 in enumerate(partner_rows):
            if i2 > i1:
                yield CornerQuad(i1=i1 + 1, j1=j1 + 1, i2=i2 + 1, j2=j2 + 1,
                                 a=int(S[i1, j1]), b=int(S[i1, j2]))
