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
from typing import NamedTuple

import numpy as np

from .errors import InternalConsistencyError, SizeError, ValidationError

__all__ = ["LatinSquare", "CornerQuad", "construct_latin_square",
           "quad_sign_products", "enumerate_abba_quads"]

# Largest square exponent built: a 2**10 x 2**10 int64 square is 8 MiB.
SQUARE_MAX_W = 10
# Largest square the quad kernel closes: n = 2**7, the census ceiling.
QUAD_MAX_N = 128


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

    def column(self, j: int) -> np.ndarray:
        return self.entries[:, j - 1]

    def __eq__(self, other) -> bool:
        return (isinstance(other, LatinSquare) and self.w == other.w
                and bool(np.array_equal(self.entries, other.entries)))

    def __hash__(self) -> int:
        return hash((self.w, self.entries.tobytes()))

    def __repr__(self) -> str:
        return f"LatinSquare(w={self.w}, n={self.n})"


class CornerQuad(NamedTuple):
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
    the off-diagonal blocks.  Exponents above SQUARE_MAX_W raise
    SizeError before anything is allocated.
    """
    if w > SQUARE_MAX_W:
        raise SizeError(f"dimension exponent is limited to {SQUARE_MAX_W}, got {w!r}")
    if not w >= 0 or int(w) != w:
        raise ValidationError(f"dimension exponent must be a non-negative integer, got {w!r}")
    w = int(w)
    block = np.array([[1]], dtype=np.int64)
    for level in range(1, w + 1):
        half = 2 ** (level - 1)
        shifted = block + half
        block = np.block([[block, shifted], [shifted, block]])
    return LatinSquare(w, block)


@functools.lru_cache(maxsize=4)
def _quad_frame(symbol_bytes: bytes, n: int):
    """Symbol-only part of the quad kernel for one n x n square.

    Returns (quads, open_corners, gather), each read-only.  quads holds
    every closed AB-BA quad once, as rows (i, j, k, l) with i < j and
    k < l, in (i, j, k) order; open_corners holds the rows (i, j, k, l),
    i < j, whose partner column l (where row j holds S[i, k]) does not
    close the quad; gather holds the flat indices of G[i, k], G[i, l],
    G[j, k] and G[j, l] for each quad, one row per corner.  Built one
    row i at a time, so no n x n x n array is formed, and cached on the
    symbols, so squares that share their symbols share one frame.
    """
    S = np.frombuffer(symbol_bytes, dtype=np.int64).reshape(n, n)
    rows = np.arange(n)
    position = np.empty((n, n + 1), dtype=np.int64)
    position[rows[:, None], S] = rows[None, :]
    quads, corners = [], []
    for i in range(n - 1):
        # l[j', k] is the partner column for rows (i, i + 1 + j') and column k.
        l = position[i + 1:, S[i]]
        closes = S[i, l] == S[i + 1:]
        for part, mask in ((quads, closes & (rows < l)), (corners, ~closes)):
            jj, kk = np.nonzero(mask)
            part.append(np.stack((np.full_like(jj, i), jj + i + 1, kk, l[jj, kk]), axis=1))
    quads = np.concatenate(quads) if quads else np.empty((0, 4), dtype=np.int64)
    open_corners = np.concatenate(corners) if corners else np.empty((0, 4), dtype=np.int64)
    i, j, k, l = quads.T
    gather = np.stack((i * n + k, i * n + l, j * n + k, j * n + l))
    for arr in (quads, open_corners, gather):
        arr.setflags(write=False)
    return quads, open_corners, gather


def quad_sign_products(symbols, signs):
    """Close every AB-BA quad of a Latin square and multiply its signs.

    For rows i < j and column k (0-based) the partner column l is where
    row j holds symbols[i, k].  The quad closes when
    symbols[i, l] == symbols[j, k]; it then also closes from column l
    with partner k, and the same holds with i and j swapped.  Returns
    (quads, open_corners, product): quads is a (Q, 4) array of every
    closed quad once, as (i, j, k, l) with i < j and k < l, in
    (i, j, k) order; open_corners is a (C, 4) array of the corners
    (i, j, k, l), i < j, that fail to close; and product[q] is
    signs[i, k] * signs[i, l] * signs[j, k] * signs[j, l] for quad q.
    quads and open_corners depend on the symbols only: they come
    read-only from a small cache, so a repeat call on the same square
    pays only for four flat gathers of the signs.  A structured square
    has n**2 (n - 1) / 4 quads and no open corners; its cached frame
    holds 8 int64 per quad, about 16 n**3 bytes (33 MB at n = 128, where
    a first call peaks at about 54 MB).  Squares above QUAD_MAX_N raise
    SizeError before anything is allocated.

    Columns k and l are symbolically orthogonal exactly when every
    quad through them closes with product -1; a closed quad with
    product +1 and no index on the unit is a zero divisor
    (e_i +/- e_j)(e_k +/- e_l) of the table read from (symbols, signs).
    Exact integer arithmetic.
    """
    n = np.shape(symbols)[0]
    if n > QUAD_MAX_N:
        raise SizeError(f"the AB-BA quad kernel is limited to n <= {QUAD_MAX_N}, got n={n}")
    S = np.asarray(symbols, dtype=np.int64)
    quads, open_corners, gather = _quad_frame(S.tobytes(), n)
    g = np.asarray(signs, dtype=np.int64).ravel()
    return quads, open_corners, g[gather].prod(axis=0)


def enumerate_abba_quads(square: LatinSquare):
    """Yield every unordered AB-BA quad exactly once, in (j1, j2, i1) order.

    For each unordered column pair the rows split into n/2 disjoint
    quads, so the total count is C(n,2) * n/2.  A corner that fails to
    close raises InternalConsistencyError.
    """
    S = square.entries
    # On the transpose, rows j1 < j2 and column i1 close with partner
    # row i2 holding S[i1, j2] in column j1.
    quads, open_corners, _ = quad_sign_products(S.T, np.ones_like(S))
    if len(open_corners):
        raise InternalConsistencyError(
            "AB-BA partner missing; the square does not have the corner property")
    for j1, j2, i1, i2 in quads.tolist():
        yield CornerQuad(i1 + 1, j1 + 1, i2 + 1, j2 + 1, int(S[i1, j1]), int(S[i1, j2]))
