"""Structured power-of-two Latin squares with the AB-BA corner property.

The square of dimension n = 2**w is the Cayley table of Z_2^w,
S[i, j] = (i XOR j) + 1 for 0-based i, j: the upper-left half repeats
in the lower-right, and the off-diagonal blocks are the upper-left
block shifted by 2**(w-1).  Every row and column is a
permutation of 1..n, the matrix is symmetric, and for any two entries
a, b sitting in one row there is exactly one other row holding b, a in
the same pair of columns (the AB-BA property).  That cancellation
structure is what later makes signed versions orthogonal.
"""

from __future__ import annotations

import functools
import numbers
from typing import NamedTuple

import numpy as np

from .errors import InternalConsistencyError, SizeError, ValidationError

__all__ = ["LatinSquare", "CornerQuad", "construct_latin_square", "enumerate_abba_quads"]

# Largest square exponent built: a 2**10 x 2**10 int64 square is 8 MiB.
SQUARE_MAX_W = 10
# Largest square the quad kernel closes: n = 2**7, the census ceiling.
QUAD_MAX_N = 128


def _integer(value, name: str, lo: int, limit: int | None = None) -> int:
    """The one screen for integer arguments, the scalar sibling of _screen:
    value as a Python int, once it is an integer (Python or numpy, not a
    bool) in lo..limit.  A number above limit raises SizeError, checked
    first, so inf and 6.5 there are too large rather than not integers;
    anything else out of range or not an integer raises ValidationError.
    """
    if limit is not None and isinstance(value, numbers.Real) and value > limit:
        raise SizeError(f"{name} is limited to {limit}, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo:
        bound = "a non-negative integer" if lo == 0 else f"an integer of at least {lo}"
        raise ValidationError(f"{name} must be {bound}, got {value!r}")
    return int(value)


def _screen(values, name: str, lo: int | None = None, hi: int | None = None,
            shape=None) -> np.ndarray:
    """The one screen for arrays a caller passes in: values must form a
    rectangular array of numbers (of the given shape, if any).  Without
    bounds, returns them as a new float array; with bounds lo..hi, as a
    new int64 array, once every entry is an integer in lo..hi (3.0 passes).
    """
    try:
        raw = np.asarray(values)
    except ValueError:  # ragged
        raw = None
    if raw is None or raw.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must be a rectangular array of numbers")
    if shape is not None and raw.shape != shape:
        raise ValidationError(f"{name} must form a {shape} array, got shape {raw.shape}")
    if lo is None:
        return raw.astype(float, order="C")
    # Before the cast, which truncates and wraps; nan and inf fail the bounds.
    if not (((lo <= raw) & (raw <= hi)).all()
            and (raw.dtype.kind != "f" or (raw == np.rint(raw)).all())):
        raise ValidationError(f"{name} must be integers in {lo}..{hi}")
    return raw.astype(np.int64)


def _square_order(entries, name: str) -> tuple[int, np.ndarray]:
    """(n, entries as an array) for an n x n matrix with n = 2**w.  n is
    read from the shape alone, so SizeError above 2**SQUARE_MAX_W comes
    before any copy of an array is made."""
    try:
        raw = np.asarray(entries)
    except ValueError:  # ragged
        raise ValidationError(f"{name} must be a rectangular array of numbers") from None
    n = raw.shape[0] if raw.ndim == 2 else 0
    if raw.shape != (n, n) or not n or n & (n - 1):
        raise ValidationError(f"{name} must form a 2**w x 2**w array, got shape {raw.shape}")
    if n > 2 ** SQUARE_MAX_W:
        raise SizeError(f"square order is limited to 2**{SQUARE_MAX_W}, got {n}")
    return n, raw


class LatinSquare:
    """Immutable n x n Latin square, n = 2**w, entries in 1..n.

    n is read from the shape of ``entries``, and every row and column
    must be a permutation of 1..n; ``entries`` holds them read-only.
    """

    __slots__ = ("w", "n", "entries", "_unit")

    def __init__(self, entries):
        self.n, raw = _square_order(entries, "Latin square entries")
        self.w = self.n.bit_length() - 1
        arr = _screen(raw, "Latin square entries", 1, self.n, (self.n, self.n))
        symbols = np.arange(1, self.n + 1)
        if not ((np.sort(arr, axis=0) == symbols[:, None]).all()
                and (np.sort(arr, axis=1) == symbols[None, :]).all()):
            raise ValidationError(
                f"not a Latin square: every row and column must hold 1..{self.n} once")
        arr.setflags(write=False)
        self.entries = arr
        self._unit = None

    @property
    def unit_structure(self) -> tuple[bool, bool]:
        """(row 1 and column 1 read 1..n, the diagonal is all 1s), computed
        on first use, so a square read only as a basis never pays for it."""
        if self._unit is None:
            S = self.entries
            unit = (S[0] == np.arange(1, self.n + 1)).all() and (S[:, 0] == S[0]).all()
            self._unit = (bool(unit), bool((np.diag(S) == 1).all()))
        return self._unit

    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, LatinSquare)
                                 and bool(np.array_equal(self.entries, other.entries)))

    def __hash__(self) -> int:
        return hash(self.entries.tobytes())

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


# Typed: untyped, the key of np.int64(1) or w=1 also matches True, which
# would then get the cached square without reaching the screen.
@functools.lru_cache(maxsize=8, typed=True)
def construct_latin_square(w: int) -> LatinSquare:
    """The structured Latin square of dimension 2**w, S[i, j] = (i XOR j) + 1.

    Exponents above SQUARE_MAX_W raise SizeError before anything is
    allocated.
    """
    w = _integer(w, "square exponent", 0, SQUARE_MAX_W)
    r = np.arange(2 ** w)
    return LatinSquare((r[:, None] ^ r) + 1)


def _quad_order(n: int) -> None:
    """The quad kernel's size guard: SizeError for n above QUAD_MAX_N.
    The frame checks it first; a caller may check it before it pays for
    anything the frame would then refuse."""
    if n > QUAD_MAX_N:
        raise SizeError(f"the AB-BA quad kernel is limited to n <= {QUAD_MAX_N}, got n={n}")


@functools.lru_cache(maxsize=4)
def _quad_frame(symbol_bytes: bytes, n: int):
    """Symbol-only part of the quad kernel for one n x n Latin square.

    For rows i < j and column k (0-based) the partner column l is where
    row j holds S[i, k]; the quad closes when S[i, l] == S[j, k], and
    then also closes from column l with partner k.  Returns (quads,
    open_corners, gather, unit_free), each read-only: quads holds every
    closed quad once, as rows (i, j, k, l) with i < j and k < l, in
    (i, j, k) order; open_corners holds the rows (i, j, k, l), i < j,
    whose partner column l does not close the quad; gather holds the
    flat indices of G[i, k], G[i, l], G[j, k] and G[j, l] for each quad,
    one row per corner; unit_free indexes the quads with i >= 1 and
    k >= 1, which keep row and column 0 (the unit of a table) out.

    A structured square has n**2 (n - 1) / 4 quads and no open corners,
    and its frame holds about 18 n**3 bytes (37 MB at n = 128, where a
    first decision peaks at about 58 MB).  Squares above QUAD_MAX_N raise
    SizeError before anything is allocated.  Built one row i at a time,
    so no n x n x n array is formed, and cached on the symbols, so
    squares that share their symbols share one frame.
    """
    _quad_order(n)
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
    unit_free = np.flatnonzero((i >= 1) & (k >= 1))
    for arr in (quads, open_corners, gather, unit_free):
        arr.setflags(write=False)
    return quads, open_corners, gather, unit_free


def _decide(square: LatinSquare, signs: np.ndarray):
    """The one rule that reads the checks of a signed square off its signs.

    signs is the (n, n) int64 sign matrix of a SignedLatinSquare on the
    symbols of square, taken as given.  Returns (quads, open_corners,
    product, verdict, hits): the quad frame's two read-only arrays;
    product[q] = G[i, k] G[i, l] G[j, k] G[j, l] for quad q, exact and
    read-only; the Latin-Hadamard verdict as a bool (every corner closes
    and every quad has product -1); and hits, the read-only int64 index
    of the unit-free quads with product +1, in quad order: each is a
    zero divisor (e_i +/- e_j)(e_k +/- e_l) of the table read from the
    square.
    """
    quads, open_corners, gather, unit_free = _quad_frame(square.entries.tobytes(), square.n)
    product = signs.ravel()[gather].prod(axis=0)
    # Each product is +/-1, so all are -1 exactly when the largest is;
    # initial=-1 covers n = 1, which has no quads.
    verdict = not len(open_corners) and bool(product.max(initial=-1) == -1)
    hits = unit_free[product[unit_free] == 1]
    for arr in (product, hits):
        arr.setflags(write=False)
    return quads, open_corners, product, verdict, hits


def enumerate_abba_quads(square: LatinSquare):
    """Yield every unordered AB-BA quad exactly once, in (j1, j2, i1) order.

    For each unordered column pair the rows split into n/2 disjoint
    quads, so the total count is C(n,2) * n/2.  A corner that fails to
    close raises InternalConsistencyError.
    """
    S = square.entries
    # On the transpose, rows j1 < j2 and column i1 close with partner
    # row i2 holding S[i1, j2] in column j1.
    quads, open_corners = _quad_frame(S.T.tobytes(), square.n)[:2]
    if len(open_corners):
        raise InternalConsistencyError(
            "AB-BA partner missing; the square does not have the corner property")
    j1, j2, i1, i2 = quads.T
    # Unnamed, so the int64 rows are freed once they are Python lists.
    yield from map(CornerQuad._make, np.stack(
        (i1 + 1, j1 + 1, i2 + 1, j2 + 1, S[i1, j1], S[i1, j2]), axis=1).tolist())
