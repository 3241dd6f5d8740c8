"""Sign assignments ("colorings") of the structured Latin square.

A coloring attaches +/-1 to every entry of the square so that each
column is orthogonal to the first column and each row to the first
row, when the symbols 1..n are read as independent indeterminates.
The free choices live on part of one column per doubling level;
everything else follows, block by block, from the AB-BA corner
relation and antisymmetry (see :func:`color`).

Orthogonality of *all* column pairs is then a property to be checked,
not a given: it holds for every coloring at n = 4 and n = 8 and for
none at n = 16.  The check reads one sign product per AB-BA quad
(latin.quad_sign_products) over exact integers, so the negative result
at n = 16 is bit-exact.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeError, ValidationError
from .latin import LatinSquare, construct_latin_square, quad_sign_products

__all__ = [
    "SignedLatinSquare", "num_free_choices",
    "choices_from_bitstring", "choices_to_bitstring", "color",
    "enumerate_colorings", "is_latin_hadamard",
    "partial_orthogonality_report", "sign_pattern_is_hadamard",
]

EXHAUSTIVE_MAX_W = 4


class SignedLatinSquare:
    """A structured Latin square together with a +/-1 sign for each entry.

    The signed entry H[i,j] = signs[i,j] * S[i,j] carries both pieces;
    |H| is always the underlying square.  First row and first column are
    positive and the diagonal below row one is negative, as produced by
    the coloring procedure.
    """

    __slots__ = ("square", "signs", "choices")

    def __init__(self, square: LatinSquare, signs: np.ndarray,
                 choices: tuple[int, ...] | None = None):
        n = square.n
        sgn = np.asarray(signs, dtype=np.int64)
        if sgn.shape != (n, n):
            raise ValidationError(f"sign matrix must be {n}x{n}, got {sgn.shape}")
        if not np.isin(sgn, (-1, 1)).all():
            raise ValidationError("sign matrix entries must be +1 or -1")
        if not (sgn[0] == 1).all() or not (sgn[:, 0] == 1).all():
            raise ValidationError("first row and first column must be positive")
        if n > 1 and not (np.diag(sgn)[1:] == -1).all():
            raise ValidationError("diagonal entries below row one must be negative")
        sgn = sgn.copy()
        sgn.setflags(write=False)
        self.square = square
        self.signs = sgn
        self.choices = None if choices is None else tuple(int(c) for c in choices)

    @property
    def n(self) -> int:
        return self.square.n

    @property
    def w(self) -> int:
        return self.square.w

    def signed_entries(self) -> np.ndarray:
        """The matrix of signed symbols, entries in {-n..-1, 1..n}."""
        return self.signs * self.square.entries

    def to_tuple(self) -> tuple[tuple[int, ...], ...]:
        """Canonical row-major serialization; defines matrix identity."""
        return tuple(tuple(int(v) for v in row) for row in self.signed_entries())

    @classmethod
    def from_signed_entries(cls, entries) -> "SignedLatinSquare":
        """Rebuild from a matrix of signed symbols.

        The entries must form a square array of integers (integral floats
        such as 3.0 are accepted) whose magnitudes make a Latin square.
        """
        try:
            raw = np.asarray(entries)
        except ValueError:
            raise ValidationError("signed matrix must be a rectangular array of numbers") from None
        if raw.dtype.kind not in "iuf":
            raise ValidationError("signed matrix must be a rectangular array of numbers")
        if raw.dtype.kind == "f" and not (np.isfinite(raw) & (raw == np.rint(raw))).all():
            raise ValidationError("signed matrix entries must be integers")
        arr = raw.astype(np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError("signed matrix must be square")
        n = arr.shape[0]
        w = int(n).bit_length() - 1
        if 2 ** w != n:
            raise ValidationError(f"dimension must be a power of two, got {n}")
        magnitude = np.abs(arr)
        square = LatinSquare(w, magnitude)
        return cls(square, np.sign(arr))

    def __eq__(self, other) -> bool:
        return (isinstance(other, SignedLatinSquare)
                and self.to_tuple() == other.to_tuple())

    def __hash__(self) -> int:
        return hash(self.to_tuple())

    def __repr__(self) -> str:
        return f"SignedLatinSquare(w={self.w}, choices={self.choices})"


def num_free_choices(w: int) -> int:
    """Number of free sign choices when coloring the 2**w square."""
    return 2 ** w - (w + 1)


def choices_from_bitstring(bits: str) -> tuple[int, ...]:
    """Map '0'/'1' characters to +1/-1 choices, leftmost bit first."""
    if not set(bits) <= {"0", "1"}:
        raise ValidationError(f"choice bitstring must be binary, got {bits!r}")
    return tuple(1 if b == "0" else -1 for b in bits)


def choices_to_bitstring(choices) -> str:
    return "".join("0" if c == 1 else "1" for c in choices)


def color(square: LatinSquare, choices) -> SignedLatinSquare:
    """Color the structured square from a vector of free +/-1 choices.

    The signs are built by block doubling from G = [[1]].  The level
    that doubles h to 2h consumes the next h - 1 choices as
    v = (1, choices...), the new block column above the diagonal
    (v[i] = G[i, h]).  Row h + a of the lower-left block closes each
    AB-BA quad through column h against its partner row x = S[a, j] - 1,
    giving L[a, j] = v[a] * v[x] * G[x, j]; the upper-right block is
    antisymmetric to it (U = -L^T, first row +1) and the lower-right
    block closes the quads against both (-G * U * L).  Choices are thus
    consumed level by level (doubling level 2 upward), then by
    increasing row index within the level.  Exact integer arithmetic;
    each sign is written once.
    """
    w = square.w
    choices = tuple(int(c) for c in choices)
    expected = num_free_choices(w)
    if len(choices) != expected:
        raise ValidationError(
            f"need exactly {expected} choices for w={w}, got {len(choices)}")
    if not all(c in (-1, 1) for c in choices):
        raise ValidationError("choices must be +1 or -1")
    if square != construct_latin_square(w):
        raise ValidationError("colorings are defined on the structured square only")

    S = square.entries
    G = np.ones((square.n, square.n), dtype=np.int64)
    pos = 0
    for level in range(w):
        h = 2 ** level
        v = np.array((1,) + choices[pos:pos + h - 1], dtype=np.int64)
        pos += h - 1
        x = S[:h, :h] - 1
        L = v[:, None] * v[x] * G[x, np.arange(h)]
        U = -L.T
        U[0] = 1
        G[h:2 * h, :h] = L
        G[:h, h:2 * h] = U
        G[h:2 * h, h:2 * h] = -G[:h, :h] * U * L
    return SignedLatinSquare(square, G, choices=choices)


def enumerate_colorings(square: LatinSquare):
    """Yield all 2**(2**w - (w+1)) colorings in bitstring order.

    Candidate index c maps to the bitstring format(c, '0{b}b') with
    '0' = '+' and '1' = '-', leftmost bit consumed first, so candidate
    order is reproducible.
    """
    if square.w > EXHAUSTIVE_MAX_W:
        raise SizeError(
            f"exhaustive enumeration is limited to w <= {EXHAUSTIVE_MAX_W} "
            f"({2 ** num_free_choices(EXHAUSTIVE_MAX_W)} candidates); got w={square.w}")
    b = num_free_choices(square.w)
    for idx in range(2 ** b):
        bits = format(idx, f"0{b}b") if b else ""
        yield color(square, choices_from_bitstring(bits))


def _non_orthogonal_pairs(S: np.ndarray, G: np.ndarray):
    """(k, l) column indices of every AB-BA quad that fails to close with
    product -1; exactly these column pairs have a nonzero dot product."""
    partner, closes, product = quad_sign_products(S, G)
    i, j, k = np.nonzero(~closes | (product != -1))
    off = i != j
    return k[off], partner[i[off], j[off], k[off]]


def is_latin_hadamard(H: SignedLatinSquare) -> bool:
    """True iff all columns and all rows are symbolically orthogonal."""
    S, G = H.square.entries, H.signs
    return not (_non_orthogonal_pairs(S, G)[0].size
                or _non_orthogonal_pairs(S.T, G.T)[0].size)


def partial_orthogonality_report(H: SignedLatinSquare) -> set:
    """Unordered 1-based column pairs whose symbolic dot product vanishes."""
    n = H.n
    failed = np.zeros((n, n), dtype=bool)
    k, l = _non_orthogonal_pairs(H.square.entries, H.signs)
    failed[k, l] = failed[l, k] = True
    k, l = np.nonzero(np.triu(~failed, 1))
    return set(zip((k + 1).tolist(), (l + 1).tolist()))


def sign_pattern_is_hadamard(H) -> bool:
    """True iff the bare sign matrix has pairwise orthogonal rows.

    Accepts a SignedLatinSquare or any square +/-1 array.
    """
    G = H.signs if isinstance(H, SignedLatinSquare) else np.asarray(H, dtype=np.int64)
    n = G.shape[0]
    if G.shape != (n, n) or not np.isin(G, (-1, 1)).all():
        raise ValidationError("expected a square matrix of +1/-1 signs")
    return bool(np.array_equal(G @ G.T, n * np.eye(n, dtype=np.int64)))
